package main

import (
	"runtime"
	"sort"
	"strings"

	"simdb/internal/cluster"
	"simdb/internal/obs"
	"simdb/internal/obs/trace"
)

// metricDef names one reported metric. For a per-layer metric, layer
// is the module it measures and moves the end-to-end metric (and, in
// parentheses, the workload figure) it should move.
type metricDef struct {
	name, unit, better string
	layer, moves       string
	// node0 marks a metric read from Cluster.Metrics storage gauges,
	// which in tcp mode cover node 0 only.
	node0 bool
}

// endToEnd are the metrics every workload reports with tracing off.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "rss_peak_mb", unit: "MB", better: "lower"},
	{name: "query.mix_p50_ms", unit: "ms", better: "lower"},
	{name: "throughput_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower"},
}

// opKinds are the operator kinds reported per layer; others fold into
// "other".
var opKinds = []string{
	"DataScan", "SecondaryIndexSearch", "PrimaryIndexLookup", "Select",
	"Assign", "Unnest", "HashJoin", "NestedLoopJoin", "JoinPostSelect",
	"HashGroup", "Sort", "Aggregate", "Replicate", "other",
}

// perLayer are the metrics the traced run reports. Counts and times
// are per query unless the name or unit says otherwise.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"simdbd.wire_ms", "ms", "lower", "simdbd", "throughput_per_s (query.p99_ms, slo_qps)", false},
		{"simdbd.ttfb_ms", "ms", "lower", "simdbd", "query.mix_p50_ms (query.p99_ms)", false},
		{"gen.queue_ms", "ms", "lower", "generator", "query.mix_p50_ms (query.p99_ms)", false},
		{"gen.late_ms", "ms", "lower", "generator", "query.mix_p50_ms (query.p99_ms; a generator fault, not the system's)", false},
		{"admission.wait_us", "us", "lower", "cluster.querymanager", "query.mix_p50_ms (query.p99_ms)", false},
		{"plancache.hit_ratio", "ratio", "higher", "cluster.plancache", "query.mix_p50_ms (exact/jaccard/edit.p50_ms)", false},
		{"plancache.evictions", "count", "lower", "cluster.plancache", "query.mix_p50_ms (exact/jaccard/edit.p50_ms)", false},
		{"parse.us", "us", "lower", "aqlp", "query.mix_p50_ms (exact/jaccard/edit.p50_ms)", false},
		{"translate.us", "us", "lower", "aqlp", "query.mix_p50_ms (exact/jaccard/edit.p50_ms)", false},
		{"optimize.us", "us", "lower", "optimizer", "query.mix_p50_ms (exact/jaccard/edit.p50_ms)", false},
		{"specialized_frac", "ratio", "higher", "optimizer", "query.mix_p50_ms", false},
		{"jobgen.us", "us", "lower", "cluster.jobgen", "query.mix_p50_ms (class p50s)", false},
		{"exec.ms", "ms", "lower", "hyracks", "query.mix_p50_ms (class p50s)", false},
	}
	for _, k := range opKinds {
		m = append(m,
			metricDef{"op." + k + ".busy_ms", "ms", "lower", "hyracks", "query.mix_p50_ms (p50 of the class running " + k + ")", false},
			metricDef{"op." + k + ".tuples", "count", "lower", "hyracks", "query.mix_p50_ms (p50 of the class running " + k + ")", false})
	}
	m = append(m, []metricDef{
		{"spill.runs", "count", "lower", "hyracks.spill", "query.mix_p50_ms (query.p99_ms, spill.p50_ms)", false},
		{"spill.bytes", "bytes", "lower", "hyracks.spill", "query.mix_p50_ms (query.p99_ms, spill.p50_ms)", false},
		{"spill.avg_run_kb", "KiB", "higher", "hyracks.spill", "query.mix_p50_ms (query.p99_ms, spill.p50_ms)", false},
		{"mem.highwater_over_budget", "ratio", "lower", "hyracks.memory", "query.mix_p50_ms (query.p99_ms, spill.p50_ms)", false},
		{"bytes_shuffled", "bytes", "lower", "hyracks.connectors", "query.mix_p50_ms (inlj/threestage.p50_ms)", false},
		{"net_messages", "count", "lower", "hyracks.connectors", "query.mix_p50_ms (inlj/threestage.p50_ms)", false},
		{"transport.tcp.bytes", "bytes", "lower", "transport", "query.mix_p50_ms (inlj/threestage.p50_ms)", true},
		{"transport.tcp.frames", "count", "lower", "transport", "query.mix_p50_ms (inlj/threestage.p50_ms)", true},
		{"transport.bytes_per_frame", "bytes", "higher", "transport", "query.mix_p50_ms (inlj/threestage.p50_ms)", true},
		{"transport.overhead_ms", "ms", "lower", "transport", "query.mix_p50_ms (inlj/threestage.p50_ms)", false},
		{"index.searches", "count", "lower", "invindex", "query.mix_p50_ms (jaccard/edit/broad/inlj.p50_ms)", false},
		{"postings.read", "count", "lower", "invindex", "query.mix_p50_ms (jaccard/edit/broad/inlj.p50_ms)", false},
		{"candidates", "count", "lower", "invindex", "query.mix_p50_ms (jaccard/edit/broad/inlj.p50_ms)", false},
		{"verified", "count", "lower", "invindex", "query.mix_p50_ms (jaccard/edit/broad/inlj.p50_ms)", false},
		{"verify.precision", "ratio", "higher", "invindex", "query.mix_p50_ms (broad.p50_ms)", false},
		{"occurrence_t", "count", "higher", "invindex", "query.mix_p50_ms (jaccard/edit.p50_ms)", false},
		{"tokenize.ns_per_record", "ns", "lower", "tokenizer", "query.mix_p50_ms (broad/threestage.p50_ms)", false},
		{"verify.ns_per_pair", "ns", "lower", "sim", "query.mix_p50_ms (broad/threestage.p50_ms)", false},
		{"cache.hit_ratio", "ratio", "higher", "storage.read", "query.mix_p50_ms (query.p99_ms)", true},
		{"cache.pages_read", "count", "lower", "storage.read", "query.mix_p50_ms (query.p99_ms)", true},
		{"cache.evictions", "count", "lower", "storage.read", "query.mix_p50_ms (query.p99_ms)", true},
		{"bloom.negative_ratio", "ratio", "higher", "storage.read", "query.mix_p50_ms (query.p99_ms)", true},
		{"wal.fsyncs_per_batch", "count", "lower", "storage.wal", "throughput_per_s (ingest.records_per_s, ingest.ack_p99_ms)", true},
		{"wal.group_size_p50", "count", "higher", "storage.wal", "throughput_per_s (ingest.records_per_s)", true},
		{"flush.count", "count", "lower", "storage.lsm", "throughput_per_s (ingest.records_per_s)", true},
		{"flush.ms", "ms", "lower", "storage.lsm", "throughput_per_s, query.mix_p50_ms (query.p99_ms)", true},
		{"merge.count", "count", "lower", "storage.lsm", "throughput_per_s (ingest.records_per_s)", true},
		{"merge.ms", "ms", "lower", "storage.lsm", "throughput_per_s, query.mix_p50_ms (query.p99_ms)", true},
		{"stall.count", "count", "lower", "storage.lsm", "throughput_per_s (ingest.ack_p99_ms)", true},
		{"stall.ms", "ms", "lower", "storage.lsm", "throughput_per_s (ingest.ack_p99_ms)", true},
		{"write_amp", "ratio", "lower", "storage.lsm", "throughput_per_s (ingest.records_per_s)", false},
		{"space_amp", "ratio", "lower", "storage.lsm", "query.mix_p50_ms (query.p99_ms)", false},
		{"ingest.queue_depth_max", "count", "lower", "cluster.ingest", "throughput_per_s (ingest.ack_p99_ms)", true},
		{"ingest.rollbacks", "count", "lower", "cluster.ingest", "throughput_per_s (ingest.records_per_s)", false},
		{"go.alloc_kb_per_op", "KiB", "lower", "go runtime", "all latency metrics", false},
		{"go.gc_pause_ms", "ms", "lower", "go runtime", "all latency metrics", false},
	}...)
	for _, l := range traceLayers {
		m = append(m, metricDef{"self." + l + "_ms", "ms", "lower", l, "query.mix_p50_ms (self time per query)", false})
	}
	m = append(m, metricDef{"trace.overhead_pct", "%", "lower", "obs/trace", "none: traced minus untraced median latency", false})
	return m
}()

// opKind folds an operator instance name to its kind: "DataScan(ds)",
// "Select[batched][compiled]" and "HashGroupLocal" become "DataScan",
// "Select" and "HashGroup".
func opKind(name string) string {
	if i := strings.IndexAny(name, "(["); i >= 0 {
		name = name[:i]
	}
	name = strings.TrimSuffix(strings.TrimSuffix(name, "Local"), "Final")
	if name == "SortForGroup" || name == "SortGroup" {
		name = "Sort"
	}
	for _, k := range opKinds {
		if k == name {
			return k
		}
	}
	return "other"
}

// queryLayers is one query's per-layer figures, read from its
// QueryStats or from its trace and wire summary.
type queryLayers struct {
	admissionNs, parseNs, translateNs, optimizeNs, jobgenNs, execNs int64
	specialized                                                     bool
	opBusyNs, opTuples                                              map[string]int64
	spillRuns, spillBytes, memHighWater, memBudget                  int64
	bytesShuffled, netMessages                                      int64
	funnel                                                          *funnel
}

// funnel is a query's inverted-index funnel.
type funnel struct {
	searches, postings, candidates, verified, occurrenceT int64
}

func fromStats(s cluster.QueryStats) queryLayers {
	q := queryLayers{
		admissionNs: s.AdmissionNs, parseNs: s.ParseNs, translateNs: s.TranslateNs,
		optimizeNs: s.OptimizeNs, jobgenNs: s.JobGenNs, execNs: s.ExecNs,
		specialized: s.Specialized,
		opBusyNs:    map[string]int64{}, opTuples: map[string]int64{},
		spillRuns: s.SpillRuns, spillBytes: s.SpilledBytes,
		memHighWater: s.MemHighWater, memBudget: s.MemBudget,
		bytesShuffled: s.BytesShuffled, netMessages: s.NetMessages,
		funnel: &funnel{s.IndexSearches, s.PostingsRead, s.CandidatesTotal, s.VerifiedTotal, s.OccurrenceT},
	}
	for _, op := range s.PhysicalOps {
		k := opKind(op.Name)
		q.opBusyNs[k] += op.BusyNs
		q.opTuples[k] += op.TuplesOut
	}
	return q
}

// fromTrace reads a served query's figures from its program trace and
// wire summary; the trace carries no index funnel.
func fromTrace(t *trace.Trace, sum wireSummary) queryLayers {
	q := queryLayers{
		admissionNs: sum.AdmissionNs, execNs: sum.ExecNs,
		specialized: sum.Specialized, spillRuns: sum.SpillRuns,
		opBusyNs: map[string]int64{}, opTuples: map[string]int64{},
	}
	for _, sp := range t.Spans() {
		switch {
		case sp.Cat == trace.CatOperator:
			k := opKind(sp.Name)
			q.opBusyNs[k] += argOf(sp, "busy_ns")
			q.opTuples[k] += argOf(sp, "tuples_out")
		case sp.Name == "parse":
			q.parseNs = sp.DurNs
		case sp.Name == "compile":
			q.translateNs = argOf(sp, "translate_ns")
			q.optimizeNs = argOf(sp, "optimize_ns")
		case sp.Name == "jobgen":
			q.jobgenNs = sp.DurNs
		case sp.Name == "execute":
			q.bytesShuffled = argOf(sp, "bytes_shuffled")
			q.netMessages = argOf(sp, "net_messages")
		}
	}
	return q
}

func argOf(sp trace.Span, key string) int64 {
	for _, a := range sp.Args {
		if a.Key == key {
			return a.Val
		}
	}
	return 0
}

// layerProbe brackets the traced window: program metrics, Go runtime
// figures and bytes written at its start.
type layerProbe struct {
	metrics func() obs.Snapshot
	snap    obs.Snapshot
	mem     runtime.MemStats
	wchar   int64
}

func startProbe(metrics func() obs.Snapshot) *layerProbe {
	p := &layerProbe{metrics: metrics, snap: metrics(), wchar: procWriteChars()}
	runtime.ReadMemStats(&p.mem)
	return p
}

// layerSet accumulates a traced run's per-layer metrics.
type layerSet map[string]float64

// addQueries averages per-query figures over qs.
func (m layerSet) addQueries(qs []queryLayers) {
	n := float64(len(qs))
	if n == 0 {
		return
	}
	var spec float64
	var fun []funnel
	var hw float64
	for _, q := range qs {
		m["admission.wait_us"] += float64(q.admissionNs) / 1e3 / n
		m["parse.us"] += float64(q.parseNs) / 1e3 / n
		m["translate.us"] += float64(q.translateNs) / 1e3 / n
		m["optimize.us"] += float64(q.optimizeNs) / 1e3 / n
		m["jobgen.us"] += float64(q.jobgenNs) / 1e3 / n
		m["exec.ms"] += float64(q.execNs) / 1e6 / n
		for k, v := range q.opBusyNs {
			m["op."+k+".busy_ms"] += float64(v) / 1e6 / n
		}
		for k, v := range q.opTuples {
			m["op."+k+".tuples"] += float64(v) / n
		}
		m["spill.runs"] += float64(q.spillRuns) / n
		m["spill.bytes"] += float64(q.spillBytes) / n
		m["bytes_shuffled"] += float64(q.bytesShuffled) / n
		m["net_messages"] += float64(q.netMessages) / n
		if q.specialized {
			spec++
		}
		if q.memBudget > 0 {
			hw = max(hw, float64(q.memHighWater)/float64(q.memBudget))
		}
		if q.funnel != nil {
			fun = append(fun, *q.funnel)
		}
	}
	m["specialized_frac"] = spec / n
	m["mem.highwater_over_budget"] = hw
	if runs := m["spill.runs"]; runs > 0 {
		m["spill.avg_run_kb"] = m["spill.bytes"] / runs / 1024
	}
	m.addFunnels(fun)
}

// addFunnels averages inverted-index funnels over the queries that
// carried one.
func (m layerSet) addFunnels(fs []funnel) {
	n := float64(len(fs))
	if n == 0 {
		return
	}
	var cand, ver float64
	for _, f := range fs {
		m["index.searches"] += float64(f.searches) / n
		m["postings.read"] += float64(f.postings) / n
		cand += float64(f.candidates)
		ver += float64(f.verified)
		m["occurrence_t"] = max(m["occurrence_t"], float64(f.occurrenceT))
	}
	m["candidates"] = cand / n
	m["verified"] = ver / n
	m["verify.precision"] = ratio(ver, cand)
}

// addProbe adds the program-counter deltas, Go runtime figures and
// storage amplification over the traced window. ops is the number of
// operations (queries and insert batches) in it, batches the insert
// batches alone.
func (m layerSet) addProbe(p *layerProbe, ops, batches int) {
	end := p.metrics()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c := func(name string) float64 { return float64(end.Counters[name] - p.snap.Counters[name]) }
	g := func(name string) float64 { return float64(end.Gauges[name] - p.snap.Gauges[name]) }
	hsum := func(name string) float64 {
		return float64(end.Histograms[name].Sum - p.snap.Histograms[name].Sum)
	}
	m["plancache.hit_ratio"] = ratio(g("cluster.plancache.hits"), g("cluster.plancache.hits")+g("cluster.plancache.misses"))
	m["plancache.evictions"] = g("cluster.plancache.evictions")
	m["transport.tcp.bytes"] = ratio(c("hyracks.transport.tcp.bytes"), float64(ops))
	m["transport.tcp.frames"] = ratio(c("hyracks.transport.tcp.frames"), float64(ops))
	m["transport.bytes_per_frame"] = ratio(c("hyracks.transport.tcp.bytes"), c("hyracks.transport.tcp.frames"))
	m["cache.hit_ratio"] = ratio(g("storage.cache.hits"), g("storage.cache.hits")+g("storage.cache.misses"))
	m["cache.pages_read"] = g("storage.cache.pages_read")
	m["cache.evictions"] = g("storage.cache.evictions")
	m["bloom.negative_ratio"] = ratio(c("storage.bloom.negatives"), c("storage.bloom.checks"))
	m["wal.fsyncs_per_batch"] = ratio(c("storage.wal.fsyncs"), float64(batches))
	// The histogram's p50 spans the process lifetime, set-up included.
	m["wal.group_size_p50"] = float64(end.Histograms["storage.wal.group_size"].P50)
	m["flush.count"] = c("storage.flush.count")
	m["flush.ms"] = hsum("storage.flush.ns") / 1e6
	m["merge.count"] = c("storage.merge.count")
	m["merge.ms"] = hsum("storage.merge.ns") / 1e6
	m["stall.count"] = c("storage.stall.count")
	m["stall.ms"] = hsum("storage.stall.ns") / 1e6
	m["ingest.rollbacks"] = c("cluster.ingest.rollbacks")
	m["go.alloc_kb_per_op"] = ratio(float64(mem.TotalAlloc-p.mem.TotalAlloc)/1024, float64(ops))
	m["go.gc_pause_ms"] = float64(mem.PauseTotalNs-p.mem.PauseTotalNs) / 1e6
}

// complete fills every per-layer metric the workload did not exercise
// with 0, so each traced run reports the full set.
func (m layerSet) complete() {
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
}

// node0Only lists the metrics that, under the tcp transport, cover
// node 0 alone.
func node0Only() []string {
	var out []string
	for _, d := range perLayer {
		if d.node0 {
			out = append(out, d.name)
		}
	}
	sort.Strings(out)
	return out
}

// addGenerator adds the wire and open-loop generator figures of the
// requests that completed.
func (m layerSet) addGenerator(ss []sample) {
	var wire, ttfb, queue, late []float64
	for _, s := range ss {
		if s.skipped || !s.out.ok {
			continue
		}
		wire = append(wire, float64((s.done-s.sent).Nanoseconds()-s.out.serverNs)/1e6)
		ttfb = append(ttfb, float64(s.out.ttfb)/1e6)
		queue = append(queue, float64(s.queueWait())/1e6)
		late = append(late, float64(s.late())/1e6)
	}
	m["simdbd.wire_ms"] = mean(wire)
	m["simdbd.ttfb_ms"] = mean(ttfb)
	m["gen.queue_ms"] = mean(queue)
	m["gen.late_ms"] = mean(late)
}
