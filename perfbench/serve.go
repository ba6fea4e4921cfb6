package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"simdb/internal/core"
)

// Query classes of the serving mix, with weights 4:3:2:1.
var serveClasses = []struct {
	name   string
	weight int
	pool   int // distinct statements drawn for the class
}{
	{"exact", 4, 150},
	{"jaccard", 3, 110},
	{"edit", 2, 75},
	{"broad", 1, 40},
}

// Serving parameters. The fixed rate keeps a 2-CPU host under half
// busy, well below the knee.
const (
	serveConns    = 2
	fixedRate     = 40.0
	sloLimit      = 150 * time.Millisecond
	maxLag        = 2 * time.Second
	clientTimeout = 10 * time.Second
)

// ladderFractions place the SLO ladder's rungs as fractions of the
// closed-loop rate.
var ladderFractions = []float64{0.6, 0.75, 0.9}

// statement is one query text with its reference answer.
type statement struct {
	class int
	text  string
	arg   string  // the query constant
	delta float64 // the Jaccard threshold (Jaccard classes)
	want  int64   // reference count
	cands int     // records sharing a token with the query (Jaccard classes)
}

// servePool draws each class's distinct statements from the records
// and computes their reference counts.
func servePool(r *rand.Rand, recs []review, ix *refIndex) [][]statement {
	// Broad queries draw from the 5th to 30th most frequent tokens:
	// frequent enough for thousands of candidates at δ=0.3, not so
	// frequent that one query scans most of the dataset.
	top := topTokens(recs, 30)[5:]
	asinCount := map[string]int64{}
	for _, rv := range recs {
		asinCount[rv.asin]++
	}
	pools := make([][]statement, len(serveClasses))
	for c, cl := range serveClasses {
		for k := 0; k < cl.pool; k++ {
			rv := recs[r.Intn(len(recs))]
			var st statement
			switch cl.name {
			case "exact":
				st = statement{text: fmt.Sprintf(
					"count(for $r in dataset %s where $r.asin = %s return $r.id)",
					dsName, quote(rv.asin)), want: asinCount[rv.asin]}
			case "jaccard":
				st = jaccardStatement(ix, rv.summary, 0.8)
			case "edit":
				q := typo(r, rv.name)
				st = statement{text: fmt.Sprintf(
					"count(for $r in dataset %s where edit-distance($r.reviewerName, %s) <= 1 return $r.id)",
					dsName, quote(q)), arg: q, want: int64(len(ix.editIDs(q, 1)))}
			case "broad":
				// Three frequent tokens: at δ=0.3 any record sharing one
				// of them is a candidate.
				p := r.Perm(len(top))
				st = jaccardStatement(ix, top[p[0]]+" "+top[p[1]]+" "+top[p[2]], 0.3)
			}
			st.class = c
			pools[c] = append(pools[c], st)
		}
	}
	return pools
}

func jaccardStatement(ix *refIndex, q string, delta float64) statement {
	toks := refTokens(q)
	return statement{
		text: fmt.Sprintf(
			"count(for $r in dataset %s where similarity-jaccard(word-tokens($r.summary), word-tokens(%s)) >= %g return $r.id)",
			dsName, quote(q), delta),
		arg:   q,
		delta: delta,
		want:  int64(len(ix.jaccardIDs(toks, delta))),
		cands: len(ix.candidates(toks)),
	}
}

// serveSequence draws n requests from the pools: a class by weight,
// then a statement uniformly within the class.
func serveSequence(r *rand.Rand, pools [][]statement, n int) []*statement {
	var wheel []int
	for c, cl := range serveClasses {
		for k := 0; k < cl.weight; k++ {
			wheel = append(wheel, c)
		}
	}
	seq := make([]*statement, n)
	for i := range seq {
		c := wheel[r.Intn(len(wheel))]
		seq[i] = &pools[c][r.Intn(len(pools[c]))]
	}
	return seq
}

// server drives one simdbd front end over the wire client. With a
// recorder it traces every request and keeps its per-layer figures.
type server struct {
	r   *run
	db  *core.Database
	c   *wireClient
	mu  sync.Mutex
	qls []queryLayers
}

// do sends one statement.
func (s *server) do(st *statement, lane int) outcome {
	t0 := time.Now()
	o, sum := s.c.query(context.Background(), st)
	if s.r.rec == nil {
		return o
	}
	id := s.r.rec.op("POST /query", "client", lane, t0, time.Since(t0))
	if t, ok := s.db.Cluster().Tracer().Get(sum.QueryID); ok && sum.QueryID != 0 {
		s.r.rec.importTrace(id, lane, t)
		s.mu.Lock()
		s.qls = append(s.qls, fromTrace(t, sum))
		s.mu.Unlock()
	}
	return o
}

// openPhase runs seq as an open loop at rate and counts every answer.
func (s *server) openPhase(rate float64, seq []*statement) []sample {
	samples := openLoop(rate, len(seq), serveConns, maxLag, func(i, lane int) outcome {
		return s.do(seq[i], lane)
	})
	for _, x := range samples {
		if !x.skipped {
			s.r.check(x.out)
		}
	}
	return samples
}

// satResult is a closed-loop phase: one client sending back to back.
type satResult struct {
	lat   []float64 // ms per request; a failure counts as the client timeout
	class []int
	ok    int
	wall  time.Duration
	cpu   time.Duration
}

// saturation sends seq back to back over one connection for d, so one
// client keeps the server busy. One client keeps the measurement
// steady: with two, the median swung between runs with how often two
// scans happened to overlap.
func (s *server) saturation(seq []*statement, d time.Duration) satResult {
	var res satResult
	cpu0 := treeCPU()
	outs, wall := backToBack(d, func(i int) outcome {
		st := seq[i%len(seq)]
		t0 := time.Now()
		o := s.do(st, 0)
		ms := float64(time.Since(t0)) / 1e6
		if !o.ok {
			ms = float64(clientTimeout) / 1e6
		}
		res.lat = append(res.lat, ms)
		res.class = append(res.class, st.class)
		return o
	})
	res.cpu, res.wall = treeCPU()-cpu0, wall
	for _, o := range outs {
		s.r.check(o)
		if o.ok {
			res.ok++
		}
	}
	return res
}

func runServe(r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	recs, err := genReviews(r.seed, baseRecord, 0)
	if err != nil {
		return err
	}
	ix := newRefIndex(recs)
	pools := servePool(rng, recs, ix)
	db, dir, setupS, err := setup(r.root, dbSpec{transport: "inproc", serve: true}, recs)
	if err != nil {
		return err
	}
	defer db.Close()
	db.Cluster().Tracer().SetEnabled(false)
	c := newWireClient("http://"+db.ServeAddr(), serveConns)
	defer c.close()
	s := &server{r: r, db: db, c: c}
	r.e2e["setup_s"] = setupS
	r.rep.note("data", fmt.Sprintf("%d records, %d bytes on disk (%d in LSM components), buffer cache %d bytes per node x 2 nodes",
		len(recs), dirBytes(dir), db.Metrics().Gauges["storage.disk.bytes"], int64(64<<20)))
	if r.traced {
		return serveTraced(s, rng, pools, ix, recs)
	}

	// Half the window is a closed loop, one request after another: the
	// end-to-end metrics. The rest is the open loop at a fixed rate over
	// both connections (30%) and the SLO ladder above it (20%).
	seq := serveSequence(rng, pools, 1<<14)
	pc0 := db.PlanCacheStats()
	sat := s.saturation(seq, r.window/2)
	pc := db.PlanCacheStats()
	classes := make([]string, len(serveClasses))
	for ci, cl := range serveClasses {
		classes[ci] = cl.name
	}
	cls := make([]string, len(sat.class))
	for i, c := range sat.class {
		cls[i] = classes[c]
	}
	r.latencyFigures(sat.lat, cls, classes)
	r.e2e["throughput_per_s"] = float64(sat.ok) / sat.wall.Seconds()
	r.e2e["cpu_ms_per_op"] = float64(sat.cpu) / 1e6 / float64(len(sat.lat))
	serveTraffic(r, seq[:len(sat.lat)], pc.Hits-pc0.Hits, pc.Misses-pc0.Misses)

	open := s.openPhase(fixedRate, serveSequence(rng, pools, int(fixedRate*(r.window*3/10).Seconds())))
	lat := latenciesMs(open)
	openTail, openPct := tail(lat, 99)
	r.rep.add("open.p50_ms", median(lat), "ms", fmt.Sprintf("open loop at %.0f q/s, timed from when due", fixedRate))
	r.rep.add("open.p99_ms", openTail, "ms", fmt.Sprintf("p%.1f of %d", openPct, len(lat)))
	// The ladder's rungs are fractions of the closed-loop rate; the
	// fixed-rate phase is its first rung.
	capacity := r.e2e["throughput_per_s"]
	rungs := []ladderRung{{rate: fixedRate, tailMs: openTail, pct: openPct, skipped: skippedCount(open)}}
	step := r.window / 5 / time.Duration(len(ladderFractions))
	for _, f := range ladderFractions {
		rate := f * capacity
		if rate <= rungs[len(rungs)-1].rate {
			continue
		}
		ss := s.openPhase(rate, serveSequence(rng, pools, int(rate*step.Seconds())))
		l := latenciesMs(ss)
		g := ladderRung{rate: rate, skipped: skippedCount(ss)}
		g.tailMs, g.pct = tail(l, 99)
		rungs = append(rungs, g)
		r.rep.add(fmt.Sprintf("ladder.%.0f%%.tail_ms", 100*f), g.tailMs, "ms",
			fmt.Sprintf("at %.1f q/s: p%.1f of %d, %d unsent, meets %v: %v", rate, g.pct, len(l), g.skipped, sloLimit, g.meets()))
	}
	r.rep.add("slo_qps", sloQPS(rungs), "q/s", fmt.Sprintf("tail limit %v, interpolated on the ladder", sloLimit))
	r.e2e["rss_peak_mb"] = treeRSSPeakMB()
	return nil
}

// serveTraced is the traced run: a quarter of the window is the closed
// loop untraced and a quarter traced, for the tracing overhead; the
// other half is the traced open loop, for the generator figures. The index
// funnel, absent from the wire summary, comes from replaying the
// traced statements in process.
func serveTraced(s *server, rng *rand.Rand, pools [][]statement, ix *refIndex, recs []review) error {
	r := s.r
	untraced := s.saturation(serveSequence(rng, pools, 1<<14), r.window/4)
	r.startTrace(s.db)
	probe := startProbe(s.db.Metrics)
	seq := serveSequence(rng, pools, 1<<14)
	traced := s.saturation(seq, r.window/4)
	open := s.openPhase(fixedRate, serveSequence(rng, pools, int(fixedRate*(r.window/2).Seconds())))
	r.layers.addProbe(probe, len(traced.lat)+len(open), 0)
	r.layers.addQueries(s.qls)
	r.layers.addGenerator(open)
	r.layers["trace.overhead_pct"] = 100 * (median(traced.lat) - median(untraced.lat)) / median(untraced.lat)

	var funnels []funnel
	pairs := &pairSet{}
	seen := map[*statement]bool{}
	for _, st := range seq[:len(traced.lat)] {
		if seen[st] || len(seen) >= 80 {
			continue
		}
		seen[st] = true
		res, err := s.db.Execute(context.Background(), s.db.NewSession(), st.text)
		if err != nil {
			return fmt.Errorf("funnel replay: %w", err)
		}
		funnels = append(funnels, *fromStats(res.Stats).funnel)
		switch serveClasses[st.class].name {
		case "jaccard", "broad":
			pairs.addJaccard(refTokens(st.arg), st.delta, ix)
		case "edit":
			pairs.addEdit(st.arg, 1, ix)
		}
	}
	r.layers.addFunnels(funnels)
	replayTokSim(r, recs, pairs)
	r.endTrace(s.db)
	return nil
}

// latenciesMs returns each sample's latency from its due time in ms; a
// failed or skipped request counts as the client timeout, so it misses
// any latency limit.
func latenciesMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		d := s.latency()
		if s.skipped || !s.out.ok {
			d = clientTimeout
		}
		out[i] = float64(d) / 1e6
	}
	return out
}

// ladderRung is one fixed rate of the SLO ladder.
type ladderRung struct {
	rate, tailMs, pct float64
	skipped           int
}

func (g ladderRung) meets() bool {
	return g.skipped == 0 && g.tailMs <= float64(sloLimit)/1e6
}

// sloQPS is the highest offered rate whose tail latency meets sloLimit
// with no backlog left unsent, interpolated linearly in tail latency
// between the last rung that meets it and the first that does not. A
// rung that misses on backlog alone gives no slope to interpolate on.
func sloQPS(rungs []ladderRung) float64 {
	limit := float64(sloLimit) / 1e6
	for i, g := range rungs {
		if g.meets() {
			continue
		}
		backlogOnly := g.tailMs <= limit
		if i == 0 {
			if backlogOnly {
				return 0
			}
			return g.rate * limit / g.tailMs
		}
		a := rungs[i-1]
		if backlogOnly {
			return a.rate
		}
		return a.rate + (g.rate-a.rate)*(limit-a.tailMs)/(g.tailMs-a.tailMs)
	}
	return rungs[len(rungs)-1].rate
}

// serveTraffic records the traffic a phase produced: class shares,
// the share of requests repeating an earlier statement with the plan
// cache's hit ratio beside it, and reference candidates per query.
func serveTraffic(r *run, seq []*statement, hits, misses int64) {
	counts := make([]int, len(serveClasses))
	seen := map[*statement]bool{}
	repeats := 0
	cands := make([][]float64, len(serveClasses))
	for _, st := range seq {
		counts[st.class]++
		if seen[st] {
			repeats++
		}
		seen[st] = true
		cands[st.class] = append(cands[st.class], float64(st.cands))
	}
	n := float64(len(seq))
	for c, cl := range serveClasses {
		r.rep.add("share."+cl.name, float64(counts[c])/n, "ratio", "")
	}
	r.rep.add("repeat_share", float64(repeats)/n, "ratio", "requests whose statement was sent before in the phase")
	r.rep.add("plancache.hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio", "over the closed loop")
	for c, cl := range serveClasses {
		if cl.name == "jaccard" || cl.name == "broad" {
			r.rep.add(cl.name+".records_sharing_a_token", mean(cands[c]), "count", "per query, from the reference index")
		}
	}
}

func skippedCount(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.skipped {
			n++
		}
	}
	return n
}
