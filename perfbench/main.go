// Command perfbench is SimDB's benchmark. It drives the system only
// from outside — the simdbd HTTP wire, core.Database, and the public
// tokenizer and sim functions — on inputs it generates from --seed,
// checks every answer, and prints one JSON result line.
//
//	perfbench --workload serve-search --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with the program's tracing off. With --trace 1 it carries the
// per-layer metrics instead, and the run also writes the spans it
// recorded as Chrome trace-event JSON. A human-readable report goes to
// standard error. A wrong answer makes the exit status 1; a run that
// cannot complete exits 2 without a result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"simdb/internal/core"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"serve-search": runServe,
	"analytic":     func(r *run) error { return runAnalytic(r, "inproc") },
	"analytic-tcp": func(r *run) error { return runAnalytic(r, "tcp") },
	"ingest-read":  runIngest,
}

// run is one benchmark invocation's inputs and accumulated results.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	root     string // scratch directory for this run's databases
	outDir   string

	attempted, failed int
	wrongs            int      // failed operations whose answer was wrong
	errs              []string // the first few failures, verbatim

	e2e    map[string]float64
	layers layerSet
	rec    *recorder
	rep    report
}

// check counts one operation and its outcome.
func (r *run) check(o outcome) {
	r.attempted++
	if !o.ok {
		r.failed++
		if o.wrong {
			r.wrongs++
		}
		r.logErr(o.err)
	}
}

// wrongAnswer records a failed cross-check between answers, such as
// two plans of one query disagreeing.
func (r *run) wrongAnswer(format string, args ...any) {
	r.attempted++
	r.failed++
	r.wrongs++
	r.logErr(fmt.Sprintf(format, args...))
}

// timedFigures sets the latency metrics of closed-loop queries.
func (r *run) timedFigures(ts []timed, classes []string) {
	lat := make([]float64, len(ts))
	cls := make([]string, len(ts))
	for i, t := range ts {
		lat[i], cls[i] = float64(t.lat)/1e6, t.q.class
	}
	r.latencyFigures(lat, cls, classes)
}

// latencyFigures sets the end-to-end latency metrics from per-query
// latencies in ms and their classes, and reports each class's p50 and
// the overall median. query.mix_p50_ms weights each class's p50 by the
// class's share of the queries: the median of a mix of classes lands in
// the sparse tail of whichever class straddles it, and moves from run
// to run far more than any class's own median.
func (r *run) latencyFigures(lat []float64, class []string, classes []string) {
	by := map[string][]float64{}
	for i, ms := range lat {
		by[class[i]] = append(by[class[i]], ms)
	}
	mix := 0.0
	for _, c := range classes {
		p := median(by[c])
		mix += p * float64(len(by[c])) / float64(len(lat))
		r.rep.add(c+".p50_ms", p, "ms", fmt.Sprintf("%d samples", len(by[c])))
	}
	r.e2e["query.mix_p50_ms"] = mix
	r.rep.add("query.p50_ms", median(lat), "ms", fmt.Sprintf("median of all %d queries", len(lat)))
	r.tailFigures(lat)
}

// tailFigures reports the p95 and p99 of latencies xs, in ms, each
// with the percentile it reached under the ten-samples-beyond rule.
func (r *run) tailFigures(xs []float64) {
	for _, q := range []float64{95, 99} {
		v, pct := tail(xs, q)
		r.rep.add(fmt.Sprintf("query.p%.0f_ms", q), v, "ms", fmt.Sprintf("p%.1f of %d samples", pct, len(xs)))
	}
}

func (r *run) logErr(msg string) {
	if len(r.errs) < 5 {
		r.errs = append(r.errs, msg)
	}
}

func main() {
	core.MaybeRunWorker()
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for databases, traces and reports")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %v --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	r := &run{
		workload: *name, seed: *seed, traced: *traced == 1,
		window: time.Duration(*seconds * float64(time.Second)),
		outDir: *out, e2e: map[string]float64{}, layers: layerSet{},
	}
	r.root = filepath.Join(*out, fmt.Sprintf("run-%s-%d-%d", *name, *seed, os.Getpid()))
	err := fn(r)
	os.RemoveAll(r.root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(2)
	}
	if err := r.finish(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(2)
	}
	if r.wrongs > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// finish writes the report and the trace, and prints the result line.
func (r *run) finish() error {
	defs := endToEnd
	vals := map[string]float64(r.e2e)
	if r.traced {
		r.layers.complete()
		defs, vals = perLayer, r.layers
	}
	if r.attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, map[bool]int{false: 0, true: 1}[r.traced])
	if r.rec != nil {
		path := filepath.Join(r.outDir, "trace-"+tag+".json")
		if err := r.rec.writeChrome(path); err != nil {
			return err
		}
		r.rep.note("trace", path)
	}
	r.rep.print(os.Stderr, r, defs, vals)
	if err := r.rep.write(filepath.Join(r.outDir, "report-"+tag+".json"), r, vals); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.wrongs == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// startTrace turns the program's tracing on and starts recording the
// benchmark's spans.
func (r *run) startTrace(db *core.Database) {
	db.Cluster().Tracer().SetEnabled(true)
	r.rec = newRecorder()
}

// endTrace stops recording, adds each layer's self time, and turns
// the program's tracing off.
func (r *run) endTrace(db *core.Database) {
	tc := db.Cluster().Tracer()
	r.rec.stop(tc)
	tc.SetEnabled(false)
	for l, ms := range r.rec.selfTimes() {
		r.layers["self."+l+"_ms"] = ms
	}
}
