package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"simdb/internal/obs/trace"
)

// traceLayers are the layers the traced run splits self time into.
var traceLayers = []string{
	"client", "cluster", "querymanager", "plancache", "aqlp", "optimizer",
	"jobgen", "hyracks", "operators", "ingest", "storage",
}

// phaseLayer maps the program's phase spans to layers.
var phaseLayer = map[string]string{
	"admission":  "querymanager",
	"plan-cache": "plancache",
	"plan-copy":  "plancache",
	"parse":      "aqlp",
	"compile":    "optimizer",
	"jobgen":     "jobgen",
	"execute":    "hyracks",
}

// Chrome trace lanes for spans that belong to no request.
const (
	replayLane  = 9000
	storageLane = 9999
)

// span is one recorded interval, relative to the recorder's base.
type span struct {
	id, parent int
	name       string
	layer      string
	lane       int
	start, dur time.Duration
	args       map[string]int64
}

// recorder keeps the traced run's spans in memory: the benchmark's own
// spans around each public call, and the program's phase, operator and
// storage spans imported under them.
type recorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
	ops   int  // benchmark operations recorded
	done  bool // recording has stopped
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// op records one benchmark-side call as a top-level span and returns
// its id. A nil recorder records nothing.
func (r *recorder) op(name, layer string, lane int, start time.Time, dur time.Duration) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return -1
	}
	r.ops++
	return r.addLocked(span{parent: -1, name: name, layer: layer, lane: lane, start: start.Sub(r.base), dur: dur})
}

// region records a benchmark-side interval that is not a workload
// operation, such as a replay of library calls.
func (r *recorder) region(name, layer string, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	r.addLocked(span{parent: -1, name: name, layer: layer, lane: replayLane, start: start.Sub(r.base), dur: dur})
}

func (r *recorder) addLocked(s span) int {
	s.id = len(r.spans)
	r.spans = append(r.spans, s)
	return s.id
}

// importTrace attaches a program trace under the benchmark span parent:
// a "query" span for the whole trace, its phases beneath, and operator
// spans beneath the execute phase.
func (r *recorder) importTrace(parent, lane int, t *trace.Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	off := t.Start.Sub(r.base)
	root := r.addLocked(span{parent: parent, name: "query", layer: "cluster", lane: lane, start: off, dur: time.Duration(t.DurNs())})
	ids := map[int32]int{}
	spans := t.Spans()
	// Spans are appended as they end, so a child can precede its parent.
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	for _, sp := range spans {
		p := root
		if sp.Parent != trace.RootSpan {
			if id, ok := ids[sp.Parent]; ok {
				p = id
			}
		}
		s := span{parent: p, name: sp.Name, lane: lane, start: off + time.Duration(sp.StartNs), dur: time.Duration(sp.DurNs), args: map[string]int64{}}
		if sp.Cat == trace.CatOperator {
			s.layer = "operators"
			s.lane = 1000 + lane*100 + sp.Node*10 + sp.Part
		} else if l, ok := phaseLayer[sp.Name]; ok {
			s.layer = l
		} else {
			s.layer = "cluster"
		}
		for _, a := range sp.Args {
			s.args[a.Key] = a.Val
		}
		ids[sp.ID] = r.addLocked(s)
	}
}

// stop imports the program's background storage events (flush, merge,
// WAL sync) that overlap the recording, and ends it: later calls
// record nothing.
func (r *recorder) stop(tc *trace.Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done = true
	for _, e := range tc.EventsBetween(r.base, time.Now()) {
		r.addLocked(span{parent: -1, name: e.Name + ":" + e.Cat, layer: "storage", lane: storageLane, start: e.Start.Sub(r.base), dur: time.Duration(e.DurNs)})
	}
}

// selfTimes returns each layer's self time per benchmark operation in
// ms: a span's duration minus the part of it its children cover. An
// operator span counts its busy time instead: operator instances run in
// parallel, so their wall times overlap.
func (r *recorder) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int][]int{}
	for _, s := range r.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s.id)
		}
	}
	for _, s := range r.spans {
		if s.lane == replayLane {
			continue // replays are not workload operations
		}
		var iv [][2]time.Duration
		for _, k := range kids[s.id] {
			c := r.spans[k]
			iv = append(iv, [2]time.Duration{c.start, c.start + c.dur})
		}
		self := s.dur - covered(iv, s.start, s.start+s.dur)
		if busy, ok := s.args["busy_ns"]; ok && s.layer == "operators" {
			self = time.Duration(busy)
		}
		out[s.layer] += float64(self) / 1e6
	}
	if r.ops > 0 {
		for l := range out {
			out[l] /= float64(r.ops)
		}
	}
	return out
}

// covered is the length of the union of intervals iv clipped to
// [lo, hi).
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// Perfetto and about:tracing open.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args,omitempty"`
	}
	evs := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		evs = append(evs, event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
			Pid: 1, Tid: s.lane, Args: s.args,
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
