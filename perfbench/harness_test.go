package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{
		{2000, 99}, {1000, 99}, {500, 98}, {100, 90}, {11, 100.0 / 11},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // reversed, so tail must sort
		}
		v, pct := tail(xs, 99)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail value %v, want >= %d", tc.n, beyond, v, minBeyond)
		}
		if pct != tc.wantPct {
			t.Errorf("n=%d: percentile %v, want %v", tc.n, pct, tc.wantPct)
		}
	}
	// A lower percentile is reported as asked when enough samples lie
	// beyond it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs, 95); v != 950 || pct != 95 {
		t.Errorf("p95 of 1..1000 = %v at p%v, want 950 at p95", v, pct)
	}
	// With too few samples no percentile qualifies: the maximum shows it.
	if v, pct := tail([]float64{3, 1, 2}, 99); v != 3 || pct != 100 {
		t.Errorf("tail of 3 samples = %v at p%v, want the maximum at p100", v, pct)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// fakeServer answers /query with a fixed status and body.
func fakeServer(t *testing.T, status int, body string, delay time.Duration) *wireClient {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.WriteHeader(status)
		fmt.Fprint(w, body)
	}))
	t.Cleanup(srv.Close)
	c := newWireClient(srv.URL, 1)
	c.http.Timeout = 200 * time.Millisecond
	return c
}

func TestRefusalsTimeoutsAndWrongAnswersFail(t *testing.T) {
	st := &statement{text: "q", want: 7}
	summary := `{"summary":{"query_id":1,"rows":1,"wall_ns":1000}}` + "\n"
	for _, tc := range []struct {
		name      string
		status    int
		body      string
		delay     time.Duration
		ok, wrong bool
	}{
		{"correct", 200, `{"row":7}` + "\n" + summary, 0, true, false},
		{"wrong answer", 200, `{"row":8}` + "\n" + summary, 0, false, true},
		{"refused", 503, `{"error":{"code":"overloaded"}}`, 0, false, false},
		{"in-band error", 200, `{"error":{"code":"query-timeout","message":"deadline"}}` + "\n", 0, false, false},
		{"timed out", 200, `{"row":7}` + "\n" + summary, time.Second, false, false},
		{"no summary", 200, `{"row":7}` + "\n", 0, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := fakeServer(t, tc.status, tc.body, tc.delay)
			o, _ := c.query(context.Background(), st)
			if o.ok != tc.ok || o.wrong != tc.wrong || (o.ok == (o.err != "")) {
				t.Fatalf("outcome %+v, want ok=%v wrong=%v", o, tc.ok, tc.wrong)
			}
			// A failed request misses any latency limit.
			s := sample{due: 0, done: time.Millisecond, out: o}
			lat := latenciesMs([]sample{s})[0]
			if !tc.ok && lat != float64(clientTimeout)/1e6 {
				t.Errorf("failed request latency %vms, want the client timeout", lat)
			}
			if tc.ok && lat != 1 {
				t.Errorf("latency %vms, want 1", lat)
			}
		})
	}
}

func TestSLOCountsFailuresAndBacklog(t *testing.T) {
	limit := float64(sloLimit) / 1e6
	ok := []ladderRung{{rate: 50, tailMs: limit / 2}, {rate: 60, tailMs: limit / 2}}
	if got := sloQPS(ok); got != 60 {
		t.Errorf("all rungs meet the limit: slo %v, want 60", got)
	}
	// A rung with a request left unsent misses, however fast the rest.
	backlog := []ladderRung{{rate: 50, tailMs: limit / 2}, {rate: 60, tailMs: limit / 2, skipped: 1}}
	if got := sloQPS(backlog); got != 50 {
		t.Errorf("backlogged rung: slo %v, want 50", got)
	}
	mid := []ladderRung{{rate: 50, tailMs: limit / 2}, {rate: 60, tailMs: limit * 1.5}}
	if got := sloQPS(mid); got != 55 {
		t.Errorf("interpolated slo %v, want 55", got)
	}
	// Failures count as the client timeout, so a rung with more than
	// minBeyond of them misses the limit.
	var ss []sample
	for i := 0; i < 100; i++ {
		s := sample{done: time.Millisecond, out: outcome{ok: i >= minBeyond+1}}
		ss = append(ss, s)
	}
	if v, _ := tail(latenciesMs(ss), 99); v <= limit {
		t.Errorf("tail %vms with %d failures, want above the %vms limit", v, minBeyond+1, limit)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// One sender, 100 requests/s, each taking 25ms: the sender falls
	// further behind with every request, and the latency, timed from
	// when each was due, grows with it.
	ss := openLoop(100, 8, 1, time.Minute, func(i, lane int) outcome {
		time.Sleep(25 * time.Millisecond)
		return outcome{ok: true}
	})
	for i := 1; i < len(ss); i++ {
		if ss[i].latency() <= ss[i-1].latency() {
			t.Errorf("latency of request %d (%v) did not grow past %v", i, ss[i].latency(), ss[i-1].latency())
		}
		if ss[i].queueWait() <= 0 {
			t.Errorf("request %d waited %v for a connection, want > 0", i, ss[i].queueWait())
		}
	}
	// With a short lag bound the backlog is skipped, not sent.
	ss = openLoop(1000, 20, 1, 10*time.Millisecond, func(i, lane int) outcome {
		time.Sleep(5 * time.Millisecond)
		return outcome{ok: true}
	})
	if skippedCount(ss) == 0 {
		t.Error("no request was skipped despite a growing backlog")
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	build := func(seed int64) ([]review, []string) {
		recs, err := genReviews(seed, 500, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		pools := servePool(rng, recs, newRefIndex(recs))
		var texts []string
		for _, st := range serveSequence(rng, pools, 200) {
			texts = append(texts, fmt.Sprintf("%s=%d", st.text, st.want))
		}
		return recs, texts
	}
	r1, q1 := build(7)
	r2, q2 := build(7)
	_, q3 := build(8)
	for i := range r1 {
		if r1[i].val.String() != r2[i].val.String() {
			t.Fatalf("record %d differs between runs with one seed", i)
		}
	}
	if !reflect.DeepEqual(q1, q2) {
		t.Error("one seed gave two query sequences")
	}
	if reflect.DeepEqual(q1, q3) {
		t.Error("two seeds gave one query sequence")
	}
}

func TestReferencePredicates(t *testing.T) {
	if got := refJaccard([]string{"good", "product", "value"}, []string{"nice", "product"}); got != 0.25 {
		t.Errorf("jaccard = %v, want 0.25", got)
	}
	if got := refJaccard([]string{"a", "a"}, []string{"a"}); got != 0.5 {
		t.Errorf("multiset jaccard = %v, want 0.5", got)
	}
	for _, tc := range []struct {
		a, b string
		d    int
	}{{"kitten", "sitting", 3}, {"", "abc", 3}, {"abc", "abc", 0}, {"héllo", "hello", 1}} {
		if got := refEditDistance(tc.a, tc.b); got != tc.d {
			t.Errorf("edit(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.d)
		}
	}
	recs, err := genReviews(3, 400, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix := newRefIndex(recs)
	for _, q := range recs[:20] {
		var want []int64
		var wantEd []int64
		for _, r := range recs {
			if refJaccard(r.tokens, q.tokens) >= 0.5 {
				want = append(want, r.id)
			}
			if refEditDistance(r.name, q.name) <= 1 {
				wantEd = append(wantEd, r.id)
			}
		}
		if got := ix.jaccardIDs(q.tokens, 0.5); !reflect.DeepEqual(got, want) {
			t.Errorf("jaccardIDs(%v) = %v, want %v", q.tokens, got, want)
		}
		if got := ix.editIDs(q.name, 1); !reflect.DeepEqual(got, wantEd) {
			t.Errorf("editIDs(%q) = %v, want %v", q.name, got, wantEd)
		}
	}
}

func TestSelfTime(t *testing.T) {
	r := newRecorder()
	ms := time.Millisecond
	root := r.op("call", "client", 0, r.base, 10*ms)
	r.mu.Lock()
	a := r.addLocked(span{parent: root, layer: "cluster", start: 1 * ms, dur: 6 * ms})
	r.addLocked(span{parent: a, layer: "hyracks", start: 2 * ms, dur: 2 * ms})
	r.addLocked(span{parent: a, layer: "hyracks", start: 3 * ms, dur: 2 * ms}) // overlaps the first
	r.addLocked(span{parent: a, layer: "operators", start: 2 * ms, dur: 3 * ms, args: map[string]int64{"busy_ns": int64(ms)}})
	r.mu.Unlock()
	got := r.selfTimes()
	want := map[string]float64{"client": 4, "cluster": 3, "hyracks": 4, "operators": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d] = %+v, harness has %s %s %s", kind, i, got[i], d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
