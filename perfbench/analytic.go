package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"simdb/internal/adm"
	"simdb/internal/core"
	"simdb/internal/optimizer"
)

// Analytic parameters.
const (
	joinOuter    = 10        // outer records per similarity join
	joinDelta    = 0.8       // similarity join threshold
	joinRanges   = 32        // distinct outer ranges per run
	inljPerRound = 16        // index joins per round, one three-stage join
	groupBudget  = 2 << 20   // hash group-by memory budget
	equiBudget   = 256 << 10 // equi-join memory budget
	equiOuters   = 4         // distinct equi-join outer bounds per run
)

// query is one closed-loop statement with its session and its check.
type query struct {
	class string
	text  string
	sess  *core.Session
	check func(*core.Result) error
	// key names the answer for cross-checks between plans and budgets.
	key string
	// lo and hi bound a similarity join's outer ids.
	lo, hi int64
}

// timed is one executed query.
type timed struct {
	q   *query
	lat time.Duration
	res *core.Result
	err error
}

// execute runs q through core.Database.Execute, checks the answer, and
// with a recorder traces the call.
func (r *run) execute(db *core.Database, q *query) timed {
	t0 := time.Now()
	res, err := db.Execute(context.Background(), q.sess, q.text)
	t := timed{q: q, lat: time.Since(t0), res: res, err: err}
	o := outcome{ok: err == nil}
	if err != nil {
		o.err = fmt.Sprintf("%s: %v", q.class, err)
	} else if cerr := q.check(res); cerr != nil {
		o.ok, o.wrong, o.err = false, true, fmt.Sprintf("%s: %v", q.class, cerr)
	}
	r.check(o)
	if r.rec != nil && res != nil {
		id := r.rec.op("Execute "+q.class, "client", 0, t0, t.lat)
		if tr, ok := db.Cluster().Tracer().Get(res.Stats.QueryID); ok {
			r.rec.importTrace(id, 0, tr)
		}
	}
	return t
}

// wantCount checks a count(...) result.
func wantCount(want int64) func(*core.Result) error {
	return func(res *core.Result) error {
		if len(res.Rows) != 1 || res.Rows[0].Kind() != adm.KindInt || res.Rows[0].Int() != want {
			return fmt.Errorf("got %v, want [%d]", res.Rows, want)
		}
		return nil
	}
}

// analyticQueries builds the similarity-join queries and, for the
// in-process workload, the budgeted spilling queries, each with its
// reference answer computed from the records.
func analyticQueries(rng *rand.Rand, db *core.Database, recs []review, ix *refIndex, spill bool) (inlj, three, spills []*query) {
	noIndex := db.NewSession()
	opts := optimizer.DefaultOptions()
	opts.UseIndexes = false
	noIndex.Opts = &opts
	for k := 0; k < joinRanges; k++ {
		lo := int64(1 + rng.Intn(len(recs)-joinOuter))
		text := fmt.Sprintf(`count(for $o in dataset %[1]s for $i in dataset %[1]s
 where similarity-jaccard(word-tokens($o.summary), word-tokens($i.summary)) >= %[2]g
 and $o.id >= %[3]d and $o.id < %[4]d and $o.id < $i.id return $o.id)`, dsName, joinDelta, lo, lo+joinOuter)
		want := ix.jaccardJoinCount(lo, lo+joinOuter, joinDelta)
		key := fmt.Sprintf("join[%d,%d)", lo, lo+joinOuter)
		inlj = append(inlj, &query{class: "inlj", text: text, sess: db.NewSession(), check: planCheck(want, true), key: key, lo: lo, hi: lo + joinOuter})
		three = append(three, &query{class: "threestage", text: text, sess: noIndex, check: planCheck(want, false), key: key, lo: lo, hi: lo + joinOuter})
	}
	if !spill {
		return inlj, three, nil
	}
	group := db.NewSession()
	group.MemoryBudget = groupBudget
	spills = append(spills, &query{class: "spill.group", sess: group, key: "group",
		text: fmt.Sprintf(`for $r in dataset %s /*+ hash */ group by $g := $r.summary with $r
 order by $g return { 'g': $g, 'n': count($r) }`, dsName),
		check: groupCheck(recs)})
	gids := map[int64][]int64{}
	for _, rv := range recs {
		gids[rv.gid] = append(gids[rv.gid], rv.id)
	}
	equi := db.NewSession()
	equi.MemoryBudget = equiBudget
	for k := 0; k < equiOuters; k++ {
		bound := int64(200 + rng.Intn(100))
		var want int64
		for _, rv := range recs {
			if rv.id > bound {
				continue
			}
			for _, id := range gids[rv.gid] {
				if rv.id < id {
					want++
				}
			}
		}
		spills = append(spills, &query{class: "spill.join", sess: equi, key: fmt.Sprintf("equi<=%d", bound),
			text: fmt.Sprintf(`count(for $o in dataset %[1]s for $i in dataset %[1]s
 where $o.gid = $i.gid and $o.id < $i.id and $o.id <= %[2]d return $o.id)`, dsName, bound),
			check: wantCount(want)})
	}
	return inlj, three, spills
}

// planCheck checks a similarity join's count and that the optimizer
// chose the expected plan: index searches for the index-nested-loop
// join, none for the three-stage join.
func planCheck(want int64, indexed bool) func(*core.Result) error {
	count := wantCount(want)
	return func(res *core.Result) error {
		if err := count(res); err != nil {
			return err
		}
		if (res.Stats.IndexSearches > 0) != indexed {
			return fmt.Errorf("plan used %d index searches, want indexed=%v", res.Stats.IndexSearches, indexed)
		}
		return nil
	}
}

// groupCheck checks the group-by's rows against counts of each summary
// in key order.
func groupCheck(recs []review) func(*core.Result) error {
	counts := map[string]int64{}
	for _, rv := range recs {
		counts[rv.summary]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return func(res *core.Result) error {
		if len(res.Rows) != len(keys) {
			return fmt.Errorf("got %d groups, want %d", len(res.Rows), len(keys))
		}
		for i, row := range res.Rows {
			if row.Kind() != adm.KindRecord {
				return fmt.Errorf("group row %d is %v", i, row)
			}
			g, _ := row.Rec().Get("g")
			n, _ := row.Rec().Get("n")
			if g.Kind() != adm.KindString || g.Str() != keys[i] || n.Kind() != adm.KindInt || n.Int() != counts[keys[i]] {
				return fmt.Errorf("group row %d is %v, want {g: %q, n: %d}", i, row, keys[i], counts[keys[i]])
			}
		}
		return nil
	}
}

// analyticRounds is the closed-loop schedule: each round runs
// inljPerRound index joins, the three-stage plan of the first of them,
// and, when there are spilling queries, one group-by and one equi-join.
func analyticRounds(inlj, three, spills []*query) func(round int) []*query {
	return func(round int) []*query {
		var qs []*query
		for k := 0; k < inljPerRound; k++ {
			qs = append(qs, inlj[(round*inljPerRound+k)%len(inlj)])
		}
		qs = append(qs, three[(round*inljPerRound)%len(three)])
		if len(spills) > 0 {
			qs = append(qs, spills[0], spills[1+round%(len(spills)-1)])
		}
		return qs
	}
}

// closedLoop runs rounds back to back until the window has passed,
// always finishing the round it is in; each round is one slice.
func (r *run) closedLoop(db *core.Database, window time.Duration, rounds func(int) []*query) ([]timed, []slice) {
	var out []timed
	var sl []slice
	t0 := time.Now()
	for round := 0; time.Since(t0) < window; round++ {
		s0, c0 := time.Now(), treeCPU()
		qs := rounds(round)
		for _, q := range qs {
			out = append(out, r.execute(db, q))
		}
		sl = append(sl, slice{dur: time.Since(s0), cpu: treeCPU() - c0, ops: len(qs), work: len(qs)})
	}
	return out, sl
}

func runAnalytic(r *run, transport string) error {
	rng := rand.New(rand.NewSource(r.seed))
	recs, err := genReviews(r.seed, baseRecord, 0)
	if err != nil {
		return err
	}
	ix := newRefIndex(recs)
	spec := dbSpec{transport: transport}
	db, dir, setupS, err := setup(r.root, spec, recs)
	if err != nil {
		return err
	}
	defer db.Close()
	db.Cluster().Tracer().SetEnabled(false)
	r.e2e["setup_s"] = setupS
	inproc := transport == "inproc"
	inlj, three, spills := analyticQueries(rng, db, recs, ix, inproc)
	rounds := analyticRounds(inlj, three, spills)
	classes := []string{"inlj", "threestage"}
	if inproc {
		classes = append(classes, "spill.group", "spill.join")
	}
	r.rep.note("data", fmt.Sprintf("%d records, %d bytes on disk; %d nodes over %s", len(recs), dirBytes(dir), 2, transport))
	if !inproc {
		r.rep.note("node-0 only", fmt.Sprint(node0Only()))
	}

	window := r.window
	if r.traced {
		window /= 2
	}
	ts, sl := r.closedLoop(db, window, rounds)
	r.e2e["throughput_per_s"], r.e2e["cpu_ms_per_op"] = sliceMedians(sl)
	r.rep.add("rounds", float64(len(sl)), "count", "throughput_per_s and cpu_ms_per_op are medians over rounds")
	r.timedFigures(ts, classes)
	r.e2e["rss_peak_mb"] = treeRSSPeakMB()
	crossCheck(r, db, ts)

	if !r.traced {
		return nil
	}
	untracedP50 := medianLatency(ts)
	r.startTrace(db)
	probe := startProbe(db.Metrics)
	ts, _ = r.closedLoop(db, window, rounds)
	r.layers.addProbe(probe, len(ts), 0)
	var qls []queryLayers
	pairs := &pairSet{}
	for _, t := range ts {
		if t.res != nil {
			qls = append(qls, fromStats(t.res.Stats))
		}
	}
	for _, q := range inlj {
		for _, o := range recs[q.lo-1 : q.hi-1] {
			pairs.addJaccard(o.tokens, joinDelta, ix)
		}
	}
	r.layers.addQueries(qls)
	r.layers["trace.overhead_pct"] = 100 * (medianLatency(ts) - untracedP50) / untracedP50
	replayTokSim(r, recs, pairs)
	r.endTrace(db)
	if !inproc {
		return transportOverhead(r, recs, ts)
	}
	return nil
}

// medianLatency is the median latency of ts in ms.
func medianLatency(ts []timed) float64 {
	ms := make([]float64, len(ts))
	for i, t := range ts {
		ms[i] = float64(t.lat) / 1e6
	}
	return median(ms)
}

// crossCheck compares answers across plans and budgets: the index and
// three-stage plans of one join must agree, and each budgeted query
// must equal its unlimited run.
func crossCheck(r *run, db *core.Database, ts []timed) {
	byKey := map[string]map[string]string{}
	budgeted := map[string]*query{}
	for _, t := range ts {
		if t.err != nil {
			continue
		}
		if byKey[t.q.key] == nil {
			byKey[t.q.key] = map[string]string{}
		}
		byKey[t.q.key][t.q.class] = fmt.Sprint(t.res.Rows)
		if t.q.sess.MemoryBudget > 0 {
			budgeted[t.q.key] = t.q
		}
	}
	for key, ans := range byKey {
		if a, ok := ans["inlj"]; ok {
			if b, ok := ans["threestage"]; ok && a != b {
				r.wrongAnswer("%s: index-nested-loop %s, three-stage %s", key, a, b)
			}
		}
	}
	for key, q := range budgeted {
		unl := db.NewSession()
		unl.MemoryBudget = -1
		res, err := db.Execute(context.Background(), unl, q.text)
		if err != nil {
			r.wrongAnswer("%s unlimited: %v", key, err)
			continue
		}
		if got, want := fmt.Sprint(res.Rows), byKey[key][q.class]; got != want {
			r.wrongAnswer("%s: budgeted and unlimited runs differ", key)
		}
	}
}

// transportOverhead reruns the traced queries on an in-process copy of
// the same data, checks that both transports return the same rows, and
// reports the per-query difference in latency.
func transportOverhead(r *run, recs []review, tcp []timed) error {
	db, err := buildDB(filepath.Join(r.root, "inproc"), dbSpec{transport: "inproc"}, recs)
	if err != nil {
		return err
	}
	defer db.Close()
	db.Cluster().Tracer().SetEnabled(false)
	var diff []float64
	for _, t := range tcp {
		if t.err != nil {
			continue
		}
		// The same query under the same optimizer options, in a session
		// of the in-process database.
		q := *t.q
		q.sess = db.NewSession()
		q.sess.Opts = t.q.sess.Opts
		in := r.execute(db, &q)
		if in.err == nil && fmt.Sprint(in.res.Rows) != fmt.Sprint(t.res.Rows) {
			r.wrongAnswer("%s %s: tcp rows differ from inproc rows", q.class, q.key)
		}
		diff = append(diff, float64(t.lat-in.lat)/1e6)
	}
	r.layers["transport.overhead_ms"] = mean(diff)
	return nil
}
