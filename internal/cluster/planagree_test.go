package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/datagen"
	"simdb/internal/optimizer"
	"simdb/internal/sim"
	"simdb/internal/tokenizer"
)

// loadSynthetic populates a dataset from the datagen generators and
// returns the records it inserted.
func loadSynthetic(t *testing.T, c *Cluster, sess *Session, name string, kind datagen.Kind, n int) []adm.Value {
	t.Helper()
	exec(t, c, sess, fmt.Sprintf(`create dataset %s primary key id;`, name))
	var recs []adm.Value
	err := datagen.Generate(kind, n, datagen.Options{Seed: 33}, func(v adm.Value) error {
		recs = append(recs, v)
		return c.Insert("Default", name, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestJoinPlansAgreeOnSyntheticData is the paper's core correctness
// invariant at a non-trivial scale: the nested-loop join, the
// three-stage similarity join, and the index-nested-loop join (both
// with and without the surrogate optimization) must return identical
// answers on realistic Zipf-skewed data with duplicate tokens.
func TestJoinPlansAgreeOnSyntheticData(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadSynthetic(t, c, sess, "ARevs", datagen.Amazon, 600)
	query := `
		set simfunction 'jaccard';
		set simthreshold '0.8';
		for $a in dataset ARevs
		for $b in dataset ARevs
		where word-tokens($a.summary) ~= word-tokens($b.summary) and $a.id < $b.id
		return { 'l': $a.id, 'r': $b.id }
	`
	plans := map[string]*Session{
		"nested-loop": sessionOpts(func(o *optimizer.Options) {
			o.UseIndexes, o.UseThreeStageJoin, o.ReuseSubplans = false, false, false
		}),
		"three-stage": sessionOpts(func(o *optimizer.Options) { o.UseIndexes = false }),
	}
	results := map[string]int{}
	var reference string
	for name, s := range plans {
		res := exec(t, c, s, query)
		results[name] = len(res.Rows)
		key := pairKey(res)
		if reference == "" {
			reference = key
		} else if key != reference {
			t.Errorf("%s differs from reference", name)
		}
	}
	// Now with the keyword index: plain INLJ and surrogate INLJ.
	exec(t, c, sess, `create index agx on ARevs(summary) type keyword;`)
	plans = map[string]*Session{
		"inlj-surrogate": sessionOpts(nil),
		"inlj-plain":     sessionOpts(func(o *optimizer.Options) { o.SurrogateINLJ = false }),
	}
	for name, s := range plans {
		res := exec(t, c, s, query)
		results[name] = len(res.Rows)
		if pairKey(res) != reference {
			t.Errorf("%s differs from reference (%d rows vs %d)", name, len(res.Rows), results["nested-loop"])
		}
	}
	if results["nested-loop"] == 0 {
		t.Error("workload produced no similar pairs; test is vacuous")
	}
	t.Logf("all four join plans agree: %d pairs", results["nested-loop"])
}

// TestEditDistanceJoinPlansAgreeOnSyntheticData does the same for
// edit-distance joins, exercising the runtime corner-case path with
// typo-injected names.
func TestEditDistanceJoinPlansAgreeOnSyntheticData(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadSynthetic(t, c, sess, "ARevs", datagen.Amazon, 400)
	query := `
		set simfunction 'edit-distance';
		set simthreshold '2';
		for $a in dataset ARevs
		for $b in dataset ARevs
		where $a.id < 40 and $a.reviewerName ~= $b.reviewerName and $a.id < $b.id
		return { 'l': $a.id, 'r': $b.id }
	`
	noIdx := sessionOpts(func(o *optimizer.Options) { o.UseIndexes = false })
	ref := exec(t, c, noIdx, query)
	exec(t, c, sess, `create index agn on ARevs(reviewerName) type ngram(2);`)
	idx := exec(t, c, sessionOpts(nil), query)
	if pairKey(ref) != pairKey(idx) {
		t.Errorf("ED index join differs: %d vs %d rows", len(idx.Rows), len(ref.Rows))
	}
	if len(ref.Rows) == 0 {
		t.Error("no ED-similar pairs; test is vacuous")
	}
	t.Logf("ED join plans agree: %d pairs", len(ref.Rows))
}

// TestSelectionPlansAgreeOnSyntheticData checks scan vs index selection
// across thresholds on skewed data.
func TestSelectionPlansAgreeOnSyntheticData(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	loadSynthetic(t, c, sess, "ARevs", datagen.Amazon, 500)
	queries := []string{}
	for _, th := range []string{"0.2", "0.5", "0.8"} {
		queries = append(queries, fmt.Sprintf(`
			for $r in dataset ARevs
			where similarity-jaccard(word-tokens($r.summary), word-tokens('the great product of love')) >= %s
			return $r.id`, th))
	}
	for _, k := range []string{"1", "2", "3"} {
		queries = append(queries, fmt.Sprintf(`
			for $r in dataset ARevs
			where edit-distance($r.reviewerName, 'Mogo Bani') <= %s
			return $r.id`, k))
	}
	noIdx := sessionOpts(func(o *optimizer.Options) { o.UseIndexes = false })
	var refs []string
	for _, q := range queries {
		refs = append(refs, fmt.Sprint(rowInts(t, exec(t, c, noIdx, q).Rows)))
	}
	exec(t, c, sess, `create index sgx on ARevs(summary) type keyword;`)
	exec(t, c, sess, `create index sgn on ARevs(reviewerName) type ngram(2);`)
	for i, q := range queries {
		got := fmt.Sprint(rowInts(t, exec(t, c, sessionOpts(nil), q).Rows))
		if got != refs[i] {
			t.Errorf("query %d: index path %s != scan path %s", i, got, refs[i])
		}
	}
}

// TestSpecializedPlansAgreeOnSyntheticData runs the selection and join
// workloads through the specialized plans every compile produces
// (constant folding, assign/select fusion, compiled evaluators) and
// checks the answers against a naive loop over the generated records
// built from the tokenizer and sim packages alone.
func TestSpecializedPlansAgreeOnSyntheticData(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	sess := NewSession()
	recs := loadSynthetic(t, c, sess, "ARevs", datagen.Amazon, 400)
	exec(t, c, sess, `create index spx on ARevs(summary) type keyword;`)

	field := func(v adm.Value, name string) string {
		f, _ := v.Rec().Get(name)
		return f.Str()
	}
	id := func(v adm.Value) int64 {
		f, _ := v.Rec().Get("id")
		return f.Int()
	}
	// Constants come from the data so every selection has matches.
	summary, name := field(recs[0], "summary"), field(recs[1], "reviewerName")
	queryTokens := tokenizer.WordTokens(summary)
	selections := []struct {
		query string
		match func(adm.Value) bool
	}{
		{fmt.Sprintf(`for $r in dataset ARevs
		  where similarity-jaccard(word-tokens($r.summary), word-tokens('%s')) >= 0.5
		  return $r.id`, summary),
			func(v adm.Value) bool {
				return sim.Jaccard(tokenizer.WordTokens(field(v, "summary")), queryTokens) >= 0.5
			}},
		{fmt.Sprintf(`for $r in dataset ARevs
		  where edit-distance($r.reviewerName, '%s') <= 2
		  return $r.id`, name),
			func(v adm.Value) bool { return sim.EditDistance(field(v, "reviewerName"), name) <= 2 }},
	}
	sawCompiled := false
	for i, s := range selections {
		var want []int64
		for _, v := range recs {
			if s.match(v) {
				want = append(want, id(v))
			}
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if len(want) == 0 {
			t.Fatalf("selection %d has no reference matches; test is vacuous", i)
		}
		got := exec(t, c, sessionOpts(nil), s.query)
		if fmt.Sprint(rowInts(t, got.Rows)) != fmt.Sprint(want) {
			t.Errorf("selection %d: engine %v != reference %v", i, rowInts(t, got.Rows), want)
		}
		if strings.Contains(got.Stats.LogicalPlan, "[compiled]") {
			sawCompiled = true
		}
	}
	if !sawCompiled {
		t.Error("no selection plan carried a [compiled] operator")
	}

	join := `
		set simfunction 'jaccard';
		set simthreshold '0.8';
		for $a in dataset ARevs
		for $b in dataset ARevs
		where word-tokens($a.summary) ~= word-tokens($b.summary) and $a.id < $b.id
		return { 'l': $a.id, 'r': $b.id }
	`
	var want []string
	for _, a := range recs {
		at := tokenizer.WordTokens(field(a, "summary"))
		for _, b := range recs {
			if id(a) < id(b) && sim.Jaccard(at, tokenizer.WordTokens(field(b, "summary"))) >= 0.8 {
				want = append(want, fmt.Sprintf("%d-%d", id(a), id(b)))
			}
		}
	}
	sortStrings(want)
	got := exec(t, c, sessionOpts(nil), join)
	if pairKey(got) != fmt.Sprint(want) {
		t.Errorf("join differs from reference: %d rows vs %d", len(got.Rows), len(want))
	}
	if len(want) == 0 {
		t.Error("join produced no similar pairs; test is vacuous")
	}
}

func sessionOpts(mod func(*optimizer.Options)) *Session {
	s := NewSession()
	opts := optimizer.DefaultOptions()
	if mod != nil {
		mod(&opts)
	}
	s.Opts = &opts
	return s
}

func pairKey(res *Result) string {
	keys := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		l, _ := r.Rec().Get("l")
		rr, _ := r.Rec().Get("r")
		keys = append(keys, fmt.Sprintf("%d-%d", l.Int(), rr.Int()))
	}
	sortStrings(keys)
	return fmt.Sprint(keys)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestContainsSelectionUsesNgramIndex checks the contains() row of the
// paper's Figure 13 compatibility table: substring selections probe the
// n-gram index and agree with the scan plan.
func TestContainsSelectionUsesNgramIndex(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadSynthetic(t, c, sess, "ARevs", datagen.Amazon, 300)
	query := `
		for $r in dataset ARevs
		where contains($r.summary, 'produc')
		return $r.id
	`
	noIdx := sessionOpts(func(o *optimizer.Options) { o.UseIndexes = false })
	ref := exec(t, c, noIdx, query)
	exec(t, c, sess, `create index cgx on ARevs(summary) type ngram(2);`)
	idx := exec(t, c, sessionOpts(nil), query)
	if fmt.Sprint(rowInts(t, ref.Rows)) != fmt.Sprint(rowInts(t, idx.Rows)) {
		t.Errorf("contains(): index %v != scan %v", rowInts(t, idx.Rows), rowInts(t, ref.Rows))
	}
	if len(ref.Rows) == 0 {
		t.Error("no substring matches; test vacuous")
	}
	if idx.Stats.IndexSearches == 0 {
		t.Errorf("contains() did not use the n-gram index:\n%s", idx.Stats.LogicalPlan)
	}
	// Substring shorter than the gram length: corner case -> scan.
	short := exec(t, c, sessionOpts(nil), `
		for $r in dataset ARevs
		where contains($r.summary, 'p')
		return $r.id
	`)
	if short.Stats.IndexSearches != 0 {
		t.Error("sub-gram substring must not use the index")
	}
}

// TestMultiwayThreeStageJoin runs two Jaccard similarity joins in one
// query with no indexes at all: both must expand through the AQL+
// three-stage rewrite (the second over a composite-RID branch, the
// paper's Figure 18 multi-way case) and agree with nested-loop ground
// truth.
func TestMultiwayThreeStageJoin(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadSynthetic(t, c, sess, "A", datagen.Amazon, 150)
	loadSynthetic(t, c, sess, "B", datagen.Twitter, 150)
	query := `
		for $a in dataset A
		for $b in dataset A
		for $t in dataset B
		where similarity-jaccard(word-tokens($a.summary), word-tokens($b.summary)) >= 0.8
		  and $a.id < $b.id
		  and similarity-jaccard(word-tokens($b.summary), word-tokens($t.text)) >= 0.6
		return { 'l': $a.id, 'r': $t.id }
	`
	nl := sessionOpts(func(o *optimizer.Options) {
		o.UseIndexes, o.UseThreeStageJoin, o.ReuseSubplans = false, false, false
	})
	ref := exec(t, c, nl, query)
	three := sessionOpts(func(o *optimizer.Options) { o.UseIndexes = false })
	got := exec(t, c, three, query)
	// The plan must contain two Rank ops (one global token order per
	// similarity join).
	if n := countInPlan(got.Stats.LogicalPlan, "rank"); n < 2 {
		t.Errorf("expected >= 2 three-stage expansions, plan has %d rank ops", n)
	}
	if pairKey(ref) != pairKey(got) {
		t.Errorf("multi-way three-stage differs: %d rows vs %d", len(got.Rows), len(ref.Rows))
	}
	if len(ref.Rows) == 0 {
		t.Skip("workload produced no matches at these thresholds")
	}
	t.Logf("multi-way three-stage agrees with NL: %d rows", len(ref.Rows))
}

func countInPlan(plan, op string) int {
	n := 0
	for _, line := range strings.Split(plan, "\n") {
		if strings.Contains(line, " "+op) && !strings.Contains(line, "^shared") {
			n++
		}
	}
	return n
}
