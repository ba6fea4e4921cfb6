package cluster

import (
	"fmt"
	"strings"
	"testing"

	"simdb/internal/optimizer"
)

func TestNormalizeAQL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"for $r in dataset R return $r", "for $r in dataset R return $r"},
		{"  for   $r\n\tin dataset R\nreturn $r  ", "for $r in dataset R return $r"},
		// Whitespace inside string literals must survive byte-for-byte.
		{"where $r.s ~= 'a  b'", "where $r.s ~= 'a  b'"},
		{`where $r.s ~= "a   b"  return  $r`, `where $r.s ~= "a   b" return $r`},
		// Escaped quote does not terminate the literal.
		{`return 'a\'  b'   ;`, `return 'a\'  b' ;`},
	}
	for _, c := range cases {
		if got := normalizeAQL(c.in); got != c.want {
			t.Errorf("normalizeAQL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Two queries differing only inside a literal must key differently.
	if normalizeAQL("return 'a  b'") == normalizeAQL("return 'a b'") {
		t.Error("literals with different spacing collided after normalization")
	}
}

const jaccardQuery = `
	for $r in dataset Reviews
	where similarity-jaccard(word-tokens($r.summary),
	                         word-tokens('great product fantastic')) >= 0.5
	return $r.id`

func TestPlanCacheHitSkipsCompile(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)

	cold := exec(t, c, sess, jaccardQuery)
	if cold.Stats.PlanCacheHit {
		t.Fatal("first execution reported a cache hit")
	}
	if cold.Stats.TranslateNs == 0 && cold.Stats.OptimizeNs == 0 {
		t.Fatal("cold execution reported no compile time")
	}

	warm := exec(t, c, sess, jaccardQuery)
	if !warm.Stats.PlanCacheHit {
		t.Fatal("second execution missed the cache")
	}
	if warm.Stats.ParseNs != 0 || warm.Stats.TranslateNs != 0 || warm.Stats.OptimizeNs != 0 {
		t.Fatalf("cache hit still compiled: parse=%d translate=%d optimize=%d",
			warm.Stats.ParseNs, warm.Stats.TranslateNs, warm.Stats.OptimizeNs)
	}
	if got, want := rowInts(t, warm.Rows), rowInts(t, cold.Rows); len(got) != len(want) {
		t.Fatalf("cached plan returned %v, cold plan %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cached plan returned %v, cold plan %v", got, want)
			}
		}
	}
	st := c.PlanCache().Stats()
	if st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 entry", st)
	}
}

func TestPlanCacheWhitespaceInsensitive(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)

	exec(t, c, sess, jaccardQuery)
	spaced := "  for $r in dataset Reviews\n\n where similarity-jaccard(word-tokens($r.summary),\n word-tokens('great product fantastic')) >= 0.5\n return $r.id"
	res := exec(t, c, sess, spaced)
	if !res.Stats.PlanCacheHit {
		t.Fatal("whitespace-only variation missed the cache")
	}
}

func TestPlanCacheDDLInvalidation(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)

	exec(t, c, sess, jaccardQuery)
	warm := exec(t, c, sess, jaccardQuery)
	if !warm.Stats.PlanCacheHit {
		t.Fatal("warm-up miss")
	}

	// DDL bumps the catalog epoch; the cached scan plan must not be
	// served afterwards — recompilation may now pick the new index.
	exec(t, c, sess, `create index rsum on Reviews(summary) type keyword;`)
	after := exec(t, c, sess, jaccardQuery)
	if after.Stats.PlanCacheHit {
		t.Fatal("cache served a pre-DDL plan after create index")
	}
	st := c.PlanCache().Stats()
	if st.Invalidations == 0 {
		t.Fatalf("no invalidation recorded: %+v", st)
	}
	// The recompiled plan re-caches under the new epoch.
	again := exec(t, c, sess, jaccardQuery)
	if !again.Stats.PlanCacheHit {
		t.Fatal("post-DDL recompile was not cached")
	}
}

func TestPlanCacheKeysOnSessionState(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)

	q := `for $r in dataset Reviews where $r.username ~= 'marla' return $r.id`
	sessA := NewSession()
	sessA.SimFunction = "edit-distance"
	sessA.SimThreshold = "1"
	a := exec(t, c, sessA, q)

	// Same text, different simthreshold: must NOT hit sessA's entry.
	sessB := NewSession()
	sessB.SimFunction = "edit-distance"
	sessB.SimThreshold = "2"
	b := exec(t, c, sessB, q)
	if b.Stats.PlanCacheHit {
		t.Fatal("different simthreshold hit the other session's plan")
	}
	if len(b.Rows) <= len(a.Rows) {
		t.Fatalf("threshold 2 should match more rows than threshold 1 (got %d vs %d)",
			len(b.Rows), len(a.Rows))
	}

	// Different optimizer options: separate entry too.
	sessC := NewSession()
	sessC.SimFunction = "edit-distance"
	sessC.SimThreshold = "1"
	opts := optimizer.DefaultOptions()
	opts.UseIndexes = false
	sessC.Opts = &opts
	cold := exec(t, c, sessC, q)
	if cold.Stats.PlanCacheHit {
		t.Fatal("different optimizer options hit a cached plan")
	}
}

func TestPlanCacheSetStatementsCached(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)

	req := `set simfunction 'edit-distance'; set simthreshold '1';
		for $r in dataset Reviews where $r.username ~= 'marla' return $r.id`
	fresh := NewSession()
	exec(t, c, fresh, req)
	if fresh.SimFunction != "edit-distance" || fresh.SimThreshold != "1" {
		t.Fatalf("set statements did not apply: %+v", fresh)
	}

	// A second fresh session replays the request via the cache; its
	// use/set effects must still land on the session.
	fresh2 := NewSession()
	res := exec(t, c, fresh2, req)
	if !res.Stats.PlanCacheHit {
		t.Fatal("identical request from a fresh session missed the cache")
	}
	if fresh2.SimFunction != "edit-distance" || fresh2.SimThreshold != "1" {
		t.Fatalf("cache hit skipped session side effects: %+v", fresh2)
	}
}

func TestPlanCacheDDLRequestsNotCached(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	sess := NewSession()
	exec(t, c, sess, `create dataset D primary key id;`)
	before := c.PlanCache().Stats().Entries
	exec(t, c, sess, `create dataset E primary key id; count(for $d in dataset D return $d)`)
	if got := c.PlanCache().Stats().Entries; got != before {
		t.Fatalf("request containing DDL was cached (entries %d -> %d)", before, got)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	c, err := New(Config{NumNodes: 1, PartitionsPerNode: 1, DataDir: t.TempDir(), PlanCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess := NewSession()
	exec(t, c, sess, `create dataset D primary key id;`)
	q := `count(for $d in dataset D return $d)`
	exec(t, c, sess, q)
	res := exec(t, c, sess, q)
	if res.Stats.PlanCacheHit {
		t.Fatal("disabled cache served a hit")
	}
	if st := c.PlanCache().Stats(); st.Entries != 0 {
		t.Fatalf("disabled cache stored entries: %+v", st)
	}
}

// TestPlanCacheServesSpecializedBuild pins the one-build contract:
// every compile runs the specialization pass, so a cold query, its
// explain and explain analyze renderings, and every later cache hit
// all see the same [compiled] plan, cached once per statement.
func TestPlanCacheServesSpecializedBuild(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)

	// explain analyze before the query was ever cached still runs the
	// specialized build.
	ea := exec(t, c, sess, "explain analyze "+jaccardQuery)
	if out := rowsText(ea); !strings.Contains(out, "[compiled]") {
		t.Fatalf("cold explain analyze shows no [compiled] operator:\n%s", out)
	}

	cold := exec(t, c, sess, jaccardQuery)
	if cold.Stats.PlanCacheHit || !cold.Stats.Specialized {
		t.Fatalf("cold run: hit=%v specialized=%v, want false/true",
			cold.Stats.PlanCacheHit, cold.Stats.Specialized)
	}
	if !strings.Contains(cold.Stats.LogicalPlan, "[compiled]") {
		t.Fatalf("cold plan carries no [compiled] operator:\n%s", cold.Stats.LogicalPlan)
	}
	if out := rowsText(exec(t, c, sess, "explain "+jaccardQuery)); !strings.Contains(out, "[compiled]") {
		t.Fatalf("explain shows no [compiled] operator:\n%s", out)
	}

	warm := exec(t, c, sess, jaccardQuery)
	if !warm.Stats.PlanCacheHit || !warm.Stats.Specialized {
		t.Fatalf("warm run: hit=%v specialized=%v, want true/true",
			warm.Stats.PlanCacheHit, warm.Stats.Specialized)
	}
	if warm.Stats.LogicalPlan != cold.Stats.LogicalPlan {
		t.Fatalf("cache hit served a different build:\n%s\nvs cold:\n%s",
			warm.Stats.LogicalPlan, cold.Stats.LogicalPlan)
	}
	if got, want := fmt.Sprint(rowInts(t, warm.Rows)), fmt.Sprint(rowInts(t, cold.Rows)); got != want {
		t.Fatalf("cached plan returned %s, cold plan %s", got, want)
	}

	if st := c.PlanCache().Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 entry / 1 hit", st)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	pc := NewPlanCache(2)
	k := func(s string) planKey { return planKey{text: s} }
	pc.put(&planEntry{key: k("a")})
	pc.put(&planEntry{key: k("b")})
	if _, ok := pc.get(k("a"), 0); !ok { // a is now MRU
		t.Fatal("a missing")
	}
	pc.put(&planEntry{key: k("c")}) // evicts b
	if _, ok := pc.get(k("b"), 0); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	for _, s := range []string{"a", "c"} {
		if _, ok := pc.get(k(s), 0); !ok {
			t.Fatalf("entry %s evicted unexpectedly", s)
		}
	}
}
