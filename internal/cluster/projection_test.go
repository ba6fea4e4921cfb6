package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/optimizer"
	"simdb/internal/sim"
	"simdb/internal/tokenizer"
)

// sessWith returns a session whose optimizer options are DefaultOptions
// with mod applied.
func sessWith(mod func(*optimizer.Options)) *Session {
	sess := NewSession()
	opts := optimizer.DefaultOptions()
	if mod != nil {
		mod(&opts)
	}
	sess.Opts = &opts
	return sess
}

func newTestClusterFormat(t *testing.T, format string) *Cluster {
	t.Helper()
	c, err := New(Config{NumNodes: 2, PartitionsPerNode: 1, DataDir: t.TempDir(), StorageFormat: format})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestProjectionPushdownResults runs the same queries with projection
// pushdown on and off over both storage formats and demands identical
// answers. The pushdown run also covers the unflushed-memtable path:
// one row is inserted after FlushAll, so the scan mixes a columnar (or
// row) component with in-memory rows.
func TestProjectionPushdownResults(t *testing.T) {
	for _, format := range []string{"row", "columnar"} {
		t.Run(format, func(t *testing.T) {
			c := newTestClusterFormat(t, format)
			sess := NewSession()
			loadReviews(t, c, sess)
			rec := adm.EmptyRecord(3)
			rec.Set("id", adm.NewInt(9))
			rec.Set("username", adm.NewString("marge"))
			rec.Set("summary", adm.NewString("great value product"))
			if err := c.Insert("Default", "Reviews", adm.NewRecord(rec)); err != nil {
				t.Fatal(err)
			}

			queries := []string{
				`for $r in dataset Reviews where $r.username = 'maria' return $r.id`,
				`for $r in dataset Reviews return $r.id`,
				// Whole-record return: no projection applies, scan stays wide.
				`for $r in dataset Reviews where $r.id = 9 return $r`,
				jaccardQuery,
			}
			on := sessWith(nil)
			off := sessWith(func(o *optimizer.Options) { o.ProjectionPushdown = false })
			for _, q := range queries {
				got := exec(t, c, on, q)
				want := exec(t, c, off, q)
				if gs, ws := resultKey(got), resultKey(want); gs != ws {
					t.Errorf("query %q: pushdown %q, no pushdown %q", q, gs, ws)
				}
			}
		})
	}
}

// TestProjectionPushdownInPlan checks that the optimized plan makes the
// projected column set visible on the scan, and that a whole-record
// query does not get one.
func TestProjectionPushdownInPlan(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)

	res := exec(t, c, sess, `for $r in dataset Reviews where $r.username = 'maria' return $r.id`)
	if !strings.Contains(res.Stats.LogicalPlan, "project:[id, username]") {
		t.Errorf("plan missing projected fields:\n%s", res.Stats.LogicalPlan)
	}
	res = exec(t, c, sess, `for $r in dataset Reviews where $r.id = 1 return $r`)
	if strings.Contains(res.Stats.LogicalPlan, "project:[") {
		t.Errorf("whole-record query got a projection:\n%s", res.Stats.LogicalPlan)
	}
}

// TestPlanCacheKeyedByOptions verifies that sessions with different
// optimizer options never share a cached plan: the same query text
// compiles once per distinct option set.
func TestPlanCacheKeyedByOptions(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	loadReviews(t, c, sess)

	base := sessWith(nil)
	noProj := sessWith(func(o *optimizer.Options) { o.ProjectionPushdown = false })

	if res := exec(t, c, base, jaccardQuery); res.Stats.PlanCacheHit {
		t.Fatal("cold execution hit the cache")
	}
	if res := exec(t, c, base, jaccardQuery); !res.Stats.PlanCacheHit {
		t.Fatal("same options missed the cache")
	}
	if res := exec(t, c, noProj, jaccardQuery); res.Stats.PlanCacheHit {
		t.Fatal("different ProjectionPushdown reused a cached plan")
	}
	if st := c.PlanCache().Stats(); st.Entries != 2 {
		t.Fatalf("cache entries = %d, want 2 (one per option set): %+v", st.Entries, st)
	}
}

// TestSimilarityVerifyMatchesReference runs Jaccard selections with a
// constant query side through scan and index plans over both storage
// formats and checks each answer against a reference computed here by
// a naive loop over the review rows. The shapes cover an extra
// conjunct, a strict comparison with the constant on the left, and a
// zero threshold; on the index plan the select above the index search
// is the global verification stage and must count every survivor.
func TestSimilarityVerifyMatchesReference(t *testing.T) {
	type shape struct {
		query string
		keep  func(id int64, summary string) bool
	}
	jaccardWith := func(q string) func(string) float64 {
		qt := tokenizer.WordTokens(q)
		return func(summary string) float64 { return sim.Jaccard(tokenizer.WordTokens(summary), qt) }
	}
	great := jaccardWith("great product fantastic")
	best := jaccardWith("best product ever")
	nothing := jaccardWith("nothing shared here")
	shapes := []shape{
		{jaccardQuery, func(_ int64, s string) bool { return great(s) >= 0.5 }},
		// Extra conjunct alongside the similarity predicate.
		{`for $r in dataset Reviews
		  where similarity-jaccard(word-tokens($r.summary),
		                           word-tokens('great product fantastic')) >= 0.3
		    and $r.id >= 4
		  return $r.id`,
			func(id int64, s string) bool { return great(s) >= 0.3 && id >= 4 }},
		// Strict comparison and flipped argument order.
		{`for $r in dataset Reviews
		  where similarity-jaccard(word-tokens('best product ever'),
		                           word-tokens($r.summary)) > 0.4
		  return $r.id`,
			func(_ int64, s string) bool { return best(s) > 0.4 }},
		// Zero threshold keeps every record.
		{`for $r in dataset Reviews
		  where similarity-jaccard(word-tokens($r.summary),
		                           word-tokens('nothing shared here')) >= 0.0
		  return $r.id`,
			func(_ int64, s string) bool { return nothing(s) >= 0.0 }},
	}
	reference := func(sh shape) string {
		var ids []int64
		for _, r := range reviewRows {
			if sh.keep(r.id, r.summary) {
				ids = append(ids, r.id)
			}
		}
		return fmt.Sprint(ids)
	}
	for _, format := range []string{"row", "columnar"} {
		t.Run(format, func(t *testing.T) {
			c := newTestClusterFormat(t, format)
			sess := NewSession()
			loadReviews(t, c, sess)
			check := func(plan string) {
				for _, sh := range shapes {
					res := exec(t, c, sess, sh.query)
					if got, want := fmt.Sprint(rowInts(t, res.Rows)), reference(sh); got != want {
						t.Errorf("%s plan, query %q: got %s, reference %s", plan, sh.query, got, want)
					}
				}
			}
			check("scan")

			exec(t, c, sess, `create index rsum on Reviews(summary) type keyword;`)
			check("index")
			res := exec(t, c, sess, jaccardQuery)
			if res.Stats.IndexSearches == 0 {
				t.Fatalf("jaccard query did not use the index:\n%s", res.Stats.LogicalPlan)
			}
			if res.Stats.VerifiedTotal != int64(len(res.Rows)) {
				t.Errorf("verifier counted %d, want %d survivors",
					res.Stats.VerifiedTotal, len(res.Rows))
			}
		})
	}
}

// resultKey renders sorted result rows for order-insensitive
// comparison.
func resultKey(res *Result) string {
	parts := rowStrings(res.Rows)
	sort.Strings(parts)
	return strings.Join(parts, "|")
}
