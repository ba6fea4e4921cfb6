package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"simdb/internal/adm"
)

// pkRangeCluster opens a one-node, two-partition cluster in the given
// storage format and loads two datasets of {id, v} records: Ints, whose
// pks are ints (including three beyond 2^53, where an int and its
// neighbours share a double key encoding), and Mixed, whose pks mix ints
// and strings. Each dataset is inserted in three batches, the first two
// flushed into separate components and the last left in the memtable.
func pkRangeCluster(t *testing.T, format string) (*Cluster, map[string][]adm.Value) {
	t.Helper()
	c, err := New(Config{NumNodes: 1, PartitionsPerNode: 2, DataDir: t.TempDir(), StorageFormat: format})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var ints, mixed []adm.Value
	for i := int64(0); i < 240; i++ {
		if i%7 != 3 { // gaps between stored keys
			ints = append(ints, adm.NewInt(i))
		}
	}
	ints = append(ints, adm.NewInt(1<<53), adm.NewInt(1<<53+2), adm.NewInt(1<<53+4))
	for i := 0; i < 60; i++ {
		mixed = append(mixed, adm.NewInt(int64(i)), adm.NewString(fmt.Sprintf("k%02d", i)))
	}
	pks := map[string][]adm.Value{"Ints": ints, "Mixed": mixed}
	sess := NewSession()
	for _, ds := range []string{"Ints", "Mixed"} {
		exec(t, c, sess, `create dataset `+ds+` primary key id;`)
		keys := pks[ds]
		for b := 0; b < 3; b++ {
			var batch []adm.Value
			for i := b; i < len(keys); i += 3 {
				rec := adm.EmptyRecord(2)
				rec.Set("id", keys[i])
				rec.Set("v", adm.NewInt(int64(i)))
				batch = append(batch, adm.NewRecord(rec))
			}
			if err := c.InsertBatch("Default", ds, batch); err != nil {
				t.Fatal(err)
			}
			if b < 2 {
				if err := c.FlushAll(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return c, pks
}

// pkConj is one generated primary-key comparison: its AQL text and the
// reference predicate over a stored pk.
type pkConj struct {
	text string
	keep func(pk adm.Value) bool
}

var pkCmps = map[string]func(c int) bool{
	"<":  func(c int) bool { return c < 0 },
	"<=": func(c int) bool { return c <= 0 },
	">":  func(c int) bool { return c > 0 },
	">=": func(c int) bool { return c >= 0 },
	"=":  func(c int) bool { return c == 0 },
}

// pkComparison builds "$r.id op lit", or "lit op $r.id" when flipped,
// where lit is the AQL literal of val.
func pkComparison(op, lit string, val adm.Value, flipped bool) pkConj {
	ok := pkCmps[op]
	if flipped {
		return pkConj{lit + " " + op + " $r.id", func(pk adm.Value) bool {
			return !val.IsNull() && ok(adm.Compare(val, pk))
		}}
	}
	return pkConj{"$r.id " + op + " " + lit, func(pk adm.Value) bool {
		return !val.IsNull() && ok(adm.Compare(pk, val))
	}}
}

// intComparison is pkComparison with an int constant.
func intComparison(op string, n int64) pkConj {
	return pkComparison(op, fmt.Sprint(n), adm.NewInt(n), false)
}

// randPKConj draws a comparison of $r.id with a constant, on either
// side: ints inside and around the stored range, non-integer doubles,
// ints beyond 2^53, null, strings and booleans.
func randPKConj(r *rand.Rand) pkConj {
	var lit string
	var val adm.Value
	switch r.Intn(8) {
	case 0, 1, 2:
		n := int64(r.Intn(250) - 5)
		lit, val = fmt.Sprint(n), adm.NewInt(n)
	case 3:
		f := float64(r.Intn(240)) + 0.5
		lit, val = fmt.Sprint(f), adm.NewDouble(f)
	case 4:
		n := int64(1<<53 + r.Intn(6) - 1)
		lit, val = fmt.Sprint(n), adm.NewInt(n)
	case 5:
		lit, val = "null", adm.Null
	case 6:
		s := []string{"", "k", "k10", "k10x", "m"}[r.Intn(5)]
		lit, val = "'"+s+"'", adm.NewString(s)
	default:
		lit, val = "true", adm.NewBool(true)
	}
	ops := []string{"<", "<=", ">", ">=", "="}
	return pkComparison(ops[r.Intn(len(ops))], lit, val, r.Intn(2) == 0)
}

// TestPKRangeScanMatchesReference checks range-narrowed scans against a
// naive filter over the inserted keys, on row and columnar storage,
// with rows in two flushed components and the memtable.
func TestPKRangeScanMatchesReference(t *testing.T) {
	fixed := [][]pkConj{
		// Empty and inverted ranges.
		{intComparison(">", 10), intComparison("<", 5)},
		{intComparison(">=", 10), intComparison("<", 10)},
		// Non-integer bounds and an equality on a gap.
		{pkComparison(">=", "100.5", adm.NewDouble(100.5), false), pkComparison("<", "110.5", adm.NewDouble(110.5), false)},
		{intComparison("=", 3)},
		// Beyond 2^53, 2^53+1 rounds to the double 2^53 and 2^53+3 to
		// 2^53+4: both stored keys qualify but encode equal to the bound.
		{intComparison("<", 1<<53+1)},
		{intComparison(">", 1<<53+3)},
	}
	for _, format := range []string{"row", "columnar"} {
		t.Run(format, func(t *testing.T) {
			c, pks := pkRangeCluster(t, format)
			r := rand.New(rand.NewSource(14))
			narrowed := 0
			for q := 0; q < 160; q++ {
				ds := []string{"Ints", "Mixed"}[q%2]
				var conjs []pkConj
				if q < 2*len(fixed) {
					conjs = fixed[q/2]
				} else {
					for n := 1 + r.Intn(3); n > 0; n-- {
						conjs = append(conjs, randPKConj(r))
					}
				}
				texts := make([]string, len(conjs))
				for i, cj := range conjs {
					texts[i] = cj.text
				}
				src := fmt.Sprintf("for $r in dataset %s where %s return $r.id", ds, strings.Join(texts, " and "))
				var want []adm.Value
				for _, pk := range pks[ds] {
					keep := true
					for _, cj := range conjs {
						keep = keep && cj.keep(pk)
					}
					if keep {
						want = append(want, pk)
					}
				}
				res := exec(t, c, NewSession(), src)
				if got, exp := rowFingerprints(res.Rows), rowFingerprints(want); fmt.Sprint(got) != fmt.Sprint(exp) {
					t.Fatalf("%s: got %d rows %v, want %d rows %v\nplan:\n%s", src, len(res.Rows), res.Rows, len(want), want, res.Stats.LogicalPlan)
				}
				if scanned := scanTuples(res); scanned < int64(len(pks[ds])) {
					narrowed++
				}
			}
			if narrowed < 120 {
				t.Errorf("only %d of 160 queries scanned fewer rows than the dataset holds", narrowed)
			}
		})
	}
}

// scanTuples sums the tuples the query's data scans emitted.
func scanTuples(res *Result) int64 {
	var n int64
	for _, op := range res.Stats.PhysicalOps {
		if strings.HasPrefix(op.Name, "DataScan(") {
			n += op.TuplesOut
		}
	}
	return n
}

// TestPKRangeSelfJoinKeepsUnrangedSide joins a dataset with itself,
// ranging only the outer side. Scan reuse must not hand the unranged
// inner side the outer side's narrowed scan.
func TestPKRangeSelfJoinKeepsUnrangedSide(t *testing.T) {
	c, _ := pkRangeCluster(t, "columnar")
	res := exec(t, c, NewSession(), `
		count(for $o in dataset Ints for $i in dataset Ints
		where $o.v = $i.v - 1 and $o.id >= 20 and $o.id < 30
		return $o.id)`)
	// Consecutive stored keys have consecutive v, so every outer row in
	// [20, 30) has an inner partner; the last one's partner (key 30)
	// lies outside the outer range.
	want := 0
	for i := int64(20); i < 30; i++ {
		if i%7 != 3 {
			want++
		}
	}
	if len(res.Rows) != 1 || res.Rows[0].Int() != int64(want) {
		t.Fatalf("count = %v, want [%d]\nplan:\n%s", res.Rows, want, res.Stats.LogicalPlan)
	}
	if !strings.Contains(res.Stats.LogicalPlan, "key:[20, 30)") {
		t.Errorf("outer scan not ranged:\n%s", res.Stats.LogicalPlan)
	}
}

// TestPKRangeExplain checks the readable range in EXPLAIN and, with
// explain analyze, that an index-nested-loop join's outer data scan
// emits exactly the rows of its range.
func TestPKRangeExplain(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	sess := NewSession()
	exec(t, c, sess, `create dataset Docs primary key id;`)
	var batch []adm.Value
	words := []string{"great", "product", "movie", "charger", "gift", "best", "ever"}
	for i := 0; i < 400; i++ {
		rec := adm.EmptyRecord(2)
		rec.Set("id", adm.NewInt(int64(i)))
		rec.Set("summary", adm.NewString(words[i%7]+" "+words[(i/7)%7]+" "+words[(i/49)%7]))
		batch = append(batch, adm.NewRecord(rec))
	}
	if err := c.InsertBatch("Default", "Docs", batch); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	exec(t, c, sess, `create index docs_kw on Docs(summary) type keyword;`)

	for src, want := range map[string]string{
		`for $r in dataset Docs where $r.id >= 100 and $r.id < 110 return $r.id`:  "key:[100, 110)",
		`for $r in dataset Docs where 110 >= $r.id and $r.id > 99.5 return $r.id`: "key:(99.5, 110]",
		`for $r in dataset Docs where $r.id = 'x' return $r.id`:                   `key:["x", "x"]`,
		`for $r in dataset Docs where $r.id < 5 return $r.id`:                     "key:(-inf, 5)",
	} {
		plan := rowsText(exec(t, c, sess, "explain "+src))
		if !strings.Contains(plan, want) {
			t.Errorf("explain %s: want %q in\n%s", src, want, plan)
		}
	}

	res := exec(t, c, sess, `explain analyze count(for $o in dataset Docs for $i in dataset Docs
		where similarity-jaccard(word-tokens($o.summary), word-tokens($i.summary)) >= 0.5
		and $o.id >= 100 and $o.id < 110 and $o.id < $i.id return $o.id)`)
	report := rowsText(res)
	if res.Stats.IndexSearches == 0 {
		t.Fatalf("join did not use the index:\n%s", report)
	}
	if !strings.Contains(report, "key:[100, 110)") {
		t.Errorf("outer scan not ranged:\n%s", report)
	}
	if got := scanTuples(res); got != 10 {
		t.Errorf("outer DataScan emitted %d tuples, want the range's 10:\n%s", got, report)
	}
}
