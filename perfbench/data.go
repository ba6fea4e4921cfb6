package main

import (
	"math/rand"
	"sort"
	"strings"
	"unicode"

	"simdb/internal/adm"
	"simdb/internal/datagen"
)

// Dataset and index names every workload uses.
const (
	dsName     = "Reviews"
	kwIndex    = "rv_summary_kw"
	ngIndex    = "rv_name_ng"
	gramLen    = 2
	batchSize  = 512
	baseRecord = 20000
)

// review is one generated Amazon record, kept beside its adm form so
// reference answers never go through the engine.
type review struct {
	id      int64
	gid     int64
	name    string
	summary string
	asin    string
	tokens  []string // reference word tokens of summary
	val     adm.Value
}

// genReviews draws n Amazon records from seed with ids idBase+1..idBase+n.
func genReviews(seed int64, n int, idBase int64) ([]review, error) {
	out := make([]review, 0, n)
	err := datagen.Generate(datagen.Amazon, n, datagen.Options{Seed: seed}, func(v adm.Value) error {
		r := v.Rec()
		id := idBase + int64(len(out)) + 1
		r.Set("id", adm.NewInt(id))
		rv := review{id: id, val: v}
		if f, ok := r.Get("gid"); ok {
			rv.gid = f.Int()
		}
		if f, ok := r.Get("reviewerName"); ok {
			rv.name = f.Str()
		}
		if f, ok := r.Get("summary"); ok {
			rv.summary = f.Str()
		}
		if f, ok := r.Get("asin"); ok {
			rv.asin = f.Str()
		}
		rv.tokens = refTokens(rv.summary)
		out = append(out, rv)
		return nil
	})
	return out, err
}

func values(rs []review) []adm.Value {
	vs := make([]adm.Value, len(rs))
	for i := range rs {
		vs[i] = rs[i].val
	}
	return vs
}

// refTokens is the benchmark's own word tokenizer: maximal runs of
// letters and digits, lower-cased, duplicates kept.
func refTokens(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// refJaccard is multiset Jaccard: |a∩b| / |a∪b|, 0 for two empty sets.
func refJaccard(a, b []string) float64 {
	counts := map[string]int{}
	for _, t := range a {
		counts[t]++
	}
	inter := 0
	for _, t := range b {
		if counts[t] > 0 {
			counts[t]--
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// refEditDistance is the textbook Levenshtein distance over runes.
func refEditDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			c := prev[j-1]
			if ra[i-1] != rb[j-1] {
				c++
			}
			c = min(c, prev[j]+1, cur[j-1]+1)
			cur[j] = c
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// quote renders s as an AQL single-quoted string literal.
func quote(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `'`, `\'`, "\n", `\n`)
	return "'" + r.Replace(s) + "'"
}

// topTokens returns the k most frequent summary tokens, most frequent
// first (ties by token text, so the order is deterministic).
func topTokens(rs []review, k int) []string {
	freq := map[string]int{}
	for i := range rs {
		for _, t := range rs[i].tokens {
			freq[t]++
		}
	}
	toks := make([]string, 0, len(freq))
	for t := range freq {
		toks = append(toks, t)
	}
	sort.Slice(toks, func(i, j int) bool {
		if freq[toks[i]] != freq[toks[j]] {
			return freq[toks[i]] > freq[toks[j]]
		}
		return toks[i] < toks[j]
	})
	if len(toks) > k {
		toks = toks[:k]
	}
	return toks
}

// typo replaces one letter of s, so an edit-distance query at k=1 still
// finds the record it came from.
func typo(r *rand.Rand, s string) string {
	rs := []rune(s)
	if len(rs) == 0 {
		return s
	}
	i := r.Intn(len(rs))
	rs[i] = rune('a' + r.Intn(26))
	return string(rs)
}
