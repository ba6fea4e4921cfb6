package main

import "sort"

// refIndex answers similarity predicates over generated records
// without the engine: a token → record map narrows Jaccard candidates
// to records sharing a token, and a length filter narrows edit-distance
// candidates. Both then apply the exact reference predicate.
type refIndex struct {
	recs     []review
	postings map[string][]int32 // token → indexes into recs, ascending
	byLen    map[int][]int32    // name length in runes → indexes into recs
}

func newRefIndex(recs []review) *refIndex {
	ix := &refIndex{postings: map[string][]int32{}, byLen: map[int][]int32{}}
	ix.add(recs)
	return ix
}

// add appends records; their ids must exceed every id already added.
func (ix *refIndex) add(recs []review) {
	for _, r := range recs {
		i := int32(len(ix.recs))
		ix.recs = append(ix.recs, r)
		seen := map[string]bool{}
		for _, t := range r.tokens {
			if !seen[t] {
				seen[t] = true
				ix.postings[t] = append(ix.postings[t], i)
			}
		}
		l := len([]rune(r.name))
		ix.byLen[l] = append(ix.byLen[l], i)
	}
}

// jaccardIDs returns the ids of records whose summary tokens have
// Jaccard similarity >= delta with q, in ascending id order.
func (ix *refIndex) jaccardIDs(q []string, delta float64) []int64 {
	var out []int64
	for _, i := range ix.candidates(q) {
		if refJaccard(ix.recs[i].tokens, q) >= delta {
			out = append(out, ix.recs[i].id)
		}
	}
	return out
}

// candidates returns the indexes of records sharing a token with q, in
// ascending order.
func (ix *refIndex) candidates(q []string) []int32 {
	hit := map[int32]bool{}
	for _, t := range q {
		for _, i := range ix.postings[t] {
			hit[i] = true
		}
	}
	out := make([]int32, 0, len(hit))
	for i := range hit {
		out = append(out, i)
	}
	sortInt32(out)
	return out
}

// editIDs returns the ids of records whose name is within edit
// distance k of q, in ascending id order.
func (ix *refIndex) editIDs(q string, k int) []int64 {
	l := len([]rune(q))
	var idx []int32
	for d := -k; d <= k; d++ {
		idx = append(idx, ix.byLen[l+d]...)
	}
	sortInt32(idx)
	var out []int64
	for _, i := range idx {
		if refEditDistance(ix.recs[i].name, q) <= k {
			out = append(out, ix.recs[i].id)
		}
	}
	return out
}

// jaccardJoinCount counts pairs (o, i) with o's id in [lo, hi), o.id <
// i.id, and Jaccard(o, i) >= delta: the naive nested loop over the
// outer range, with the token map only skipping inner records that
// share no token (those have similarity 0).
func (ix *refIndex) jaccardJoinCount(lo, hi int64, delta float64) int64 {
	var n int64
	for _, o := range ix.recs {
		if o.id < lo || o.id >= hi {
			continue
		}
		for _, i := range ix.candidates(o.tokens) {
			in := ix.recs[i]
			if o.id < in.id && refJaccard(o.tokens, in.tokens) >= delta {
				n++
			}
		}
	}
	return n
}

func sortInt32(xs []int32) {
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
}
