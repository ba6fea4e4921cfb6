package main

import (
	"time"

	"simdb/internal/sim"
	"simdb/internal/tokenizer"
)

// pairSet is a workload's verification work: Jaccard pairs (a query's
// tokens against a candidate's) and edit-distance pairs.
type pairSet struct {
	jac   [][2][]string
	delta []float64
	ed    [][2]string
	k     int
}

// maxPairs bounds the replayed pairs per workload.
const maxPairs = 100000

func (p *pairSet) addJaccard(q []string, delta float64, ix *refIndex) {
	for _, i := range ix.candidates(q) {
		if len(p.jac) >= maxPairs {
			return
		}
		p.jac = append(p.jac, [2][]string{q, ix.recs[i].tokens})
		p.delta = append(p.delta, delta)
	}
}

func (p *pairSet) addEdit(q string, k int, ix *refIndex) {
	p.k = k
	l := len([]rune(q))
	for d := -k; d <= k; d++ {
		for _, i := range ix.byLen[l+d] {
			if len(p.ed) >= maxPairs {
				return
			}
			p.ed = append(p.ed, [2]string{q, ix.recs[i].name})
		}
	}
}

// replayTokSim times the public tokenizer and sim functions on the
// workload's own records and candidate pairs, and records one span
// for each replay.
func replayTokSim(r *run, recs []review, pairs *pairSet) {
	const minTime = 100 * time.Millisecond
	t0 := time.Now()
	n := 0
	for time.Since(t0) < minTime {
		for _, rv := range recs {
			tokenizer.WordTokens(rv.summary)
			tokenizer.GramTokens(rv.name, gramLen, true)
		}
		n += len(recs)
	}
	d := time.Since(t0)
	r.rec.region("tokenizer replay", "tokenizer", t0, d)
	r.layers["tokenize.ns_per_record"] = float64(d.Nanoseconds()) / float64(max(n, 1))

	if len(pairs.jac)+len(pairs.ed) == 0 {
		return
	}
	t0 = time.Now()
	n = 0
	for time.Since(t0) < minTime {
		for i, p := range pairs.jac {
			sim.JaccardCheck(p[0], p[1], pairs.delta[i])
		}
		for _, p := range pairs.ed {
			sim.EditDistanceCheck(p[0], p[1], pairs.k)
		}
		n += len(pairs.jac) + len(pairs.ed)
	}
	d = time.Since(t0)
	r.rec.region("sim replay", "sim", t0, d)
	r.layers["verify.ns_per_pair"] = float64(d.Nanoseconds()) / float64(n)
}
