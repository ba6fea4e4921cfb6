package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"simdb/internal/adm"
	"simdb/internal/core"
)

// Ingest-read parameters. The buffer cache and memory components are
// small so that reads run out of cache and the window sees flushes
// and merges.
const (
	ingestCache    = 1 << 20 // buffer cache bytes per node
	ingestMemtable = 1 << 20 // memory-component budget per node
	ingestChunk    = 20000   // records generated per datagen call
	ingestAhead    = 8       // batches the producer may run ahead
	ingestSample   = 20      // ingested records checked through both indexes at the end
)

// ingested is what the reader's checks need of an acknowledged record.
type ingested struct {
	name, summary string
}

// ingestState is shared by the writer and the reader.
type ingestState struct {
	mu    sync.Mutex
	acked []ingested // by id - baseRecord - 1
	last  []review   // the most recently acknowledged batch
}

func (s *ingestState) ack(batch []review) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rv := range batch {
		s.acked = append(s.acked, ingested{rv.name, rv.summary})
	}
	s.last = batch
}

// snapshot returns the number of acknowledged records and one of the
// latest, if any.
func (s *ingestState) snapshot(rng *rand.Rand) (int, *review) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.last) == 0 {
		return len(s.acked), nil
	}
	rv := s.last[rng.Intn(len(s.last))]
	return len(s.acked), &rv
}

func (s *ingestState) get(id int64) (ingested, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := id - baseRecord - 1
	if i < 0 || i >= int64(len(s.acked)) {
		return ingested{}, false
	}
	return s.acked[i], true
}

// produce generates fresh records, ids baseRecord+1 onward, in batches
// until stop closes; it closes out when done.
func produce(seed int64, stop <-chan struct{}, out chan<- []review) {
	defer close(out)
	for chunk := int64(0); ; chunk++ {
		recs, err := genReviews(seed+1+chunk, ingestChunk, baseRecord+chunk*ingestChunk)
		if err != nil {
			return
		}
		for i := 0; i < len(recs); i += batchSize {
			select {
			case out <- recs[i:min(i+batchSize, len(recs))]:
			case <-stop:
				return
			}
		}
	}
}

// readQuery builds a reader selection: two of every three steps are
// Jaccard selections, the third an edit-distance selection.
func readQuery(step int, src *review) (class, text string) {
	if step%3 != 2 {
		return "jaccard", fmt.Sprintf(
			"for $r in dataset %s where similarity-jaccard(word-tokens($r.summary), word-tokens(%s)) >= 0.8 return $r.id",
			dsName, quote(src.summary))
	}
	return "edit", fmt.Sprintf(
		"for $r in dataset %s where edit-distance($r.reviewerName, %s) <= 1 return $r.id",
		dsName, quote(src.name))
}

// idSet reads a result of ids.
func idSet(res *core.Result) (map[int64]bool, error) {
	ids := map[int64]bool{}
	for _, v := range res.Rows {
		if v.Kind() != adm.KindInt {
			return nil, fmt.Errorf("row %v is not an id", v)
		}
		ids[v.Int()] = true
	}
	return ids, nil
}

// checkRead checks a reader answer: the record the query came from is
// found, every base record that matches is found, and every ingested
// record returned matches and was submitted.
func checkRead(class string, src *review, ix *refIndex, st *ingestState, ids map[int64]bool) error {
	if !ids[src.id] {
		return fmt.Errorf("%s for record %d: record not found", class, src.id)
	}
	var want []int64
	if class == "jaccard" {
		want = ix.jaccardIDs(src.tokens, 0.8)
	} else {
		want = ix.editIDs(src.name, 1)
	}
	for _, id := range want {
		if !ids[id] {
			return fmt.Errorf("%s for record %d: base record %d missing", class, src.id, id)
		}
	}
	for id := range ids {
		if id <= baseRecord {
			continue
		}
		rec, ok := st.get(id)
		if !ok {
			// Submitted but not yet acknowledged when checked: the writer
			// runs ahead of the acknowledgement by at most one batch.
			continue
		}
		if class == "jaccard" && refJaccard(refTokens(rec.summary), src.tokens) < 0.8 ||
			class == "edit" && refEditDistance(rec.name, src.name) > 1 {
			return fmt.Errorf("%s for record %d: record %d does not match", class, src.id, id)
		}
	}
	return nil
}

func runIngest(r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	recs, err := genReviews(r.seed, baseRecord, 0)
	if err != nil {
		return err
	}
	ix := newRefIndex(recs)
	spec := dbSpec{transport: "inproc", cacheBytes: ingestCache, memtable: ingestMemtable}
	db, dir, setupS, err := setup(r.root, spec, recs)
	if err != nil {
		return err
	}
	defer db.Close()
	db.Cluster().Tracer().SetEnabled(false)
	r.e2e["setup_s"] = setupS
	recBytes := avgRecordBytes(recs)

	st := &ingestState{}
	stop := make(chan struct{})
	batches := make(chan []review, ingestAhead)
	go produce(r.seed, stop, batches)
	defer func() {
		close(stop)
		for range batches {
		}
	}()

	window := r.window
	if r.traced {
		window /= 2
	}
	phase := func() (reads []timed, acks []time.Duration, records int, sl []slice) {
		var wg sync.WaitGroup
		var werr error
		var nOps, nRecs atomic.Int64
		deadline := time.Now().Add(window)
		stopSampler := sampleSlices(time.Second, func() (int, int) { return int(nOps.Load()), int(nRecs.Load()) })
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				b, ok := <-batches
				if !ok {
					werr = fmt.Errorf("record generator stopped")
					return
				}
				s := time.Now()
				werr = db.InsertBatch(dsName, values(b))
				d := time.Since(s)
				r.rec.op("InsertBatch", "ingest", 1, s, d)
				if werr != nil {
					return
				}
				st.ack(b)
				acks = append(acks, d)
				records += len(b)
				nOps.Add(1)
				nRecs.Add(int64(len(b)))
			}
		}()
		for step := 0; time.Now().Before(deadline); step++ {
			// Steps alternate between a record just ingested and a base
			// record.
			_, src := st.snapshot(rng)
			if step%2 == 1 || src == nil {
				src = &recs[rng.Intn(len(recs))]
			}
			class, text := readQuery(step, src)
			q := &query{class: class, text: text, sess: db.NewSession(), check: func(res *core.Result) error {
				ids, err := idSet(res)
				if err != nil {
					return err
				}
				return checkRead(class, src, ix, st, ids)
			}}
			reads = append(reads, r.execute(db, q))
			nOps.Add(1)
		}
		wg.Wait()
		sl = stopSampler()
		r.attempted += len(acks)
		if werr != nil {
			r.check(outcome{err: fmt.Sprintf("InsertBatch: %v", werr)})
		}
		return reads, acks, records, sl
	}

	reads, acks, records, sl := phase()
	// The workload's work rate is the writer's: records acknowledged per
	// second beside the reads.
	r.e2e["throughput_per_s"], r.e2e["cpu_ms_per_op"] = sliceMedians(sl)
	r.timedFigures(reads, []string{"jaccard", "edit"})
	ackMs := make([]float64, len(acks))
	for i, d := range acks {
		ackMs[i] = float64(d) / 1e6
	}
	ackTail, ackPct := tail(ackMs, 99)
	r.rep.add("ingest.records_per_s", r.e2e["throughput_per_s"], "rec/s", fmt.Sprintf("InsertBatch(%d), WAL commit; median over %d one-second slices, %d records in all", batchSize, len(sl), records))
	r.rep.add("ingest.ack_p99_ms", ackTail, "ms", fmt.Sprintf("p%.1f of %d batches", ackPct, len(acks)))
	r.rep.add("read_qps", float64(len(reads))/window.Seconds(), "q/s", "reader, closed loop")
	r.e2e["rss_peak_mb"] = treeRSSPeakMB()

	if r.traced {
		untracedP50 := medianLatency(reads)
		r.startTrace(db)
		probe := startProbe(db.Metrics)
		qd := pollQueueDepth(db)
		reads, acks, records, _ = phase()
		depth := qd()
		r.layers.addProbe(probe, len(reads)+len(acks), len(acks))
		var qls []queryLayers
		pairs := &pairSet{}
		for _, t := range reads {
			if t.res != nil {
				qls = append(qls, fromStats(t.res.Stats))
			}
		}
		r.layers.addQueries(qls)
		r.layers["ingest.queue_depth_max"] = float64(depth)
		r.layers["write_amp"] = ratio(float64(procWriteChars()-probe.wchar), float64(records)*recBytes)
		r.layers["trace.overhead_pct"] = 100 * (medianLatency(reads) - untracedP50) / untracedP50
		for _, rv := range recs[:200] {
			pairs.addJaccard(rv.tokens, 0.8, ix)
			pairs.addEdit(rv.name, 1, ix)
		}
		replayTokSim(r, recs, pairs)
		r.endTrace(db)
	}
	return ingestFinalCheck(r, db, dir, rng, st, len(recs), recBytes)
}

// avgRecordBytes is the mean size of a record's text form, the logical
// bytes against which write and space amplification are measured.
func avgRecordBytes(recs []review) float64 {
	var n int
	for _, rv := range recs {
		n += len(rv.val.String())
	}
	return float64(n) / float64(len(recs))
}

// pollQueueDepth samples the ingestion queue depth until the returned
// function is called, which returns the largest depth seen.
func pollQueueDepth(db *core.Database) func() int64 {
	stop := make(chan struct{})
	done := make(chan int64)
	go func() {
		var hi int64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- hi
				return
			case <-tick.C:
				hi = max(hi, db.Metrics().Gauges["cluster.ingest.queue_depth"])
			}
		}
	}()
	return func() int64 {
		close(stop)
		return <-done
	}
}

// ingestFinalCheck runs after the writer stops: the dataset's count is
// the base plus every acknowledged insert, and a sample of ingested
// records is found through both indexes.
func ingestFinalCheck(r *run, db *core.Database, dir string, rng *rand.Rand, st *ingestState, base int, recBytes float64) error {
	n, _ := st.snapshot(rng)
	check := func(class, text string, ok func(*core.Result) error) {
		q := &query{class: class, text: text, sess: db.NewSession(), check: ok}
		r.execute(db, q)
	}
	check("final.count", fmt.Sprintf("count(for $r in dataset %s return $r.id)", dsName), wantCount(int64(base+n)))
	for k := 0; k < ingestSample && n > 0; k++ {
		id := int64(baseRecord + 1 + rng.Intn(n))
		rec, _ := st.get(id)
		found := func(res *core.Result) error {
			ids, err := idSet(res)
			if err != nil {
				return err
			}
			if !ids[id] || res.Stats.IndexSearches == 0 {
				return fmt.Errorf("record %d not found through the index (%d index searches)", id, res.Stats.IndexSearches)
			}
			return nil
		}
		src := review{id: id, name: rec.name, summary: rec.summary, tokens: refTokens(rec.summary)}
		for _, step := range []int{0, 2} {
			class, text := readQuery(step, &src)
			check("final."+class, text, found)
		}
	}
	if err := db.Flush(); err != nil {
		return fmt.Errorf("final flush: %w", err)
	}
	disk := dirBytes(dir)
	m := db.Metrics()
	r.rep.note("data", fmt.Sprintf("%d base + %d ingested records; %d bytes on disk (%d in LSM components) vs buffer cache %d bytes per node x 2 nodes",
		base, n, disk, m.Gauges["storage.disk.bytes"], ingestCache))
	if r.traced {
		r.layers["space_amp"] = ratio(float64(m.Gauges["storage.disk.bytes"]), float64(base+n)*recBytes)
	}
	return nil
}

// sampleSlices cuts a closed-loop phase into slices of length every:
// each tick reads the process tree's CPU time and the operation and
// work counters. The returned function stops sampling, closes the last
// slice and returns them all.
func sampleSlices(every time.Duration, counters func() (ops, work int)) func() []slice {
	type mark struct {
		t         time.Time
		cpu       time.Duration
		ops, work int
	}
	read := func() mark {
		o, w := counters()
		return mark{time.Now(), treeCPU(), o, w}
	}
	var marks []mark
	stop := make(chan struct{})
	done := make(chan struct{})
	marks = append(marks, read())
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				marks = append(marks, read())
			}
		}
	}()
	return func() []slice {
		close(stop)
		<-done
		marks = append(marks, read())
		var sl []slice
		for i := 1; i < len(marks); i++ {
			a, b := marks[i-1], marks[i]
			sl = append(sl, slice{dur: b.t.Sub(a.t), cpu: b.cpu - a.cpu, ops: b.ops - a.ops, work: b.work - a.work})
		}
		return sl
	}
}
