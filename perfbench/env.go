package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"simdb/internal/core"
)

// setupCount is how many times a run builds its database; setup_s is
// the median, and the last build is the one measured.
const setupCount = 3

// dbSpec is the configuration one workload opens its database with.
type dbSpec struct {
	transport  string // "inproc" or "tcp"
	serve      bool   // start the simdbd HTTP front end
	cacheBytes int64  // buffer cache per node; 0 takes the default
	memtable   int64  // memory-component budget per node; 0 takes the default
}

func (s dbSpec) config(dir string) core.Config {
	cfg := core.Config{
		DataDir:                 dir,
		NumNodes:                2,
		Transport:               s.transport,
		DiskBufferCacheBytes:    s.cacheBytes,
		MemComponentBudgetBytes: s.memtable,
		QueryTimeout:            30 * time.Second,
		AdmissionTimeout:        10 * time.Second,
		WALSyncMode:             "commit",
	}
	if s.serve {
		cfg.ServeAddr = "127.0.0.1:0"
	}
	return cfg
}

// buildDB opens a fresh database under dir and loads recs into the
// indexed Reviews dataset: create the dataset, InsertBatch the records,
// build the keyword and n-gram indexes, and flush.
func buildDB(dir string, spec dbSpec, recs []review) (*core.Database, error) {
	db, err := core.Open(spec.config(dir))
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	fail := func(err error) (*core.Database, error) {
		db.Close()
		return nil, err
	}
	if _, err := db.Query(fmt.Sprintf("create dataset %s primary key id;", dsName)); err != nil {
		return fail(err)
	}
	vs := values(recs)
	for i := 0; i < len(vs); i += batchSize {
		if err := db.InsertBatch(dsName, vs[i:min(i+batchSize, len(vs))]); err != nil {
			return fail(fmt.Errorf("load: %w", err))
		}
	}
	for _, ddl := range []string{
		fmt.Sprintf("create index %s on %s(summary) type keyword;", kwIndex, dsName),
		fmt.Sprintf("create index %s on %s(reviewerName) type ngram(%d);", ngIndex, dsName, gramLen),
	} {
		if _, err := db.Query(ddl); err != nil {
			return fail(err)
		}
	}
	if err := db.Flush(); err != nil {
		return fail(fmt.Errorf("flush: %w", err))
	}
	return db, nil
}

// setup builds the database setupCount times, each in a fresh
// directory under root, and keeps the last one open. It returns that
// database, its directory, and the median build time in seconds.
func setup(root string, spec dbSpec, recs []review) (*core.Database, string, float64, error) {
	var times []float64
	for k := 0; k < setupCount; k++ {
		dir := filepath.Join(root, fmt.Sprintf("db%d", k))
		t0 := time.Now()
		db, err := buildDB(dir, spec, recs)
		if err != nil {
			return nil, "", 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if k == setupCount-1 {
			return db, dir, median(times), nil
		}
		if err := db.Close(); err != nil {
			return nil, "", 0, fmt.Errorf("setup: close: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", 0, err
		}
	}
	panic("unreachable")
}
