// Package invindex implements SimDB's LSM-based secondary inverted
// indexes — the "keyword" and "n-gram" index types of the paper — and
// the T-occurrence list-merging algorithms (ScanCount, MergeSkip,
// DivideSkip from Li et al., cited by the paper) that turn posting
// lists into candidate primary keys.
//
// The index is token-agnostic: callers tokenize field values (word
// tokens for keyword indexes, padded n-grams for n-gram indexes) and
// the index stores one entry per (token, primaryKey) pair, keyed by the
// order-preserving concatenation of the two. Posting-list retrieval is
// a range scan over one token's prefix. Everything sits on the same LSM
// component/page/bloom/buffer-cache substrate as the primary index.
package invindex

import (
	"fmt"
	"sort"

	"simdb/internal/adm"
	"simdb/internal/storage"
)

// PK is an encoded primary key (an adm ordered-key byte string). Using
// the string type keeps comparisons and map keying cheap.
type PK = string

// Index is one partition's inverted index.
type Index struct {
	tree *storage.LSMTree
}

// Open opens (or creates) the index stored in dir.
func Open(dir string, opts storage.LSMOptions) (*Index, error) {
	tree, err := storage.OpenLSM(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("invindex: %w", err)
	}
	return &Index{tree: tree}, nil
}

// Close flushes and closes the underlying tree.
func (ix *Index) Close() error { return ix.tree.Close() }

// entryKey builds the composite (token, pk) key. The token's ordered
// encoding is self-terminating, so the concatenation groups all entries
// of one token contiguously in token order.
func entryKey(token string, pk PK) []byte {
	k := adm.AppendOrderedKey(nil, adm.NewString(token))
	return append(k, pk...)
}

// tokenPrefix returns the key prefix shared by every entry of token.
func tokenPrefix(token string) []byte {
	return adm.AppendOrderedKey(nil, adm.NewString(token))
}

// prefixEnd returns the smallest key greater than every key starting
// with prefix.
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil // all 0xFF: scan to the end
}

// Insert adds (token, pk) entries for every distinct token. Duplicate
// tokens within one call collapse to a single entry, matching the
// set-of-grams semantics of the T-occurrence bound. All entries are
// applied under one tree lock acquisition.
func (ix *Index) Insert(tokens []string, pk PK) error {
	keys := make([][]byte, 0, len(tokens))
	seen := make(map[string]struct{}, len(tokens))
	for _, tok := range tokens {
		if _, dup := seen[tok]; dup {
			continue
		}
		seen[tok] = struct{}{}
		keys = append(keys, entryKey(tok, pk))
	}
	return ix.tree.PutMulti(keys, nil)
}

// EntryKeys returns the deduplicated composite (token, pk) entry keys
// Insert would write — the ingestion pipeline uses them to commit a
// record's postings atomically with its primary row via
// storage.CommitGroup.
func (ix *Index) EntryKeys(tokens []string, pk PK) [][]byte {
	keys := make([][]byte, 0, len(tokens))
	seen := make(map[string]struct{}, len(tokens))
	for _, tok := range tokens {
		if _, dup := seen[tok]; dup {
			continue
		}
		seen[tok] = struct{}{}
		keys = append(keys, entryKey(tok, pk))
	}
	return keys
}

// Tree exposes the underlying LSM tree for cross-tree atomic commits.
func (ix *Index) Tree() *storage.LSMTree { return ix.tree }

// Remove deletes the (token, pk) entries for the given tokens.
func (ix *Index) Remove(tokens []string, pk PK) error {
	seen := make(map[string]struct{}, len(tokens))
	for _, tok := range tokens {
		if _, dup := seen[tok]; dup {
			continue
		}
		seen[tok] = struct{}{}
		if err := ix.tree.Delete(entryKey(tok, pk)); err != nil {
			return err
		}
	}
	return nil
}

// BulkLoad streams pre-sorted (token, pk) pairs into a single
// component. Pairs must arrive sorted by (token, pk) with no
// duplicates; the index must be empty.
func (ix *Index) BulkLoad(next func() (token string, pk PK, ok bool, err error)) error {
	return ix.tree.BulkLoad(func() ([]byte, []byte, bool, error) {
		tok, pk, ok, err := next()
		if !ok || err != nil {
			return nil, nil, false, err
		}
		return entryKey(tok, pk), nil, true, nil
	})
}

// Flush forces the in-memory component to disk.
func (ix *Index) Flush() error { return ix.tree.Flush() }

// Quiesce blocks until the index's tree has no pending background
// maintenance (flushes drained, merge policy satisfied).
func (ix *Index) Quiesce() error { return ix.tree.Quiesce() }

// Stats exposes the underlying LSM stats (component count, disk bytes).
func (ix *Index) Stats() storage.Stats { return ix.tree.Stats() }

// Postings returns the sorted primary keys containing token.
func (ix *Index) Postings(token string) ([]PK, error) {
	snap := ix.tree.Snapshot()
	defer snap.Close()
	return snapPostings(snap, token)
}

// snapPostings fetches one token's posting list from a tree snapshot.
func snapPostings(snap *storage.TreeSnapshot, token string) ([]PK, error) {
	prefix := tokenPrefix(token)
	var out []PK
	err := snap.Scan(nil, prefix, prefixEnd(prefix), func(k, _ []byte) bool {
		out = append(out, PK(k[len(prefix):]))
		return true
	})
	return out, err
}

// Algorithm selects the T-occurrence list-merging algorithm.
type Algorithm int

// The available T-occurrence algorithms.
const (
	ScanCount Algorithm = iota
	MergeSkip
	DivideSkip
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case ScanCount:
		return "ScanCount"
	case MergeSkip:
		return "MergeSkip"
	case DivideSkip:
		return "DivideSkip"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// SearchStats reports the work a T-occurrence search performed.
type SearchStats struct {
	Lists        int   // posting lists fetched
	PostingsRead int64 // total posting entries materialized
	Candidates   int   // candidates produced
}

// Search retrieves the posting lists for the query tokens (duplicates
// collapse) and returns the primary keys occurring on at least T lists,
// in sorted order. All posting lists are read from one refcounted tree
// snapshot, so every token sees the same index version even while
// concurrent inserts, flushes, or merges run. T must be positive: a
// T <= 0 query is the paper's corner case, where the index cannot prune
// and the caller must fall back to a scan-based plan.
func (ix *Index) Search(tokens []string, t int, algo Algorithm) ([]PK, SearchStats, error) {
	var stats SearchStats
	if t <= 0 {
		return nil, stats, fmt.Errorf("invindex: non-positive occurrence threshold %d (corner case: use a scan)", t)
	}
	snap := ix.tree.Snapshot()
	defer snap.Close()
	seen := make(map[string]struct{}, len(tokens))
	lists := make([][]PK, 0, len(tokens))
	for _, tok := range tokens {
		if _, dup := seen[tok]; dup {
			continue
		}
		seen[tok] = struct{}{}
		l, err := snapPostings(snap, tok)
		if err != nil {
			return nil, stats, err
		}
		lists = append(lists, l)
		stats.PostingsRead += int64(len(l))
	}
	stats.Lists = len(lists)
	if t > len(lists) {
		return nil, stats, nil // cannot possibly reach T occurrences
	}
	var cands []PK
	switch algo {
	case ScanCount:
		cands = scanCount(lists, t)
	case MergeSkip:
		cands = mergeSkip(lists, t)
	case DivideSkip:
		cands = divideSkip(lists, t)
	default:
		return nil, stats, fmt.Errorf("invindex: unknown algorithm %v", algo)
	}
	stats.Candidates = len(cands)
	return cands, stats, nil
}

// ScanCountMerge, MergeSkipMerge, and DivideSkipMerge expose the
// T-occurrence solvers directly over in-memory posting lists (for
// benchmarks and algorithm comparisons outside an index).
func ScanCountMerge(lists [][]PK, t int) []PK  { return scanCount(lists, t) }
func MergeSkipMerge(lists [][]PK, t int) []PK  { return mergeSkip(lists, t) }
func DivideSkipMerge(lists [][]PK, t int) []PK { return divideSkip(lists, t) }

// scanCount counts occurrences with a hash map, then sorts the result.
// The map is sized for the total posting count up front, its upper
// bound on distinct keys, so counting never rehashes.
func scanCount(lists [][]PK, t int) []PK {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	counts := make(map[PK]int, total)
	for _, l := range lists {
		for _, pk := range l {
			counts[pk]++
		}
	}
	var out []PK
	for pk, c := range counts {
		if c >= t {
			out = append(out, pk)
		}
	}
	sort.Strings(out)
	return out
}
