package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"simdb/internal/adm"
)

// buildPage assembles a data page in the component writer's format:
// uint16 entry count, then (uvarint klen, key, uvarint vlen, val) per
// entry. Used only to seed the fuzzer with well-formed input.
func buildPage(entries [][2]string) []byte {
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(entries)))
	page := hdr[:]
	for _, e := range entries {
		page = binary.AppendUvarint(page, uint64(len(e[0])))
		page = append(page, e[0]...)
		page = binary.AppendUvarint(page, uint64(len(e[1])))
		page = append(page, e[1]...)
	}
	return page
}

// buildIndex assembles a page index in the footer format: uvarint
// count, then (uvarint off, uvarint length, uvarint klen, firstKey).
func buildIndex(pages []pageMeta) []byte {
	idx := binary.AppendUvarint(nil, uint64(len(pages)))
	for _, p := range pages {
		idx = binary.AppendUvarint(idx, uint64(p.off))
		idx = binary.AppendUvarint(idx, uint64(p.length))
		idx = binary.AppendUvarint(idx, uint64(len(p.firstKey)))
		idx = append(idx, p.firstKey...)
	}
	return idx
}

// FuzzWALDecode feeds arbitrary bytes to the WAL record scanner and
// payload decoder. Both must treat any malformation as end-of-prefix /
// error — never panic, never over-allocate, never read past the
// buffer. Corrupt and torn log tails are exactly arbitrary bytes.
func FuzzWALDecode(f *testing.F) {
	// Well-formed single commit record.
	rec := appendWALFrame(nil, encodeCommit(1, []walOp{
		{tree: "p", key: []byte("k1"), val: []byte("v1")},
		{tree: "i:kw", key: []byte("tok#k1"), tombstone: true},
	}))
	f.Add(rec)
	// Commit followed by a checkpoint, then a truncated third frame.
	multi := appendWALFrame(rec, encodeCheckpoint(2, 1, "p"))
	f.Add(multi)
	// Flush-begin record (component seq 1 covering ops through LSN 2).
	f.Add(appendWALFrame(rec, encodeFlushBegin(3, 1, 2, "p")))
	f.Add(append(append([]byte(nil), multi...), multi[:11]...))
	// CRC corruption in the middle of a valid stream.
	bad := append([]byte(nil), multi...)
	bad[len(bad)/2] ^= 0xFF
	f.Add(bad)
	// Pathological headers: zero length, huge length, empty payload.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var seen int
		n := scanWALRecords(data, func(walRecord) { seen++ })
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("prefix length %d out of range [0, %d]", n, len(data))
		}
		// The accepted prefix must rescan to the same boundary — the
		// scanner is deterministic and prefix-closed (what recovery
		// relies on when it truncates a torn tail and rescans).
		if again := scanWALRecords(data[:n], nil); again != n {
			t.Fatalf("rescan of accepted prefix: %d != %d", again, n)
		}
		// The raw payload decoder must also survive the input directly.
		rec, err := decodeWALPayload(data)
		if err == nil && rec.typ == walRecCommit {
			for _, op := range rec.ops {
				_ = op.tree
			}
		}
	})
}

// FuzzComponentPage feeds arbitrary bytes to the on-disk component
// readers: the footer page index parser and the data page iterator.
// Both run over bytes read straight from disk, so bit rot must come
// back as errCorrupt, never as a panic or a runaway allocation.
func FuzzComponentPage(f *testing.F) {
	f.Add(buildPage([][2]string{{"alpha", "1"}, {"beta", "2"}, {"gamma", ""}}))
	f.Add(buildIndex([]pageMeta{
		{off: 0, length: 64, firstKey: []byte("alpha")},
		{off: 64, length: 32, firstKey: []byte("m")},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF})                         // page: huge entry count, no entries
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // index: huge uvarint count
	trunc := buildPage([][2]string{{"key", "value"}})
	f.Add(trunc[:len(trunc)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		if pages, err := parsePageIndex(data); err == nil {
			if uint64(len(pages)) > uint64(len(data)) {
				t.Fatalf("parsed %d page entries from %d bytes", len(pages), len(data))
			}
			for i := 1; i < len(pages); i++ {
				_ = bytes.Compare(pages[i-1].firstKey, pages[i].firstKey)
			}
		}
		it := pageIter{page: data}
		if err := it.init(); err != nil {
			return
		}
		var keys, vals [][]byte
		sorted := true
		for it.next() {
			if len(it.key)+len(it.val) > len(data) {
				t.Fatalf("entry larger than page: k=%d v=%d page=%d", len(it.key), len(it.val), len(data))
			}
			if len(keys) > 0 && bytes.Compare(keys[len(keys)-1], it.key) >= 0 {
				sorted = false
			}
			keys, vals = append(keys, it.key), append(vals, it.val)
			if len(keys) > len(data)+1 {
				t.Fatalf("iterator did not terminate after %d steps", len(keys))
			}
		}
		// Point lookups: the offset table accepts exactly the pages the
		// walk accepts, and on a page with increasing keys the binary
		// search returns every entry the walk yields.
		offs, err := pageOffsets(data)
		if (err != nil) != (it.err != nil) {
			t.Fatalf("offset table error %v, walk error %v", err, it.err)
		}
		if err != nil {
			return
		}
		if len(offs) != len(keys) {
			t.Fatalf("offset table has %d entries, walk yielded %d", len(offs), len(keys))
		}
		for i, k := range keys {
			v, ok, err := searchPage(data, offs, k)
			if sorted && (err != nil || !ok || !bytes.Equal(v, vals[i])) {
				t.Fatalf("searchPage(%q) = %q, %v, %v; want %q", k, v, ok, err, vals[i])
			}
		}
	})
}

// FuzzColumnarComponent feeds arbitrary bytes to the full version-2
// read path: the file is opened as a component (footer + group index
// validation) and, if accepted, scanned end to end both whole and
// projected. Corruption must surface as an error — never a panic, an
// unbounded allocation, or a runaway loop.
func FuzzColumnarComponent(f *testing.F) {
	// Seed with a genuine columnar component image.
	seedPath := filepath.Join(f.TempDir(), "seed.cmp")
	cw, err := NewColumnarComponentWriterFS(OS, seedPath, 4096)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		rec := adm.EmptyRecord(2)
		rec.Set("id", adm.NewInt(int64(i)))
		rec.Set("text", adm.NewString(fmt.Sprintf("value %d", i)))
		entry := adm.Append([]byte{0}, adm.NewRecord(rec))
		if i%7 == 0 {
			entry = []byte{1} // tombstone
		}
		if err := cw.Add([]byte(fmt.Sprintf("k%04d", i)), entry); err != nil {
			f.Fatal(err)
		}
	}
	if err := cw.Finish(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	trunc := append([]byte(nil), seed...)
	f.Add(trunc[:len(trunc)/2])
	flip := append([]byte(nil), seed...)
	flip[len(flip)/3] ^= 0xFF
	f.Add(flip)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := parseColGroupIndex(data, int64(len(data))); err != nil {
			_ = err // must simply not panic
		}
		path := filepath.Join(t.TempDir(), "f.cmp")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenComponent(path, NewBufferCache(1<<20, 4096))
		if err != nil {
			return
		}
		defer c.Close()
		limit := (len(data) + 2) * colMaxGroupRows
		scan := func(it *Iterator) {
			steps := 0
			for it.Next() {
				steps++
				if steps > limit {
					t.Fatalf("iterator did not terminate after %d steps", steps)
				}
			}
		}
		scan(c.NewIterator(nil, nil))
		scan(c.NewProjectedIterator(nil, nil, []string{"id"}))

		// Point lookups agree with iteration: Get returns every entry
		// the iterator yields, with the same bytes. The property holds
		// where Get's search can rely on the file: keys strictly
		// increasing, each in the group its fence keys name and passing
		// the bloom filter. Elsewhere Get must still not panic.
		type entry struct {
			key, val []byte
			page     int
			bloom    bool
		}
		var entries []entry
		sorted := true
		it := c.NewIterator(nil, nil)
		for it.Next() {
			k := append([]byte(nil), it.Key()...)
			if n := len(entries); n > 0 && bytes.Compare(entries[n-1].key, k) >= 0 {
				sorted = false
			}
			entries = append(entries, entry{k, append([]byte(nil), it.Value()...), it.pageIdx, c.MayContain(k)})
		}
		for _, e := range entries {
			v, ok, err := c.Get(e.key)
			if sorted && e.bloom && c.findPage(e.key) == e.page && (err != nil || !ok || !bytes.Equal(v, e.val)) {
				t.Fatalf("Get(%q) = %x, %v, %v; the iterator yielded %x", e.key, v, ok, err, e.val)
			}
		}
	})
}
