package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// writeLookupFixture writes n entries under the even keys
// colTestKey(0), colTestKey(2), ... so every odd key falls between two
// stored ones: mostly records, every 17th an opaque value, every 23rd a
// tombstone. Row components use small pages, so both formats hold
// several pages (row) or groups (columnar).
func writeLookupFixture(t *testing.T, path string, columnar bool, n int) (keys, vals [][]byte) {
	t.Helper()
	var cw interface {
		Add(key, value []byte) error
		Finish() error
	}
	var err error
	if columnar {
		cw, err = NewColumnarComponentWriterFS(OS, path, 4096)
	} else {
		cw, err = NewComponentWriter(path, 512)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var entry []byte
		switch {
		case i%23 == 0:
			entry = []byte{1}
		case i%17 == 0:
			entry = append([]byte{0}, colTestKey(i)...)
		default:
			entry = colTestRecord(i)
		}
		k := colTestKey(2 * i)
		if err := cw.Add(k, entry); err != nil {
			t.Fatal(err)
		}
		keys, vals = append(keys, k), append(vals, entry)
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	return keys, vals
}

// TestComponentGetExhaustive checks binary-searched point lookups on
// row and columnar components: every stored key returns its exact
// bytes (tombstones included), the first and last entry of every page
// or group are found, and keys before the first entry, between
// entries, between pages and after the last are absent — through Get
// and, so the bloom filter cannot answer for the search, through
// lookup.
func TestComponentGetExhaustive(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		name := map[bool]string{false: "row", true: "columnar"}[columnar]
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "c.cmp")
			keys, vals := writeLookupFixture(t, path, columnar, 2500)
			c, err := OpenComponent(path, NewBufferCache(1<<20, 4096))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if len(c.pages) < 3 {
				t.Fatalf("fixture spans %d pages, want several", len(c.pages))
			}
			for i, k := range keys {
				for _, get := range []func([]byte) ([]byte, bool, error){c.Get, c.lookup} {
					v, ok, err := get(k)
					if err != nil || !ok || !bytes.Equal(v, vals[i]) {
						t.Fatalf("lookup(%q) = %x, %v, %v; want %x", k, v, ok, err, vals[i])
					}
				}
			}
			absent := [][]byte{[]byte("a"), []byte("key-"), colTestKey(2 * len(keys)), []byte("zzz")}
			for i := range keys {
				absent = append(absent, colTestKey(2*i+1))
			}
			for _, k := range absent {
				for _, get := range []func([]byte) ([]byte, bool, error){c.Get, c.lookup} {
					if v, ok, err := get(k); ok || err != nil {
						t.Fatalf("absent key %q: got %x, %v, %v", k, v, ok, err)
					}
				}
			}
			// Page and group boundaries: each page's first entry, the
			// entry before it (the previous page's last), and the gap
			// between them.
			pos := map[string]int{}
			for i, k := range keys {
				pos[string(k)] = i
			}
			for p, pm := range c.pages {
				i, ok := pos[string(pm.firstKey)]
				if !ok {
					t.Fatalf("page %d fence %q is not a stored key", p, pm.firstKey)
				}
				edge := []int{i}
				if i > 0 {
					edge = append(edge, i-1)
				}
				for _, j := range edge {
					if v, ok, err := c.lookup(keys[j]); err != nil || !ok || !bytes.Equal(v, vals[j]) {
						t.Fatalf("page %d edge entry %q: %x, %v, %v", p, keys[j], v, ok, err)
					}
				}
				if _, ok, err := c.lookup(colTestKey(2*i - 1)); ok || err != nil {
					t.Fatalf("gap before page %d found: %v, %v", p, ok, err)
				}
			}
			// The offset table lives with the cached page.
			if _, _, err := c.lookup(c.pages[1].firstKey); err != nil {
				t.Fatal(err)
			}
			page, err := c.readPage(1)
			if err != nil {
				t.Fatal(err)
			}
			if page.offs.Load() == nil {
				t.Fatal("a looked-up page has no cached offset table")
			}
		})
	}
}

// TestComponentGetCorruptPage corrupts a row page's entry area: the
// offset-table walk must report errCorrupt for a lookup of any key on
// that page, and keep answering for the intact pages.
func TestComponentGetCorruptPage(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "c.cmp")
	keys, vals := writeLookupFixture(t, src, false, 400)
	c, err := OpenComponent(src, NewBufferCache(1<<20, 4096))
	if err != nil {
		t.Fatal(err)
	}
	pages := append([]pageMeta(nil), c.pages...)
	c.Close()
	if len(pages) < 3 {
		t.Fatalf("fixture spans %d pages, want several", len(pages))
	}
	img, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	target := pages[1]
	for name, corrupt := range map[string]func(b []byte){
		// The entry count claims more entries than the page holds.
		"count": func(b []byte) { b[target.off] = 0xFF; b[target.off+1] = 0xFF },
		// The first entry's key length runs past the page end.
		"key-length": func(b []byte) { b[target.off+2], b[target.off+3] = 0xFF, 0x7F },
	} {
		t.Run(name, func(t *testing.T) {
			bad := append([]byte(nil), img...)
			corrupt(bad)
			path := filepath.Join(t.TempDir(), "bad.cmp")
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := OpenComponent(path, NewBufferCache(1<<20, 4096))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var ce corruptError
			if _, _, err := c.lookup(target.firstKey); !errors.As(err, &ce) {
				t.Fatalf("lookup on the corrupt page: err %v, want a corrupt-component error", err)
			}
			if v, ok, err := c.lookup(keys[0]); err != nil || !ok || !bytes.Equal(v, vals[0]) {
				t.Fatalf("lookup on an intact page: %x, %v, %v", v, ok, err)
			}
		})
	}
}

// TestComponentGetConcurrent runs first lookups of the same pages from
// several goroutines at once, so they race to build and publish each
// row page's offset table (run under -race).
func TestComponentGetConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.cmp")
	keys, vals := writeLookupFixture(t, path, false, 600)
	c, err := OpenComponent(path, NewBufferCache(1<<20, 4096))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				if v, ok, err := c.Get(keys[i]); err != nil || !ok || !bytes.Equal(v, vals[i]) {
					t.Errorf("Get(%q) = %x, %v, %v", keys[i], v, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
