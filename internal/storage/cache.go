package storage

import (
	"container/list"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// BufferCache is a node-wide LRU page cache. All component files of all
// partitions on a node read their data pages through one cache, like
// AsterixDB's per-node disk buffer cache (Table 2: "Disk buffer cache
// size"). Thread safe.
type BufferCache struct {
	pageSize int
	capacity int // in pages

	mu      sync.Mutex
	entries map[pageKey]*list.Element
	lru     *list.List // front = most recently used

	hits      atomic.Int64
	misses    atomic.Int64
	pagesRead atomic.Int64
	evictions atomic.Int64
}

type pageKey struct {
	fileID uint64
	pageNo uint32
	// tag distinguishes derived views of the same region: "" for the
	// raw bytes or the full built page, a projection signature for a
	// projected build (see readBuilt).
	tag string
}

// cachedPage is one resident cache entry. For a component data page,
// offs holds the byte offset of each entry, the table point lookups
// binary-search (see Component.Get). It lives and is evicted with the
// page bytes, so the cache bounds its memory too: columnar builds
// supply it with the image they assemble, and row pages build it on
// their first point lookup. Nil until then.
type cachedPage struct {
	key  pageKey
	data []byte
	offs atomic.Pointer[[]uint32]
}

// NewBufferCache creates a cache of capacityBytes total with the given
// page size.
func NewBufferCache(capacityBytes, pageSize int) *BufferCache {
	pages := capacityBytes / pageSize
	if pages < 4 {
		pages = 4
	}
	return &BufferCache{
		pageSize: pageSize,
		capacity: pages,
		entries:  make(map[pageKey]*list.Element),
		lru:      list.New(),
	}
}

// PageSize returns the cache's page size.
func (c *BufferCache) PageSize() int { return c.pageSize }

// ReadRegion returns bytes [off, off+length) of the reader identified
// by fileID, fetched through the cache and keyed by the region ordinal
// regionNo (component data pages are variable-length regions of
// roughly one page each, so one region ≈ one cache page). The returned
// slice is shared — callers must not modify it.
func (c *BufferCache) ReadRegion(fileID uint64, r io.ReaderAt, regionNo uint32, off int64, length int) ([]byte, error) {
	p, err := c.readRegion(fileID, r, regionNo, off, length)
	if err != nil {
		return nil, err
	}
	return p.data, nil
}

func (c *BufferCache) readRegion(fileID uint64, r io.ReaderAt, regionNo uint32, off int64, length int) (*cachedPage, error) {
	key := pageKey{fileID: fileID, pageNo: regionNo}
	if p := c.lookup(key); p != nil {
		return p, nil
	}
	data := make([]byte, length)
	n, err := r.ReadAt(data, off)
	if err != nil && !(err == io.EOF && n == length) {
		return nil, fmt.Errorf("storage: read region %d of file %d: %w", regionNo, fileID, err)
	}
	c.pagesRead.Add(1)
	return c.insert(&cachedPage{key: key, data: data}), nil
}

// readBuilt is readRegion for derived pages: on miss it calls build to
// produce the bytes (materializing a columnar row group into a page
// image) and, when it has them, their entry offsets, and caches the
// result under (fileID, regionNo, tag), so repeated reads of the same
// group skip both the disk and the reassembly. The tag lets several
// derived views of one region — the full built page and per-projection
// partial pages — be resident at once without colliding.
func (c *BufferCache) readBuilt(fileID uint64, regionNo uint32, tag string, build func() ([]byte, []uint32, error)) (*cachedPage, error) {
	key := pageKey{fileID: fileID, pageNo: regionNo, tag: tag}
	if p := c.lookup(key); p != nil {
		return p, nil
	}
	data, offs, err := build()
	if err != nil {
		return nil, err
	}
	p := &cachedPage{key: key, data: data}
	if offs != nil {
		p.offs.Store(&offs)
	}
	return c.insert(p), nil
}

// lookup returns the resident page for key, marking it most recently
// used, or counts a miss and returns nil.
func (c *BufferCache) lookup(key pageKey) *cachedPage {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*cachedPage)
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return nil
}

// insert makes p resident, evicting least recently used pages beyond
// capacity, and returns the resident page: a reader that raced p in
// keeps its copy.
func (c *BufferCache) insert(p *cachedPage) *cachedPage {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[p.key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*cachedPage)
	}
	c.entries[p.key] = c.lru.PushFront(p)
	for c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cachedPage).key)
		c.evictions.Add(1)
	}
	return p
}

// Evict drops every cached page of fileID (called when a component file
// is deleted after compaction).
func (c *BufferCache) Evict(fileID uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.entries {
		if key.fileID == fileID {
			c.lru.Remove(el)
			delete(c.entries, key)
		}
	}
}

// CacheStats is a point-in-time snapshot of cache counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	PagesRead int64
	// Evictions counts pages pushed out by capacity pressure (targeted
	// Evict() calls after compaction are not included).
	Evictions int64
}

// Stats returns the current counters.
func (c *BufferCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		PagesRead: c.pagesRead.Load(),
		Evictions: c.evictions.Load(),
	}
}

// nextFileID hands out process-unique file ids for cache keying.
var nextFileID atomic.Uint64

// NewFileID returns a process-unique id for keying cached pages.
func NewFileID() uint64 { return nextFileID.Add(1) }

type corruptError string

func errCorrupt(what string) error { return corruptError(what) }

func (e corruptError) Error() string { return "storage: corrupt component: " + string(e) }
