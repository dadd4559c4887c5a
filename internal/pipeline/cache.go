package pipeline

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"ccmem/internal/diskcache"
	"ccmem/internal/ir"
	"ccmem/internal/obs"
	"ccmem/internal/remotecache"
)

// DefaultCacheEntries bounds a driver's private cache. Each entry is one
// compiled artifact (a function body after a stage, or a whole program),
// so the bound is a count, not bytes; the suite's largest sweeps stay
// well under it while runaway callers evict in LRU order.
const DefaultCacheEntries = 4096

// digest is a content address: SHA-256 over the canonical encoding
// produced in hash.go.
type digest [32]byte

// Cache is a bounded, thread-safe, content-addressed artifact store with
// LRU eviction, optionally backed by a persistent disk tier
// (internal/diskcache) and a remote HTTP tier (internal/remotecache).
// The read path is memory → disk → remote → miss: a lower-tier hit is
// decoded, verified, and promoted into every tier above it; a decode
// failure withdraws the entry (disk quarantine / remote reclassify) and
// reads as a miss. The write path is write-through to memory and disk and
// write-behind to the remote tier (asynchronous, bounded, never blocking
// a compile). A failing disk or a sick remote tier therefore degrades
// this cache to exactly its upper-tier behavior.
//
// Artifacts are immutable shared state: put freezes every ir.Func in the
// stored artifact (ir.Func.Freeze), which the pipeline's stages store
// without copying, and get hands artifacts out by reference — no
// defensive deep copy on the hit path. A consumer that wants to mutate a
// cached function must take ir.Func.Clone first; the pipeline does so
// lazily, at the first pass that actually rewrites the function, so a
// program-tier hit performs zero deep clones.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[digest]*list.Element
	lru     *list.List // front = most recently used
	disk    *diskcache.Cache
	remote  *remotecache.Client

	hits      int64
	misses    int64
	evictions int64

	// Whole-cache outcome counters, recorded at lookup resolution: a
	// lookup served from either tier is one wholeHit, a lookup that fell
	// through both tiers (or whose disk payload failed to decode) is one
	// wholeMiss. Kept separately from the per-tier counters because no
	// combination of tier counters reconstructs them: the disk tier can
	// attach late, detach, or degrade to memory-only mid-run, and its
	// counters then stop describing this cache's lookups.
	wholeHits   atomic.Int64
	wholeMisses atomic.Int64
}

type cacheItem struct {
	key digest
	val any
}

// NewCache builds a cache bounded to maxEntries artifacts (<=0 uses
// DefaultCacheEntries).
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &Cache{
		max:     maxEntries,
		entries: make(map[digest]*list.Element),
		lru:     list.New(),
	}
}

// AttachDisk backs the cache with a persistent tier. Safe to call on a
// cache already in use; passing nil detaches.
func (c *Cache) AttachDisk(d *diskcache.Cache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.disk = d
}

// Disk returns the attached persistent tier (nil when memory-only).
func (c *Cache) Disk() *diskcache.Cache {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// AttachRemote backs the cache with a remote HTTP tier, consulted after
// a disk miss. Safe to call on a cache already in use; nil detaches.
func (c *Cache) AttachRemote(r *remotecache.Client) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.remote = r
}

// Remote returns the attached remote tier (nil when none).
func (c *Cache) Remote() *remotecache.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remote
}

// kindName labels an artifact kind in spans.
func kindName(kind uint32) string {
	switch kind {
	case diskKindFrontV2:
		return "front"
	case diskKindBackV2:
		return "back"
	case diskKindProgramV2:
		return "program"
	}
	return "unknown"
}

// freezeArtifact marks every function in a cached artifact immutable;
// from then on the artifact may be shared by reference across compiles
// and workers (see the Cache doc comment).
func freezeArtifact(v any) {
	switch a := v.(type) {
	case *frontArtifact:
		if a.fn != nil {
			a.fn.Freeze()
		}
	case *backArtifact:
		if a.fn != nil {
			a.fn.Freeze()
		}
	case *programArtifact:
		for _, f := range a.funcs {
			if f != nil {
				f.Freeze()
			}
		}
	}
}

// get looks k up memory-first, then disk, then remote. sh, when
// non-nil, receives one span per tier consulted ("cache:mem",
// "cache:disk", "cache:remote") with kind and result attributes.
func (c *Cache) get(k digest, kind uint32, sh *obs.Shard) (any, bool) {
	var t0 time.Time
	if sh != nil {
		t0 = time.Now()
	}
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		c.hits++
		c.wholeHits.Add(1)
		c.lru.MoveToFront(e)
		v := e.Value.(*cacheItem).val
		c.mu.Unlock()
		if sh != nil {
			sh.Record("cache:mem", "cache", t0, time.Since(t0),
				obs.Attr{Key: "kind", Value: kindName(kind)}, obs.Attr{Key: "result", Value: "hit"})
		}
		return v, true
	}
	c.misses++
	disk := c.disk
	remote := c.remote
	c.mu.Unlock()
	if sh != nil {
		sh.Record("cache:mem", "cache", t0, time.Since(t0),
			obs.Attr{Key: "kind", Value: kindName(kind)}, obs.Attr{Key: "result", Value: "miss"})
	}
	if disk != nil {
		var t1 time.Time
		if sh != nil {
			t1 = time.Now()
		}
		diskSpan := func(result string) {
			if sh != nil {
				sh.Record("cache:disk", "cache", t1, time.Since(t1),
					obs.Attr{Key: "kind", Value: kindName(kind)}, obs.Attr{Key: "result", Value: result})
			}
		}
		// Get quarantines a verified entry of another kind (one written
		// by an earlier release's JSON codec): Put is a no-op on an
		// indexed key, so leaving it would block its v2 replacement.
		payload, ok := disk.Get(diskcache.Key(k), kind)
		if ok {
			v, err := decodeArtifact(kind, payload)
			if err != nil {
				// The entry's bytes verified but its payload is garbage: a
				// foreign or buggy writer. Withdraw it and read as a miss
				// (the remote tier may still have a good copy below).
				disk.ReportDecodeFailure(diskcache.Key(k))
				diskSpan("miss")
			} else {
				freezeArtifact(v)
				c.wholeHits.Add(1)
				diskSpan("hit")
				// Promote into memory so repeat lookups skip the disk; no
				// counters — the disk tier already recorded the hit.
				c.mu.Lock()
				c.insertLocked(k, v)
				c.mu.Unlock()
				return v, true
			}
		} else {
			diskSpan("miss")
		}
	}
	if remote == nil {
		c.wholeMisses.Add(1)
		return nil, false
	}
	var t2 time.Time
	if sh != nil {
		t2 = time.Now()
	}
	remoteSpan := func(result string) {
		if sh != nil {
			sh.Record("cache:remote", "cache", t2, time.Since(t2),
				obs.Attr{Key: "kind", Value: kindName(kind)}, obs.Attr{Key: "result", Value: result})
		}
	}
	payload, ok := remote.Get(diskcache.Key(k), kind)
	if !ok {
		c.wholeMisses.Add(1)
		remoteSpan("miss")
		return nil, false
	}
	v, err := decodeArtifact(kind, payload)
	if err != nil {
		// Checksum-consistent bytes from a buggy writer: reclassify the
		// remote hit as a miss and fall through to a real compile.
		remote.ReportDecodeFailure()
		c.wholeMisses.Add(1)
		remoteSpan("miss")
		return nil, false
	}
	freezeArtifact(v)
	c.wholeHits.Add(1)
	remoteSpan("hit")
	// Promote into memory and disk so repeat lookups — and future
	// process restarts — stop paying for the network.
	c.mu.Lock()
	c.insertLocked(k, v)
	c.mu.Unlock()
	if disk != nil {
		disk.Put(diskcache.Key(k), kind, payload)
	}
	return v, true
}

func (c *Cache) put(k digest, kind uint32, v any) {
	// Frozen before it is shared: from the moment the artifact enters the
	// memory tier, concurrent compiles may hold references to it.
	freezeArtifact(v)
	c.mu.Lock()
	c.insertLocked(k, v)
	disk := c.disk
	remote := c.remote
	c.mu.Unlock()
	if disk == nil && remote == nil {
		return
	}
	payload := encodeArtifact(kind, v)
	if disk != nil {
		disk.Put(diskcache.Key(k), kind, payload)
	}
	if remote != nil {
		// Write-behind: queued, never blocking the compile.
		remote.Put(diskcache.Key(k), kind, payload)
	}
}

// insertLocked adds or refreshes a memory entry and evicts over the
// bound. Caller holds c.mu.
func (c *Cache) insertLocked(k digest, v any) {
	if e, ok := c.entries[k]; ok {
		e.Value.(*cacheItem).val = v
		c.lru.MoveToFront(e)
		return
	}
	c.entries[k] = c.lru.PushFront(&cacheItem{key: k, val: v})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheItem).key)
		c.evictions++
	}
}

// Len returns the number of artifacts in the memory tier.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a counter snapshot across all tiers. The top-level
// Hits/Misses describe the cache as a whole (an artifact served from
// any tier is a hit; a miss means it had to be compiled) and come
// from dedicated per-lookup counters rather than from re-deriving them
// out of tier counters: the disk tier's own counters stop describing
// this cache's lookups once the tier degrades to memory-only mid-run
// (or attaches late), which used to erase memory-tier misses and
// inflate HitRate. Memory, Disk, and Remote break each tier out, and
// because every resolved lookup lands in exactly one tier's counters,
// Hits == Memory.Hits + Disk.Hits + Remote.Hits. Evictions and
// Entries keep their historical memory-tier meaning. HitRate is
// Hits/(Hits+Misses), 0 when the cache has never been consulted.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Hits:      c.wholeHits.Load(),
		Misses:    c.wholeMisses.Load(),
		Evictions: c.evictions,
		Entries:   c.lru.Len(),
		Memory: TierStats{
			Hits:      c.hits,
			Misses:    c.misses,
			Evictions: c.evictions,
			Entries:   c.lru.Len(),
		},
	}
	if c.disk != nil {
		ds := c.disk.Stats()
		st.Disk = DiskTierStats{
			TierStats: TierStats{
				Hits:      ds.Hits,
				Misses:    ds.Misses,
				Evictions: ds.Evictions,
				Entries:   ds.Entries,
			},
			Writes:           ds.Writes,
			Corruptions:      ds.Corruptions,
			Quarantines:      ds.Quarantines,
			ReadErrors:       ds.ReadErrors,
			WriteErrors:      ds.WriteErrors,
			SweptTemps:       ds.SweptTemps,
			DegradedToMemory: ds.DegradedToMemory,
			Bytes:            ds.Bytes,
			Degraded:         ds.Degraded,
		}
	}
	if c.remote != nil {
		st.Remote = remoteTierStats(c.remote.Stats())
	}
	if lookups := st.Hits + st.Misses; lookups > 0 {
		st.HitRate = float64(st.Hits) / float64(lookups)
	}
	return st
}

// remoteTierStats converts a remotecache snapshot into the report
// shape.
func remoteTierStats(rs remotecache.Stats) RemoteTierStats {
	st := RemoteTierStats{
		Hits:        rs.Hits,
		Misses:      rs.Misses,
		Puts:        rs.Puts,
		PutDrops:    rs.PutDrops,
		PutErrors:   rs.PutErrors,
		Retries:     rs.Retries,
		Timeouts:    rs.Timeouts,
		NetErrors:   rs.NetErrors,
		HTTPErrors:  rs.HTTPErrors,
		Corruptions: rs.Corruptions,
		Skipped:     rs.Skipped,
		Trips:       rs.Trips,
		Probes:      rs.Probes,
		Circuit:     rs.Circuit,
	}
	if lookups := rs.Hits + rs.Misses; lookups > 0 {
		st.HitRate = float64(rs.Hits) / float64(lookups)
	}
	return st
}

// frontArtifact is a function after the front stage (optimize +
// allocate), plus the report fields those passes produced.
type frontArtifact struct {
	fn *ir.Func
	fr FuncReport // naive spill bytes, spilled ranges, integrated CCM use
}

// backArtifact is a function after the back stage (compaction).
type backArtifact struct {
	fn           *ir.Func
	compactAfter int64
	webs         int
}

// programArtifact is a fully compiled program: final function bodies in
// input order plus the complete per-function report.
type programArtifact struct {
	funcs   []*ir.Func
	perFunc map[string]FuncReport
}
