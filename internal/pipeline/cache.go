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

// digest is a content address: SHA-256 over a tag and the codec's
// encoding of the content (hash.go).
type digest [32]byte

// Cache is a bounded, thread-safe, content-addressed artifact store with
// LRU eviction, optionally backed by a persistent disk tier
// (internal/diskcache) and a remote HTTP tier (internal/remotecache).
//
// The memory tier holds every artifact: front and back artifacts (one
// function after a stage) and whole programs. The persistent tiers hold
// whole programs only, so a compile calls them at most twice, for its
// program key and on its own goroutine. A program lookup reads memory →
// disk → remote → miss: a lower-tier hit, checksummed by its tier, is
// decoded (bounds, shape and canonicity; the IR is not re-verified) and
// promoted into every tier above it; a decode failure withdraws the entry
// (disk quarantine / remote reclassify) and reads as a miss. A program
// store writes through to memory and disk and behind to the remote tier
// (asynchronous, bounded, never blocking a compile). A failing disk or a
// sick remote tier therefore degrades this cache to exactly its
// upper-tier behavior.
//
// The per-function stages never change the memory tier from their
// workers: lookup reads without reordering, and each function records
// its hit or its new artifact for commit, which applies them in function
// order once the stage joins. Which artifacts the LRU keeps, and with
// them every later compile's hit flags, is then independent of
// scheduling.
//
// Artifacts are immutable shared state: every ir.Func in a stored
// artifact is frozen (ir.Func.Freeze) — the stages freeze the function
// they record, putProgram a program's — and lookups hand artifacts out by
// reference, with no defensive deep copy on the hit path. A consumer that
// wants to mutate a cached function must take ir.Func.Clone first; the
// pipeline does so lazily, at the first pass that actually rewrites the
// function, so a program-tier hit performs zero deep clones.
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
	// lookup served from any tier is one wholeHit, a lookup that fell
	// through every tier it may consult (or whose payload failed to
	// decode) is one wholeMiss. Kept separately from the per-tier counters
	// because no combination of tier counters reconstructs them: the disk
	// tier can attach late, detach, or degrade to memory-only mid-run, and
	// its counters then stop describing this cache's lookups.
	wholeHits   atomic.Int64
	wholeMisses atomic.Int64
}

// cacheItem is one memory-tier entry. A stage records one per function
// for commit: the key of a hit to touch (val nil) or a new artifact to
// store; a zero key records nothing.
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

// AttachRemote backs the cache with a remote HTTP tier, consulted for a
// program key after a disk miss. Safe to call on a cache already in use;
// nil detaches.
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

// spanStart reads the clock for a cache span only when sh records.
func spanStart(sh *obs.Shard) time.Time {
	if sh == nil {
		return time.Time{}
	}
	return time.Now()
}

// cacheSpan records one tier's lookup ("cache:mem", "cache:disk" or
// "cache:remote") with its artifact kind and result.
func cacheSpan(sh *obs.Shard, tier, kind string, t0 time.Time, hit bool) {
	if sh == nil {
		return
	}
	result := "miss"
	if hit {
		result = "hit"
	}
	sh.Record(tier, "cache", t0, time.Since(t0),
		obs.Attr{Key: "kind", Value: kind}, obs.Attr{Key: "result", Value: result})
}

// memGet reads k from the memory tier and counts the lookup there; touch
// moves a hit to the front of the LRU.
func (c *Cache) memGet(k digest, touch bool) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.wholeHits.Add(1)
	if touch {
		c.lru.MoveToFront(e)
	}
	return e.Value.(*cacheItem).val, true
}

// lookup reads a front or back artifact from the memory tier alone and
// leaves the LRU order as it is; the stage records a hit for commit.
// kind labels the "cache:mem" span sh receives.
func (c *Cache) lookup(k digest, kind string, sh *obs.Shard) (any, bool) {
	t0 := spanStart(sh)
	v, ok := c.memGet(k, false)
	if !ok {
		c.wholeMisses.Add(1)
	}
	cacheSpan(sh, "cache:mem", kind, t0, ok)
	return v, ok
}

// commit applies the memory-tier effects a per-function stage recorded
// in states, in function order: a hit moves to the front, a new artifact
// is inserted, evicting over the bound. No two functions of one compile
// share a key (a function's name is part of its digest), so deferring a
// store to the join changes no hit inside the stage. A nil cache (caching
// off, or a bisect attempt) has nothing to commit.
func (c *Cache) commit(states []funcState) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range states {
		m := states[i].mem
		states[i].mem = cacheItem{}
		if m.val != nil {
			c.insertLocked(m.key, m.val)
		} else if e, ok := c.entries[m.key]; ok {
			c.lru.MoveToFront(e)
		}
	}
}

// getProgram looks a program key up memory-first, then disk, then
// remote. sh, when non-nil, receives one span per tier consulted.
func (c *Cache) getProgram(k digest, sh *obs.Shard) (*programArtifact, bool) {
	t0 := spanStart(sh)
	v, ok := c.memGet(k, true)
	cacheSpan(sh, "cache:mem", "program", t0, ok)
	if ok {
		return v.(*programArtifact), true
	}
	c.mu.Lock()
	disk, remote := c.disk, c.remote
	c.mu.Unlock()
	key := diskcache.Key(k)
	if disk != nil {
		t1 := spanStart(sh)
		// Get quarantines a verified entry of another kind (one an earlier
		// release wrote): Put is a no-op on an indexed key, so leaving it
		// would block its replacement. A verified payload that does not
		// decode came from a foreign or buggy writer and is withdrawn the
		// same way; the remote tier may still have a good copy.
		payload, ok := disk.Get(key, diskKindProgramV2)
		a, ok := decodeHit(payload, ok, func() { disk.ReportDecodeFailure(key) })
		cacheSpan(sh, "cache:disk", "program", t1, ok)
		if ok {
			// Promote into memory so repeat lookups skip the disk; no
			// counters — the disk tier already recorded the hit.
			c.promote(k, a)
			return a, true
		}
	}
	if remote != nil {
		t2 := spanStart(sh)
		// Checksum-consistent bytes from a buggy writer: the hit is
		// reclassified as a miss and the program compiles.
		payload, ok := remote.Get(key, diskKindProgramV2)
		a, ok := decodeHit(payload, ok, remote.ReportDecodeFailure)
		cacheSpan(sh, "cache:remote", "program", t2, ok)
		if ok {
			// Promote into memory and disk so repeat lookups — and future
			// process restarts — stop paying for the network.
			c.promote(k, a)
			if disk != nil {
				disk.Put(key, diskKindProgramV2, payload)
			}
			return a, true
		}
	}
	c.wholeMisses.Add(1)
	return nil, false
}

// decodeHit decodes the payload of a persistent tier's hit; a payload
// that does not decode is withdrawn from its tier and reads as a miss.
func decodeHit(payload []byte, hit bool, withdraw func()) (*programArtifact, bool) {
	if !hit {
		return nil, false
	}
	a, err := decodeProgramV2(payload)
	if err != nil {
		withdraw()
		return nil, false
	}
	return a, true
}

// promote freezes a program decoded from a lower tier and inserts it
// into the memory tier as a whole-cache hit.
func (c *Cache) promote(k digest, a *programArtifact) {
	freezeFuncs(a.funcs)
	c.wholeHits.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(k, a)
}

// putProgram stores a program artifact in memory, writes it through to
// the disk tier and behind to the remote tier. It freezes the program's
// functions first: from the moment the artifact enters the memory tier,
// concurrent compiles may hold references to it.
func (c *Cache) putProgram(k digest, a *programArtifact) {
	freezeFuncs(a.funcs)
	c.mu.Lock()
	c.insertLocked(k, a)
	disk, remote := c.disk, c.remote
	c.mu.Unlock()
	if disk == nil && remote == nil {
		return
	}
	payload := encodeProgramV2(a)
	if disk != nil {
		disk.Put(diskcache.Key(k), diskKindProgramV2, payload)
	}
	if remote != nil {
		// Write-behind: queued, never blocking the compile.
		remote.Put(diskcache.Key(k), diskKindProgramV2, payload)
	}
}

func freezeFuncs(funcs []*ir.Func) {
	for _, f := range funcs {
		f.Freeze()
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

// backArtifact is a function after the back stage (compaction), plus
// the report fields compaction produced. Its function is frozen, so it
// keeps its digest once the compiled program is first digested, and
// every compile that ships it reads that digest.
type backArtifact struct {
	fn           *ir.Func
	compactAfter int64
	webs         int
}

// programArtifact is a fully compiled program: final function bodies in
// input order, its programDigest, and the complete per-function report.
// The program key fixes the input's globals, so the digest holds for
// every hit. A program decoded from a lower tier carries no digest (a
// zero one): hashing on decode would charge every warm hit, and a digest
// read back would key the memo of simulator runs on trust.
type programArtifact struct {
	funcs   []*ir.Func
	digest  digest
	perFunc map[string]FuncReport
}
