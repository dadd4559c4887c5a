// Package diskcache is a crash-safe, content-addressed, persistent
// artifact store: the disk tier behind the compilation pipeline's
// in-memory cache. Its contract is asymmetric by design:
//
//   - a healthy disk makes repeated compiles survive process restarts;
//   - a sick disk — torn writes, bit rot, ENOSPC, EIO — can slow the
//     pipeline down (entries read as misses and are recompiled) but can
//     never change its output and never fail a compile.
//
// Entries are written with the classic crash-safety protocol: the full
// encoded entry goes to a private temp file, is fsynced, closed, and only
// then atomically renamed to its content-addressed name. A crash at any
// point leaves either the complete old state or the complete new state
// plus a dead *.tmp file, which the next Open sweeps. Every entry carries
// a versioned header, its own key, and a SHA-256 trailer over the whole
// file (entry.go); reads re-verify all three and quarantine anything that
// fails, so a corrupt file is withdrawn from the read path (renamed to
// *.bad for forensics) and the lookup falls through to a miss.
//
// Capacity is a byte budget with LRU-by-access eviction. Access order is
// tracked in memory per handle and seeded from file modification times at
// Open, so a restarted process approximates the order it crashed with.
//
// All I/O goes through the FS interface (fs.go); tests inject
// deterministic faults with FaultFS. After writeFailureLimit consecutive
// write failures the tier stops writing (degraded-to-memory) while
// continuing to serve reads — persistent ENOSPC must not turn every
// compile into a stream of failing writes.
package diskcache

import (
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

const (
	// DefaultMaxBytes bounds the tier when the caller does not:
	// 256 MiB, far above the suite's working set.
	DefaultMaxBytes = 256 << 20

	// writeFailureLimit is the number of consecutive write failures after
	// which the tier declares itself degraded and stops writing.
	writeFailureLimit = 3

	entrySuffix      = ".art"
	tempSuffix       = ".tmp"
	quarantineSuffix = ".bad"
)

// Options configure Open.
type Options struct {
	// MaxBytes is the byte budget; <= 0 uses DefaultMaxBytes. Entries
	// larger than the whole budget are not stored.
	MaxBytes int64
	// FS is the filesystem to run on; nil uses the real one.
	FS FS
}

// Stats is a snapshot of the tier's counters.
type Stats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Writes int64 `json:"writes"`

	// Robustness counters: entries that failed integrity verification
	// (corruptions) and were withdrawn from the read path (quarantines);
	// read and write I/O errors; dead temp files swept at Open; and how
	// many times the tier shut its write path off (degraded-to-memory).
	Corruptions      int64 `json:"corruptions"`
	Quarantines      int64 `json:"quarantines"`
	ReadErrors       int64 `json:"read_errors"`
	WriteErrors      int64 `json:"write_errors"`
	SweptTemps       int64 `json:"swept_temps"`
	DegradedToMemory int64 `json:"degraded_to_memory"`

	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	// Degraded is true while the write path is off.
	Degraded bool `json:"degraded,omitempty"`
}

// entryMeta is one indexed on-disk entry.
type entryMeta struct {
	key  Key
	size int64
	prev *entryMeta // toward most recently used
	next *entryMeta // toward least recently used
}

// Cache is one handle on a cache directory. It is safe for concurrent
// use. Multiple handles (processes) may share a directory: writes are
// atomic renames of content-addressed files, so the worst cross-handle
// interference is an eviction racing a read, which reads as a miss.
type Cache struct {
	dir string
	fs  FS
	max int64

	mu      sync.Mutex
	index   map[Key]*entryMeta
	head    *entryMeta // most recently used
	tail    *entryMeta // least recently used
	total   int64
	seq     int64 // temp-file uniquifier
	consec  int   // consecutive write failures
	stats   Stats
	stopped bool // write path off (degraded)
}

// Open indexes dir (creating it if needed), sweeps dead temp files left
// by crashed writers, and returns a handle. The index is seeded in
// file-modification-time order so LRU eviction approximates the access
// order of the previous process.
func Open(dir string, opts Options) (*Cache, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OS()
	}
	max := opts.MaxBytes
	if max <= 0 {
		max = DefaultMaxBytes
	}
	c := &Cache{dir: dir, fs: fsys, max: max, index: make(map[Key]*entryMeta)}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: open %s: %w", dir, err)
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskcache: open %s: %w", dir, err)
	}
	type found struct {
		key   Key
		size  int64
		mtime int64
		name  string
	}
	var arts []found
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, tempSuffix):
			// A temp file is a writer that died mid-protocol; its entry
			// was never renamed into place, so it holds nothing valid.
			if err := fsys.Remove(c.path(name)); err == nil {
				c.stats.SweptTemps++
			}
		case strings.HasSuffix(name, entrySuffix):
			key, ok := parseEntryName(name)
			if !ok {
				continue // foreign file; leave it alone
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			arts = append(arts, found{key: key, size: info.Size(), mtime: info.ModTime().UnixNano(), name: name})
		}
	}
	// Oldest first, name as the deterministic tie-break; pushing each to
	// the front leaves the newest entry most recently used.
	sort.Slice(arts, func(i, j int) bool {
		if arts[i].mtime != arts[j].mtime {
			return arts[i].mtime < arts[j].mtime
		}
		return arts[i].name < arts[j].name
	})
	for _, a := range arts {
		m := &entryMeta{key: a.key, size: a.size}
		c.index[a.key] = m
		c.pushFront(m)
		c.total += a.size
	}
	c.evictLocked()
	return c, nil
}

// Dir returns the directory the cache lives in.
func (c *Cache) Dir() string { return c.dir }

// Get returns the verified payload stored under (key, kind), or false.
// Every failure mode — absent, unreadable, truncated, bit-flipped, wrong
// version, wrong kind, wrong embedded key — is a miss; integrity failures
// additionally quarantine the file. So does a verified entry of another
// kind: Put is a no-op on an indexed key, so an entry left behind by an
// earlier codec would otherwise block its replacement forever.
func (c *Cache) Get(key Key, kind uint32) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	data, err := c.fs.ReadFile(c.path(entryName(key)))
	if err != nil {
		c.stats.Misses++
		if os.IsNotExist(err) {
			// Another handle evicted it; just drop the index entry.
			c.dropLocked(m)
		} else {
			c.stats.ReadErrors++
		}
		return nil, false
	}
	gotKind, gotKey, payload, err := DecodeEntry(data)
	if err != nil || gotKey != key || gotKind != kind {
		c.stats.Misses++
		c.quarantineLocked(m)
		return nil, false
	}
	c.stats.Hits++
	c.moveFront(m)
	return payload, true
}

// Put stores payload under (key, kind) with the crash-safe protocol. It
// never returns an error: failures count, may degrade the write path, and
// otherwise leave the cache exactly as it was. Storing an existing key is
// a no-op (content addressing: same key, same bytes).
func (c *Cache) Put(key Key, kind uint32, payload []byte) {
	data := EncodeEntry(kind, key, payload)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	if _, ok := c.index[key]; ok {
		return
	}
	if int64(len(data)) > c.max {
		return // larger than the whole budget; not worth a write
	}
	c.seq++
	tmp := c.path(fmt.Sprintf("%s.%d%s", entryName(key), c.seq, tempSuffix))
	if err := c.writeTemp(tmp, data); err != nil {
		c.fs.Remove(tmp) // best effort; Open sweeps stragglers
		c.writeFailedLocked()
		return
	}
	if err := c.fs.Rename(tmp, c.path(entryName(key))); err != nil {
		c.fs.Remove(tmp)
		c.writeFailedLocked()
		return
	}
	c.consec = 0
	c.stats.Writes++
	m := &entryMeta{key: key, size: int64(len(data))}
	c.index[key] = m
	c.pushFront(m)
	c.total += m.size
	c.evictLocked()
}

func (c *Cache) writeTemp(tmp string, data []byte) error {
	f, err := c.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (c *Cache) writeFailedLocked() {
	c.stats.WriteErrors++
	c.consec++
	if c.consec >= writeFailureLimit && !c.stopped {
		c.stopped = true
		c.stats.Degraded = true
		c.stats.DegradedToMemory++
	}
}

// ReportDecodeFailure quarantines an entry whose raw bytes verified but
// whose payload the caller could not decode — a foreign or buggy writer
// produced a checksum-consistent file with a garbage artifact inside.
// The lookup Get counted as a hit is reclassified as a miss.
func (c *Cache) ReportDecodeFailure(key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Hits--
	c.stats.Misses++
	if m, ok := c.index[key]; ok {
		c.quarantineLocked(m)
	}
}

// Stats returns a counter snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.index)
	st.Bytes = c.total
	return st
}

// ---- internal index maintenance (c.mu held) ----

func (c *Cache) path(name string) string {
	// filepath.Join cleans the dir; plain concatenation keeps the path a
	// pure function of (dir, name), which the FaultFS hooks match on.
	return c.dir + string(os.PathSeparator) + name
}

func entryName(key Key) string { return hex.EncodeToString(key[:]) + entrySuffix }

func parseEntryName(name string) (Key, bool) {
	hexPart := strings.TrimSuffix(name, entrySuffix)
	raw, err := hex.DecodeString(hexPart)
	if err != nil || len(raw) != len(Key{}) {
		return Key{}, false
	}
	var k Key
	copy(k[:], raw)
	return k, true
}

func (c *Cache) pushFront(m *entryMeta) {
	m.prev, m.next = nil, c.head
	if c.head != nil {
		c.head.prev = m
	}
	c.head = m
	if c.tail == nil {
		c.tail = m
	}
}

func (c *Cache) unlink(m *entryMeta) {
	if m.prev != nil {
		m.prev.next = m.next
	} else {
		c.head = m.next
	}
	if m.next != nil {
		m.next.prev = m.prev
	} else {
		c.tail = m.prev
	}
	m.prev, m.next = nil, nil
}

func (c *Cache) moveFront(m *entryMeta) {
	if c.head == m {
		return
	}
	c.unlink(m)
	c.pushFront(m)
}

// dropLocked removes m from the index without touching the disk.
func (c *Cache) dropLocked(m *entryMeta) {
	c.unlink(m)
	delete(c.index, m.key)
	c.total -= m.size
}

// quarantineLocked withdraws a corrupt entry from the read path: renamed
// to *.bad so the evidence survives for forensics, removed outright if
// even the rename fails.
func (c *Cache) quarantineLocked(m *entryMeta) {
	c.stats.Corruptions++
	name := entryName(m.key)
	if err := c.fs.Rename(c.path(name), c.path(name+quarantineSuffix)); err != nil {
		c.fs.Remove(c.path(name))
	}
	c.stats.Quarantines++
	c.dropLocked(m)
}

func (c *Cache) evictLocked() {
	for c.total > c.max && c.tail != nil {
		victim := c.tail
		c.fs.Remove(c.path(entryName(victim.key)))
		c.dropLocked(victim)
		c.stats.Evictions++
	}
}
