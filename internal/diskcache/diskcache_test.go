package diskcache

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func keyOf(s string) Key { return Key(sha256.Sum256([]byte(s))) }

func mustOpen(t *testing.T, dir string, opts Options) *Cache {
	t.Helper()
	c, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return c
}

func TestPutGetRoundTrip(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	k := keyOf("a")
	payload := []byte("the artifact bytes")
	c.Put(k, 7, payload)
	got, ok := c.Get(k, 7)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Errorf("stats after one put+get: %+v", st)
	}
	if _, ok := c.Get(keyOf("absent"), 7); ok {
		t.Error("Get of an absent key succeeded")
	}
}

func TestGetWrongKindIsCorruption(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	k := keyOf("a")
	c.Put(k, 1, []byte("x"))
	if _, ok := c.Get(k, 2); ok {
		t.Fatal("entry of kind 1 served a kind-2 lookup")
	}
	st := c.Stats()
	if st.Corruptions != 1 || st.Quarantines != 1 {
		t.Errorf("kind mismatch did not quarantine: %+v", st)
	}
	// The entry is withdrawn: even the right kind now misses.
	if _, ok := c.Get(k, 1); ok {
		t.Error("quarantined entry was served")
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c1 := mustOpen(t, dir, Options{})
	k := keyOf("persist")
	c1.Put(k, 3, []byte("survives restarts"))

	c2 := mustOpen(t, dir, Options{})
	got, ok := c2.Get(k, 3)
	if !ok || string(got) != "survives restarts" {
		t.Fatalf("reopened cache Get = %q, %v", got, ok)
	}
}

// TestBitFlipQuarantined flips one bit of a stored entry on disk — bit
// rot — and requires the read to miss, the file to be quarantined, and
// the counters to say so.
func TestBitFlipQuarantined(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	k := keyOf("rot")
	c.Put(k, 1, []byte("pristine payload"))

	path := filepath.Join(dir, entryName(k))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+3] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Get(k, 1); ok {
		t.Fatal("bit-flipped entry was served")
	}
	st := c.Stats()
	if st.Corruptions != 1 || st.Quarantines != 1 || st.Entries != 0 {
		t.Errorf("stats after bit flip: %+v", st)
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Errorf("no quarantine file: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still on the read path: %v", err)
	}
}

// TestTruncationQuarantined: a torn visible entry (e.g. the filesystem
// lost the tail despite the rename) reads as a miss, never as a short
// artifact.
func TestTruncationQuarantined(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	k := keyOf("torn")
	c.Put(k, 1, []byte("a payload long enough to truncate meaningfully"))

	path := filepath.Join(dir, entryName(k))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{len(data) - 1, headerSize + 4, headerSize, 10, 0} {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		c2 := mustOpen(t, dir, Options{})
		if got, ok := c2.Get(k, 1); ok {
			t.Fatalf("truncation to %d bytes served %q", n, got)
		}
		if st := c2.Stats(); st.Corruptions != 1 {
			t.Fatalf("truncation to %d bytes not counted as corruption: %+v", n, st)
		}
		os.Remove(path + quarantineSuffix)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	// Simulate two writers that crashed mid-protocol.
	for i := 0; i < 2; i++ {
		name := filepath.Join(dir, fmt.Sprintf("deadwriter.%d%s", i, tempSuffix))
		if err := os.WriteFile(name, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := mustOpen(t, dir, Options{})
	if st := c.Stats(); st.SweptTemps != 2 {
		t.Errorf("swept %d temp files, want 2", st.SweptTemps)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"+tempSuffix))
	if err != nil || len(left) != 0 {
		t.Errorf("temp files still present after Open: %v (%v)", left, err)
	}
}

// TestLRUEvictionByteBudget: the tier stays under its byte budget,
// evicting least-recently-accessed entries first.
func TestLRUEvictionByteBudget(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	entrySize := int64(len(EncodeEntry(1, Key{}, payload)))
	c := mustOpen(t, dir, Options{MaxBytes: 3 * entrySize})

	keys := []Key{keyOf("1"), keyOf("2"), keyOf("3")}
	for _, k := range keys {
		c.Put(k, 1, payload)
	}
	// Touch key 1 so key 2 is now the least recently used.
	if _, ok := c.Get(keys[0], 1); !ok {
		t.Fatal("warm entry missed")
	}
	c.Put(keyOf("4"), 1, payload)

	if _, ok := c.Get(keys[1], 1); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	for _, k := range []Key{keys[0], keys[2], keyOf("4")} {
		if _, ok := c.Get(k, 1); !ok {
			t.Errorf("entry %x evicted out of LRU order", k[:4])
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes > 3*entrySize {
		t.Errorf("eviction accounting: %+v", st)
	}
}

// TestReopenSeedsLRUFromMtime: after a restart the eviction order
// approximates the previous process's access order via file mtimes.
func TestReopenSeedsLRUFromMtime(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("y"), 50)
	entrySize := int64(len(EncodeEntry(1, Key{}, payload)))
	c1 := mustOpen(t, dir, Options{MaxBytes: 10 * entrySize})
	old, recent := keyOf("old"), keyOf("recent")
	c1.Put(old, 1, payload)
	c1.Put(recent, 1, payload)
	// Make the age difference visible to coarse filesystem clocks.
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, entryName(old)), past, past); err != nil {
		t.Fatal(err)
	}

	c2 := mustOpen(t, dir, Options{MaxBytes: 2 * entrySize})
	c2.Put(keyOf("new"), 1, payload) // over budget: one eviction
	if _, ok := c2.Get(old, 1); ok {
		t.Error("oldest entry survived restart eviction")
	}
	if _, ok := c2.Get(recent, 1); !ok {
		t.Error("recent entry evicted before the older one")
	}
}

func TestOversizeEntrySkipped(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{MaxBytes: 64})
	k := keyOf("huge")
	c.Put(k, 1, bytes.Repeat([]byte("z"), 1024))
	if _, ok := c.Get(k, 1); ok {
		t.Fatal("entry larger than the whole budget was stored")
	}
	if st := c.Stats(); st.WriteErrors != 0 {
		t.Errorf("oversize skip counted as a write error: %+v", st)
	}
}

func TestReportDecodeFailure(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	k := keyOf("garbage-payload")
	c.Put(k, 1, []byte("not what the caller expected"))
	if _, ok := c.Get(k, 1); !ok {
		t.Fatal("stored entry missed")
	}
	c.ReportDecodeFailure(k)
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 1 {
		t.Errorf("decode failure did not reclassify the hit: %+v", st)
	}
	if st.Quarantines != 1 {
		t.Errorf("decode failure did not quarantine: %+v", st)
	}
	if _, ok := c.Get(k, 1); ok {
		t.Error("entry served after a reported decode failure")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keyOf(fmt.Sprintf("k-%d", i%20))
				want := []byte(fmt.Sprintf("payload-%d", i%20))
				c.Put(k, 1, want)
				if got, ok := c.Get(k, 1); ok && !bytes.Equal(got, want) {
					t.Errorf("worker %d: got %q, want %q", w, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Corruptions != 0 {
		t.Errorf("concurrent access produced corruption: %+v", st)
	}
}

func TestDecodeEntryErrors(t *testing.T) {
	k := keyOf("probe")
	valid := EncodeEntry(9, k, []byte("payload"))

	check := func(name string, data []byte) {
		t.Helper()
		if _, _, _, err := DecodeEntry(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	check("empty", nil)
	check("truncated header", valid[:headerSize-1])
	check("truncated trailer", valid[:len(valid)-1])

	bad := bytes.Clone(valid)
	bad[0] ^= 0xFF
	check("bad magic", bad)

	bad = bytes.Clone(valid)
	bad[8] = 0xEE // unknown version
	check("unknown version", bad)

	bad = bytes.Clone(valid)
	bad[48]++ // length field
	check("length mismatch", bad)

	bad = bytes.Clone(valid)
	bad[headerSize] ^= 0x01 // payload bit
	check("payload flip", bad)

	bad = bytes.Clone(valid)
	bad[len(bad)-1] ^= 0x01 // trailer bit
	check("trailer flip", bad)

	kind, key, payload, err := DecodeEntry(valid)
	if err != nil || kind != 9 || key != k || string(payload) != "payload" {
		t.Fatalf("valid entry decode = %d, %x, %q, %v", kind, key[:4], payload, err)
	}
}
