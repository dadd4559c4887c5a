package remotecache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"ccmem/internal/diskcache"
)

// fleetHarness is an n-node fleet over real httptest ccmcached servers,
// with a per-node FaultRT seam and a per-node direct client for seeding
// and inspecting individual stores.
type fleetHarness struct {
	fleet  *Fleet
	urls   []string
	faults []*FaultRT
	direct []*Client
}

func newFleetHarness(t *testing.T, n int) *fleetHarness {
	t.Helper()
	h := &fleetHarness{}
	for i := 0; i < n; i++ {
		_, hs := newTestServer(t)
		h.urls = append(h.urls, hs.URL)
		h.faults = append(h.faults, &FaultRT{})
		h.direct = append(h.direct, newTestClient(t, hs.URL, nil, fastTuning(), nil))
	}
	f, err := NewFleet(FleetOptions{
		BaseURLs:      h.urls,
		RoundTrippers: roundTrippers(h.faults),
		Tuning:        fastTuning(),
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	h.fleet = f
	return h
}

func roundTrippers(fs []*FaultRT) []http.RoundTripper {
	out := make([]http.RoundTripper, len(fs))
	for i, f := range fs {
		out[i] = f
	}
	return out
}

// nodeIndex maps a fleet node URL back to its harness index.
func (h *fleetHarness) nodeIndex(t *testing.T, url string) int {
	t.Helper()
	for i, u := range h.urls {
		if u == url {
			return i
		}
	}
	t.Fatalf("unknown fleet node %q", url)
	return -1
}

// preference returns the harness indices in the key's rendezvous order.
func (h *fleetHarness) preference(t *testing.T, key diskcache.Key) []int {
	t.Helper()
	urls := h.fleet.Preference(key)
	out := make([]int, len(urls))
	for i, u := range urls {
		out[i] = h.nodeIndex(t, u)
	}
	return out
}

func flushFleet(t *testing.T, f *Fleet) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Flush(ctx); err != nil {
		t.Fatalf("fleet Flush: %v", err)
	}
}

// assertFleetInvariant checks the fleet-level counter contract: every
// logical Get resolves to exactly one hit or one miss, whatever the
// node walk underneath did.
func assertFleetInvariant(t *testing.T, f *Fleet) {
	t.Helper()
	st := f.Stats()
	if st.Gets != st.Hits+st.Misses {
		t.Fatalf("fleet invariant broken: gets=%d hits=%d misses=%d", st.Gets, st.Hits, st.Misses)
	}
}

func TestFleetPreferenceDeterministicAcrossOrdering(t *testing.T) {
	h := newFleetHarness(t, 3)
	// A second fleet over the same servers with the URL list reversed
	// must compute identical preference orders: placement depends on
	// node identity, not flag order.
	rev := []string{h.urls[2], h.urls[1], h.urls[0]}
	f2, err := NewFleet(FleetOptions{BaseURLs: rev, Tuning: fastTuning()})
	if err != nil {
		t.Fatalf("NewFleet(reversed): %v", err)
	}
	defer f2.Close()

	for i := 0; i < 32; i++ {
		key := keyOf([]byte(fmt.Sprintf("key-%d", i)))
		a := h.fleet.Preference(key)
		b := f2.Preference(key)
		if len(a) != 3 || len(b) != 3 {
			t.Fatalf("preference length: %d vs %d", len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("key %d: preference diverges at %d: %v vs %v", i, j, a, b)
			}
		}
		// And it is a permutation of the node set.
		seen := map[string]bool{}
		for _, u := range a {
			seen[u] = true
		}
		if len(seen) != 3 {
			t.Fatalf("key %d: preference not a permutation: %v", i, a)
		}
	}
}

func TestFleetRendezvousMinimalDisruption(t *testing.T) {
	// Rendezvous hashing's selling point: removing a node only moves
	// the keys that preferred it. Compare primaries between a 3-node
	// fleet and the same fleet minus its last node.
	h := newFleetHarness(t, 3)
	f2, err := NewFleet(FleetOptions{BaseURLs: h.urls[:2], Tuning: fastTuning()})
	if err != nil {
		t.Fatalf("NewFleet(2 nodes): %v", err)
	}
	defer f2.Close()

	moved, kept := 0, 0
	for i := 0; i < 64; i++ {
		key := keyOf([]byte(fmt.Sprintf("key-%d", i)))
		before := h.fleet.Preference(key)[0]
		after := f2.Preference(key)[0]
		if before == h.urls[2] {
			moved++
			continue // this key's primary was removed; any new primary is fine
		}
		kept++
		if after != before {
			t.Fatalf("key %d: primary moved from %s to %s though %s was not removed",
				i, before, after, before)
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate key split: moved=%d kept=%d (want both nonzero)", moved, kept)
	}
}

func TestFleetPutReplicatesToFirstRHealthy(t *testing.T) {
	h := newFleetHarness(t, 3)
	payload := []byte("replicated artifact")
	key := keyOf(payload)
	pref := h.preference(t, key)

	h.fleet.Put(key, 1, payload)
	flushFleet(t, h.fleet)

	for rank, idx := range pref {
		_, ok := h.direct[idx].Get(key, 1)
		if rank < 2 && !ok {
			t.Fatalf("replica rank %d (node %d) missing entry", rank, idx)
		}
		if rank >= 2 && ok {
			t.Fatalf("node %d beyond replica count has entry", idx)
		}
	}
	assertFleetInvariant(t, h.fleet)
}

func TestFleetPutSkipsOpenBreaker(t *testing.T) {
	h := newFleetHarness(t, 3)
	payload := []byte("skip the tripped node")
	key := keyOf(payload)
	pref := h.preference(t, key)

	// Trip the primary's breaker with failed reads.
	h.faults[pref[0]].Arm(FaultRefused)
	for i := 0; i < 3; i++ {
		h.fleet.Get(key, 1)
	}
	h.faults[pref[0]].Disarm()

	h.fleet.Put(key, 1, payload)
	flushFleet(t, h.fleet)

	if _, ok := h.direct[pref[0]].Get(key, 1); ok {
		t.Fatalf("open-breaker primary received the put")
	}
	for _, rank := range []int{1, 2} {
		if _, ok := h.direct[pref[rank]].Get(key, 1); !ok {
			t.Fatalf("healthy node at rank %d missing entry", rank)
		}
	}
	assertFleetInvariant(t, h.fleet)
}

func TestFleetFailoverReadAndCounter(t *testing.T) {
	h := newFleetHarness(t, 3)
	payload := []byte("survives a primary outage")
	key := keyOf(payload)
	pref := h.preference(t, key)

	// Warm with all nodes healthy: entry lands on ranks 0 and 1.
	h.fleet.Put(key, 1, payload)
	flushFleet(t, h.fleet)

	h.faults[pref[0]].Arm(FaultRefused)
	got, ok := h.fleet.Get(key, 1)
	if !ok {
		t.Fatalf("Get: miss with a healthy replica present")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("failover read returned different bytes")
	}
	st := h.fleet.Stats()
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want exactly 1 for the failover read", st.Hits)
	}
	assertFleetInvariant(t, h.fleet)
}

func TestFleetReadRepairHealsPrimary(t *testing.T) {
	h := newFleetHarness(t, 3)
	payload := []byte("repair me upward")
	key := keyOf(payload)
	pref := h.preference(t, key)

	// Seed only the secondary, as if the primary had been sick when the
	// entry was written.
	h.direct[pref[1]].Put(key, 1, payload)
	flush(t, h.direct[pref[1]])

	got, ok := h.fleet.Get(key, 1)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("secondary hit failed: ok=%v", ok)
	}
	flushFleet(t, h.fleet) // drain the async repair put

	if _, ok := h.direct[pref[0]].Get(key, 1); !ok {
		t.Fatalf("primary not healed by read-repair")
	}
	st := h.fleet.Stats()
	if st.Repairs < 1 {
		t.Fatalf("repairs = %d, want >= 1", st.Repairs)
	}
	// A healthy primary answering a clean miss is not a failover.
	if st.Failovers != 0 {
		t.Fatalf("failovers = %d, want 0 (primary answered with a miss)", st.Failovers)
	}
	assertFleetInvariant(t, h.fleet)
}

func TestFleetAllNodesDownDegradesToMiss(t *testing.T) {
	h := newFleetHarness(t, 3)
	payload := []byte("nobody home")
	key := keyOf(payload)
	for _, f := range h.faults {
		f.Arm(FaultRefused)
	}

	// Every read is a miss, never an error surfaced to the caller, and
	// after TripAfter failures per node the whole fleet reads as open.
	for i := 0; i < 4; i++ {
		if _, ok := h.fleet.Get(key, 1); ok {
			t.Fatalf("hit from an all-down fleet")
		}
	}
	if got := h.fleet.State(); got != StateOpen {
		t.Fatalf("fleet state = %v, want open with every breaker tripped", got)
	}
	if h.fleet.Stats().Circuit != "open" {
		t.Fatalf("circuit = %q, want open", h.fleet.Stats().Circuit)
	}
	// Puts must not panic or block with everything open.
	h.fleet.Put(key, 1, payload)
	assertFleetInvariant(t, h.fleet)
}

func TestFleetStateFoldsAcrossNodes(t *testing.T) {
	h := newFleetHarness(t, 3)
	if got := h.fleet.State(); got != StateClosed {
		t.Fatalf("fresh fleet state = %v, want closed", got)
	}
	// Trip one node: the fleet stays closed — one healthy node keeps
	// the tier usable.
	key := keyOf([]byte("state probe"))
	pref := h.preference(t, key)
	h.faults[pref[0]].Arm(FaultTimeout)
	for i := 0; i < 3; i++ {
		h.fleet.Get(key, 1)
	}
	if got := h.fleet.State(); got != StateClosed {
		t.Fatalf("fleet state with one tripped node = %v, want closed", got)
	}
	st := h.fleet.Stats()
	if st.Trips != 1 {
		t.Fatalf("summed trips = %d, want 1", st.Trips)
	}
	// The per-node blocks disagree in exactly the right place.
	var open, closed int
	for _, ns := range st.Nodes {
		switch ns.Stats.Circuit {
		case "open":
			open++
		case "closed":
			closed++
		}
	}
	if open != 1 || closed != 2 {
		t.Fatalf("per-node circuits: open=%d closed=%d, want 1/2", open, closed)
	}
}

func TestFleetDecodeFailureReclassifies(t *testing.T) {
	h := newFleetHarness(t, 2)
	payload := []byte("wire-valid, decode-invalid")
	key := keyOf(payload)
	h.fleet.Put(key, 1, payload)
	flushFleet(t, h.fleet)

	if _, ok := h.fleet.Get(key, 1); !ok {
		t.Fatalf("warm read missed")
	}
	h.fleet.ReportDecodeFailure()
	st := h.fleet.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.Corruptions != 1 {
		t.Fatalf("after decode failure: hits=%d misses=%d corrupt=%d, want 0/1/1",
			st.Hits, st.Misses, st.Corruptions)
	}
	assertFleetInvariant(t, h.fleet)
}

func TestFleetRejectsBadConfig(t *testing.T) {
	if _, err := NewFleet(FleetOptions{}); err == nil {
		t.Fatalf("NewFleet with no URLs succeeded")
	}
	if _, err := NewFleet(FleetOptions{
		BaseURLs: []string{"http://a.example", "http://a.example/"},
	}); err == nil {
		t.Fatalf("NewFleet with duplicate node URLs succeeded")
	}
	if _, err := NewFleet(FleetOptions{
		BaseURLs:      []string{"http://a.example", "http://b.example"},
		RoundTrippers: []http.RoundTripper{nil},
	}); err == nil {
		t.Fatalf("NewFleet with mismatched per-node transports succeeded")
	}
}

func TestFleetStatsJSONShape(t *testing.T) {
	h := newFleetHarness(t, 2)
	payload := []byte("json shape probe")
	key := keyOf(payload)
	h.fleet.Put(key, 1, payload)
	flushFleet(t, h.fleet)
	h.fleet.Get(key, 1)

	raw, err := json.Marshal(h.fleet.Stats())
	if err != nil {
		t.Fatalf("marshal fleet stats: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for _, k := range []string{"gets", "hits", "misses", "circuit", "nodes"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("fleet stats JSON missing %q: %s", k, raw)
		}
	}
	nodes, ok := m["nodes"].([]any)
	if !ok || len(nodes) != 2 {
		t.Fatalf("nodes block wrong shape: %s", raw)
	}
	node := nodes[0].(map[string]any)
	if _, ok := node["url"]; !ok {
		t.Fatalf("node block missing url: %s", raw)
	}
	if _, ok := node["stats"]; !ok {
		t.Fatalf("node block missing stats: %s", raw)
	}
}
