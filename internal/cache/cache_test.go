package cache

import (
	"testing"
	"testing/quick"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := New("t", 1<<10, 32, 2)
	addr := uint64(0x10000)
	if c.Access(addr) {
		t.Fatal("cold access hit")
	}
	if !c.Access(addr) {
		t.Fatal("warm access missed")
	}
	if !c.Access(addr + 31) {
		t.Fatal("same-line access missed")
	}
	if c.Accesses != 3 || c.Misses != 1 {
		t.Fatalf("stats: %d accesses, %d misses", c.Accesses, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache: three conflicting lines evict the least recently used.
	c := New("t", 64, 32, 2) // 1 set x 2 ways
	a, b, d := uint64(0x1000), uint64(0x2000), uint64(0x3000)
	c.Access(a)
	c.Access(b)
	c.Access(a) // A most recent
	c.Access(d) // evicts B
	if !c.Probe(a) {
		t.Fatal("MRU line evicted")
	}
	if c.Probe(b) {
		t.Fatal("LRU line survived")
	}
	if !c.Probe(d) {
		t.Fatal("filled line missing")
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	c := New("t", 1<<10, 32, 2)
	c.Probe(0x4000)
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatal("Probe touched statistics")
	}
	if c.Probe(0x4000) {
		t.Fatal("Probe filled the line")
	}
}

func TestCacheCapacityBehaviour(t *testing.T) {
	// Working set smaller than capacity: steady-state hit rate ~1.
	c := New("t", 4<<10, 32, 2)
	for round := 0; round < 4; round++ {
		for a := uint64(0); a < 2<<10; a += 32 {
			c.Access(0x10000 + a)
		}
	}
	if rate := c.MissRate(); rate > 0.3 {
		t.Fatalf("resident working set misses %.2f", rate)
	}
	// Working set much larger than capacity: high miss rate.
	c2 := New("t", 1<<10, 32, 2)
	for round := 0; round < 2; round++ {
		for a := uint64(0); a < 64<<10; a += 32 {
			c2.Access(0x10000 + a)
		}
	}
	if rate := c2.MissRate(); rate < 0.9 {
		t.Fatalf("thrashing working set misses only %.2f", rate)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := Default()
	h := NewHierarchy(cfg)
	addr := uint64(0x5000_0000)
	lat, l2 := h.DataAccess(addr, 0)
	if !l2 {
		t.Fatal("cold miss did not reach L2")
	}
	if lat < cfg.L2MissLat {
		t.Fatalf("cold miss latency %d < memory latency %d", lat, cfg.L2MissLat)
	}
	lat, l2 = h.DataAccess(addr, 100)
	if l2 || lat != cfg.L1HitLat {
		t.Fatalf("warm access: lat=%d l2=%v", lat, l2)
	}
}

func TestHierarchyBusContention(t *testing.T) {
	cfg := Default()
	h := NewHierarchy(cfg)
	// Two same-cycle misses to different lines: the second queues.
	lat1, _ := h.DataAccess(0x5000_0000, 0)
	lat2, _ := h.DataAccess(0x6000_0000, 0)
	if lat2 <= lat1 {
		t.Fatalf("no bus queueing: lat1=%d lat2=%d", lat1, lat2)
	}
	// After the bus drains, latency returns to the base value.
	lat3, _ := h.DataAccess(0x7000_0000, 10000)
	if lat3 != lat1 {
		t.Fatalf("drained-bus latency %d != base %d", lat3, lat1)
	}
}

func TestInstFetchPrefetchesNextLine(t *testing.T) {
	cfg := Default()
	h := NewHierarchy(cfg)
	pc := uint64(0x40_0000)
	h.InstFetch(pc, 0)
	// The next line must now be resident without a demand access.
	if !h.L1I.Probe(pc + uint64(cfg.L1ILine)) {
		t.Fatal("next line not prefetched")
	}
	// Prefetches must not count as demand misses.
	if h.L1I.Misses != 1 {
		t.Fatalf("prefetch polluted stats: %d misses", h.L1I.Misses)
	}
}

func TestCacheInvariantNoFalseHits(t *testing.T) {
	// Property: an address never accessed in a fresh cache never hits.
	err := quick.Check(func(addrs []uint32) bool {
		c := New("t", 1<<10, 32, 2)
		seenLines := map[uint64]bool{}
		for _, a32 := range addrs {
			addr := uint64(a32) + 0x1000
			hit := c.Access(addr)
			line := addr >> 5
			if hit && !seenLines[line] {
				return false // hit on a never-filled line
			}
			seenLines[line] = true
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGeometryRounding(t *testing.T) {
	c := New("t", 1000, 32, 2) // size not a power of two
	if c.String() == "" {
		t.Fatal("empty geometry description")
	}
	if c.LineBytes() != 32 {
		t.Fatalf("line bytes = %d", c.LineBytes())
	}
	// Must still behave as a cache.
	c.Access(0x1000)
	if !c.Access(0x1000) {
		t.Fatal("rounded cache broken")
	}
}

func TestDefaultConfigMatchesTable3(t *testing.T) {
	cfg := Default()
	if cfg.L1ISize != 64<<10 || cfg.L1IWays != 2 || cfg.L1ILine != 32 {
		t.Error("L1I config deviates from Table 3")
	}
	if cfg.L1DSize != 64<<10 || cfg.L1DWays != 2 {
		t.Error("L1D config deviates from Table 3")
	}
	if cfg.L2Size != 512<<10 || cfg.L2Ways != 4 {
		t.Error("L2 config deviates from Table 3")
	}
	if cfg.L2HitLat != 6 || cfg.L2MissLat != 18 {
		t.Error("L2 latencies deviate from Table 3")
	}
	if cfg.TLBEntries != 128 {
		t.Error("TLB config deviates from Table 3")
	}
}
