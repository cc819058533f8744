// Package cache implements the memory-hierarchy substrate: a generic
// set-associative cache with true-LRU replacement, and the two-level
// hierarchy of the paper's Table 3 (64 KB 2-way L1 I and D caches with
// 32-byte lines, and a 512 KB 4-way unified L2 with 6-cycle hit and
// 18-cycle miss latency). Table 3's 128-entry fully associative TLB is a
// parameter only (Config.TLBEntries): its timing is folded into the cache
// latencies, so no TLB is modelled and no output depends on one.
//
// The caches are access-timing models: Access returns the latency of a
// reference and updates tag/LRU state. Wrong-path references go through the
// same state (so wrong-path fetch genuinely pollutes the I-cache, one of the
// effects behind the paper's oracle-fetch speedup).
//
// # Replacement bookkeeping
//
// True LRU is kept in O(1) per reference rather than by ageing every entry
// on every access: each cache stamps the touched way with a per-cache
// monotonic counter, and the LRU victim is the valid way with the smallest
// stamp. Stamps are unique (the counter never repeats), so the minimum is
// exactly the way an age walk would have aged the furthest, and the victim
// choice is bit-identical to the historical O(ways) age-rewrite scheme:
// first invalid way if any, else the least-recently-touched way. A way's tag
// and stamp sit side by side, so probing a set reads one contiguous run of
// host memory (the L2's four ways fill exactly one 64-byte line).
//
// The only behavioural difference from the age-walk scheme is that 32-bit
// ages saturated after 2^32 set references; the counter never saturates.
// No simulation here approaches that horizon.
package cache

import "fmt"

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	name      string
	sets      int
	ways      int
	lineShift uint
	entries   []way  // sets*ways, set-major
	clock     uint64 // monotonic touch counter (unique stamps)

	// Stats.
	Accesses uint64
	Misses   uint64
}

// way is one cache way: its line tag (0 means invalid) and its last-touch
// stamp (the set's victim is the valid way with the smallest stamp).
type way struct {
	tag, stamp uint64
}

// New builds a cache. size and lineBytes are in bytes; size must be at least
// ways lines. Geometry is rounded down to powers of two.
func New(name string, size, lineBytes, ways int) *Cache {
	if lineBytes < 8 {
		lineBytes = 8
	}
	shift := uint(0)
	for 1<<(shift+1) <= lineBytes {
		shift++
	}
	lines := size / (1 << shift)
	if lines < ways {
		lines = ways
	}
	sets := lines / ways
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	return &Cache{
		name:      name,
		sets:      sets,
		ways:      ways,
		lineShift: shift,
		entries:   make([]way, sets*ways),
	}
}

// line converts an address to a line-granular tag (never zero for real
// addresses because our address space starts above 0).
func (c *Cache) line(addr uint64) uint64 { return addr >> c.lineShift }

func (c *Cache) set(addr uint64) int {
	return int(c.line(addr)&uint64(c.sets-1)) * c.ways
}

// Probe reports whether addr would hit, without touching LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	base := c.set(addr)
	tag := c.line(addr)
	for _, e := range c.entries[base : base+c.ways] {
		if e.tag == tag {
			return true
		}
	}
	return false
}

// Access references addr, updating tags, LRU, and statistics. It reports
// whether the reference hit; on a miss the line is filled (victim = first
// invalid way, else true LRU).
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	base := c.set(addr)
	tag := c.line(addr)
	set := c.entries[base : base+c.ways]
	victim, oldest := -1, ^uint64(0)
	invalid := -1
	for w := range set {
		switch e := &set[w]; {
		case e.tag == tag:
			c.touch(e)
			return true
		case e.tag == 0:
			if invalid < 0 {
				invalid = w
			}
		case e.stamp < oldest:
			victim, oldest = w, e.stamp
		}
	}
	c.Misses++
	if invalid >= 0 {
		victim = invalid
	}
	set[victim].tag = tag
	c.touch(&set[victim])
	return false
}

// touch marks e most recently used. Stamps are unique, so min-stamp victim
// selection is total-order LRU with no tie to break.
func (c *Cache) touch(e *way) {
	c.clock++
	e.stamp = c.clock
}

// MissRate returns misses/accesses (0 when untouched).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// String describes the geometry, for reports.
func (c *Cache) String() string {
	return fmt.Sprintf("%s: %d sets x %d ways x %d B/line",
		c.name, c.sets, c.ways, 1<<c.lineShift)
}

// LineBytes reports the line size.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// Reset invalidates every line and clears statistics without reallocating,
// restoring the cache to its as-new cold state.
func (c *Cache) Reset() {
	clear(c.entries)
	c.clock = 0
	c.Accesses, c.Misses = 0, 0
}

// Config holds the hierarchy parameters (Table 3 defaults via Default).
type Config struct {
	L1ISize, L1IWays, L1ILine int
	L1DSize, L1DWays, L1DLine int
	L2Size, L2Ways, L2Line    int

	L1HitLat  int // L1 hit latency, cycles
	L2HitLat  int // L2 hit latency (L1 miss, L2 hit)
	L2MissLat int // memory latency (L2 miss)

	// Bus occupancy per access: an L1 miss holds the L2 bus, an L2 miss
	// holds the memory bus; later misses queue behind earlier ones. This
	// is how mis-speculated memory traffic slows down correct-path misses
	// (the resource-waste effect behind the paper's oracle-fetch speedup).
	L2BusyCycles  int
	MemBusyCycles int

	// TLBEntries is Table 3's TLB size. Table 3 prints it and the result
	// cache's content address covers it, but no TLB is modelled: the
	// paper folds translation timing into the cache latencies.
	TLBEntries int
}

// Default returns the paper's Table 3 memory configuration.
func Default() Config {
	return Config{
		L1ISize: 64 << 10, L1IWays: 2, L1ILine: 32,
		L1DSize: 64 << 10, L1DWays: 2, L1DLine: 32,
		L2Size: 512 << 10, L2Ways: 4, L2Line: 32,
		L1HitLat: 1, L2HitLat: 6, L2MissLat: 18,
		L2BusyCycles: 2, MemBusyCycles: 6,
		TLBEntries: 128,
	}
}

// Hierarchy is the two-level cache system with a shared L2.
// Misses contend for the L2 and memory buses: each miss occupies its bus for
// a configured number of cycles and later misses queue behind it.
type Hierarchy struct {
	cfg Config
	L1I *Cache
	L1D *Cache
	L2  *Cache

	l2BusFree  int64 // first cycle the L2 bus is free
	memBusFree int64 // first cycle the memory bus is free
}

// NewHierarchy builds the hierarchy for cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		L1I: New("l1i", cfg.L1ISize, cfg.L1ILine, cfg.L1IWays),
		L1D: New("l1d", cfg.L1DSize, cfg.L1DLine, cfg.L1DWays),
		L2:  New("l2", cfg.L2Size, cfg.L2Line, cfg.L2Ways),
	}
}

// Reset restores the whole hierarchy to its as-new cold state (empty caches,
// free buses) without reallocating any table.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.l2BusFree, h.memBusFree = 0, 0
}

// InstFetch performs an instruction fetch at pc at the given cycle and
// returns its latency in cycles, plus whether the L2 was accessed (for power
// accounting).
func (h *Hierarchy) InstFetch(pc uint64, now int64) (lat int, l2 bool) {
	// Next-line instruction prefetch, as in every real front end: a fetch
	// at pc pulls the following line toward the L1I in the background.
	// Without it, sequential refill misses dominate I-cache behaviour and
	// wrong-path fetch turns into an artificially effective hot-loop
	// prefetcher.
	next := pc + uint64(h.L1I.LineBytes())
	if h.L1I.Access(pc) {
		h.prefetchI(next)
		return h.cfg.L1HitLat, false
	}
	h.prefetchI(next)
	if h.L2.Access(pc) {
		return h.cfg.L2HitLat + h.busQueue(&h.l2BusFree, now, h.cfg.L2BusyCycles), true
	}
	lat = h.cfg.L2MissLat + h.busQueue(&h.l2BusFree, now, h.cfg.L2BusyCycles)
	return lat + h.busQueue(&h.memBusFree, now, h.cfg.MemBusyCycles), true
}

// prefetchI fills the line holding pc into the L1I (and L2) without timing
// cost and without touching demand-miss statistics.
func (h *Hierarchy) prefetchI(pc uint64) {
	if h.L1I.Probe(pc) {
		return
	}
	h.L1I.Access(pc)
	h.L1I.Accesses-- // prefetches are not demand accesses
	h.L1I.Misses--
	if !h.L2.Probe(pc) {
		h.L2.Access(pc)
		h.L2.Accesses--
		h.L2.Misses--
	}
}

// DataAccess performs a load/store at addr at the given cycle and returns
// its latency plus whether the L2 was accessed.
func (h *Hierarchy) DataAccess(addr uint64, now int64) (lat int, l2 bool) {
	if h.L1D.Access(addr) {
		return h.cfg.L1HitLat, false
	}
	if h.L2.Access(addr) {
		return h.cfg.L2HitLat + h.busQueue(&h.l2BusFree, now, h.cfg.L2BusyCycles), true
	}
	lat = h.cfg.L2MissLat + h.busQueue(&h.l2BusFree, now, h.cfg.L2BusyCycles)
	return lat + h.busQueue(&h.memBusFree, now, h.cfg.MemBusyCycles), true
}

// busQueue reserves one occupancy slot on a bus and returns the queueing
// delay the requester observes.
func (h *Hierarchy) busQueue(busFree *int64, now int64, busy int) int {
	start := now
	if *busFree > start {
		start = *busFree
	}
	*busFree = start + int64(busy)
	return int(start - now)
}
