package cache

import "testing"

// This file regression-tests the set-associative cache's O(1) timestamp LRU
// against the historical O(ways) per-access age rewrite it replaced. The
// reference below is a verbatim port of the replaced code; randomized access
// streams must produce identical hit/miss sequences (and therefore identical
// victim choices — a divergent eviction surfaces as a later hit/miss
// divergence, and the final-state probes catch the rest).

// refCache is the historical age-walk set-associative cache.
type refCache struct {
	sets, ways int
	lineShift  uint
	tags       []uint64
	age        []uint32
	Accesses   uint64
	Misses     uint64
}

func newRefCache(model *Cache) *refCache {
	return &refCache{
		sets: model.sets, ways: model.ways, lineShift: model.lineShift,
		tags: make([]uint64, model.sets*model.ways),
		age:  make([]uint32, model.sets*model.ways),
	}
}

func (c *refCache) Access(addr uint64) bool {
	c.Accesses++
	line := addr >> c.lineShift
	base := int(line&uint64(c.sets-1)) * c.ways
	victim, worstAge := base, uint32(0)
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line {
			c.touch(base, w)
			return true
		}
		if c.tags[base+w] == 0 {
			if worstAge != ^uint32(0) {
				victim, worstAge = base+w, ^uint32(0)
			}
			continue
		}
		if c.age[base+w] >= worstAge && worstAge != ^uint32(0) {
			victim, worstAge = base+w, c.age[base+w]
		}
	}
	c.Misses++
	c.tags[victim] = line
	c.touch(base, victim-base)
	return false
}

func (c *refCache) touch(base, w int) {
	for i := 0; i < c.ways; i++ {
		if c.age[base+i] < ^uint32(0) {
			c.age[base+i]++
		}
	}
	c.age[base+w] = 0
}

// splitmix is a tiny deterministic generator for the randomized streams.
func splitmix(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// stream produces n addresses mixing a hot region (frequent re-touches, so
// LRU order churns), a warm region, and cold sweeps (eviction pressure).
func stream(seed uint64, n int, hotSpan, coldSpan uint64) []uint64 {
	out := make([]uint64, n)
	state := seed
	for i := range out {
		r := splitmix(&state)
		switch {
		case r%10 < 6:
			out[i] = 0x10000 + r%hotSpan&^7
		case r%10 < 8:
			out[i] = 0x400000 + r%(4*hotSpan)&^7
		default:
			out[i] = 0x4000000 + r%coldSpan&^7
		}
	}
	return out
}

func TestCacheVictimChoiceMatchesAgeWalk(t *testing.T) {
	for _, geom := range []struct {
		name             string
		size, line, ways int
	}{
		{"l1-like", 8 << 10, 32, 2},
		{"l2-like", 32 << 10, 32, 4},
		{"tiny-8way", 1 << 10, 32, 8},
		{"one-set", 256, 32, 8},
	} {
		t.Run(geom.name, func(t *testing.T) {
			c := New("t", geom.size, geom.line, geom.ways)
			ref := newRefCache(c)
			for i, addr := range stream(uint64(geom.size)*31, 200000, 16<<10, 1<<20) {
				if got, want := c.Access(addr), ref.Access(addr); got != want {
					t.Fatalf("access %d (addr %#x): timestamp-LRU %v, age-walk %v", i, addr, got, want)
				}
			}
			if c.Accesses != ref.Accesses || c.Misses != ref.Misses {
				t.Fatalf("stats diverged: %d/%d vs %d/%d", c.Accesses, c.Misses, ref.Accesses, ref.Misses)
			}
			for i, tag := range ref.tags {
				if c.entries[i].tag != tag {
					t.Fatalf("final tag state diverged at way %d", i)
				}
			}
		})
	}
}
