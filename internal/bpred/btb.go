package bpred

// BTB is a set-associative branch target buffer with true-LRU replacement.
// The paper's configuration is 1024 entries, 2-way (Table 3). The simulator
// uses it for target availability at fetch and counts its accesses for the
// power model's "bpred" unit.
type BTB struct {
	sets   int
	ways   int
	tags   []uint64 // sets*ways; 0 = invalid
	target []uint64
	lru    []uint8 // per-entry age; lower = more recent
}

// NewBTB builds a BTB with the given geometry. Entries must be a power of
// two multiple of ways.
func NewBTB(entries, ways int) *BTB {
	if entries < ways {
		entries = ways
	}
	sets := entries / ways
	// Round sets down to a power of two.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	n := sets * ways
	return &BTB{
		sets:   sets,
		ways:   ways,
		tags:   make([]uint64, n),
		target: make([]uint64, n),
		lru:    make([]uint8, n),
	}
}

func (b *BTB) set(pc uint64) int {
	return int((pc>>3)&uint64(b.sets-1)) * b.ways
}

// Lookup returns the predicted target for pc, if present.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	base := b.set(pc)
	for w := 0; w < b.ways; w++ {
		if b.tags[base+w] == pc {
			b.touch(base, w)
			return b.target[base+w], true
		}
	}
	return 0, false
}

// Insert records (pc -> target), replacing the LRU way on conflict.
func (b *BTB) Insert(pc, target uint64) {
	base := b.set(pc)
	victim := 0
	var worst uint8
	for w := 0; w < b.ways; w++ {
		if b.tags[base+w] == pc || b.tags[base+w] == 0 {
			victim = w
			break
		}
		if b.lru[base+w] >= worst {
			worst = b.lru[base+w]
			victim = w
		}
	}
	b.tags[base+victim] = pc
	b.target[base+victim] = target
	b.touch(base, victim)
}

// touch marks way w of the set at base most-recently used.
func (b *BTB) touch(base, w int) {
	for i := 0; i < b.ways; i++ {
		if b.lru[base+i] < 255 {
			b.lru[base+i]++
		}
	}
	b.lru[base+w] = 0
}

// Entries reports the BTB capacity.
func (b *BTB) Entries() int { return b.sets * b.ways }

// Reset invalidates every entry without reallocating the tables.
func (b *BTB) Reset() {
	clear(b.tags)
	clear(b.target)
	clear(b.lru)
}
