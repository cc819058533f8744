// Package bpred implements the branch-prediction substrate of the
// reproduction: two-bit saturating counters, a gshare direction predictor
// with speculative global history and misprediction fixup (the paper's
// baseline: an 8 KB gshare whose history register is speculatively updated),
// a bimodal predictor, and a set-associative branch target buffer. Returns
// need no predictor: the workload walker supplies every return target.
package bpred

// Counter2 is a two-bit saturating counter. 0-1 predict not-taken,
// 2-3 predict taken; 1 and 2 are the "weak" states (the paper's BPRU
// fallback labels weak predictions low-confidence).
type Counter2 uint8

// Taken reports the counter's prediction.
func (c Counter2) Taken() bool { return c >= 2 }

// Weak reports whether the counter is in a weak state (1 or 2).
func (c Counter2) Weak() bool { return c == 1 || c == 2 }

// Update trains the counter toward the outcome.
func (c Counter2) Update(taken bool) Counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// DirPredictor is a conditional-branch direction predictor.
//
// Predict returns the predicted direction for pc and an opaque state cookie
// that must be handed back to Update/OnMispredict for that same dynamic
// branch: gshare uses it to rewind its speculative history on a flush.
type DirPredictor interface {
	// Predict returns the predicted direction and the counter state the
	// prediction was read from (for confidence fallback), plus a cookie.
	Predict(pc uint64) (taken bool, ctr Counter2, cookie uint64)
	// Update trains the predictor with the actual outcome (called at
	// branch resolution on the correct path).
	Update(pc uint64, cookie uint64, taken bool)
	// OnMispredict repairs speculative state after the branch with the
	// given cookie resolved mispredicted and younger work was squashed.
	OnMispredict(cookie uint64, taken bool)
	// SizeBytes reports the storage the predictor models.
	SizeBytes() int
}

// Gshare is McFarling's gshare: a table of two-bit counters indexed by
// PC xor global-history. History is updated speculatively at predict time
// and repaired on misprediction, as in the paper's baseline.
type Gshare struct {
	table    []Counter2
	histBits uint
	ghr      uint64 // speculative global history
}

// NewGshare builds a gshare predictor of the given total size. Size is
// expressed in bytes of counter storage, four two-bit counters per byte:
// an 8 KB gshare holds 32 K counters and uses 15 history bits, matching the
// paper's configuration.
func NewGshare(sizeBytes int) *Gshare {
	entries := sizeBytes * 4
	if entries < 16 {
		entries = 16
	}
	// Round down to a power of two.
	bits := uint(0)
	for 1<<(bits+1) <= entries {
		bits++
	}
	g := &Gshare{table: make([]Counter2, 1<<bits), histBits: bits}
	// Initialize to weakly taken, SimpleScalar-style.
	for i := range g.table {
		g.table[i] = 2
	}
	return g
}

// index folds pc and history into a table index.
func (g *Gshare) index(pc uint64, ghr uint64) int {
	mask := uint64(1)<<g.histBits - 1
	return int(((pc >> 3) ^ ghr) & mask)
}

// Predict implements DirPredictor. The cookie packs the pre-prediction GHR
// so a flush can restore it ((histBits <= 63 always holds here).
func (g *Gshare) Predict(pc uint64) (bool, Counter2, uint64) {
	cookie := g.ghr
	ctr := g.table[g.index(pc, g.ghr)]
	taken := ctr.Taken()
	// Speculative history update with the predicted direction.
	g.ghr = g.ghr<<1 | b2u(taken)
	return taken, ctr, cookie
}

// Update implements DirPredictor: train the counter that produced the
// prediction (indexed with the history at prediction time).
func (g *Gshare) Update(pc uint64, cookie uint64, taken bool) {
	i := g.index(pc, cookie)
	g.table[i] = g.table[i].Update(taken)
}

// OnMispredict implements DirPredictor: restore the GHR to its value before
// the mispredicted branch and push the actual outcome.
func (g *Gshare) OnMispredict(cookie uint64, taken bool) {
	g.ghr = cookie<<1 | b2u(taken)
}

// SizeBytes implements DirPredictor.
func (g *Gshare) SizeBytes() int { return len(g.table) / 4 }

// Reset restores the predictor to its as-new state (weakly taken counters,
// empty history) without reallocating the table, so run contexts can be
// reused across runs with bit-identical behaviour.
func (g *Gshare) Reset() {
	for i := range g.table {
		g.table[i] = 2
	}
	g.ghr = 0
}

// GHR exposes the speculative history (for tests).
func (g *Gshare) GHR() uint64 { return g.ghr }

// Bimodal is a PC-indexed table of two-bit counters, provided as a simpler
// baseline predictor and for estimator experiments.
type Bimodal struct {
	table []Counter2
}

// NewBimodal builds a bimodal predictor with the given byte budget.
func NewBimodal(sizeBytes int) *Bimodal {
	entries := sizeBytes * 4
	if entries < 16 {
		entries = 16
	}
	bits := uint(0)
	for 1<<(bits+1) <= entries {
		bits++
	}
	b := &Bimodal{table: make([]Counter2, 1<<bits)}
	for i := range b.table {
		b.table[i] = 2
	}
	return b
}

// Predict implements DirPredictor.
func (b *Bimodal) Predict(pc uint64) (bool, Counter2, uint64) {
	ctr := b.table[b.index(pc)]
	return ctr.Taken(), ctr, 0
}

func (b *Bimodal) index(pc uint64) int {
	return int((pc >> 3) & uint64(len(b.table)-1))
}

// Update implements DirPredictor.
func (b *Bimodal) Update(pc uint64, _ uint64, taken bool) {
	i := b.index(pc)
	b.table[i] = b.table[i].Update(taken)
}

// OnMispredict implements DirPredictor (bimodal keeps no speculative state).
func (b *Bimodal) OnMispredict(uint64, bool) {}

// SizeBytes implements DirPredictor.
func (b *Bimodal) SizeBytes() int { return len(b.table) / 4 }

// Reset restores the predictor to its as-new state without reallocation.
func (b *Bimodal) Reset() {
	for i := range b.table {
		b.table[i] = 2
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
