package prog

import (
	"fmt"
	"math"

	"selthrottle/internal/isa"
	"selthrottle/internal/xrand"
)

// InstBytes is the size of one instruction in the synthetic address space.
// It sets the relationship between instruction count and I-cache lines.
const InstBytes = 8

// Block is one basic block of a generated program. The last element of Code
// may be a control instruction; its targets are encoded in Succ.
type Block struct {
	Base uint64       // PC of the first instruction
	Code []isa.Static // instructions, terminator (if any) last

	// Succ holds successor block indices: Succ[0] is the fall-through /
	// not-taken successor, Succ[1] the taken target. NoBlock marks an
	// unused slot. For calls, Succ[1] is the callee entry and Succ[0] the
	// return site (pushed on the walker's call stack). Returns have both
	// slots set to NoBlock: the target comes from the call stack.
	Succ [2]int

	// BrID indexes Program.Branches when the terminator is a conditional
	// branch, and is NoBranch otherwise.
	BrID int
}

// NoBlock and NoBranch mark unused successor / branch-parameter slots.
const (
	NoBlock  = -1
	NoBranch = -1
)

// Terminator returns the block's control instruction, or OpNop if the block
// simply falls through.
func (b *Block) Terminator() isa.Op {
	if len(b.Code) == 0 {
		return isa.OpNop
	}
	if op := b.Code[len(b.Code)-1].Op; op.IsControl() {
		return op
	}
	return isa.OpNop
}

// Branch holds the behavioural parameters of one static conditional branch.
// The dynamic outcome is a pure function of these parameters and the global
// outcome history (see Outcome), which keeps walker checkpoints tiny.
type Branch struct {
	Seed     uint64  // per-branch seed, derived from the profile seed
	DetBits  int     // history bits consumed by the learnable component
	DetBias  float64 // taken-probability of the learnable component's contexts
	NoiseP   float64 // probability the unlearnable component decides
	Bias     float64 // taken-probability of the unlearnable component
	LoopBack bool    // true for loop back-edges (mostly-taken by design)
	TripInv  float64 // loop back-edges: per-context learnable exit probability

	// Integer outcome thresholds, derived from the float parameters by
	// finalize (called once at Program build time). Each probability p is
	// turned into the 2^24-scaled threshold ceil(p * 2^24), which makes the
	// hot-path comparison a pure integer compare yet provably identical to
	// the float form: for a 24-bit integer x, "float64(x)/2^24 < p" divides
	// by an exact power of two (lossless in IEEE 754), so it is equivalent
	// to the real inequality x < p*2^24 — and p*2^24 is itself computed
	// exactly (scaling a float64 by 2^24 only shifts its exponent). For an
	// integer x and real t, x < t iff x < ceil(t), so the integer compare
	// "x < ceil(p*2^24)" decides exactly the same outcomes. The identity
	// tests drive both forms over every generated branch to pin this.
	noiseThr   uint32 // ceil(NoiseP  * 2^24)
	biasThr    uint32 // ceil(Bias    * 2^24)
	tripThr    uint32 // ceil(TripInv * 2^24)
	detBiasThr uint32 // ceil(DetBias * 2^24)
	histMask   uint64 // 1<<DetBits - 1
}

// thr24 converts a probability into its exact 2^24-scaled integer threshold
// (see the Branch field docs for the exactness argument).
func thr24(p float64) uint32 {
	t := math.Ceil(p * (1 << 24))
	if t < 0 {
		return 0
	}
	if t > 1<<24 {
		return 1 << 24
	}
	return uint32(t)
}

// finalize derives the integer outcome thresholds from the float parameters.
// Generate calls it for every branch; hand-built Branch values (tests) that
// go through the fast outcome path must call it too.
func (br *Branch) finalize() {
	br.noiseThr = thr24(br.NoiseP)
	br.biasThr = thr24(br.Bias)
	br.tripThr = thr24(br.TripInv)
	br.detBiasThr = thr24(br.DetBias)
	br.histMask = uint64(1)<<uint(br.DetBits) - 1
}

// MemRef holds the address-generation parameters of one static memory
// instruction: a base region and a span within it. Addresses are pure
// functions of (seed, history), giving stable locality per static site.
type MemRef struct {
	Seed uint64
	Base uint64
	Span uint64 // region size in bytes; addresses fall in [Base, Base+Span)

	// Wild marks references with essentially no temporal locality (random
	// addresses in a large cold region: pointer chasing, hash lookups).
	// Stable references (the default) revisit a slowly moving working set,
	// so their lines are usually resident; wild references are where cache
	// misses — and wrong-path pollution — come from.
	Wild bool

	// spanMask is Span-1 when Span is a power of two (every built-in
	// profile region is), letting the walker's address fold use a mask
	// instead of a 64-bit division; 0 disables the fast path. Derived by
	// finalize.
	spanMask uint64
}

// fold reduces a hash to an 8-byte-aligned offset within the span — the
// hot-path equivalent of h % Span &^ 7.
func (m *MemRef) fold(h uint64) uint64 {
	if m.spanMask != 0 {
		return h & m.spanMask &^ 7
	}
	return h % m.Span &^ 7
}

// Program is a generated synthetic program: a CFG over basic blocks plus the
// behavioural parameter tables for branches and memory references.
type Program struct {
	Profile  Profile
	Blocks   []Block
	Branches []Branch
	// MemRefs is indexed by a per-instruction memory id stored in the
	// builder; the walker recovers it via memIndex.
	MemRefs []MemRef
	Entry   int // entry block index

	// memIndex maps (block, instruction index) to a MemRefs index. Flat
	// map built at generation time; read-only afterwards.
	memIndex map[memKey]int

	// CodeBytes is the static code footprint (for reports).
	CodeBytes uint64

	// Fast-path tables, derived once by finalize at the end of Generate so
	// the walker's per-instruction work is flat-array reads instead of
	// block-pointer chasing and map lookups. meta mirrors Blocks; code and
	// memIDs are the concatenation of every block's instructions (indexed
	// by meta.off + instruction index), with memIDs[i] the MemRefs index of
	// instruction i or NoMem.
	meta   []blockMeta
	code   []isa.Static
	memIDs []int32
}

// NoMem marks a non-memory instruction in Program.memIDs.
const NoMem = -1

// blockMeta is the walker's per-block fast-path record: everything NextGroup
// needs about a block — successor bases, terminator class, flat-table offset
// — precomputed so the hot loop touches no map and no second Block.
type blockMeta struct {
	base      uint64 // PC of the block's first instruction
	fallBase  uint64 // base PC of Succ[0] (0 when NoBlock)
	takenBase uint64 // base PC of Succ[1] (0 when NoBlock)
	off       int32  // offset of the block's instructions in code/memIDs
	n         int32  // number of instructions in the block
	succ0     int32  // fall-through / not-taken successor (NoBlock = none)
	succ1     int32  // taken target / callee entry (NoBlock = none)
	brID      int32  // Branches index for conditional terminators, else NoBranch
	term      isa.Op // terminator class (OpNop for plain fall-through)
}

// finalize builds the derived fast-path tables: the per-branch integer
// thresholds and the flat block/instruction metadata. Generate calls it after
// validation; the tables are read-only afterwards.
func (p *Program) finalize() {
	for i := range p.Branches {
		p.Branches[i].finalize()
	}
	for i := range p.MemRefs {
		m := &p.MemRefs[i]
		if m.Span > 0 && m.Span&(m.Span-1) == 0 {
			m.spanMask = m.Span - 1
		}
	}
	total := 0
	for i := range p.Blocks {
		total += len(p.Blocks[i].Code)
	}
	p.code = make([]isa.Static, 0, total)
	p.memIDs = make([]int32, 0, total)
	p.meta = make([]blockMeta, len(p.Blocks))
	for i := range p.Blocks {
		b := &p.Blocks[i]
		m := &p.meta[i]
		*m = blockMeta{
			base:  b.Base,
			off:   int32(len(p.code)),
			n:     int32(len(b.Code)),
			succ0: int32(b.Succ[0]),
			succ1: int32(b.Succ[1]),
			brID:  int32(b.BrID),
			term:  b.Terminator(),
		}
		if b.Succ[0] != NoBlock {
			m.fallBase = p.Blocks[b.Succ[0]].Base
		}
		if b.Succ[1] != NoBlock {
			m.takenBase = p.Blocks[b.Succ[1]].Base
		}
		p.code = append(p.code, b.Code...)
		for j := range b.Code {
			id := int32(NoMem)
			if mid, ok := p.memIndex[memKey{i, j}]; ok {
				id = int32(mid)
			}
			p.memIDs = append(p.memIDs, id)
		}
	}
}

type memKey struct {
	block int
	idx   int
}

// memRef returns the memory-reference parameters for instruction idx of
// block b; ok is false for non-memory instructions.
func (p *Program) memRef(block, idx int) (MemRef, bool) {
	id, ok := p.memIndex[memKey{block, idx}]
	if !ok {
		return MemRef{}, false
	}
	return p.MemRefs[id], true
}

// NumStaticBranches returns the number of static conditional branches.
func (p *Program) NumStaticBranches() int { return len(p.Branches) }

// Validate performs structural checks over the generated CFG. It is used by
// tests and by Generate itself (a malformed program is a generator bug, so
// Generate panics on validation failure rather than returning a broken
// program).
func (p *Program) Validate() error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("prog: empty program")
	}
	if p.Entry < 0 || p.Entry >= len(p.Blocks) {
		return fmt.Errorf("prog: entry %d out of range", p.Entry)
	}
	for i := range p.Blocks {
		b := &p.Blocks[i]
		for s := 0; s < 2; s++ {
			if b.Succ[s] != NoBlock && (b.Succ[s] < 0 || b.Succ[s] >= len(p.Blocks)) {
				return fmt.Errorf("prog: block %d successor %d out of range", i, b.Succ[s])
			}
		}
		for j, st := range b.Code {
			if err := st.Validate(); err != nil {
				return fmt.Errorf("prog: block %d inst %d: %w", i, j, err)
			}
			if st.Op.IsControl() && j != len(b.Code)-1 {
				return fmt.Errorf("prog: block %d has control op mid-block", i)
			}
			if st.Op.IsMem() {
				if _, ok := p.memIndex[memKey{i, j}]; !ok {
					return fmt.Errorf("prog: block %d inst %d missing mem ref", i, j)
				}
			}
		}
		switch b.Terminator() {
		case isa.OpBranch:
			if b.Succ[0] == NoBlock || b.Succ[1] == NoBlock {
				return fmt.Errorf("prog: block %d cond branch missing successor", i)
			}
			if b.BrID == NoBranch || b.BrID >= len(p.Branches) {
				return fmt.Errorf("prog: block %d cond branch missing params", i)
			}
		case isa.OpJump:
			if b.Succ[1] == NoBlock {
				return fmt.Errorf("prog: block %d jump missing target", i)
			}
		case isa.OpCall:
			if b.Succ[1] == NoBlock || b.Succ[0] == NoBlock {
				return fmt.Errorf("prog: block %d call missing callee or return site", i)
			}
		case isa.OpReturn:
			// target comes from the call stack
		default:
			if b.Succ[0] == NoBlock {
				return fmt.Errorf("prog: block %d falls off the end", i)
			}
		}
	}
	return nil
}

// builder carries generation state.
type builder struct {
	p    *Program
	rng  *xrand.Rand
	prof Profile

	// recent destination registers, for dependency-distance shaping
	recent []int8

	ultraAcc float64 // deterministic distribution of ultra-hard branches

	funcEntries []int // entry block per function
}

// Generate builds the synthetic program for a profile. Generation is fully
// deterministic in Profile.Seed. The returned program has been validated.
func Generate(prof Profile) *Program {
	b := &builder{
		p: &Program{
			Profile:  prof,
			memIndex: make(map[memKey]int),
		},
		rng:  xrand.New(xrand.Hash2(prof.Seed, 0x9E1)),
		prof: prof,
	}
	// Generate leaf-most functions first so calls can target already-built
	// functions (index > caller's own would be unbuilt); we instead build
	// all entries lazily: reserve function list, build in order, and let
	// function i call only functions j > i (no recursion, bounded stack).
	b.funcEntries = make([]int, prof.Funcs)
	for i := range b.funcEntries {
		b.funcEntries[i] = NoBlock
	}
	// Build from the last function backwards so callees exist when callers
	// are generated.
	for i := prof.Funcs - 1; i >= 0; i-- {
		b.funcEntries[i] = b.buildFunc(i)
	}
	// main: an infinite dispatch loop calling every top-level function.
	b.p.Entry = b.buildMain()
	b.assignPCs()
	if err := b.p.Validate(); err != nil {
		panic("prog: generator produced invalid program: " + err.Error())
	}
	b.p.finalize()
	return b.p
}

// newBlock appends an empty block and returns its index.
func (b *builder) newBlock() int {
	b.p.Blocks = append(b.p.Blocks, Block{Succ: [2]int{NoBlock, NoBlock}, BrID: NoBranch})
	return len(b.p.Blocks) - 1
}

// fillBlock populates a block with straight-line instructions.
func (b *builder) fillBlock(id int, n int) {
	blk := &b.p.Blocks[id]
	for i := 0; i < n; i++ {
		st := b.randInst()
		if st.Op.IsMem() {
			b.p.memIndex[memKey{id, len(blk.Code)}] = b.newMemRef()
		}
		blk.Code = append(blk.Code, st)
	}
}

// randInst draws one non-control instruction from the profile mix.
func (b *builder) randInst() isa.Static {
	prof := b.prof
	r := b.rng.Float64()
	var op isa.Op
	switch {
	case r < prof.LoadFrac:
		op = isa.OpLoad
	case r < prof.LoadFrac+prof.StoreFrac:
		op = isa.OpStore
	case r < prof.LoadFrac+prof.StoreFrac+prof.IntMult:
		op = isa.OpIntMult
	case r < prof.LoadFrac+prof.StoreFrac+prof.IntMult+prof.FPAlu:
		op = isa.OpFPAlu
	case r < prof.LoadFrac+prof.StoreFrac+prof.IntMult+prof.FPAlu+prof.FPMult:
		op = isa.OpFPMult
	default:
		op = isa.OpIntALU
	}
	fp := op == isa.OpFPAlu || op == isa.OpFPMult
	st := isa.Static{
		Op:   op,
		Src1: b.pickSrc(fp),
		Src2: isa.RegNone,
		Dest: b.pickDest(fp, op),
	}
	if op != isa.OpLoad && b.rng.Bool(0.7) {
		st.Src2 = b.pickSrc(fp)
	}
	if st.Dest != isa.RegNone {
		b.noteDest(st.Dest)
	}
	return st
}

// pickSrc picks a source register: with probability DepProb one of the most
// recently written registers (creating a dependency chain), otherwise a
// uniformly random register of the right class.
func (b *builder) pickSrc(fp bool) int8 {
	if len(b.recent) > 0 && b.rng.Bool(b.prof.DepProb) {
		k := len(b.recent)
		if k > b.prof.DepDepth {
			k = b.prof.DepDepth
		}
		return b.recent[len(b.recent)-1-b.rng.Intn(k)]
	}
	if fp {
		return int8(isa.NumIntRegs + b.rng.Intn(isa.NumFPRegs))
	}
	return int8(b.rng.Intn(isa.NumIntRegs))
}

// pickDest picks a destination register; stores have none.
func (b *builder) pickDest(fp bool, op isa.Op) int8 {
	if op == isa.OpStore {
		return isa.RegNone
	}
	if fp {
		return int8(isa.NumIntRegs + b.rng.Intn(isa.NumFPRegs))
	}
	return int8(b.rng.Intn(isa.NumIntRegs))
}

func (b *builder) noteDest(r int8) {
	b.recent = append(b.recent, r)
	if len(b.recent) > 32 {
		b.recent = b.recent[len(b.recent)-16:]
	}
}

// newMemRef allocates address-generation parameters for one static memory
// instruction, drawing its region from the profile's locality mix.
func (b *builder) newMemRef() int {
	prof := b.prof
	m := MemRef{Seed: b.rng.Uint64()}
	r := b.rng.Float64()
	switch {
	case r < prof.HotFrac:
		m.Base = 0x1000_0000
		m.Span = prof.HotBytes
	case r < 1-prof.ColdFrac:
		m.Base = 0x2000_0000 + uint64(b.rng.Intn(4))*prof.WarmBytes
		m.Span = prof.WarmBytes
	default:
		m.Base = 0x4000_0000
		m.Span = prof.ColdBytes
		m.Wild = true
	}
	b.p.MemRefs = append(b.p.MemRefs, m)
	return len(b.p.MemRefs) - 1
}

// branchKind distinguishes where a conditional branch sits: loop back-edges,
// loop-body conditionals (the dynamically hot ones, explicitly split into a
// hard and an easy variant), and everything else. Every loop body contains
// exactly one hard and one easy diamond, so the dynamic difficulty mix is
// bimodal by construction instead of depending on which static branches
// happen to land in the hottest loop.
type branchKind uint8

const (
	brLatch branchKind = iota
	brBodyHard
	brBodyEasy
	brGate // controls how often the hard body diamond executes
	brOuter
)

// newBranch allocates behaviour parameters for a conditional branch.
func (b *builder) newBranch(kind branchKind) int {
	prof := b.prof
	br := Branch{Seed: b.rng.Uint64(), LoopBack: kind == brLatch}
	span := prof.DetBitsHi - prof.DetBitsLo
	if span < 0 {
		span = 0
	}
	br.DetBits = prof.DetBitsLo
	if span > 0 {
		br.DetBits += b.rng.Intn(span + 1)
	}
	hard := false
	switch kind {
	case brBodyHard:
		hard = true
	case brBodyEasy:
		hard = false
	case brGate:
		// Gates are nearly perfectly predictable branches whose taken
		// frequency (HardFreq) sets how often the hard diamond runs —
		// the calibrated knob that positions each benchmark's overall
		// misprediction rate without diluting hard-branch difficulty.
		br.DetBias = prof.HardFreq()
		br.NoiseP = 0.01
		br.Bias = 0.5
		b.p.Branches = append(b.p.Branches, br)
		return len(b.p.Branches) - 1
	case brOuter:
		hard = !b.rng.Bool(prof.EasyFrac)
	}
	br.DetBias = 0.5
	if kind == brLatch {
		// Loop back-edges are taken (1 - 1/trip) of the time: exits are
		// drawn from the unlearnable noise component (keyed on the branch
		// counter), which yields geometric trip counts, guarantees loops
		// terminate even when the global history reaches a fixed point,
		// and mispredicts each exit — the classic loop-branch miss floor.
		br.DetBits = 0 // det component degenerates to "taken"
		br.TripInv = 0
		br.NoiseP = 1.0 / prof.TripMean
		br.Bias = 0.0 // when the noise component fires, the loop exits
	} else if hard {
		// Hard branches come in two tiers. "Merely hard" branches miss
		// around 30 % — the estimator's LC band. "Ultra-hard" branches
		// (about a quarter of them, distributed deterministically) are
		// fifty-fifty under the noise term and miss close to 50 % — the
		// VLC band. This bimodality is what makes the paper's four-way
		// categorization meaningful: VLC must be both rarer and genuinely
		// worse than LC for graded throttling to beat all-or-nothing
		// gating.
		b.ultraAcc += 0.10
		if b.ultraAcc >= 1 {
			b.ultraAcc--
			br.NoiseP = 0.97
			br.Bias = 0.5 + 0.06*(b.rng.Float64()-0.5)
		} else {
			br.NoiseP = prof.HardNoise * (0.85 + 0.3*b.rng.Float64())
			br.Bias = 0.5 + 0.12*(b.rng.Float64()-0.5)
		}
	} else {
		br.NoiseP = prof.NoiseScale() * prof.EasyNoise * (0.5 + b.rng.Float64())
		br.Bias = prof.BiasMean + 0.3*(b.rng.Float64()-0.5)
	}
	if br.NoiseP > 0.95 {
		br.NoiseP = 0.95
	}
	if br.Bias < 0.05 {
		br.Bias = 0.05
	}
	if br.Bias > 0.95 {
		br.Bias = 0.95
	}
	b.p.Branches = append(b.p.Branches, br)
	return len(b.p.Branches) - 1
}

// endWithBranch terminates block id with a conditional branch. The condition
// reads the block's most recent computation (real branch conditions sit at
// the end of dependence chains — compares of freshly computed or loaded
// values), which is what gives branches realistic resolution latencies and
// lets wrong-path instructions reach the issue stage, as in the paper's
// Table 1 analysis.
func (b *builder) endWithBranch(id, taken, notTaken int, kind branchKind) {
	blk := &b.p.Blocks[id]
	blk.Code = append(blk.Code, isa.Static{
		Op:   isa.OpBranch,
		Src1: b.lastDest(),
		Src2: b.pickSrc(false),
		Dest: isa.RegNone,
	})
	blk.Succ[0] = notTaken
	blk.Succ[1] = taken
	blk.BrID = b.newBranch(kind)
}

// lastDest returns the most recently written register (the head of the
// current dependence chain), falling back to a random pick.
func (b *builder) lastDest() int8 {
	if len(b.recent) > 0 {
		return b.recent[len(b.recent)-1]
	}
	return b.pickSrc(false)
}

// endWithJump terminates block id with an unconditional jump.
func (b *builder) endWithJump(id, target int) {
	blk := &b.p.Blocks[id]
	blk.Code = append(blk.Code, isa.Static{Op: isa.OpJump,
		Src1: isa.RegNone, Src2: isa.RegNone, Dest: isa.RegNone})
	blk.Succ[1] = target
}

// endWithCall terminates block id with a call to callee; control resumes at
// retSite.
func (b *builder) endWithCall(id, callee, retSite int) {
	blk := &b.p.Blocks[id]
	blk.Code = append(blk.Code, isa.Static{Op: isa.OpCall,
		Src1: isa.RegNone, Src2: isa.RegNone, Dest: int8(31)}) // link register
	blk.Succ[0] = retSite
	blk.Succ[1] = callee
}

// endWithReturn terminates block id with a return.
func (b *builder) endWithReturn(id int) {
	blk := &b.p.Blocks[id]
	blk.Code = append(blk.Code, isa.Static{Op: isa.OpReturn,
		Src1: int8(31), Src2: isa.RegNone, Dest: isa.RegNone})
}

// fallthrough links block id to next without a control instruction.
func (b *builder) fallTo(id, next int) {
	b.p.Blocks[id].Succ[0] = next
}

// buildFunc generates function fi and returns its entry block. The body is a
// chain of structural segments (plain blocks, if-diamonds, loops, calls),
// ending in a return.
func (b *builder) buildFunc(fi int) int {
	entry := b.newBlock()
	b.fillBlock(entry, b.blockLen())
	segs := b.prof.SegmentsMin
	if d := b.prof.SegmentsMax - b.prof.SegmentsMin; d > 0 {
		segs += b.rng.Intn(d + 1)
	}
	cur := entry
	for s := 0; s < segs; s++ {
		cur = b.buildSegment(cur, fi, b.prof.MaxDepth)
	}
	// Terminate with a return (main is handled separately).
	ret := b.newBlock()
	b.fillBlock(ret, b.blockLen())
	b.endWithReturn(ret)
	b.fallTo(cur, ret)
	return entry
}

// buildSegment appends one structure after block cur and returns the block
// that control reaches afterwards (an empty join block ready for chaining).
func (b *builder) buildSegment(cur, fi, depth int) int {
	r := b.rng.Float64()
	switch {
	case depth > 0 && r < b.prof.LoopFrac:
		return b.buildLoop(cur, fi, depth-1)
	case fi < b.prof.Funcs-1 && r < b.prof.LoopFrac+0.15:
		return b.buildCall(cur, fi)
	case depth > 0 && r < b.prof.LoopFrac+0.15+0.45:
		return b.buildDiamond(cur, fi, depth-1, brOuter)
	default:
		nxt := b.newBlock()
		b.fillBlock(nxt, b.blockLen())
		b.fallTo(cur, nxt)
		return nxt
	}
}

// buildDiamond appends an if/else diamond: cur conditionally branches to a
// then-path or falls to an else-path; both converge on a join block.
func (b *builder) buildDiamond(cur, fi, depth int, kind branchKind) int {
	thenB := b.newBlock()
	elseB := b.newBlock()
	join := b.newBlock()
	b.fillBlock(thenB, b.blockLen())
	b.fillBlock(elseB, b.blockLen())
	b.fillBlock(join, b.blockLen())
	b.endWithBranch(cur, thenB, elseB, kind)
	// Optionally nest one more structure on the then path.
	thenEnd := thenB
	if depth > 0 && b.rng.Bool(0.35) {
		thenEnd = b.buildSegment(thenB, fi, depth)
	}
	b.endWithJump(thenEnd, join)
	elseEnd := elseB
	if depth > 0 && b.rng.Bool(0.25) {
		elseEnd = b.buildSegment(elseB, fi, depth)
	}
	b.fallTo(elseEnd, join)
	return join
}

// buildLoop appends a loop: cur falls into the body; the body's last block
// ends with a mostly-taken back-edge to the body head; the exit path falls
// to a fresh block. Loop bodies almost always contain a conditional (real
// inner loops are full of data-dependent branches); without this the
// dynamic branch mix degenerates to nearly pure back-edges and the
// confidence estimators have nothing to discriminate.
func (b *builder) buildLoop(cur, fi, depth int) int {
	head := b.newBlock()
	b.fillBlock(head, b.blockLen())
	b.fallTo(cur, head)
	// Body: a gate branch decides (at the calibrated HardFreq frequency)
	// whether the hard diamond runs this iteration, then an easy diamond
	// always runs. Real inner loops look exactly like this: a cheap
	// guard, a rarely-taken difficult path, and routine conditionals.
	hardEntry := b.newBlock()
	b.fillBlock(hardEntry, b.blockLen())
	skip := b.newBlock()
	b.fillBlock(skip, b.blockLen())
	b.endWithBranch(head, hardEntry, skip, brGate)
	hardEnd := b.buildDiamond(hardEntry, fi, 0, brBodyHard)
	b.endWithJump(hardEnd, skip)
	bodyEnd := b.buildDiamond(skip, fi, 0, brBodyEasy)
	if depth > 0 && b.rng.Bool(0.35) {
		bodyEnd = b.buildSegment(bodyEnd, fi, depth)
	}
	latch := b.newBlock()
	b.fillBlock(latch, b.blockLen())
	b.fallTo(bodyEnd, latch)
	exit := b.newBlock()
	b.fillBlock(exit, b.blockLen())
	b.endWithBranch(latch, head, exit, brLatch)
	return exit
}

// buildCall appends a call to a later (already generated) function.
func (b *builder) buildCall(cur, fi int) int {
	calleeIdx := fi + 1 + b.rng.Intn(b.prof.Funcs-fi-1)
	callee := b.funcEntries[calleeIdx]
	ret := b.newBlock()
	b.fillBlock(ret, b.blockLen())
	b.endWithCall(cur, callee, ret)
	return ret
}

// buildMain generates the top-level dispatcher: an endless loop calling each
// top-level function in turn, then jumping back to the start.
func (b *builder) buildMain() int {
	entry := b.newBlock()
	b.fillBlock(entry, b.blockLen())
	cur := entry
	nCalls := b.prof.Funcs / 3
	if nCalls < 2 {
		nCalls = 2
	}
	for i := 0; i < nCalls; i++ {
		calleeIdx := b.rng.Intn(b.prof.Funcs)
		ret := b.newBlock()
		b.fillBlock(ret, b.blockLen())
		b.endWithCall(cur, b.funcEntries[calleeIdx], ret)
		cur = ret
	}
	b.endWithJump(cur, entry)
	return entry
}

// blockLen draws a basic-block length (>= 2 so blocks are never empty even
// after appending a terminator).
func (b *builder) blockLen() int {
	n := b.rng.Geometric(b.prof.MeanBlockLen)
	if n < 2 {
		n = 2
	}
	return n
}

// assignPCs lays blocks out contiguously in generation order.
func (b *builder) assignPCs() {
	var pc uint64 = 0x40_0000
	for i := range b.p.Blocks {
		blk := &b.p.Blocks[i]
		blk.Base = pc
		pc += uint64(len(blk.Code)+1) * InstBytes // +1: gap to avoid 0-len aliasing
	}
	b.p.CodeBytes = pc - 0x40_0000
}
