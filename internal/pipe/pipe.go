// Package pipe implements the cycle-level out-of-order superscalar core the
// reproduction's experiments run on: the stand-in for the paper's modified
// SimpleScalar/Wattch sim-outorder model.
//
// The core is an 8-wide machine with a parameterized in-order front end
// (fetch and decode pipes whose depths set the overall pipeline length, 6-28
// stages in the paper's sensitivity study), a unified RUU-style instruction
// window with wakeup/select issue logic, a load/store queue, the functional
// units of Table 3, and in-order commit. Branch mispredictions flush younger
// work and restore the workload walker from the branch's checkpoint, so
// recovery latency (front-end refill plus the configured extra penalty) is
// emergent, exactly the property the paper's pipeline-depth sweep exploits.
//
// Throttling hooks: every cycle the core asks the Selective Throttling
// controller (internal/core) for the effective fetch and decode rates, and
// the select loop honors no-select barriers; oracle modes suppress a single
// stage's processing of wrong-path instructions (Section 3's limit study).
//
// # Event-driven wakeup
//
// The issue stage is event-driven rather than a per-cycle scan of the whole
// window. The bookkeeping and its invariants (enforced by CheckInvariants):
//
//   - Dependent registration: at dispatch, an instruction whose source is an
//     in-flight, incomplete producer appends itself to that producer's deps
//     list (pointer + sequence number). A producer bound at rename is always
//     incomplete, so it later either completes — firing the wakeup — or is
//     squashed, in which case every registered dependent is younger and is
//     squashed with it. Entries are validated by sequence number, so pool
//     recycling can never alias a wakeup to the wrong dynamic instruction.
//   - Ready bitmap: one bit per window slot, set exactly when the resident
//     instruction has all operands available and has not issued. Bits are
//     written at dispatch, set by producer completion (wakeup), and cleared
//     at issue and at flush; readiness is monotonic while an instruction is
//     window-resident, so no event can un-ready a set bit. Selection walks
//     set bits oldest-first from the window head and pops at most
//     IssueWidth issuable entries; entries skipped for structural reasons
//     (functional unit exhausted, no-select barrier, memory dependence)
//     keep their bit and are reconsidered the next cycle.
//   - Side lists: in-flight stores (for O(pending-stores) memory
//     disambiguation) and unissued no-select trigger followers (for the
//     NoSelectStalls statistic) are kept in age order, appended at dispatch,
//     truncated on flush, and lazily compacted; entries are seq-validated
//     like deps.
//
// # Instruction record and checkpoint leases
//
// The in-flight instruction record embeds a one-cache-line prog.DynInst;
// walker recovery state is NOT embedded. A conditional branch carries an
// int32 lease on the walker's checkpoint arena (prog.Walker), and the
// pipeline is responsible for the lease's life cycle: resolve releases it on
// a correct prediction, walker.Recover consumes it on a misprediction, and
// squash releases it for every killed branch. CheckInvariants verifies the
// exact lease accounting (every unresolved in-flight branch holds one, and
// nothing else holds any), and the pool tests' arena analog pins the
// footprint. Recycled instructions are reset field-selectively (see
// allocInst) so the pool's steady state writes a few words per instruction
// instead of the whole record.
package pipe

import (
	"math/bits"
	"sync/atomic"

	"selthrottle/internal/bpred"
	"selthrottle/internal/cache"
	"selthrottle/internal/conf"
	"selthrottle/internal/core"
	"selthrottle/internal/isa"
	"selthrottle/internal/power"
	"selthrottle/internal/prog"
)

// Config holds the core's structural parameters. Default() reproduces
// Table 3 with the paper's 14-stage baseline pipeline.
type Config struct {
	FetchWidth  int
	DecodeWidth int
	IssueWidth  int
	CommitWidth int

	WindowSize int // unified RUU / reorder buffer entries
	LSQSize    int

	FetchStages  int // in-order fetch pipe depth
	DecodeStages int // in-order decode/rename pipe depth
	ExtraExecLat int // added to every FU latency (depth sweep)

	MaxTakenPerCycle int // taken control transfers per fetch cycle
	MispredictExtra  int // extra recovery cycles (Table 3: 2)

	FUCount [isa.NumFUKinds]int

	Mem cache.Config

	BTBEntries int
	BTBWays    int
	RASDepth   int

	// PerfectDisambiguation disables load-store blocking entirely
	// (ablation/diagnostic; the default address-matching model is the
	// realistic one).
	PerfectDisambiguation bool

	// StuckCycles is the no-commit cycle count after which RunE declares the
	// machine deadlocked (Run panics with the same *RunError). Zero selects
	// DefaultStuckCycles; stress harnesses and CI shapes tighten it to fail
	// fast. The threshold cannot influence a completed simulation's results.
	StuckCycles int

	// Fault is the fault-injection test hook (see FaultHook and
	// internal/faultinject); nil in every production configuration. The
	// hook's dynamic type must be comparable (a pointer suffices) so Config
	// itself stays a comparable value with a hook installed.
	Fault FaultHook

	Oracle core.Oracle
}

// DefaultStuckCycles is the deadlock threshold used when Config.StuckCycles
// is zero.
const DefaultStuckCycles = 100000

// stuckLimit resolves the configured deadlock threshold.
func (c *Config) stuckLimit() int {
	if c.StuckCycles > 0 {
		return c.StuckCycles
	}
	return DefaultStuckCycles
}

// Default returns the paper's Table 3 configuration at 14 pipeline stages.
func Default() Config {
	cfg := Config{
		FetchWidth:  8,
		DecodeWidth: 8,
		IssueWidth:  8,
		CommitWidth: 8,

		WindowSize: 128,
		LSQSize:    64,

		MaxTakenPerCycle: 2,
		MispredictExtra:  2,

		Mem:        cache.Default(),
		BTBEntries: 1024,
		BTBWays:    2,
		RASDepth:   32,
	}
	cfg.FUCount[isa.FUIntALU] = 8
	cfg.FUCount[isa.FUIntMult] = 2
	cfg.FUCount[isa.FUMemPort] = 2
	cfg.FUCount[isa.FUFPAlu] = 8
	cfg.FUCount[isa.FUFPMult] = 1
	cfg.SetDepth(14)
	return cfg
}

// SetDepth distributes a total fetch-to-commit pipeline depth across the
// in-order front end, following the paper's §5.3.1 methodology: the
// back end contributes a fixed four stages (issue, execute, writeback,
// commit); the remainder splits evenly between the fetch and decode pipes;
// and depths beyond the 14-stage baseline also lengthen execution and L1D
// latencies (one extra cycle per seven additional stages).
func (c *Config) SetDepth(total int) {
	if total < 6 {
		total = 6
	}
	front := total - 4
	c.FetchStages = (front + 1) / 2
	c.DecodeStages = front / 2
	extra := 0
	if total > 14 {
		extra = (total - 14) / 7
	}
	c.ExtraExecLat = extra
	c.Mem.L1HitLat = 1 + extra
}

// Depth reports the configured fetch-to-commit depth.
func (c *Config) Depth() int { return c.FetchStages + c.DecodeStages + 4 }

// inst is one in-flight dynamic instruction.
//
// Field order is a host-memory layout: the fields a stage reads every cycle
// or every instruction come right after d, so they share the record's first
// two host cache lines; fields only branches, stalled loads or diagnostics
// read sit at the end. TestInstLayout pins the size and that boundary.
type inst struct {
	d prog.DynInst

	// Pipeline timing.
	enterDecode int64 // cycle at which decode may process it
	enterWindow int64 // cycle at which dispatch may insert it

	// epoch is the ring slot of the speculation epoch this instruction was
	// fetched in (see ledger.go); every activity event the instruction
	// causes is attributed to that epoch's ledger. Slots are stable while an
	// epoch is open, and an instruction can never touch its ledger after the
	// epoch closes (fold implies this instruction was squashed; retirement
	// implies it committed).
	epoch int32

	// wpos is the window ring slot this instruction occupies while
	// dispatched (slots are stable for a resident instruction); it indexes
	// the ready bitmap.
	wpos int32

	issued     bool
	done       bool
	squashed   bool
	hasBarrier bool // barrier below is valid (selection throttling)

	// The memory-op flags here and fuKind and execLat below cache the
	// static instruction's load/store classification, functional-unit
	// class, and execution latency (base latency plus the configured
	// ExtraExecLat), written once at decode so the issue, execute,
	// dispatch, and commit stages stop re-deriving them from the opcode
	// tables on every visit — a ready instruction skipped for structural
	// reasons is re-examined every cycle. Valid from decode onward (no
	// earlier stage reads them).
	memOp   bool // isa.Op.IsMem()
	loadOp  bool // == isa.OpLoad
	storeOp bool // == isa.OpStore

	// nwait counts bound producers that have not completed yet. Dispatch
	// sets it to the number of bound sources; each
	// producer completion decrements it exactly once (a bound producer is
	// always incomplete, so it either completes — firing the wakeup — or is
	// squashed together with this younger dependent). Zero means ready,
	// which CheckInvariants cross-validates against the pointer-chasing
	// ready() below.
	nwait uint8

	fuKind  uint8 // functional-unit class (cached at decode, see memOp)
	execLat int16 // execution latency (cached at decode, see memOp)

	// Branch prediction state.
	predTaken bool
	ctr       bpred.Counter2
	class     conf.Class

	// srcs holds producers still in flight (nil = operand ready). Producers
	// are pool-recycled at commit, so each pointer is guarded by the
	// producer's sequence number captured at rename: a mismatch means the
	// producer retired and its slot was reused, i.e. the operand is ready.
	srcs   [2]*inst
	srcSeq [2]uint64

	// deps lists the window-resident consumers waiting on this
	// instruction's result; completion walks it to wake newly-ready
	// dependents. The backing array survives pool recycling.
	deps []instRef

	// blockRef caches the store that last blocked this load: a stalled load is re-examined every cycle, and while the
	// cached store is still seq-valid, incomplete, same-address, AND older
	// than the load it proves the load blocked without walking the store
	// queue. The fast path re-checks the full predicate (including age:
	// sequence numbering restarts on Pipeline.Reset, so a stale cached
	// reference can alias a younger same-seq store from a previous run),
	// which makes a hit exactly equivalent to finding that store in the
	// walk — no reset across recycling is needed.
	blockRef instRef

	barrier uint64 // selection-throttling barrier (valid when hasBarrier)
	cookie  uint64 // predictor update cookie (conditional branches)

	// Cycle stamps, read only by branch resolution's latency statistics
	// and by RunError snapshots.
	fetchCycle  int64 // when fetched
	windowCycle int64 // when dispatched into the window
	issueCycle  int64 // when issued
}

// instRef is a pool-safe reference to a dynamic instruction: the pointer is
// only meaningful while the pointee's sequence number still equals seq (the
// pool recycles instructions, and a recycled slot carries a new sequence).
type instRef struct {
	in  *inst
	seq uint64
}

// isMem/isLoad read the classification cached at decode; like fuKind and
// execLat they are meaningful from decode onward, and every caller (dispatch,
// issue, complete, commit, window flush) runs after decode.
func (in *inst) isMem() bool  { return in.memOp }
func (in *inst) isLoad() bool { return in.loadOp }

// ready reports whether all source operands are available. A producer whose
// sequence number no longer matches the one captured at rename has committed
// and been recycled by the pool — its result is architecturally available.
func (in *inst) ready() bool {
	for i, p := range in.srcs {
		if p != nil && p.d.Seq == in.srcSeq[i] && !p.done {
			return false
		}
	}
	return true
}

// Stats accumulates the run's architectural statistics.
type Stats struct {
	Cycles    uint64
	Committed uint64
	Fetched   uint64

	WrongPathFetched    uint64
	WrongPathDecoded    uint64
	WrongPathDispatched uint64
	WrongPathIssued     uint64

	CondBranches uint64 // committed conditional branches
	Mispredicts  uint64 // committed mispredicted conditional branches

	FetchGatedCycles  uint64 // fetch cycles suppressed by throttling
	DecodeGatedCycles uint64
	NoSelectStalls    uint64 // issue opportunities blocked by no-select

	FetchIdleHeld         uint64 // cycles fetch idled on hold/recovery/miss
	FetchIdleBackPressure uint64 // cycles fetch idled on front-end back-pressure

	OracleHolds       uint64 // oracle-fetch holds initiated
	TrueFlushes       uint64 // flushes triggered by correct-path branches
	ResolveLatTotal   uint64 // summed fetch-to-flush latency of mispredicted branches
	ResolveWindowWait uint64 // summed dispatch-to-flush latency
	ResolveIssueWait  uint64 // summed dispatch-to-issue latency

	Quality conf.Quality // confidence estimator quality (SPEC/PVN)
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MissRate returns the committed-branch misprediction rate.
func (s *Stats) MissRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CondBranches)
}

// Pipeline is one simulated core bound to a workload walker, a branch
// predictor, a confidence estimator, and a throttle controller.
type Pipeline struct {
	cfg    Config
	walker *prog.Walker
	pred   bpred.DirPredictor
	est    conf.Estimator
	ctrl   *core.Controller
	mem    *cache.Hierarchy
	btb    *bpred.BTB
	ras    *bpred.RAS
	meter  *power.Meter

	cycle int64

	window  *ring[*inst]
	lsqUsed int

	// Front-end delay line: whole fetch groups flow through one instruction
	// ring, and decode advances a boundary cursor instead of moving
	// instructions between queues. See frontend.go for the structure and its
	// invariants.
	frontQ    *ring[*inst]   // the delay line: fetched, undispatched instructions
	decoded   int            // length of frontQ's decoded prefix (the decode segment)
	fetchCap  int            // fetch-segment capacity
	decodeCap int            // decode-segment capacity
	fetchBuf  []prog.DynInst // scratch for walker NextGroup batches

	regs [isa.NumRegs]*inst // speculative rename table

	// Completion schedule: compQ[cycle % len] holds instructions finishing
	// execution that cycle.
	compQ [][]*inst

	wrongPath      bool   // fetch is currently beyond a mispredicted branch
	fetchResumeAt  int64  // recovery / icache-miss gate on fetch
	fetchHeldBySeq uint64 // oracle-fetch hold (0 = none)
	fetchHeld      bool

	// Event-driven issue state. See the package comment for the invariants.
	readyMask []uint64  // per-window-slot bit: resident, ready, unissued
	storeQ    []instRef // age-ordered in-flight (dispatched, incomplete) stores
	barrierQ  []instRef // age-ordered unissued instructions carrying a no-select barrier

	// free is the instruction pool: retired and squashed instructions are
	// recycled here and handed back out by fetch, so the steady-state cycle
	// loop allocates nothing. Fresh instructions are carved from slab in
	// chunks, so the machine's in-flight population is backed by a few
	// contiguous arrays instead of scattered heap objects (the pool's
	// working set is bigger than L1, so adjacency matters).
	// poolAllocs/poolReused instrument the pool (see PoolStats).
	free       []*inst
	slab       []inst
	poolAllocs uint64
	poolReused uint64

	// tally accumulates per-unit activity events across cycles; Run (and
	// FlushTally) folds it into the meter. Counts are integers, so the
	// deferred flush is bit-identical to a per-cycle flush (see
	// power.Meter.AddTally) while keeping the per-cycle cost to plain
	// integer increments. wastedTally is its squash-side counterpart:
	// flushAfter folds the squashed epochs' ledgers here with integer adds.
	tally       [power.NumUnits]uint64
	wastedTally [power.NumUnits]uint64

	// Speculation-epoch ledgers (see ledger.go): a ring of open epochs in
	// age order. curEpoch is the youngest epoch's slot (the one fetch binds
	// new instructions to); nextRetire caches the oldest epoch's closing
	// sequence number so commit's retirement check is one compare.
	epochBuf   []epochRec
	epochHead  int32
	epochCount int32
	curEpoch   int32
	nextRetire int64
	epochHW    int

	// CommitTrace, when set, is invoked for every committed instruction
	// (diagnostics and tests).
	CommitTrace func(seq, pc uint64, cycle int64)

	// faultArmed hoists the Config.Fault != nil test (set once in New): the
	// per-cycle stage paths pay one predictable bool check when fault
	// injection is off, the overwhelmingly common case.
	faultArmed bool

	// canceled is the cooperative-cancellation flag Cancel sets (from any
	// goroutine); RunE polls it every cancelCheckCycles cycles. Reset clears
	// it — not RunE, so one Cancel stops both the warmup and measurement
	// runs sharing a reset.
	canceled atomic.Bool

	// runTarget is the commit target of the RunE in progress, captured for
	// failure snapshots.
	runTarget uint64

	Stats Stats
}

// maxCompLat bounds scheduled completion latencies (exec + L2 miss + slack).
const maxCompLat = 64

// New builds a pipeline. All collaborators are injected so experiments can
// swap predictors, estimators, policies, and oracle modes independently.
func New(cfg Config, w *prog.Walker, pred bpred.DirPredictor, est conf.Estimator,
	ctrl *core.Controller, meter *power.Meter) *Pipeline {
	p := &Pipeline{
		cfg:    cfg,
		walker: w,
		pred:   pred,
		est:    est,
		ctrl:   ctrl,
		mem:    cache.NewHierarchy(cfg.Mem),
		btb:    bpred.NewBTB(cfg.BTBEntries, cfg.BTBWays),
		ras:    bpred.NewRAS(cfg.RASDepth),
		meter:  meter,
	}
	p.faultArmed = cfg.Fault != nil
	p.fetchCap = cfg.FetchStages*cfg.FetchWidth + 2*cfg.FetchWidth
	p.decodeCap = cfg.DecodeStages*cfg.DecodeWidth + 2*cfg.DecodeWidth
	p.frontQ = newRing[*inst](p.fetchCap + p.decodeCap)
	p.fetchBuf = make([]prog.DynInst, cfg.FetchWidth)
	p.window = newRing[*inst](cfg.WindowSize)
	p.compQ = make([][]*inst, maxCompLat)
	for i := range p.compQ {
		// Pre-size each wheel slot: several issue cycles with different
		// latencies can land on one slot, so give each room for a full
		// issue group up front; rare overflows grow once and stick.
		p.compQ[i] = make([]*inst, 0, cfg.IssueWidth)
	}
	p.readyMask = make([]uint64, (p.window.Cap()+63)/64)
	p.initEpochs(p.fetchCap + p.decodeCap + cfg.WindowSize + 2)
	return p
}

// Reset rewinds the pipeline to its just-constructed state and rebinds its
// collaborators, reusing every internal structure (rings, completion wheel,
// instruction pool, caches, BTB, RAS). The structural configuration is
// unchanged — callers that need a different Config must build a new
// Pipeline. A reset pipeline produces bit-identical results to a fresh one.
func (p *Pipeline) Reset(w *prog.Walker, pred bpred.DirPredictor, est conf.Estimator,
	ctrl *core.Controller, meter *power.Meter) {
	p.walker, p.pred, p.est, p.ctrl, p.meter = w, pred, est, ctrl, meter
	p.mem.Reset()
	p.btb.Reset()
	p.ras.Reset()
	p.cycle = 0
	for p.frontQ.Len() > 0 {
		p.freeInst(p.frontQ.PopFront())
	}
	p.decoded = 0
	for p.window.Len() > 0 {
		p.freeInst(p.window.PopFront())
	}
	for i := range p.compQ {
		for _, in := range p.compQ[i] {
			// Squashed entries live only on the wheel; anything else was
			// window-resident and is already back in the pool.
			if in.squashed {
				p.freeInst(in)
			}
		}
		p.compQ[i] = p.compQ[i][:0]
	}
	for r := range p.regs {
		p.regs[r] = nil
	}
	p.lsqUsed = 0
	p.wrongPath = false
	p.fetchResumeAt = 0
	p.fetchHeldBySeq = 0
	p.fetchHeld = false
	clear(p.readyMask)
	p.storeQ = p.storeQ[:0]
	p.barrierQ = p.barrierQ[:0]
	p.tally = [power.NumUnits]uint64{}
	p.wastedTally = [power.NumUnits]uint64{}
	p.resetEpochs()
	p.canceled.Store(false)
	p.Stats = Stats{}
}

// allocInst hands out an instruction, recycling the pool before touching the
// heap. Steady-state fetch never allocates: the pool is replenished by
// commit and squash. The deps backing array is kept across recycling so the
// wakeup lists stop allocating once they reach their high-water capacities.
//
// Recycling resets only the fields a reader could see before a writer: the
// lifecycle flags, the source bindings (dispatch binds at most two and the
// rest must read as nil), and the barrier flag (dispatch writes both arms).
// Everything else is written before it is read on every path — d by
// Next, the epoch binding and prediction state by fetch (the only readers),
// enter/timing fields and the fuKind/execLat cache by their stages — so a
// full struct zero (several cache lines per instruction) buys nothing.
//
//st:hotpath
func (p *Pipeline) allocInst() *inst {
	if n := len(p.free) - 1; n >= 0 {
		in := p.free[n]
		p.free = p.free[:n]
		in.deps = in.deps[:0]
		in.srcs[0], in.srcs[1] = nil, nil
		in.issued, in.done, in.squashed = false, false, false
		in.hasBarrier = false
		p.poolReused++
		return in
	}
	p.poolAllocs++
	if len(p.slab) == 0 {
		p.slab = make([]inst, 64) //st:alloc-ok — amortized pool refill; PoolStats pins steady state
	}
	in := &p.slab[0]
	p.slab = p.slab[1:]
	// Pre-size the wakeup list so the common case (a handful of dependents)
	// never grows it; rare crowded producers grow once and keep the larger
	// backing array through recycling.
	in.deps = make([]instRef, 0, 8) //st:alloc-ok — once per pooled instruction, recycled forever
	return in
}

// freeInst returns an instruction to the pool. The instruction's fields are
// deliberately left intact until reallocation: younger instructions may
// still hold seq-guarded source pointers to it (see inst.ready).
//
//st:hotpath
func (p *Pipeline) freeInst(in *inst) {
	p.free = append(p.free, in)
}

// PoolStats reports the instruction pool's behaviour since construction:
// how many instructions were freshly heap-allocated and how many were
// recycled. After warmup, allocs must stop growing — tests use this probe
// to catch allocation regressions in the cycle loop.
func (p *Pipeline) PoolStats() (allocs, reuses uint64) {
	return p.poolAllocs, p.poolReused
}

// Cycle returns the current cycle number.
func (p *Pipeline) Cycle() int64 { return p.cycle }

// Run simulates until n instructions have committed and returns the stats.
// It is the legacy panicking wrapper around RunE: any terminal failure
// (deadlock, wrong-path commit, invariant violation, cancellation) is raised
// as a *RunError panic, preserving the historical fail-fast contract for
// callers without a supervisor.
func (p *Pipeline) Run(n uint64) *Stats {
	st, err := p.RunE(n)
	if err != nil {
		panic(err) // fail-fast: legacy contract, typed *RunError for sim.Guard
	}
	return st
}

// cancelCheckCycles is the amortization interval of RunE's cooperative
// cancellation check: one counter decrement per cycle on the hot path, one
// atomic load per interval. At typical simulation speeds (millions of cycles
// per second) an interval of 1024 cycles bounds the cancellation response to
// well under a millisecond while keeping the check invisible to
// BenchmarkSingleRun.
const cancelCheckCycles = 1024

// RunE simulates until n instructions have committed and returns the stats,
// or a *RunError describing the terminal failure: ErrDeadlock when the
// machine makes no commit progress for Config.StuckCycles cycles, ErrCanceled
// when Cancel stopped the run, or ErrWrongPathCommit/ErrPanic when a
// simulator invariant broke mid-cycle (recovered here, with the machine
// snapshot and panicking stack attached). After an error the pipeline's
// in-flight state is undefined; Reset restores it for reuse.
func (p *Pipeline) RunE(n uint64) (st *Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			// Deliberately convert while the panicking frames are still
			// live, so ErrPanic stacks point at the true origin.
			err = p.recoverRunError(r)
		}
	}()
	p.runTarget = n
	lastCommit := p.Stats.Committed
	stuck, limit := 0, p.cfg.stuckLimit()
	check := cancelCheckCycles
	for p.Stats.Committed < n {
		p.Step()
		if p.Stats.Committed == lastCommit {
			stuck++
			if stuck > limit {
				return nil, p.newRunError(ErrDeadlock, nil)
			}
		} else {
			stuck = 0
			lastCommit = p.Stats.Committed
		}
		if check--; check <= 0 {
			check = cancelCheckCycles
			if p.canceled.Load() {
				return nil, p.newRunError(ErrCanceled, nil)
			}
		}
	}
	p.FlushTally()
	return &p.Stats, nil
}

// Cancel requests a cooperative stop of the RunE in progress (safe from any
// goroutine; typically a supervisor's deadline watchdog). The run returns an
// ErrCanceled *RunError within cancelCheckCycles cycles. The flag persists
// until Reset, so a canceled warmup also cancels the measurement run that
// would follow it.
func (p *Pipeline) Cancel() { p.canceled.Store(true) }

// FlushTally folds the accumulated activity and wasted tallies into the
// meter. Run calls it before returning; callers driving Step directly must
// call it before reading the meter.
func (p *Pipeline) FlushTally() {
	p.meter.AddTally(&p.tally)
	p.meter.AddWastedTally(&p.wastedTally)
}

// Step advances the machine one cycle. Stages run back to front so that
// same-cycle structural hazards resolve in program order.
//
//st:hotpath
func (p *Pipeline) Step() {
	if p.faultArmed {
		p.stageFault(StageStep)
	}
	p.commit()
	p.complete()
	p.issue()
	p.dispatch()
	p.decode()
	p.fetch()
	p.cycle++
	p.meter.AddCycle()
	p.Stats.Cycles++
}

// ---------------------------------------------------------------- fetch --

// fetchCondBranch predicts and steers a conditional branch; it returns true
// when the fetch group must end (oracle-fetch hold or BTB-miss redirect).
//
//st:hotpath
func (p *Pipeline) fetchCondBranch(in *inst, taken *int) bool {
	// The branch closes the current speculation epoch (it is that epoch's
	// youngest member — in.epoch is already bound) and opens the next one;
	// everything fetched behind it is squashed iff the branch or an older
	// one flushes. This mirrors the checkpoint lease the walker just issued
	// for the same branch, but with an independent lifetime (see ledger.go).
	p.openEpoch(int64(in.d.Seq))
	predTaken, ctr, cookie := p.pred.Predict(in.d.PC)
	in.predTaken = predTaken
	in.cookie = cookie
	in.ctr = ctr
	in.class = p.est.Estimate(in.d.PC, ctr)
	p.ctrl.OnBranchPredicted(in.d.Seq, in.class)

	if p.cfg.Oracle == core.OracleFetch && predTaken != in.d.Taken && !in.d.WrongPath {
		// Limit study: do not fetch the mis-speculated path. Steer the
		// walker down the actual path but hold fetch until resolution,
		// paying the normal recovery latency (§3, oracle fetch).
		p.walker.Steer(in.d.Taken)
		p.fetchHeld = true
		p.fetchHeldBySeq = in.d.Seq
		p.Stats.OracleHolds++
		return true
	}

	p.walker.Steer(predTaken)
	if predTaken != in.d.Taken {
		p.wrongPath = true
	}
	if predTaken {
		*taken++
		// A taken prediction without a BTB entry cannot redirect fetch
		// this cycle: end the group (one-cycle fetch bubble).
		if _, hit := p.btb.Lookup(in.d.PC); !hit {
			p.btb.Insert(in.d.PC, in.d.TakenPC)
			return true
		}
	}
	return false
}

// btbTouch models target-buffer activity for unconditional control.
func (p *Pipeline) btbTouch(pc, target uint64) {
	if _, hit := p.btb.Lookup(pc); !hit {
		p.btb.Insert(pc, target)
	}
}

// ---------------------------------------------------------------- issue --

// setReady flags in's window slot in the ready bitmap.
func (p *Pipeline) setReady(in *inst) {
	p.readyMask[in.wpos>>6] |= 1 << uint(in.wpos&63)
}

// clearReady unflags in's window slot in the ready bitmap.
func (p *Pipeline) clearReady(in *inst) {
	p.readyMask[in.wpos>>6] &^= 1 << uint(in.wpos&63)
}

// startExecution performs the issue bookkeeping for one selected
// instruction: mark it issued, account the power events, compute its
// completion latency (including the D-cache access for loads), and schedule
// it on the completion wheel.
func (p *Pipeline) startExecution(in *inst) {
	in.issued = true
	in.issueCycle = p.cycle
	if in.d.WrongPath {
		p.Stats.WrongPathIssued++
	}
	p.note(in, power.UnitWindow) // operand read at issue
	p.note(in, power.UnitALU)

	lat := int(in.execLat) // opcode latency + ExtraExecLat, cached at decode
	if in.isLoad() {
		dlat, l2 := p.mem.DataAccess(in.d.Addr, p.cycle)
		lat += dlat
		p.note(in, power.UnitLSQ)
		p.note(in, power.UnitDCache)
		if l2 {
			p.note(in, power.UnitDCache2)
		}
	} else if in.storeOp {
		p.note(in, power.UnitLSQ) // address insertion
	}
	if lat < 1 {
		lat = 1
	}
	if lat >= maxCompLat {
		lat = maxCompLat - 1
	}
	slot := (p.cycle + int64(lat)) % maxCompLat
	p.compQ[slot] = append(p.compQ[slot], in)
}

// issue is the event-driven issue stage: it walks the ready bitmap
// oldest-first (age order) and pops at most IssueWidth issuable
// instructions. Entries skipped for structural reasons (exhausted functional
// unit, blocked no-select barrier, unresolved older same-address store,
// oracle-select suppression) keep their ready bit for the next cycle.
//
//st:hotpath
func (p *Pipeline) issue() {
	if p.faultArmed {
		p.stageFault(StageIssue)
	}
	var fu [isa.NumFUKinds]int
	for k := range fu {
		fu[k] = p.cfg.FUCount[k]
	}
	issued := 0
	oracleSel := p.cfg.Oracle == core.OracleSelect

	// stopSeq is the instruction that consumed the last issue slot:
	// selection stops there, so no-select stalls are only accounted for
	// older instructions. It stays at the maximum (count everything) when
	// the width is not exhausted.
	stopSeq := ^uint64(0)

	// The window occupies ring slots [head, head+count) modulo the ring
	// size; walk that range in age order as up to two ascending segments.
	head, count, size := p.window.head, p.window.count, len(p.window.buf)
	seg1hi, seg2hi := head+count, 0
	if seg1hi > size {
		seg2hi = seg1hi - size
		seg1hi = size
	}
	lo, hi := head, seg1hi
walk:
	for seg := 0; seg < 2 && issued < p.cfg.IssueWidth; seg++ {
		if seg == 1 {
			if seg2hi == 0 {
				break
			}
			lo, hi = 0, seg2hi
		}
		for w := lo >> 6; w<<6 < hi; w++ {
			bits64 := p.readyMask[w]
			if base := w << 6; base < lo {
				bits64 &^= 1<<uint(lo-base) - 1
			}
			if rem := hi - w<<6; rem < 64 {
				bits64 &= 1<<uint(rem) - 1
			}
			for bits64 != 0 {
				in := p.window.buf[w<<6+bits.TrailingZeros64(bits64)]
				bits64 &= bits64 - 1
				if oracleSel && in.d.WrongPath {
					continue
				}
				if in.hasBarrier && p.ctrl.Blocked(in.barrier) {
					continue // counted against stopSeq below
				}
				// Both remaining gates are pure, so checking the cheap
				// functional-unit one first is unobservable — and once the
				// memory ports are spent it spares every remaining ready
				// load its store-queue walk.
				kind := in.fuKind // cached at decode
				if fu[kind] == 0 {
					continue
				}
				if in.isLoad() && !p.cfg.PerfectDisambiguation && p.loadBlocked(in) {
					continue
				}
				fu[kind]--
				issued++
				p.clearReady(in)
				p.startExecution(in)
				if issued >= p.cfg.IssueWidth {
					stopSeq = in.d.Seq
					break walk
				}
			}
		}
	}

	// NoSelectStalls: one count per cycle for every unissued instruction
	// whose no-select barrier blocks it and that is older than the
	// instruction that exhausted the issue width (all of them when the width
	// was not exhausted), whether or not its operands are ready. Wrong-path
	// instructions under oracle select are not counted. The walk doubles as
	// the list's lazy compaction.
	if len(p.barrierQ) > 0 {
		keep := p.barrierQ[:0]
		for _, e := range p.barrierQ {
			in := e.in
			if in.d.Seq != e.seq || in.issued || in.squashed {
				continue // issued or recycled: permanently off the list
			}
			keep = append(keep, e)
			if e.seq >= stopSeq || (oracleSel && in.d.WrongPath) {
				continue
			}
			if p.ctrl.Blocked(in.barrier) {
				p.Stats.NoSelectStalls++
			}
		}
		p.barrierQ = keep
	}
}

// loadBlocked reports whether an older in-flight store to the same address
// bars ld from issuing (memory disambiguation via the workload oracle's
// store addresses, approximating perfect store-set prediction; the
// conservative alternative serializes the whole window behind every store
// and starves the issue stage of the wrong-path work the paper's selection
// throttling targets). The walk doubles as storeQ's lazy compaction:
// completed and recycled stores drop out.
//
//st:hotpath
func (p *Pipeline) loadBlocked(ld *inst) bool {
	// Fast path: the store that blocked this load last time is usually
	// still pending the next cycle (see inst.blockRef). Every clause of
	// the walk's predicate is re-checked, age included.
	if b := ld.blockRef.in; b != nil && b.d.Seq == ld.blockRef.seq &&
		!b.done && !b.squashed && b.d.Addr == ld.d.Addr && b.d.Seq < ld.d.Seq {
		return true
	}
	blocked := false
	keep := p.storeQ[:0]
	for _, e := range p.storeQ {
		st := e.in
		if st.d.Seq != e.seq || st.done || st.squashed {
			continue
		}
		keep = append(keep, e)
		if e.seq < ld.d.Seq && st.d.Addr == ld.d.Addr {
			blocked = true
			ld.blockRef = e
		}
	}
	p.storeQ = keep
	return blocked
}

// ------------------------------------------------------------- complete --

//st:hotpath
func (p *Pipeline) complete() {
	if p.faultArmed {
		p.stageFault(StageComplete)
	}
	slot := p.cycle % maxCompLat
	finishing := p.compQ[slot]
	p.compQ[slot] = finishing[:0]
	if len(finishing) == 0 {
		return
	}
	// The slot's window result writes and result-bus broadcasts reach the
	// run tally as one batched add each (integer counts, so batching is
	// exact — the AddTally argument); epoch attribution stays per
	// instruction because one completion slot can span epochs.
	var winN, rbN uint64
	for _, in := range finishing {
		if in.squashed {
			// A squashed in-flight instruction is referenced only by its
			// wheel slot; this pop was the last reference, so recycle it.
			p.freeInst(in)
			continue
		}
		in.done = true
		winN++ // result write / tag broadcast
		led := &p.epochBuf[in.epoch].led
		led[power.UnitWindow]++
		if in.d.St.Dest != isa.RegNone {
			rbN++
			led[power.UnitResultBus]++
		}
		p.wakeDependents(in)
		if in.d.St.Op == isa.OpBranch {
			p.resolve(in)
		}
	}
	p.tally[power.UnitWindow] += winN
	p.tally[power.UnitResultBus] += rbN
}

// wakeDependents flags every registered consumer whose operands became
// available with this completion. Rename only registers incomplete
// producers, so the list is final by the time completion fires; entries are
// validated by sequence number against pool recycling, and each decrements
// the dependent's outstanding-producer count so an instruction waiting on
// two producers is woken only by the later completion (an operand bound
// twice to one producer registered two entries and takes two decrements).
// The list is cleared afterwards — a completed producer can never be bound
// again.
//
//st:hotpath
func (p *Pipeline) wakeDependents(in *inst) {
	for _, e := range in.deps {
		d := e.in
		if d.d.Seq != e.seq || d.squashed || d.issued {
			continue
		}
		if d.nwait--; d.nwait == 0 {
			p.setReady(d)
		}
	}
	in.deps = in.deps[:0]
}

// resolve handles conditional-branch resolution: trigger release on a
// correct prediction, flush and recovery on a misprediction. Either way the
// branch's recovery checkpoint is done: a correctly predicted branch frees
// its arena lease here; a mispredicted one frees it inside walker.Recover.
func (p *Pipeline) resolve(in *inst) {
	if in.predTaken == in.d.Taken {
		p.walker.Release(&in.d)
		// Resolution only needs the controller when a trigger could be
		// outstanding; the baseline and untriggered policies skip the scan.
		if p.ctrl.ActiveTriggers() > 0 {
			p.ctrl.OnBranchResolved(in.d.Seq)
		}
		return
	}
	p.flushAfter(in)
}

// flushAfter squashes everything younger than the mispredicted branch and
// restores fetch to the correct path.
func (p *Pipeline) flushAfter(br *inst) {
	seq := br.d.Seq

	// The front end only holds instructions younger than anything in the
	// window: drop it wholesale, youngest first (squash order is observable
	// through the checkpoint free list).
	p.flushFront()
	for p.window.Len() > 0 {
		tail := p.window.At(p.window.Len() - 1)
		if tail.d.Seq <= seq {
			break
		}
		p.window.PopBack()
		if tail.isMem() {
			p.lsqUsed--
		}
		p.clearReady(tail)
		p.squash(tail)
	}
	// The side lists are age-ordered, so a flush truncates a suffix.
	q := p.storeQ
	for len(q) > 0 && q[len(q)-1].seq > seq {
		q = q[:len(q)-1]
	}
	p.storeQ = q
	b := p.barrierQ
	for len(b) > 0 && b[len(b)-1].seq > seq {
		b = b[:len(b)-1]
	}
	p.barrierQ = b

	// Rebuild the rename table from the surviving window contents.
	clear(p.regs[:])
	for i := 0; i < p.window.Len(); i++ {
		w := p.window.At(i)
		if d := w.d.St.Dest; d != isa.RegNone {
			p.regs[d] = w
		}
	}

	if !br.d.WrongPath {
		p.Stats.ResolveLatTotal += uint64(p.cycle - br.fetchCycle)
		p.Stats.ResolveWindowWait += uint64(p.cycle - br.windowCycle)
		p.Stats.ResolveIssueWait += uint64(br.issueCycle - br.windowCycle)
		p.Stats.TrueFlushes++
	}
	// Every squashed instruction belongs to an epoch opened at or after the
	// flushing branch; fold those ledgers into the wasted pool wholesale and
	// open a fresh epoch for the post-recovery fetch stream (see ledger.go).
	p.foldEpochs(int64(seq))

	if p.ctrl.ActiveTriggers() > 0 || p.ctrl.HasNoSelect() {
		p.ctrl.OnSquash(seq)
		p.ctrl.OnBranchResolved(seq)
	}
	p.pred.OnMispredict(br.cookie, br.d.Taken)
	p.walker.Recover(&br.d)
	p.wrongPath = br.d.WrongPath
	p.fetchResumeAt = p.cycle + 1 + int64(p.cfg.MispredictExtra)
	if p.fetchHeld && p.fetchHeldBySeq == seq {
		p.fetchHeld = false
	}
}

// squash marks an instruction dead and recycles it unless the completion
// wheel still references it (issued but not finished — complete() recycles
// those when their slot comes up). Its accumulated activity reaches the
// wasted pool through the epoch fold in flushAfter (every squash happens
// under a flush).
func (p *Pipeline) squash(in *inst) {
	if in.squashed {
		return
	}
	in.squashed = true
	// A squashed branch will never resolve; return its checkpoint lease to
	// the walker's arena. The handle check is hoisted here so the common
	// non-branch squash skips the call.
	if in.d.Ckpt != prog.NoCkpt {
		p.walker.Release(&in.d)
	}
	if p.fetchHeld && in.d.Seq == p.fetchHeldBySeq {
		p.fetchHeld = false // defensive: never leave fetch held by a dead branch
	}
	if !in.issued || in.done {
		p.freeInst(in)
	}
}

// --------------------------------------------------------------- commit --

//st:hotpath
func (p *Pipeline) commit() {
	if p.faultArmed {
		p.stageFault(StageCommit)
	}
	width := p.cfg.CommitWidth
	for n := 0; n < width && p.window.Len() > 0; n++ {
		in := p.window.At(0)
		if !in.done {
			return
		}
		p.window.PopFront()
		if in.d.WrongPath {
			// The instruction is already off the window; the RunError's
			// InstSnapshot is its only surviving provenance record.
			panic(p.wrongPathCommitError(in)) // invariant: simulator bug, converted by RunE
		}
		if in.isMem() {
			p.lsqUsed--
		}
		if d := in.d.St.Dest; d != isa.RegNone {
			p.note(in, power.UnitRegfile) // architectural write at commit
			if p.regs[d] == in {
				p.regs[d] = nil
			}
		}
		if in.storeOp {
			_, l2 := p.mem.DataAccess(in.d.Addr, p.cycle)
			p.note(in, power.UnitDCache)
			if l2 {
				p.note(in, power.UnitDCache2)
			}
		}
		if p.CommitTrace != nil {
			p.CommitTrace(in.d.Seq, in.d.PC, p.cycle)
		}
		if in.d.St.Op == isa.OpBranch {
			p.note(in, power.UnitBPred) // predictor update
			correct := in.predTaken == in.d.Taken
			p.pred.Update(in.d.PC, in.cookie, in.d.Taken)
			p.est.Train(in.d.PC, correct)
			p.Stats.Quality.Record(in.class, correct)
			p.Stats.CondBranches++
			if !correct {
				p.Stats.Mispredicts++
			}
		}
		// Committing an epoch's closing branch retires the epoch: all its
		// members have committed, so its ledger can recycle (one compare
		// against the cached trigger in the common case).
		if int64(in.d.Seq) >= p.nextRetire {
			p.retireEpochs(int64(in.d.Seq))
		}
		p.Stats.Committed++
		// Retired: recycle. Younger consumers may still hold pointers to it;
		// the seq guard in inst.ready treats a recycled producer as done.
		p.freeInst(in)
	}
}
