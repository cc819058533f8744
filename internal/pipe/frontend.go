package pipe

// Front-end delay line.
//
// The in-order front end is a pair of pure fixed-latency delays (fetch and
// decode pipes) whose only interesting events are group boundaries,
// back-pressure, and squash. It keeps one ring of instructions and a cursor
// instead of a queue per pipe:
//
//   - fetch forms a whole group per I-cache access — up to FetchWidth
//     instructions, truncated by taken-branch limits, BTB-miss redirects,
//     oracle holds, and the free capacity of the fetch segment — obtained
//     from the walker in straight-line batches via prog.Walker.NextGroup,
//     and appends it to the ring in one pass. Every instruction of a group
//     shares its enter-fetch cycle (inst.fetchCycle) and enter-decode stamp
//     (inst.enterDecode = fetch cycle + fetch pipe depth + I-miss delay);
//   - decoded counts the ring's decoded prefix: instructions [0, decoded)
//     have passed decode (each stamped with its enter-dispatch cycle,
//     inst.enterWindow), instructions [decoded, Len) are still in the fetch
//     pipe. Decode advances the cursor at DecodeWidth per cycle under the
//     per-instruction throttle/oracle gates; it never moves an element;
//   - dispatch pops from the ring head while the prefix is non-empty.
//
// Each logical segment (fetched-undecoded, decoded-undispatched) has its
// own capacity: fetchCap is FetchStages+2 fetch groups and decodeCap is
// DecodeStages+2 decode groups. A flush squashes the whole ring back to
// front, youngest to oldest, which the checkpoint free list observes.
// CheckInvariants cross-validates the cursor bookkeeping against the
// resident instructions.

import (
	"selthrottle/internal/core"
	"selthrottle/internal/isa"
	"selthrottle/internal/power"
)

// fetchSegLen reports the fetched-but-undecoded instruction count of the
// delay line.
func (p *Pipeline) fetchSegLen() int { return p.frontQ.Len() - p.decoded }

// ---------------------------------------------------------------- fetch --

// fetch forms one fetch group per I-cache access and appends it to the
// delay line. The walker batches only straight-line runs (NextGroup stops
// after every control transfer), so each control instruction is predicted
// and steered in program order, before anything behind it is produced.
//
//st:hotpath
func (p *Pipeline) fetch() {
	if p.faultArmed {
		p.stageFault(StageFetch)
	}
	if p.fetchHeld || p.cycle < p.fetchResumeAt {
		p.Stats.FetchIdleHeld++
		return
	}
	rate := p.ctrl.FetchRate()
	if !rate.ActiveAt(uint64(p.cycle)) {
		p.Stats.FetchGatedCycles++
		p.ctrl.NoteGatedCycle()
		return
	}
	// Back-pressure gates on the capacity actually available, not on a full
	// FetchWidth group: the walker often supplies fewer than FetchWidth
	// instructions (taken-branch-truncated groups). Fetch proceeds while at
	// least one slot is free and the group is truncated to the space left;
	// only a completely full fetch segment idles fetch.
	width := p.cfg.FetchWidth
	if avail := p.fetchCap - p.fetchSegLen(); avail < width {
		if avail == 0 {
			p.Stats.FetchIdleBackPressure++
			return // front-end back-pressure
		}
		width = avail
	}

	// One I-cache access per fetch group; misses delay the group and stall
	// subsequent fetch for the refill.
	pc := p.walker.NextPC()
	lat, l2 := p.mem.InstFetch(pc, p.cycle)
	extra := int64(lat - p.cfg.Mem.L1HitLat)
	if extra > 0 {
		p.fetchResumeAt = p.cycle + extra
	}

	enterDecode := p.cycle + int64(p.cfg.FetchStages) + extra
	taken, n := 0, 0
	for n < width {
		k := p.walker.NextGroup(p.fetchBuf[:width-n])
		// The wrong-path flag and the speculation epoch are constant across
		// the batch: only the batch-terminating control transfer can change
		// either, below.
		wrong := p.wrongPath
		epoch := p.curEpoch
		var in *inst
		for i := 0; i < k; i++ {
			in = p.allocInst()
			in.d = p.fetchBuf[i]
			in.fetchCycle = p.cycle
			in.d.WrongPath = wrong
			in.enterDecode = enterDecode
			in.epoch = epoch
			p.frontQ.PushBack(in)
		}
		// One ledger add and one tally add per group: every member shares
		// the epoch, and integer sums make the batching exact.
		p.epochBuf[epoch].led[power.UnitICache] += uint32(k)
		p.tally[power.UnitICache] += uint64(k)
		p.Stats.Fetched += uint64(k)
		if wrong {
			p.Stats.WrongPathFetched += uint64(k)
		}
		if n == 0 && l2 {
			p.note(p.frontQ.At(p.frontQ.Len()-k), power.UnitDCache2)
		}
		n += k
		// NextGroup puts a control transfer — if any — in the batch's last
		// slot; everything before it is plain straight-line work.
		op := in.d.St.Op
		if !op.IsControl() {
			continue // batch ended because the group is full
		}
		p.note(in, power.UnitBPred)
		stop := false
		switch op {
		case isa.OpBranch:
			stop = p.fetchCondBranch(in, &taken)
		case isa.OpJump:
			p.btbTouch(in.d.PC, in.d.TakenPC)
			taken++
		case isa.OpCall:
			p.btbTouch(in.d.PC, in.d.TakenPC)
			p.ras.Push(in.d.FallPC)
			taken++
		case isa.OpReturn:
			p.ras.Pop() // target supplied by the walker (see bpred.RAS doc)
			taken++
		}
		if stop || taken >= p.cfg.MaxTakenPerCycle {
			break
		}
	}
}

// --------------------------------------------------------------- decode --

// decode moves up to DecodeWidth instructions across the fetch/decode
// boundary by advancing the decoded cursor, under the per-instruction gates
// (throttle rates, the oracle-decode limit study). Each decoded instruction
// is stamped with its enter-dispatch cycle and caches its functional-unit
// class, latency and memory-op flags, so the issue and execute stages stop
// consulting the opcode tables on every visit. Wattch counts rename,
// register-file operand reads, and the RUU entry write at the decode stage
// (the paper's footnotes 2-3); instructions squashed after decoding carry
// this wasted energy.
//
//st:hotpath
func (p *Pipeline) decode() {
	if p.faultArmed {
		p.stageFault(StageDecode)
	}
	width := p.cfg.DecodeWidth
	// Triggers only change at fetch and resolve, so whether any of them
	// restricts decode is loop-invariant; the common unthrottled case skips
	// the per-instruction rate scan entirely.
	throttled := p.ctrl.DecodeThrottled()
	oracleDecode := p.cfg.Oracle == core.OracleDecode
	// The cycle's decode events reach the run tally as one batched add per
	// unit after the loop (integer counts, so batching is exact); the
	// per-epoch ledger adds stay per instruction because a decode group can
	// span epochs.
	var decN, regN, lsqN uint64
	for n := 0; n < width && p.decoded < p.frontQ.Len(); n++ {
		in := p.frontQ.At(p.decoded)
		if in.enterDecode > p.cycle || p.decoded >= p.decodeCap {
			break
		}
		// Decode throttling applies per instruction: only triggers older
		// than this instruction restrict it (see core.DecodeRateFor).
		if throttled {
			if rate := p.ctrl.DecodeRateFor(in.d.Seq); !rate.ActiveAt(uint64(p.cycle)) {
				if n == 0 {
					p.Stats.DecodeGatedCycles++
				}
				break
			}
		}
		if oracleDecode && in.d.WrongPath {
			break // limit study: wrong-path instructions stall at decode
		}
		in.enterWindow = p.cycle + int64(p.cfg.DecodeStages)
		op := in.d.St.Op
		in.fuKind = uint8(op.FU())
		in.execLat = int16(op.Latency() + p.cfg.ExtraExecLat)
		in.memOp = op.IsMem()
		in.loadOp = op == isa.OpLoad
		in.storeOp = op == isa.OpStore
		led := &p.epochBuf[in.epoch].led
		led[power.UnitRename]++
		led[power.UnitWindow]++
		decN++
		regs := uint32(0)
		if in.d.St.Src1 != isa.RegNone {
			regs++
		}
		if in.d.St.Src2 != isa.RegNone {
			regs++
		}
		if regs > 0 {
			led[power.UnitRegfile] += regs
			regN += uint64(regs)
		}
		if in.memOp {
			led[power.UnitLSQ]++
			lsqN++
		}
		if in.d.WrongPath {
			p.Stats.WrongPathDecoded++
		}
		p.decoded++
	}
	p.tally[power.UnitRename] += decN
	p.tally[power.UnitWindow] += decN
	p.tally[power.UnitRegfile] += regN
	p.tally[power.UnitLSQ] += lsqN
}

// ------------------------------------------------------------- dispatch --

// dispatch inserts decoded instructions into the window from the delay
// line's head. Decode is strictly in order, so the decoded prefix always
// starts at the ring head.
//
//st:hotpath
func (p *Pipeline) dispatch() {
	if p.faultArmed {
		p.stageFault(StageDispatch)
	}
	width := p.cfg.IssueWidth
	for n := 0; n < width && p.decoded > 0; n++ {
		in := p.frontQ.At(0)
		if in.enterWindow > p.cycle || p.window.Full() {
			return
		}
		if in.isMem() && p.lsqUsed >= p.cfg.LSQSize {
			return
		}
		p.frontQ.PopFront()
		p.decoded--
		// Rename: bind sources to in-flight producers. The associated
		// power events were counted at the decode stage. Each bound
		// producer is by construction incomplete, so registering on its
		// wakeup list guarantees exactly one completion (or a shared
		// squash) per bound operand.
		nsrc := 0
		if r := in.d.St.Src1; r != isa.RegNone {
			if prod := p.regs[r]; prod != nil && !prod.done {
				in.srcs[0] = prod
				in.srcSeq[0] = prod.d.Seq
				nsrc = 1
				prod.deps = append(prod.deps, instRef{in, in.d.Seq})
			}
		}
		if r := in.d.St.Src2; r != isa.RegNone {
			if prod := p.regs[r]; prod != nil && !prod.done {
				in.srcs[nsrc] = prod
				in.srcSeq[nsrc] = prod.d.Seq
				nsrc++
				prod.deps = append(prod.deps, instRef{in, in.d.Seq})
			}
		}
		if d := in.d.St.Dest; d != isa.RegNone {
			p.regs[d] = in
		}
		if in.isMem() {
			p.lsqUsed++
		}
		if in.d.WrongPath {
			p.Stats.WrongPathDispatched++
		}
		in.windowCycle = p.cycle
		in.hasBarrier = false
		if p.ctrl.HasNoSelect() {
			if b, ok := p.ctrl.BarrierFor(in.d.Seq); ok {
				in.barrier = b
				in.hasBarrier = true
			}
		}
		in.wpos = int32(p.window.backSlot())
		// Binding only captures incomplete producers, so readiness at
		// dispatch is exactly "nothing was bound". The slot's previous
		// occupant left its bit clear, but write both ways so dispatch
		// re-establishes the bitmap invariant unconditionally.
		in.nwait = uint8(nsrc)
		if nsrc == 0 {
			p.setReady(in)
		} else {
			p.clearReady(in)
		}
		if in.hasBarrier {
			p.barrierQ = append(p.barrierQ, instRef{in, in.d.Seq})
		}
		if in.storeOp {
			p.storeQ = append(p.storeQ, instRef{in, in.d.Seq})
		}
		p.window.PushBack(in)
	}
}

// --------------------------------------------------------------- squash --

// flushFront squashes every undispatched instruction in the delay line,
// youngest first; the checkpoint free-list ordering observes the order.
func (p *Pipeline) flushFront() {
	for p.frontQ.Len() > 0 {
		p.squash(p.frontQ.PopBack())
	}
	p.decoded = 0
}
