package prog

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"strings"
	"testing"
	"unsafe"

	"selthrottle/internal/xrand"
)

// TestDynInstLayoutCompact pins the dynamic-instruction record to at most
// two cache lines. The pipeline copies DynInst through the instruction pool,
// the completion wheel, and the recovery paths on every instruction, so the
// checkpoint indirection's whole point is keeping this small.
func TestDynInstLayoutCompact(t *testing.T) {
	if s := unsafe.Sizeof(DynInst{}); s > 128 {
		t.Fatalf("DynInst is %d bytes, must stay within 128 (two cache lines)", s)
	}
}

// TestThr24Exactness exercises the integer-threshold construction at and
// around its decision boundary: for representative probabilities, the
// integer compare x < thr24(p) must agree with the float compare
// float64(x)/2^24 < p for the 24-bit values nearest the threshold (and the
// range extremes).
func TestThr24Exactness(t *testing.T) {
	probs := []float64{0, 1e-12, 1.0 / 3, 0.25, 0.3333333333333333, 0.5,
		0.7499999999999999, 0.75, 0.95, 0.9999999, 1}
	for _, p := range probs {
		thr := thr24(p)
		xs := []uint32{0, 1, 1<<24 - 2, 1<<24 - 1}
		for d := uint32(0); d <= 2; d++ {
			if thr >= d {
				xs = append(xs, thr-d)
			}
			if uint32(int64(thr)+int64(d)) < 1<<24 {
				xs = append(xs, thr+d)
			}
		}
		for _, x := range xs {
			want := float64(x)/float64(1<<24) < p
			got := x < thr
			if got != want {
				t.Fatalf("p=%v x=%d: integer compare %v, float compare %v", p, x, got, want)
			}
		}
	}
}

// TestIntegerOutcomeMatchesFloat drives the integer-threshold outcome and
// the float reference over every generated branch of every profile with
// randomized histories: the two must agree on every single call.
func TestIntegerOutcomeMatchesFloat(t *testing.T) {
	for _, p := range Profiles() {
		program := Generate(p)
		rng := xrand.New(p.Seed ^ 0xFEED)
		for bi := range program.Branches {
			br := &program.Branches[bi]
			for k := 0; k < 64; k++ {
				g, c := rng.Uint64(), rng.Uint64()>>40
				if got, want := br.outcome(g, c), Outcome(br, g, c); got != want {
					t.Fatalf("%s branch %d: integer outcome %v, float outcome %v (ghist=%#x brc=%d)",
						p.Name, bi, got, want, g, c)
				}
			}
		}
	}
}

// corpusPath is the golden corpus of the simulator's fast paths; its
// "walk/<profile>" cells are the seeded walker drives below.
const corpusPath = "../sim/testdata/corpus.txt"

// TestFastWalkerMatchesLegacy is the randomized end-to-end identity test of
// the walker: it is driven with seeded (sometimes wrong) steering, bounded
// wrong-path excursions and checkpoint recoveries. Every branch outcome must
// follow the float definition Outcome, and the digest of every produced
// DynInst and NextPC, with the final checkpoint-arena statistics, must equal
// the retired reference walker's (float thresholds, Block chasing, memRef
// map), which the golden corpus holds as the profile's walk cell — the same
// digest internal/sim's walkCell computes. Afterwards the checkpoint arena
// must be fully drained (the leak check at walker level).
func TestFastWalkerMatchesLegacy(t *testing.T) {
	text, err := os.ReadFile(corpusPath)
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok {
			want[name] = sum
		}
	}
	for _, p := range Profiles() {
		program := Generate(p)
		w := NewWalker(program)
		rng := xrand.New(0xF00D ^ p.Seed)
		h := sha256.New()
		write := func(v any) {
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		var d DynInst
		step := func(i int) {
			s := w.State()
			d = DynInst{}
			w.Next(&d)
			write(d)
			write(w.NextPC())
			if d.BrID != NoBranch {
				if want := Outcome(&program.Branches[d.BrID], s.Ghist, s.BrCount); d.Taken != want {
					t.Fatalf("%s: branch %d at %d taken=%v, Outcome says %v", p.Name, d.BrID, i, d.Taken, want)
				}
			}
		}
		for i := 0; i < 12000; i++ {
			step(i)
			if d.BrID == NoBranch {
				continue
			}
			pred := d.Taken
			if rng.Bool(0.2) {
				pred = !pred
			}
			w.Steer(pred)
			if pred == d.Taken {
				w.Release(&d)
				continue
			}
			// Wrong path: walk a bounded excursion, then recover from the
			// mispredicted branch's checkpoint.
			br := d
			for k := rng.Intn(30); k > 0; k-- {
				step(i)
				if d.BrID != NoBranch {
					w.Steer(d.Taken)
					w.Release(&d)
				}
			}
			w.Recover(&br)
		}
		leased, capacity, hw := w.CkptStats()
		write([3]int64{int64(leased), int64(capacity), int64(hw)})
		name := "walk/" + p.Name
		if sum := hex.EncodeToString(h.Sum(nil)); sum != want[name] {
			t.Errorf("%s: digest %s, corpus has %q", name, sum, want[name])
		}
		if leased != 0 {
			t.Errorf("%s: %d checkpoint leases leaked", p.Name, leased)
		}
		if hw > 4 {
			t.Errorf("%s: checkpoint high-water %d, at most 2 branches are ever outstanding here", p.Name, hw)
		}
		if capacity > hw {
			t.Errorf("%s: arena capacity %d exceeds high-water %d", p.Name, capacity, hw)
		}
	}
}

// TestNextGroupMatchesNext is the randomized identity test for the batched
// walker entry point: a NextGroup-driven walker and a Next-driven walker,
// given identical (sometimes wrong) steering and identical recoveries, must
// produce field-for-field identical instruction streams, agree on NextPC
// between batches, and park in the same architectural state. Buffer sizes
// vary per batch so every cut point — mid-block, block boundary, control
// transfer in any slot — is exercised.
func TestNextGroupMatchesNext(t *testing.T) {
	for _, p := range Profiles() {
		program := Generate(p)
		batched := NewWalker(program)
		ref := NewWalker(program)
		rng := xrand.New(0xBA7C4 ^ p.Seed)
		buf := make([]DynInst, 8)
		var dr DynInst
		produced := 0
		for produced < 20000 {
			width := 1 + rng.Intn(len(buf))
			// Zero the records first: fields outside the per-op contract
			// carry stale values (see the DynInst docs), so equality is
			// meaningful only when both walkers start from zeroed slots.
			for i := range buf[:width] {
				buf[i] = DynInst{}
			}
			n := batched.NextGroup(buf[:width])
			if n < 1 || n > width {
				t.Fatalf("%s: NextGroup(%d) returned %d", p.Name, width, n)
			}
			for i := 0; i < n; i++ {
				dr = DynInst{}
				ref.Next(&dr)
				if buf[i] != dr {
					t.Fatalf("%s: stream diverged at %d slot %d:\n group: %+v\n next:  %+v",
						p.Name, produced, i, buf[i], dr)
				}
				if op := buf[i].St.Op; op.IsControl() && i != n-1 {
					t.Fatalf("%s: control op %v not last in batch (%d of %d)",
						p.Name, op, i, n-1)
				}
				produced++
			}
			last := buf[n-1]
			if last.BrID != NoBranch {
				pred := last.Taken
				if rng.Bool(0.25) {
					pred = !pred
				}
				batched.Steer(pred)
				ref.Steer(pred)
				if pred != last.Taken && rng.Bool(0.5) {
					// Recover immediately half the time; otherwise walk the
					// wrong path for a while (the outer loop does that
					// naturally) and just drop the lease.
					lb, lr := last, dr
					batched.Recover(&lb)
					ref.Recover(&lr)
				} else {
					lb, lr := last, dr
					batched.Release(&lb)
					ref.Release(&lr)
				}
			}
			if batched.NextPC() != ref.NextPC() {
				t.Fatalf("%s: NextPC diverged after %d instructions", p.Name, produced)
			}
			if batched.State() != ref.State() {
				t.Fatalf("%s: walker state diverged after %d instructions", p.Name, produced)
			}
		}
	}
}

// TestWalkerResetReusesArena checks that Reset keeps the arena backing
// while rewinding the lease state.
func TestWalkerResetReusesArena(t *testing.T) {
	p, _ := ProfileByName("go")
	program := Generate(p)
	w := NewWalker(program)
	var d DynInst
	for i := 0; i < 1000; i++ {
		w.Next(&d)
		if d.BrID != NoBranch {
			w.Steer(d.Taken) // leases intentionally left outstanding
		}
	}
	leased, _, _ := w.CkptStats()
	if leased == 0 {
		t.Fatal("no leases outstanding before reset")
	}
	w.Reset(program)
	if leased, _, _ := w.CkptStats(); leased != 0 {
		t.Fatalf("%d leases survived Reset", leased)
	}
	// The rewound walker replays a fresh walker's stream. Records are
	// zeroed first: fields outside the per-op contract keep stale values.
	fresh := NewWalker(program)
	var f DynInst
	for i := 0; i < 1000; i++ {
		d, f = DynInst{}, DynInst{}
		w.Next(&d)
		fresh.Next(&f)
		if d != f {
			t.Fatalf("instruction %d after Reset: %+v, fresh walker %+v", i, d, f)
		}
		if d.BrID != NoBranch {
			w.Steer(d.Taken)
			fresh.Steer(f.Taken)
			w.Release(&d)
			fresh.Release(&f)
		}
	}
}

// TestCallStackRingMatchesShiftReference drives the O(1) head-index ring
// against a plain slice reference implementing the historical
// shift-on-overflow semantics: push drops the oldest frame when full, pop
// returns the newest.
func TestCallStackRingMatchesShiftReference(t *testing.T) {
	var s WalkState
	var ref []int32
	rng := xrand.New(42)
	for i := 0; i < 50000; i++ {
		if rng.Bool(0.55) {
			v := rng.Intn(1 << 20)
			s.push(v)
			if len(ref) == CallStackDepth {
				ref = ref[1:]
			}
			ref = append(ref, int32(v))
		} else {
			got, ok := s.pop()
			wantOk := len(ref) > 0
			if ok != wantOk {
				t.Fatalf("step %d: pop ok=%v, reference ok=%v", i, ok, wantOk)
			}
			if ok {
				want := ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				if int32(got) != want {
					t.Fatalf("step %d: pop %d, reference %d", i, got, want)
				}
			}
		}
		if s.Depth() != len(ref) {
			t.Fatalf("step %d: depth %d, reference %d", i, s.Depth(), len(ref))
		}
	}
}
