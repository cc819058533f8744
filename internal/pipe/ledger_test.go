package pipe

import (
	"testing"

	"selthrottle/internal/bpred"
	"selthrottle/internal/conf"
	"selthrottle/internal/core"
	"selthrottle/internal/power"
	"selthrottle/internal/prog"
	"selthrottle/internal/xrand"
)

// buildLedger constructs a pipeline over a named profile with an explicit
// config shape (the ledger tests' analogue of build).
func buildLedger(t testing.TB, bench string, policy core.Policy, shape func(*Config)) (*Pipeline, *power.Meter) {
	t.Helper()
	p, ok := prog.ProfileByName(bench)
	if !ok {
		t.Fatalf("unknown profile %q", bench)
	}
	program := prog.Generate(p)
	w := prog.NewWalker(program)
	cfg := Default()
	if shape != nil {
		shape(&cfg)
	}
	est := conf.Estimator(conf.NewBPRU(4 << 10))
	if policy.Gating {
		est = conf.NewJRS(4<<10, 12)
	}
	meter := &power.Meter{}
	return New(cfg, w, bpred.NewGshare(8<<10), est, core.NewController(policy), meter), meter
}

// TestEpochLedgerMatchesLegacyRandomized is the randomized attribution net:
// random profiles, policies and depths are run, and the full statistics,
// the meter's per-unit useful and wasted totals, and the pool, checkpoint
// and epoch accounting must equal the retired per-instruction ledger's,
// which the golden corpus holds as each trial's digest; the drained machine
// must also satisfy the exact conservation laws. A fold that gains or loses
// a single event — an epoch folded too eagerly (e.g. on the WrongPath mark),
// folded twice, or retired with a member still in flight — diverges
// immediately in the per-unit wasted totals.
func TestEpochLedgerMatchesLegacyRandomized(t *testing.T) {
	want := loadCorpus(t)
	rng := xrand.New(0xE90C)
	for trial := 0; trial < 12; trial++ {
		bench := squashProfiles[rng.Intn(len(squashProfiles))]
		policy := rng.Intn(len(squashPolicies))
		depth := 6 + 2*rng.Intn(12)
		// The trials also drew the retired front-end and issue
		// implementations; the draws stay so each trial keeps its cell.
		rng.Intn(2)
		rng.Intn(4)
		pl, name, sum := runSquashCell(t, bench, policy, depth)
		if sum != want[name] {
			t.Errorf("trial %d (%s): digest %s, corpus has %q", trial, name, sum, want[name])
		}
		if err := checkConservation(pl); err != nil {
			t.Errorf("trial %d (%s): %v", trial, name, err)
		}
	}
}

// TestEpochInvariantsUnderStress steps flush-heavy shapes, validating the
// epoch invariants (ring ordering and per-instruction epoch bindings) and
// the event conservation laws every few cycles, mid-flight rather than only
// at a drained run end.
func TestEpochInvariantsUnderStress(t *testing.T) {
	c2 := core.Selective("c2",
		core.Spec{Fetch: core.RateQuarter, NoSelect: true},
		core.Spec{Fetch: core.RateStall})
	for _, depth := range []int{6, 28} {
		pl, _ := buildLedger(t, "go", c2, func(c *Config) { c.SetDepth(depth) })
		for step := 0; step < 9000; step++ {
			pl.Step()
			if step%7 == 0 {
				if err := checkConservation(pl); err != nil {
					t.Fatalf("depth=%d cycle %d: %v", depth, step, err)
				}
			}
		}
		if pl.Stats.Committed == 0 {
			t.Fatalf("depth=%d: no progress under stress", depth)
		}
	}
}

// hasWrongPathInFlight reports whether any in-flight (fetched, uncommitted,
// unsquashed) instruction carries the wrong-path mark.
func hasWrongPathInFlight(pl *Pipeline) bool {
	for i := 0; i < pl.frontQ.Len(); i++ {
		if pl.frontQ.At(i).d.WrongPath {
			return true
		}
	}
	for i := 0; i < pl.window.Len(); i++ {
		if pl.window.At(i).d.WrongPath {
			return true
		}
	}
	return false
}

// TestWrongPathStragglersStayUseful pins the tail subtlety of the epoch
// design: wrong-path instructions still in flight when a run drains were
// never squashed, so their events must stay in the useful pool — epochs fold
// at actual squash only, never eagerly on the WrongPath mark. The run is
// driven to a drain point chosen so wrong-path work is verifiably in flight
// there, and the conservation laws must hold exactly at that point: the
// wasted I-cache, rename and ALU counts equal the wrong-path totals minus
// the stragglers, so a single straggler event folded early breaks them.
func TestWrongPathStragglersStayUseful(t *testing.T) {
	pl, _ := buildLedger(t, "go", core.Baseline(), nil)
	target := uint64(20000)
	pl.Run(target)
	// Advance in small commit quanta until the drain point lands with
	// wrong-path work in flight.
	for tries := 0; tries < 4000 && !hasWrongPathInFlight(pl); tries++ {
		target += 25
		pl.Run(target)
	}
	if !hasWrongPathInFlight(pl) {
		t.Fatal("drain point has no wrong-path stragglers; the tail case was not exercised")
	}
	if err := checkConservation(pl); err != nil {
		t.Errorf("drain with wrong-path stragglers: %v", err)
	}
}

// TestEpochRingFootprint pins the epoch arena's footprint the way the pool
// and checkpoint tests pin theirs: the ring is sized once from the machine's
// in-flight capacity, the open count and high-water mark stay within it
// through squash-heavy runs, and Reset restores the single base epoch.
func TestEpochRingFootprint(t *testing.T) {
	pl, _ := buildLedger(t, "go", core.Baseline(), func(c *Config) { c.SetDepth(28) })
	pl.Run(30000)
	open, capacity, hw := pl.EpochStats()
	if wantCap := pl.fetchCap + pl.decodeCap + pl.cfg.WindowSize + 2; capacity != wantCap {
		t.Errorf("epoch ring capacity %d, in-flight bound implies %d", capacity, wantCap)
	}
	if open < 1 || open > capacity || hw > capacity {
		t.Errorf("epoch accounting out of bounds: open %d, hw %d, capacity %d", open, hw, capacity)
	}
	if hw < 2 {
		t.Errorf("high-water %d: the run never had concurrent epochs", hw)
	}
	pl.Reset(pl.walker, pl.pred, pl.est, pl.ctrl, pl.meter)
	if open, _, hw := pl.EpochStats(); open != 1 || hw != 1 {
		t.Errorf("after Reset: open %d, hw %d, want the single base epoch", open, hw)
	}
}
