package pipe

import (
	"testing"

	"selthrottle/internal/core"
	"selthrottle/internal/xrand"
)

// TestFetchBackPressureUsesActualCapacity is the regression test for the
// historical off-by-one: fetch stalled whenever fewer than FetchWidth slots
// were free, even though taken-branch-truncated groups routinely need less,
// so FetchIdleBackPressure overcounted and the fetch queue could never
// completely fill. With the fix, fetch proceeds while at least one slot is
// free (truncating the group to the space left) and the idle counter
// increments exactly on the cycles with zero free capacity. The test drives
// fetch alone — decode never runs, so back-pressure is guaranteed — and
// pins the counter against the capacity rule cycle by cycle.
func TestFetchBackPressureUsesActualCapacity(t *testing.T) {
	pl := build(t, "go", core.Baseline(), nil, core.OracleNone)
	var wantIdle uint64
	for i := 0; i < 4*pl.fetchCap; i++ {
		held := pl.fetchHeld || pl.cycle < pl.fetchResumeAt
		full := pl.fetchSegLen() == pl.fetchCap
		if !held && full {
			wantIdle++
		}
		pl.fetch()
		if pl.fetchSegLen() > pl.fetchCap {
			t.Fatalf("fetch segment overfilled: %d > %d", pl.fetchSegLen(), pl.fetchCap)
		}
		pl.cycle++
	}
	if got := pl.Stats.FetchIdleBackPressure; got != wantIdle {
		t.Errorf("FetchIdleBackPressure = %d, capacity rule implies %d", got, wantIdle)
	}
	if pl.fetchSegLen() != pl.fetchCap {
		t.Errorf("fetch segment settled at %d, want completely full (%d)", pl.fetchSegLen(), pl.fetchCap)
	}
	if wantIdle == 0 {
		t.Error("test never reached back-pressure")
	}
}

// TestFusedSquashAccountingMatchesLegacy is the randomized squash-ordering
// net: random profiles, throttling policies and depths, with mispredictions
// landing while groups straddle the fetch/decode boundary. The full
// statistics plus the pool and checkpoint-arena accounting must equal the
// retired two-ring front end's, which the golden corpus holds as each
// trial's digest. A squash-order divergence shows up immediately in the
// checkpoint free list (handles are recycled LIFO, so order changes handle
// assignment and the arena high-water) and in the per-unit wasted-power
// totals.
func TestFusedSquashAccountingMatchesLegacy(t *testing.T) {
	want := loadCorpus(t)
	rng := xrand.New(0x5005)
	for trial := 0; trial < 12; trial++ {
		bench := squashProfiles[rng.Intn(len(squashProfiles))]
		policy := rng.Intn(len(squashPolicies))
		depth := 6 + 2*rng.Intn(12)
		if _, name, sum := runSquashCell(t, bench, policy, depth); sum != want[name] {
			t.Errorf("trial %d (%s): digest %s, corpus has %q", trial, name, sum, want[name])
		}
	}
}
