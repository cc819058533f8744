package grid

import (
	"errors"
	"fmt"
	"testing"

	"selthrottle/internal/store"
)

func TestPointLeaseName(t *testing.T) {
	k := store.Key{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04}
	got := PointLeaseName("cafe01", k)
	if want := "cafe01-pt-deadbeef0102"; got != want {
		t.Fatalf("PointLeaseName = %q, want %q", got, want)
	}
	// Distinct points of the same grid must never collide on a name.
	k2 := k
	k2[5] = 0xff
	if PointLeaseName("cafe01", k2) == got {
		t.Fatal("distinct keys share a lease name")
	}
}

// TestClaimPointAcquireAndConflict: a claimed point rejects a second
// non-steal claim with ErrHeld, and release frees it.
func TestClaimPointAcquireAndConflict(t *testing.T) {
	m := newTestManager(t, nil)
	var k store.Key
	k[0] = 0x42

	l, err := m.ClaimPoint("g1", k, "w0", false)
	if err != nil {
		t.Fatalf("ClaimPoint: %v", err)
	}
	if _, err := m.ClaimPoint("g1", k, "w1", false); !errors.Is(err, ErrHeld) {
		t.Fatalf("second claim = %v, want ErrHeld", err)
	}
	// The same key under a different grid ID is a different lease.
	if l2, err := m.ClaimPoint("g2", k, "w1", false); err != nil {
		t.Fatalf("claim under other grid: %v", err)
	} else {
		l2.Release()
	}
	l.Release()
	if l, err = m.ClaimPoint("g1", k, "w1", false); err != nil {
		t.Fatalf("claim after release: %v", err)
	}
	l.Release()
}

// TestClaimPointStealFencesHolder is the hedge-fencing contract: a steal
// claim succeeds against a live holder, whose very next Beat observes the
// foreign fencing token and returns ErrLost — the straggler cancels instead
// of publishing a duplicate claim of ownership.
func TestClaimPointStealFencesHolder(t *testing.T) {
	m := newTestManager(t, nil)
	var k store.Key
	k[0] = 0x43

	held, err := m.ClaimPoint("g1", k, "straggler", false)
	if err != nil {
		t.Fatalf("ClaimPoint: %v", err)
	}
	thief, err := m.ClaimPoint("g1", k, "hedge", true)
	if err != nil {
		t.Fatalf("steal claim: %v", err)
	}
	if err := held.Beat(); !errors.Is(err, ErrLost) {
		t.Fatalf("fenced holder's Beat = %v, want ErrLost", err)
	}
	// The thief's claim is provisional until a confirming Beat.
	if err := thief.Beat(); err != nil {
		t.Fatalf("thief's confirming Beat: %v", err)
	}
	thief.Release()
}

// TestClaimPointManyDistinct: point leases for a realistic sweep's worth of
// keys coexist under one grid without name collisions.
func TestClaimPointManyDistinct(t *testing.T) {
	m := newTestManager(t, nil)
	for i := 0; i < 64; i++ {
		// The lease name covers only k[:6]; vary the keys inside that prefix.
		var k store.Key
		copy(k[:], fmt.Sprintf("p%02d-of-64", i))
		l, err := m.ClaimPoint("g1", k, "w0", false)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		defer l.Release()
	}
}
