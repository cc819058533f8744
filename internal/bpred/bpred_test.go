package bpred

import (
	"testing"
	"testing/quick"
)

func TestCounter2Saturation(t *testing.T) {
	c := Counter2(0)
	for i := 0; i < 10; i++ {
		c = c.Update(false)
	}
	if c != 0 {
		t.Fatalf("counter under-saturated to %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.Update(true)
	}
	if c != 3 {
		t.Fatalf("counter over-saturated to %d", c)
	}
}

func TestCounter2Bounds(t *testing.T) {
	err := quick.Check(func(start uint8, outcomes []bool) bool {
		c := Counter2(start % 4)
		for _, o := range outcomes {
			c = c.Update(o)
			if c > 3 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCounter2WeakStates(t *testing.T) {
	if Counter2(0).Weak() || Counter2(3).Weak() {
		t.Error("strong states classified weak")
	}
	if !Counter2(1).Weak() || !Counter2(2).Weak() {
		t.Error("weak states classified strong")
	}
	if Counter2(1).Taken() || !Counter2(2).Taken() {
		t.Error("taken threshold wrong")
	}
}

func TestGshareLearnsBiasedBranch(t *testing.T) {
	g := NewGshare(8 << 10)
	pc := uint64(0x400100)
	correct := 0
	for i := 0; i < 2000; i++ {
		taken, _, cookie := g.Predict(pc)
		actual := true // always taken
		if taken == actual {
			correct++
		} else {
			g.OnMispredict(cookie, actual)
		}
		g.Update(pc, cookie, actual)
	}
	if correct < 1900 {
		t.Fatalf("gshare failed to learn an always-taken branch: %d/2000", correct)
	}
}

func TestGshareLearnsAlternatingPattern(t *testing.T) {
	// A strict T/N/T/N pattern is a pure function of one history bit.
	g := NewGshare(8 << 10)
	pc := uint64(0x400200)
	correct := 0
	n := 4000
	for i := 0; i < n; i++ {
		actual := i%2 == 0
		taken, _, cookie := g.Predict(pc)
		if taken == actual {
			correct++
		} else {
			g.OnMispredict(cookie, actual)
		}
		g.Update(pc, cookie, actual)
	}
	if correct < n*9/10 {
		t.Fatalf("gshare failed to learn alternation: %d/%d", correct, n)
	}
}

func TestGshareGHRSpeculativeAndRepair(t *testing.T) {
	g := NewGshare(1 << 10)
	before := g.GHR()
	taken, _, cookie := g.Predict(0x400300)
	if cookie != before {
		t.Fatal("cookie must capture the pre-prediction GHR")
	}
	wantSpec := before<<1 | b2u(taken)
	if g.GHR() != wantSpec {
		t.Fatal("GHR not speculatively updated with the prediction")
	}
	g.OnMispredict(cookie, !taken)
	want := before<<1 | b2u(!taken)
	if g.GHR() != want {
		t.Fatal("GHR not repaired with the actual outcome")
	}
}

func TestGshareSizing(t *testing.T) {
	for _, kb := range []int{1, 2, 4, 8, 16, 32, 64} {
		g := NewGshare(kb << 10)
		if g.SizeBytes() != kb<<10 {
			t.Errorf("%d KB gshare reports %d bytes", kb, g.SizeBytes())
		}
	}
}

func TestBimodalLearns(t *testing.T) {
	b := NewBimodal(4 << 10)
	pc := uint64(0x400400)
	for i := 0; i < 10; i++ {
		_, _, cookie := b.Predict(pc)
		b.Update(pc, cookie, false)
	}
	taken, ctr, _ := b.Predict(pc)
	if taken {
		t.Fatal("bimodal did not learn not-taken")
	}
	if ctr.Taken() {
		t.Fatal("counter state inconsistent with prediction")
	}
}

func TestBTBInsertLookup(t *testing.T) {
	b := NewBTB(1024, 2)
	if b.Entries() != 1024 {
		t.Fatalf("entries = %d", b.Entries())
	}
	b.Insert(0x1000, 0x2000)
	if target, hit := b.Lookup(0x1000); !hit || target != 0x2000 {
		t.Fatalf("lookup = %#x, %v", target, hit)
	}
	if _, hit := b.Lookup(0x1008); hit {
		t.Fatal("phantom hit")
	}
}

func TestBTBLRUReplacement(t *testing.T) {
	b := NewBTB(4, 2) // 2 sets x 2 ways
	// Three PCs mapping to the same set: the LRU one is evicted.
	setStride := uint64(2 * 8) // sets*InstBytes alignment: pc>>3 & (sets-1)
	pcA := uint64(0x1000)
	pcB := pcA + setStride
	pcC := pcB + setStride
	b.Insert(pcA, 1)
	b.Insert(pcB, 2)
	b.Lookup(pcA) // make A most recently used
	b.Insert(pcC, 3)
	if _, hit := b.Lookup(pcA); !hit {
		t.Fatal("MRU entry evicted")
	}
	if _, hit := b.Lookup(pcB); hit {
		t.Fatal("LRU entry survived")
	}
}
