package prog

import (
	"strings"
	"testing"

	"selthrottle/internal/isa"
)

func TestAllProfilesGenerateValidPrograms(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prog := Generate(p)
			if err := prog.Validate(); err != nil {
				t.Fatalf("invalid program: %v", err)
			}
			if prog.NumStaticBranches() < 10 {
				t.Errorf("only %d static branches", prog.NumStaticBranches())
			}
			if prog.CodeBytes < 8<<10 {
				t.Errorf("code footprint %d B implausibly small", prog.CodeBytes)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("gcc")
	a := Generate(p)
	b := Generate(p)
	if len(a.Blocks) != len(b.Blocks) || len(a.Branches) != len(b.Branches) {
		t.Fatal("program shapes differ across generations")
	}
	for i := range a.Blocks {
		if a.Blocks[i].Base != b.Blocks[i].Base || len(a.Blocks[i].Code) != len(b.Blocks[i].Code) {
			t.Fatalf("block %d differs", i)
		}
	}
	for i := range a.Branches {
		if a.Branches[i] != b.Branches[i] {
			t.Fatalf("branch %d params differ", i)
		}
	}
}

func TestDifferentSeedsProduceDifferentPrograms(t *testing.T) {
	p, _ := ProfileByName("gcc")
	q := p
	q.Seed = p.Seed + 1
	a, b := Generate(p), Generate(q)
	if len(a.Blocks) == len(b.Blocks) && len(a.Branches) == len(b.Branches) {
		same := true
		for i := range a.Branches {
			if a.Branches[i].Seed != b.Branches[i].Seed {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical branch parameters")
		}
	}
}

func TestBlockPCsAreDisjointAndOrdered(t *testing.T) {
	p, _ := ProfileByName("compress")
	prog := Generate(p)
	var prevEnd uint64
	for i, b := range prog.Blocks {
		if b.Base < prevEnd {
			t.Fatalf("block %d overlaps previous (base %#x < prev end %#x)", i, b.Base, prevEnd)
		}
		prevEnd = b.Base + uint64(len(b.Code))*InstBytes
	}
}

func TestMemRefsCoverAllMemOps(t *testing.T) {
	p, _ := ProfileByName("twolf")
	prog := Generate(p)
	for bi := range prog.Blocks {
		for ii, st := range prog.Blocks[bi].Code {
			if st.Op.IsMem() {
				if _, ok := prog.memRef(bi, ii); !ok {
					t.Fatalf("mem op at block %d idx %d has no MemRef", bi, ii)
				}
			} else if _, ok := prog.memRef(bi, ii); ok {
				t.Fatalf("non-mem op at block %d idx %d has a MemRef", bi, ii)
			}
		}
	}
}

func TestBranchParamsInRange(t *testing.T) {
	for _, p := range Profiles() {
		prog := Generate(p)
		for i, br := range prog.Branches {
			if br.NoiseP < 0 || br.NoiseP > 1 {
				t.Fatalf("%s branch %d NoiseP %v out of range", p.Name, i, br.NoiseP)
			}
			if br.Bias < 0 || br.Bias > 1 {
				t.Fatalf("%s branch %d Bias %v out of range", p.Name, i, br.Bias)
			}
			if br.DetBits < 0 || br.DetBits > 24 {
				t.Fatalf("%s branch %d DetBits %d out of range", p.Name, i, br.DetBits)
			}
			if br.LoopBack && br.NoiseP == 0 {
				t.Fatalf("%s loop branch %d can never exit", p.Name, i)
			}
		}
	}
}

func TestLoopBranchesMostlyTaken(t *testing.T) {
	p, _ := ProfileByName("bzip2")
	prog := Generate(p)
	w := NewWalker(prog)
	taken, total := 0, 0
	var d DynInst
	for i := 0; i < 200000; i++ {
		w.Next(&d)
		if d.BrID != NoBranch {
			if prog.Branches[d.BrID].LoopBack {
				total++
				if d.Taken {
					taken++
				}
			}
			w.Steer(d.Taken)
		}
	}
	if total == 0 {
		t.Fatal("no loop back-edges executed")
	}
	frac := float64(taken) / float64(total)
	if frac < 0.9 {
		t.Fatalf("loop back-edges taken only %.2f of the time", frac)
	}
}

func TestStructureMix(t *testing.T) {
	// Every profile should contain both loop latches and if-branches.
	for _, p := range Profiles() {
		prog := Generate(p)
		latches, ifs := 0, 0
		for _, br := range prog.Branches {
			if br.LoopBack {
				latches++
			} else {
				ifs++
			}
		}
		if latches == 0 || ifs == 0 {
			t.Errorf("%s: degenerate branch mix (latches=%d ifs=%d)", p.Name, latches, ifs)
		}
	}
}

func TestTerminatorKinds(t *testing.T) {
	p, _ := ProfileByName("go")
	prog := Generate(p)
	kinds := map[isa.Op]int{}
	for i := range prog.Blocks {
		kinds[prog.Blocks[i].Terminator()]++
	}
	for _, op := range []isa.Op{isa.OpBranch, isa.OpJump, isa.OpCall, isa.OpReturn, isa.OpNop} {
		if kinds[op] == 0 {
			t.Errorf("no blocks terminated by %v", op)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("go"); !ok {
		t.Fatal("go profile missing")
	}
	if _, ok := ProfileByName("nonexistent"); ok {
		t.Fatal("found a profile that should not exist")
	}
	if len(Profiles()) != 8 {
		t.Fatalf("expected 8 profiles, got %d", len(Profiles()))
	}
}

func TestProfileKnobs(t *testing.T) {
	var p Profile
	if p.NoiseScale() != 1.0 || p.HardFreq() != 0.5 {
		t.Fatal("zero-value profile knobs should default to 1.0 / 0.5")
	}
	p.NoiseScaleOverride = 0.25
	p.HardFreqOverride = 0.75
	if p.NoiseScale() != 0.25 || p.HardFreq() != 0.75 {
		t.Fatal("overrides not honored")
	}
}

// TestParseProfiles: the one benchmark-list parser trims names, keeps
// their order, and names the first unknown one.
func TestParseProfiles(t *testing.T) {
	ps, err := ParseProfiles(" gzip,go ")
	if err != nil || len(ps) != 2 || ps[0].Name != "gzip" || ps[1].Name != "go" {
		t.Fatalf("ParseProfiles = %v, %v; want gzip, go", ps, err)
	}
	for _, bad := range []string{"nope", "gzip,,go", "gzip,nope"} {
		if _, err := ParseProfiles(bad); err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
			t.Errorf("ParseProfiles(%q) error = %v, want unknown benchmark", bad, err)
		}
	}
}
