package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"selthrottle/internal/bpred"
	"selthrottle/internal/conf"
	"selthrottle/internal/core"
	"selthrottle/internal/pipe"
	"selthrottle/internal/power"
	"selthrottle/internal/prog"
	"selthrottle/internal/xrand"
)

// The golden corpus is the reference the simulator's fast paths are tested
// against: testdata/corpus.txt holds one "name sha256" line per cell, and
// each digest covers only exact integers — pipe.Stats (with its confidence
// quality tallies), the power meter's per-unit event and wasted counts (whole
// numbers held in float64), and, where a cell names them, the instruction
// pool, checkpoint-arena and epoch-ring statistics or the walker's raw
// instruction stream. Derived floats (energies, IPC) stay out: Go may fuse
// multiply-adds on some architectures, and the integers determine them.
//
// Any change to the modelled machine changes some digests. Such a change
// commits the regenerated file, which this test prints on a mismatch; there
// is no regeneration switch.

const corpusPath = "testdata/corpus.txt"

// corpusCell is one named corpus entry; run writes the cell's integers into
// h and returns an error for a failed internal check.
type corpusCell struct {
	name string
	run  func(r *Runner, h hash.Hash) error
}

// writeInts feeds fixed-size integer values (or structs of them) to h in
// little-endian order.
func writeInts(h hash.Hash, vs ...any) {
	for _, v := range vs {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err) // invariant: callers pass fixed-size integer data only
		}
	}
}

// writeMeter feeds the meter's cycle count and per-unit event and wasted
// counts to h, failing if a count is not a whole number.
func writeMeter(h hash.Hash, m *power.Meter) error {
	var ev, wa [power.NumUnits]uint64
	for u := range ev {
		ev[u], wa[u] = uint64(m.Events[u]), uint64(m.Wasted[u])
		if float64(ev[u]) != m.Events[u] || float64(wa[u]) != m.Wasted[u] {
			return fmt.Errorf("unit %v: non-integral counts %v/%v", power.Unit(u), m.Events[u], m.Wasted[u])
		}
	}
	writeInts(h, m.Cycles, ev, wa)
	return nil
}

// simCell runs cfg on the named profile through a Runner and digests the
// measured statistics and the meter's totals.
func simCell(name, bench string, cfg Config) corpusCell {
	return corpusCell{name, func(r *Runner, h hash.Hash) error {
		p, ok := prog.ProfileByName(bench)
		if !ok {
			return fmt.Errorf("unknown profile %q", bench)
		}
		res := r.Run(cfg, p)
		writeInts(h, res.Stats)
		return writeMeter(h, r.meter)
	}}
}

// corpusPolicies are the experiment shapes that reach every issue, front-end
// and attribution path: plain selection, no-select barriers, decode and
// fetch throttling, pipeline gating, and two oracle limit studies.
func corpusPolicies() []Experiment {
	b5, _ := ExperimentByID("B5")
	return []Experiment{
		{ID: "baseline", Policy: core.Baseline(), Estimator: EstBPRU},
		BestExperiment(),
		b5,
		pipelineGating("PG"),
		{ID: "oracle-select", Policy: core.Baseline(), Estimator: EstBPRU, Oracle: core.OracleSelect},
		{ID: "oracle-fetch", Policy: core.Baseline(), Estimator: EstBPRU, Oracle: core.OracleFetch},
	}
}

// corpusShapes are structural corner cases, each applied to C2: the depth
// extremes of the paper's sweep, narrow and mismatched widths (groups
// straddling the decode boundary), single-taken truncation, a tiny window
// (constant back-pressure and flushes), perfect disambiguation (no store
// blocking) and a narrow issue width.
var corpusShapes = []struct {
	name  string
	apply func(*pipe.Config)
}{
	{"depth6", func(c *pipe.Config) { c.SetDepth(6) }},
	{"depth28", func(c *pipe.Config) { c.SetDepth(28) }},
	{"fetch4", func(c *pipe.Config) { c.FetchWidth = 4 }},
	{"decode2", func(c *pipe.Config) { c.DecodeWidth = 2 }},
	{"fetch4-decode2", func(c *pipe.Config) { c.FetchWidth = 4; c.DecodeWidth = 2 }},
	{"fetch8-decode3-issue5", func(c *pipe.Config) { c.FetchWidth = 8; c.DecodeWidth = 3; c.IssueWidth = 5 }},
	{"taken1", func(c *pipe.Config) { c.MaxTakenPerCycle = 1 }},
	{"window16", func(c *pipe.Config) { c.WindowSize = 16; c.LSQSize = 8 }},
	{"perfect-disambiguation", func(c *pipe.Config) { c.PerfectDisambiguation = true }},
	{"issue2", func(c *pipe.Config) { c.IssueWidth = 2 }},
}

// pipeCells are squash-heavy pipeline cells driven without a Runner: four
// flush-prone profiles under four policies at depths from 6 to 24 stages.
var pipeCells = []struct {
	bench, policy string
	depth         int
}{
	{"go", "pg", 16}, {"parser", "dec", 8}, {"twolf", "pg", 16}, {"parser", "c2", 14},
	{"parser", "pg", 18}, {"gcc", "pg", 22}, {"gcc", "baseline", 6}, {"gcc", "baseline", 12},
	{"parser", "pg", 14}, {"gcc", "baseline", 8}, {"parser", "c2", 10}, {"go", "pg", 10},
	{"go", "dec", 18}, {"go", "dec", 12}, {"gcc", "baseline", 20}, {"parser", "c2", 18},
	{"parser", "dec", 12}, {"twolf", "baseline", 24}, {"gcc", "pg", 18}, {"twolf", "c2", 14},
	{"twolf", "c2", 12},
}

// pipePolicy maps a pipe cell's policy name to its policy.
func pipePolicy(name string) core.Policy {
	switch name {
	case "c2":
		return core.Selective("c2", core.Spec{Fetch: core.RateQuarter, NoSelect: true}, core.Spec{Fetch: core.RateStall})
	case "dec":
		return core.Selective("dec", core.Spec{Fetch: core.RateHalf, Decode: core.RateQuarter}, core.Spec{Decode: core.RateStall})
	case "pg":
		return core.PipelineGating(2)
	}
	return core.Baseline()
}

// pipeCell builds a pipeline directly (8 KB gshare, 4 KB BPRU, or JRS for
// pipeline gating), runs 6000 instructions and digests the statistics, the
// meter, and the pool, checkpoint-arena and epoch-ring accounting.
func pipeCell(bench, policyName string, depth int) corpusCell {
	name := fmt.Sprintf("pipe/%s/%s/d%d", bench, policyName, depth)
	return corpusCell{name, func(_ *Runner, h hash.Hash) error {
		p, ok := prog.ProfileByName(bench)
		if !ok {
			return fmt.Errorf("unknown profile %q", bench)
		}
		policy := pipePolicy(policyName)
		w := prog.NewWalker(getProgram(p))
		est := conf.Estimator(conf.NewBPRU(4 << 10))
		if policy.Gating {
			est = conf.NewJRS(4<<10, 12)
		}
		cfg := pipe.Default()
		cfg.SetDepth(depth)
		cfg.StuckCycles = 20000
		meter := &power.Meter{}
		pl := pipe.New(cfg, w, bpred.NewGshare(8<<10), est, core.NewController(policy), meter)
		st, err := pl.RunE(6000)
		if err != nil {
			return err
		}
		if err := pl.CheckInvariants(); err != nil {
			return err
		}
		allocs, reuses := pl.PoolStats()
		leased, capacity, hw := w.CkptStats()
		open, ecap, ehw := pl.EpochStats()
		writeInts(h, *st, allocs, reuses,
			[6]int64{int64(leased), int64(capacity), int64(hw), int64(open), int64(ecap), int64(ehw)})
		return writeMeter(h, meter)
	}}
}

// walkCell drives a walker over the profile with seeded steering: a fifth
// of the branches are mispredicted and walked down the wrong path for up to
// 29 instructions before recovering from the branch's checkpoint. It
// digests every produced instruction, the NextPC after each, and the final
// checkpoint-arena statistics.
func walkCell(bench string) corpusCell {
	return corpusCell{"walk/" + bench, func(_ *Runner, h hash.Hash) error {
		p, ok := prog.ProfileByName(bench)
		if !ok {
			return fmt.Errorf("unknown profile %q", bench)
		}
		w := prog.NewWalker(getProgram(p))
		rng := xrand.New(0xF00D ^ p.Seed)
		var d prog.DynInst
		step := func() {
			d = prog.DynInst{}
			w.Next(&d)
			writeInts(h, d, w.NextPC())
		}
		for i := 0; i < 12000; i++ {
			step()
			if d.BrID == prog.NoBranch {
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
			br := d
			for k := rng.Intn(30); k > 0; k-- {
				step()
				if d.BrID != prog.NoBranch {
					w.Steer(d.Taken)
					w.Release(&d)
				}
			}
			w.Recover(&br)
		}
		leased, capacity, hw := w.CkptStats()
		writeInts(h, [3]int64{int64(leased), int64(capacity), int64(hw)})
		return nil
	}}
}

// corpusCells lists every cell in file order.
func corpusCells() []corpusCell {
	var cells []corpusCell
	base := Experiment{ID: "baseline", Policy: core.Baseline(), Estimator: EstBPRU}

	// Every profile under the plain baseline and C2's no-select barriers.
	cfg := Default()
	cfg.Instructions, cfg.Warmup = 12000, 3000
	for _, p := range prog.Profiles() {
		for _, e := range []Experiment{base, BestExperiment()} {
			cells = append(cells, simCell("profile/"+p.Name+"/"+e.ID, p.Name, e.Apply(cfg)))
		}
	}

	// Three profiles under every policy shape.
	cfg.Instructions, cfg.Warmup = 10000, 2500
	for _, bench := range []string{"go", "gzip", "twolf"} {
		for _, e := range corpusPolicies() {
			cells = append(cells, simCell("policy/"+bench+"/"+e.ID, bench, e.Apply(cfg)))
		}
	}

	// Structural corner cases on go under C2.
	for _, s := range corpusShapes {
		c := BestExperiment().Apply(Default())
		c.Instructions, c.Warmup = 8000, 2000
		c.Pipe.StuckCycles = 20000
		s.apply(&c.Pipe)
		cells = append(cells, simCell("shape/"+s.name, "go", c))
	}

	for _, c := range pipeCells {
		cells = append(cells, pipeCell(c.bench, c.policy, c.depth))
	}
	for _, p := range prog.Profiles() {
		cells = append(cells, walkCell(p.Name))
	}
	return cells
}

// renderCorpus runs every cell and returns the corpus file text.
func renderCorpus(t *testing.T, cells []corpusCell) string {
	t.Helper()
	digests := make([]string, len(cells))
	errs := make([]error, len(cells))
	runJobs(len(cells), func(r *Runner, i int) {
		h := sha256.New()
		errs[i] = cells[i].run(r, h)
		digests[i] = hex.EncodeToString(h.Sum(nil))
	})
	var b strings.Builder
	for i, c := range cells {
		if errs[i] != nil {
			t.Errorf("%s: %v", c.name, errs[i])
		}
		fmt.Fprintf(&b, "%s %s\n", c.name, digests[i])
	}
	return b.String()
}

// parseCorpus maps each cell name of a corpus file to its digest.
func parseCorpus(text string) map[string]string {
	m := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok {
			m[name] = sum
		}
	}
	return m
}

func TestGoldenCorpus(t *testing.T) {
	want, err := os.ReadFile(corpusPath)
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	cells := corpusCells()
	got := renderCorpus(t, cells)
	if got == string(want) {
		return
	}
	wantSums, gotSums := parseCorpus(string(want)), parseCorpus(got)
	for _, c := range cells {
		if gotSums[c.name] != wantSums[c.name] {
			t.Errorf("%s: digest %s, corpus has %q", c.name, gotSums[c.name], wantSums[c.name])
		}
	}
	if len(gotSums) != len(wantSums) {
		t.Errorf("corpus lists %d cells, the test defines %d", len(wantSums), len(gotSums))
	}
	t.Fatalf("%s does not match; if the model change is intended, commit this regenerated file:\n%s",
		corpusPath, got)
}
