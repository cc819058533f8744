package pipe

import (
	"fmt"
	"sync"
	"testing"

	"selthrottle/internal/bpred"
	"selthrottle/internal/conf"
	"selthrottle/internal/core"
	"selthrottle/internal/isa"
	"selthrottle/internal/power"
	"selthrottle/internal/prog"
)

// Model properties that must hold for every machine configuration, checked
// over a table of profiles x structural shapes x policies x oracle modes
// (TestModelProperties) and over fuzzed bounded shapes (FuzzPipelineConfig):
//
//   - Event conservation, every propCheckEvery cycles and at the end of the
//     run. Every fetched instruction costs one I-cache event, and the wasted
//     pool holds exactly the events of squashed instructions. Squashes hit
//     only wrong-path instructions and no wrong-path instruction commits, so
//     Wasted[ICache] is WrongPathFetched minus the wrong-path instructions
//     still in flight, Wasted[Rename] is WrongPathDecoded minus the decoded
//     ones among them, and Wasted[ALU] is WrongPathIssued minus the issued
//     ones. No unit wastes more events than it records.
//   - The committed PC stream of a profile depends on nothing else: not on
//     the shape, the policy or the oracle.
//   - Oracle contracts: each oracle mode suppresses its stage's wrong-path
//     work entirely.
//   - The baseline policy gates nothing and never blocks selection.
//   - CheckInvariants holds throughout.

// propShape is one structural configuration of the property table.
type propShape struct {
	name  string
	apply func(*Config)
}

var propShapes = []propShape{
	{"default", func(*Config) {}},
	{"width1", func(c *Config) { c.FetchWidth, c.DecodeWidth, c.IssueWidth, c.CommitWidth = 1, 1, 1, 1 }},
	{"window1", func(c *Config) { c.WindowSize, c.LSQSize = 1, 1 }},
	{"window4", func(c *Config) { c.WindowSize, c.LSQSize = 4, 4 }},
	{"depth6", func(c *Config) { c.SetDepth(6) }},
	{"depth28", func(c *Config) { c.SetDepth(28) }},
	{"depth64", func(c *Config) { c.SetDepth(64) }},
	{"btb1", func(c *Config) { c.BTBEntries, c.BTBWays = 1, 1 }},
	{"ras1", func(c *Config) { c.RASDepth = 1 }},
	{"fu1", func(c *Config) {
		for k := range c.FUCount {
			c.FUCount[k] = 1
		}
	}},
	{"taken1", func(c *Config) { c.MaxTakenPerCycle = 1 }},
	{"perfect-disambiguation", func(c *Config) { c.PerfectDisambiguation = true }},
}

var (
	propProfiles = []string{"go", "gcc", "twolf"}
	propPolicies = []core.Policy{
		core.Baseline(),
		core.Selective("c2", core.Spec{Fetch: core.RateQuarter, NoSelect: true}, core.Spec{Fetch: core.RateStall}),
		core.Selective("dec", core.Spec{Fetch: core.RateHalf, Decode: core.RateQuarter}, core.Spec{Decode: core.RateStall}),
		core.PipelineGating(2),
	}
	propOracles = []core.Oracle{core.OracleNone, core.OracleFetch, core.OracleDecode, core.OracleSelect}
)

const (
	propCommits     = 3000  // committed instructions per run
	propCheckEvery  = 97    // cycles between mid-run checks
	propStuckCycles = 20000 // cycles without a commit that count as a deadlock
)

// propPrograms memoizes generated programs, and propRefs each profile's
// reference committed stream (default shape, baseline, no oracle).
var (
	propMu       sync.Mutex
	propPrograms = map[string]*prog.Program{}
	propRefs     = map[string][]uint64{}
)

func propProgram(bench string) (*prog.Program, error) {
	propMu.Lock()
	defer propMu.Unlock()
	if p, ok := propPrograms[bench]; ok {
		return p, nil
	}
	profile, ok := prog.ProfileByName(bench)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", bench)
	}
	p := prog.Generate(profile)
	propPrograms[bench] = p
	return p, nil
}

// propReference returns the profile's first propCommits committed PCs on
// the default machine.
func propReference(bench string) ([]uint64, error) {
	program, err := propProgram(bench)
	if err != nil {
		return nil, err
	}
	propMu.Lock()
	defer propMu.Unlock()
	if ref, ok := propRefs[bench]; ok {
		return ref, nil
	}
	pl := New(Default(), prog.NewWalker(program), bpred.NewGshare(8<<10), conf.NewBPRU(4<<10),
		core.NewController(core.Baseline()), &power.Meter{})
	ref := make([]uint64, 0, propCommits+8)
	pl.CommitTrace = func(_, pc uint64, _ int64) { ref = append(ref, pc) }
	if _, err := pl.RunE(propCommits); err != nil {
		return nil, err
	}
	ref = ref[:propCommits]
	propRefs[bench] = ref
	return ref, nil
}

// checkConservation folds the pending tallies into the meter and checks the
// exact event laws against the machine's in-flight contents, then
// CheckInvariants.
func checkConservation(pl *Pipeline) error {
	pl.FlushTally()
	m := pl.meter
	var wrongFetched, wrongDecoded, wrongIssued uint64
	for i := 0; i < pl.frontQ.Len(); i++ {
		if pl.frontQ.At(i).d.WrongPath {
			wrongFetched++
			if i < pl.decoded {
				wrongDecoded++
			}
		}
	}
	for i := 0; i < pl.window.Len(); i++ {
		if in := pl.window.At(i); in.d.WrongPath {
			wrongFetched++
			wrongDecoded++
			if in.issued {
				wrongIssued++
			}
		}
	}
	s := &pl.Stats
	for _, law := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"meter cycles", float64(m.Cycles), s.Cycles},
		{"Events[icache] (fetched)", m.Events[power.UnitICache], s.Fetched},
		{"Wasted[icache] (wrong-path fetched, not in flight)", m.Wasted[power.UnitICache], s.WrongPathFetched - wrongFetched},
		{"Wasted[rename] (wrong-path decoded, not in flight)", m.Wasted[power.UnitRename], s.WrongPathDecoded - wrongDecoded},
		{"Wasted[alu] (wrong-path issued, not in flight)", m.Wasted[power.UnitALU], s.WrongPathIssued - wrongIssued},
	} {
		if law.got != float64(law.want) {
			return fmt.Errorf("%s: meter %v, statistics imply %d", law.name, law.got, law.want)
		}
	}
	for u := power.Unit(0); u < power.NumUnits; u++ {
		if m.Wasted[u] > m.Events[u] {
			return fmt.Errorf("unit %v: wasted %v > total %v", u, m.Wasted[u], m.Events[u])
		}
	}
	return pl.CheckInvariants()
}

// propRun builds a pipeline for cfg over the profile under policy and steps
// it to propCommits commits, checking conservation every propCheckEvery
// cycles and at the end, and the committed stream against ref throughout.
// A panic or a deadlock comes back as a *RunError with the machine snapshot.
func propRun(bench string, cfg Config, policy core.Policy, ref []uint64) (pl *Pipeline, err error) {
	program, err := propProgram(bench)
	if err != nil {
		return nil, err
	}
	est := conf.Estimator(conf.NewBPRU(4 << 10))
	if policy.Gating {
		est = conf.NewJRS(4<<10, 12)
	}
	pl = New(cfg, prog.NewWalker(program), bpred.NewGshare(8<<10), est, core.NewController(policy), &power.Meter{})
	committed, diverged := 0, -1
	pl.CommitTrace = func(_, pc uint64, _ int64) {
		if committed < len(ref) && pc != ref[committed] && diverged < 0 {
			diverged = committed
		}
		committed++
	}
	defer func() {
		if r := recover(); r != nil {
			err = pl.recoverRunError(r)
		}
	}()
	last, stuck := uint64(0), 0
	for pl.Stats.Committed < propCommits {
		pl.Step()
		if pl.cycle%propCheckEvery == 0 {
			if err := checkConservation(pl); err != nil {
				return pl, fmt.Errorf("cycle %d: %w", pl.cycle, err)
			}
		}
		if pl.Stats.Committed != last {
			last, stuck = pl.Stats.Committed, 0
		} else if stuck++; stuck > propStuckCycles {
			return pl, pl.newRunError(ErrDeadlock, nil)
		}
	}
	if err := checkConservation(pl); err != nil {
		return pl, fmt.Errorf("end of run, cycle %d: %w", pl.cycle, err)
	}
	if diverged >= 0 {
		return pl, fmt.Errorf("committed PC stream diverged from the reference at instruction %d", diverged)
	}
	return pl, nil
}

// checkContracts verifies the oracle and baseline contracts on a finished
// run's statistics.
func checkContracts(s *Stats, policy core.Policy, oracle core.Oracle) error {
	switch {
	case oracle == core.OracleFetch && s.WrongPathFetched != 0:
		return fmt.Errorf("oracle fetch fetched %d wrong-path instructions", s.WrongPathFetched)
	case oracle == core.OracleDecode && s.WrongPathDecoded != 0:
		return fmt.Errorf("oracle decode decoded %d wrong-path instructions", s.WrongPathDecoded)
	case oracle == core.OracleSelect && s.WrongPathIssued != 0:
		return fmt.Errorf("oracle select issued %d wrong-path instructions", s.WrongPathIssued)
	}
	if policy.Name == core.Baseline().Name &&
		(s.FetchGatedCycles != 0 || s.DecodeGatedCycles != 0 || s.NoSelectStalls != 0) {
		return fmt.Errorf("baseline gated %d fetch and %d decode cycles, %d no-select stalls",
			s.FetchGatedCycles, s.DecodeGatedCycles, s.NoSelectStalls)
	}
	return nil
}

// checkEngaged is the contracts' non-vacuity check on the default shape:
// each oracle must have had wrong-path work to suppress at its stage, and
// without an oracle the wrong path must reach every stage.
func checkEngaged(s *Stats, oracle core.Oracle) error {
	var what string
	var n uint64
	switch oracle {
	case core.OracleFetch:
		what, n = "oracle-fetch holds", s.OracleHolds
	case core.OracleDecode:
		what, n = "wrong-path fetches", s.WrongPathFetched
	case core.OracleSelect:
		what, n = "wrong-path dispatches", s.WrongPathDispatched
	default:
		what, n = "wrong-path issues", s.WrongPathIssued
	}
	if n == 0 {
		return fmt.Errorf("no %s: the contract was not exercised", what)
	}
	return nil
}

// TestModelProperties runs every profile x shape x policy x oracle cell of
// the property table.
func TestModelProperties(t *testing.T) {
	for _, bench := range propProfiles {
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			ref, err := propReference(bench)
			if err != nil {
				t.Fatal(err)
			}
			for _, shape := range propShapes {
				for _, policy := range propPolicies {
					for _, oracle := range propOracles {
						name := fmt.Sprintf("%s/%s/%s/%v", bench, shape.name, policy.Name, oracle)
						cfg := Default()
						shape.apply(&cfg)
						cfg.Oracle = oracle
						pl, err := propRun(bench, cfg, policy, ref)
						if err == nil {
							err = checkContracts(&pl.Stats, policy, oracle)
						}
						if err == nil && shape.name == "default" {
							err = checkEngaged(&pl.Stats, oracle)
						}
						if err != nil {
							t.Errorf("%s: %v", name, err)
						}
					}
				}
			}
		})
	}
}

// fuzzConfig maps raw fuzz input onto a bounded machine shape: widths 1-8,
// window 1-256, LSQ 1-window, depth 6-64 stages, BTB 1-2048 entries x 1-4
// ways, RAS 1-64, one to eight units of each FU kind (three bits each of
// fu), one or two taken branches per fetch cycle and optional perfect
// disambiguation (the two low bits of flags).
func fuzzConfig(fetchW, decodeW, issueW, commitW uint8, window, lsq uint16, depth uint8,
	btbEntries uint16, btbWays, ras uint8, fu uint16, flags uint8) Config {
	cfg := Default()
	cfg.FetchWidth = 1 + int(fetchW%8)
	cfg.DecodeWidth = 1 + int(decodeW%8)
	cfg.IssueWidth = 1 + int(issueW%8)
	cfg.CommitWidth = 1 + int(commitW%8)
	cfg.WindowSize = 1 + int(window%256)
	cfg.LSQSize = 1 + int(lsq)%cfg.WindowSize
	cfg.SetDepth(6 + int(depth%59))
	cfg.BTBEntries = 1 + int(btbEntries%2048)
	cfg.BTBWays = 1 + int(btbWays%4)
	cfg.RASDepth = 1 + int(ras%64)
	for k := range cfg.FUCount {
		cfg.FUCount[k] = 1 + int(fu>>(3*k)&7)
	}
	cfg.PerfectDisambiguation = flags&1 != 0
	cfg.MaxTakenPerCycle = 1 + int(flags>>1&1)
	return cfg
}

// FuzzPipelineConfig checks the model properties on fuzzed bounded shapes.
// The seed corpus is the property table's shapes, encoded so that
// fuzzConfig reproduces them exactly, spread over the profiles, policies
// and oracles.
func FuzzPipelineConfig(f *testing.F) {
	for si, shape := range propShapes {
		c := Default()
		shape.apply(&c)
		var fu uint16
		for k := isa.FUKind(0); k < isa.NumFUKinds; k++ {
			fu |= uint16(c.FUCount[k]-1) << (3 * k)
		}
		flags := uint8(c.MaxTakenPerCycle-1) << 1
		if c.PerfectDisambiguation {
			flags |= 1
		}
		f.Add(uint8(si), uint8(si), uint8(si/3),
			uint8(c.FetchWidth-1), uint8(c.DecodeWidth-1), uint8(c.IssueWidth-1), uint8(c.CommitWidth-1),
			uint16(c.WindowSize-1), uint16(c.LSQSize-1), uint8(c.Depth()-6),
			uint16(c.BTBEntries-1), uint8(c.BTBWays-1), uint8(c.RASDepth-1), fu, flags)
	}
	f.Fuzz(func(t *testing.T, profile, policy, oracle, fetchW, decodeW, issueW, commitW uint8,
		window, lsq uint16, depth uint8, btbEntries uint16, btbWays, ras uint8, fu uint16, flags uint8) {
		bench := propProfiles[int(profile)%len(propProfiles)]
		pol := propPolicies[int(policy)%len(propPolicies)]
		cfg := fuzzConfig(fetchW, decodeW, issueW, commitW, window, lsq, depth, btbEntries, btbWays, ras, fu, flags)
		cfg.Oracle = propOracles[int(oracle)%len(propOracles)]
		ref, err := propReference(bench)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := propRun(bench, cfg, pol, ref)
		if err == nil {
			err = checkContracts(&pl.Stats, pol, cfg.Oracle)
		}
		if err != nil {
			t.Fatalf("%s/%s/%v on %+v: %v", bench, pol.Name, cfg.Oracle, cfg, err)
		}
	})
}
