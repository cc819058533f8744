package pipe

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"selthrottle/internal/core"
	"selthrottle/internal/power"
)

// The golden corpus (internal/sim/testdata/corpus.txt, written and checked
// whole by internal/sim's TestGoldenCorpus) holds one "name sha256" line per
// cell. Its squash-heavy "pipe/<profile>/<policy>/d<depth>" cells are the
// pipelines the randomized trials below draw; this file rebuilds them
// exactly as internal/sim's pipeCell does and checks their digests.

const corpusPath = "../sim/testdata/corpus.txt"

// loadCorpus maps each cell name of the corpus to its digest.
func loadCorpus(t *testing.T) map[string]string {
	t.Helper()
	text, err := os.ReadFile(corpusPath)
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	m := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok {
			m[name] = sum
		}
	}
	return m
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

// squashProfiles and squashPolicies are what the randomized squash trials
// draw from; squashPolicyNames are the policies' names in corpus cells.
var (
	squashProfiles = []string{"go", "gcc", "twolf", "parser"}
	squashPolicies = []core.Policy{
		core.Baseline(),
		core.Selective("c2", core.Spec{Fetch: core.RateQuarter, NoSelect: true}, core.Spec{Fetch: core.RateStall}),
		core.Selective("dec", core.Spec{Fetch: core.RateHalf, Decode: core.RateQuarter}, core.Spec{Decode: core.RateStall}),
		core.PipelineGating(2),
	}
	squashPolicyNames = []string{"baseline", "c2", "dec", "pg"}
)

// runSquashCell runs 6000 instructions of bench under squashPolicies[policy]
// at the given depth, checks CheckInvariants, and returns the pipeline, the
// corpus cell's name and its digest: the statistics, the pool,
// checkpoint-arena and epoch-ring accounting, and the meter.
func runSquashCell(t *testing.T, bench string, policy, depth int) (pl *Pipeline, name, sum string) {
	t.Helper()
	name = fmt.Sprintf("pipe/%s/%s/d%d", bench, squashPolicyNames[policy], depth)
	pl, meter := buildLedger(t, bench, squashPolicies[policy], func(c *Config) {
		c.SetDepth(depth)
		c.StuckCycles = 20000
	})
	st, err := pl.RunE(6000)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := pl.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	allocs, reuses := pl.PoolStats()
	leased, capacity, hw := pl.walker.CkptStats()
	open, ecap, ehw := pl.EpochStats()
	h := sha256.New()
	writeInts(h, *st, allocs, reuses,
		[6]int64{int64(leased), int64(capacity), int64(hw), int64(open), int64(ecap), int64(ehw)})
	if err := writeMeter(h, meter); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return pl, name, hex.EncodeToString(h.Sum(nil))
}
