package sim

import (
	"os"
	"strings"
	"testing"
)

// The tests in this file once ran each of their cells twice, on the fast
// path and on a retained reference implementation — the full-window scan
// issue stage, the two-ring front end, the per-instruction power ledger or
// the float-threshold walker — and required bit-identical results. The
// references are retired. Before their deletion every combination of them
// reproduced testdata/corpus.txt, so the corpus digests are the references'
// results: each test keeps its cells and requires the fast path to
// reproduce those digests.

// checkCorpusCells runs the corpus cells whose names keep accepts and
// requires each to reproduce its digest in testdata/corpus.txt.
func checkCorpusCells(t *testing.T, keep func(name string) bool) {
	t.Helper()
	text, err := os.ReadFile(corpusPath)
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	var cells []corpusCell
	for _, c := range corpusCells() {
		if keep(c.name) {
			cells = append(cells, c)
		}
	}
	if len(cells) == 0 {
		t.Fatal("no corpus cell selected")
	}
	want, got := parseCorpus(string(text)), parseCorpus(renderCorpus(t, cells))
	for _, c := range cells {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: digest %s, corpus has %q", c.name, got[c.name], want[c.name])
		}
	}
}

// cellPrefix selects the corpus cells whose names start with prefix.
func cellPrefix(prefix string) func(string) bool {
	return func(name string) bool { return strings.HasPrefix(name, prefix) }
}

// cellNames selects the named corpus cells.
func cellNames(names ...string) func(string) bool {
	return func(name string) bool {
		for _, n := range names {
			if name == n {
				return true
			}
		}
		return false
	}
}

// Every profile under the plain baseline and C2's no-select barriers, the
// two policies that stress the issue stage hardest.

func TestEventIssueMatchesScanAllProfiles(t *testing.T) {
	checkCorpusCells(t, cellPrefix("profile/"))
}

func TestFastWalkMatchesLegacyAllProfiles(t *testing.T) {
	checkCorpusCells(t, cellPrefix("profile/"))
}

func TestFusedFrontEndMatchesLegacyAllProfiles(t *testing.T) {
	checkCorpusCells(t, cellPrefix("profile/"))
}

func TestEpochLedgerMatchesLegacyAllProfiles(t *testing.T) {
	checkCorpusCells(t, cellPrefix("profile/"))
}

// go, gzip and twolf under every corpus policy shape.

func TestEventIssueMatchesScanAllPolicies(t *testing.T) {
	checkCorpusCells(t, cellPrefix("policy/"))
}

func TestFastWalkMatchesLegacyAllPolicies(t *testing.T) {
	checkCorpusCells(t, cellPrefix("policy/"))
}

func TestFusedFrontEndMatchesLegacyAllPolicies(t *testing.T) {
	checkCorpusCells(t, cellPrefix("policy/"))
}

func TestEpochLedgerMatchesLegacyAllPolicies(t *testing.T) {
	checkCorpusCells(t, cellPrefix("policy/"))
}

// TestEventIssueMatchesScanStressShapes covers the issue stage's corner
// cases: a deep pipe (long latencies, wheel clamping), a tiny window
// (constant back-pressure and flushes), perfect disambiguation (no store
// blocking) and a narrow issue width.
func TestEventIssueMatchesScanStressShapes(t *testing.T) {
	checkCorpusCells(t, cellNames("shape/depth28", "shape/window16", "shape/perfect-disambiguation", "shape/issue2"))
}

// TestFusedFrontEndMatchesLegacyStressShapes covers the front end's corner
// cases: both depth extremes, narrow fetch or decode (groups straddling the
// decode boundary for many cycles), single-taken truncation (short groups)
// and a tiny window (constant back-pressure into the delay line).
func TestFusedFrontEndMatchesLegacyStressShapes(t *testing.T) {
	checkCorpusCells(t, cellNames("shape/depth6", "shape/depth28", "shape/fetch4", "shape/decode2",
		"shape/fetch8-decode3-issue5", "shape/taken1", "shape/window16"))
}

// TestEpochLedgerMatchesLegacyStressShapes covers the epoch ledger's corner
// cases: the deepest pipe (maximal squash depth), a tiny window (epochs
// folding every few cycles), narrow widths (epochs straddling the decode
// boundary), single-taken truncation (many short groups per epoch) and the
// minimum depth (epochs retiring almost immediately).
func TestEpochLedgerMatchesLegacyStressShapes(t *testing.T) {
	checkCorpusCells(t, cellNames("shape/depth28", "shape/depth6", "shape/window16", "shape/fetch4-decode2",
		"shape/fetch8-decode3-issue5", "shape/taken1"))
}

// The two mode-cross tests pinned every pairing of two references on twolf
// under C2 to one result; that result is the cell's digest.

func TestFrontEndWalkerModeCross(t *testing.T) {
	checkCorpusCells(t, cellNames("policy/twolf/C2"))
}

func TestLedgerFrontEndModeCross(t *testing.T) {
	checkCorpusCells(t, cellNames("policy/twolf/C2"))
}
