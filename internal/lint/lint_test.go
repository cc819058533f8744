package lint

import (
	"path/filepath"
	"testing"
)

func fixture(parts ...string) string {
	return filepath.Join(append([]string{"testdata"}, parts...)...)
}

func TestBarePanic(t *testing.T) {
	runFixture(t, BarePanic, fixture("barepanic", "inscope"), "selthrottle/internal/pipe")
}

func TestBarePanicOutOfScope(t *testing.T) {
	runFixture(t, BarePanic, fixture("barepanic", "outofscope"), "selthrottle/internal/power")
}

func TestFSSeam(t *testing.T) {
	runFixture(t, FSSeam, fixture("fsseam", "inscope"), "selthrottle/internal/store")
}

func TestFSSeamOutOfScope(t *testing.T) {
	runFixture(t, FSSeam, fixture("fsseam", "outofscope"), "selthrottle/internal/pipe")
}

func TestFSSeamFleetScope(t *testing.T) {
	runFixture(t, FSSeam, fixture("fsseam", "fleet"), "selthrottle/internal/fleet")
}

func TestDeterminism(t *testing.T) {
	runFixture(t, Determinism, fixture("determinism", "inscope"), "selthrottle/internal/sim")
}

func TestDeterminismGridCarveOut(t *testing.T) {
	runFixture(t, Determinism, fixture("determinism", "grid"), "selthrottle/internal/grid")
}

func TestDeterminismFleetScope(t *testing.T) {
	runFixture(t, Determinism, fixture("determinism", "fleet"), "selthrottle/internal/fleet")
}

func TestDeterminismOutOfScope(t *testing.T) {
	runFixture(t, Determinism, fixture("determinism", "outofscope"), "selthrottle/internal/store")
}

func TestHotAlloc(t *testing.T) {
	runFixture(t, HotAlloc, fixture("hotalloc"), "selthrottle/internal/lint/testdata/hotalloc")
}
