package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpecMatchesCode pins BENCHMARK.json's workload and metric lists to the
// ones the driver runs and emits.
func TestSpecMatchesCode(t *testing.T) {
	if _, err := readSpec(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
}

// TestQuartilesMatchPython checks quartiles against values printed by
// Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7, 1, 3}, [3]float64{1, 3, 7}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestSmoke runs every workload and one traced run at smoke scale, end to
// end through the built binaries, and checks the result contract: the last
// line is a correct result that round-trips through JSON and carries every
// metric BENCHMARK.json names, finite and in its unit, and nothing else.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the repository's commands and runs every workload")
	}
	spec, err := readSpec(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	build := t.TempDir()
	type smokeRun struct {
		args  []string
		trace bool
	}
	runs := []smokeRun{{[]string{"--workload", "grid-cold", "--trace", "1", "--trace-file", filepath.Join(build, "trace.ndjson")}, true}}
	for _, w := range workloadOrder {
		runs = append(runs, smokeRun{[]string{"--workload", w, "--trace", "0"}, false})
	}
	for _, r := range runs {
		args := append(r.args, "--smoke", "--seconds", "1", "--seed", "3", "--root", filepath.Join("..", ".."), "--build-dir", build)
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("stbench %v: exit %d\n%s", args, code, stderr.String())
		}
		res, err := parseResult(stdout.Bytes())
		if err != nil {
			t.Fatalf("stbench %v: %v\n%s", args, err, stdout.String())
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("stbench %v: attempted %d, failed %d", args, res.Attempted, res.Failed)
		}
		want := spec.EndToEnd
		if r.trace {
			want = spec.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("stbench %v: %d metrics, want %d", args, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("stbench %v: metric %s = %+v (present %v), want a finite value in %s", args, m.Name, got, ok, m.Unit)
			}
		}
		again, err := json.Marshal(res)
		if printed := lastLine(stdout.Bytes()); err != nil || string(again) != printed {
			t.Errorf("stbench %v: result line does not round-trip: %v\n%s\n%s", args, err, printed, again)
		}
	}
	trace, err := os.ReadFile(filepath.Join(build, "trace.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(trace)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil || s.End < s.Start || s.Workload != "grid-cold" {
			t.Fatalf("trace line %d: %q: %v", i+1, line, err)
		}
	}
}
