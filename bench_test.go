// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark runs a scaled-down version of
// the corresponding reproduction and reports the headline quantities via
// b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's result set in one pass. cmd/hpca03 runs the same
// experiments at full scale with per-benchmark detail.
package selthrottle_test

import (
	"context"
	"testing"
	"time"

	"selthrottle/internal/power"
	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
)

// benchOpts returns a reduced-scale options set: large enough for stable
// ratios, small enough to keep the full suite to minutes.
func benchOpts() sim.Options {
	return sim.Options{Instructions: 60000, Warmup: 15000}
}

// report pushes a figure row's average metrics into the benchmark output.
func report(b *testing.B, prefix string, c sim.Comparison) {
	b.ReportMetric(c.Speedup, prefix+"_speedup")
	b.ReportMetric(c.PowerSaving, prefix+"_power_sav_%")
	b.ReportMetric(c.EnergySaving, prefix+"_energy_sav_%")
	b.ReportMetric(c.EDImprovement, prefix+"_ED_improv_%")
}

// BenchmarkTable1PowerBreakdown regenerates Table 1: the baseline power
// breakdown and the fraction of overall power wasted by mis-speculated
// instructions (paper: 27.9 % overall, 56.4 W total).
func BenchmarkTable1PowerBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1, err := sim.RunTable1E(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t1.TotalWatts, "total_W")
		b.ReportMetric(100*t1.WastedTotal, "wasted_%")
		b.ReportMetric(100*t1.Shares[power.UnitClock], "clock_share_%")
		b.ReportMetric(100*t1.Shares[power.UnitWindow], "window_share_%")
	}
}

// BenchmarkTable2Benchmarks regenerates Table 2: per-benchmark gshare
// misprediction rates (paper: 6.8-19.7 %).
func BenchmarkTable2Benchmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.RunTable2E(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var avg float64
		for _, r := range rows {
			avg += 100 * r.MeasuredMiss / float64(len(rows))
		}
		b.ReportMetric(avg, "avg_miss_%")
		for _, r := range rows {
			if r.Profile.Name == "go" {
				b.ReportMetric(100*r.MeasuredMiss, "go_miss_%")
			}
		}
	}
}

// BenchmarkFig1Oracles regenerates Figure 1: the oracle fetch/decode/select
// limit study (paper: oracle fetch saves ~21 % power / 24 % energy).
func BenchmarkFig1Oracles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sim.RunFigure("fig1", sim.OracleExperiments(), benchOpts())
		for _, id := range []string{"oracle-fetch", "oracle-decode", "oracle-select"} {
			row, _ := fr.Row(id)
			report(b, id, row.Average)
		}
	}
}

// BenchmarkFig3FetchThrottling regenerates Figure 3: fetch throttling
// experiments A1-A7 (paper: A5 best trade at 11.7 % energy, 8.6 % E-D).
func BenchmarkFig3FetchThrottling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sim.RunFigure("fig3", sim.FetchExperiments(), benchOpts())
		for _, id := range []string{"A1", "A5", "A6", "A7"} {
			row, _ := fr.Row(id)
			report(b, id, row.Average)
		}
	}
}

// BenchmarkFig4DecodeThrottling regenerates Figure 4: decode throttling
// experiments B1-B9 (paper: aggressive decode stalls hurt E-D; B7 = 11.9 %
// energy).
func BenchmarkFig4DecodeThrottling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sim.RunFigure("fig4", sim.DecodeExperiments(), benchOpts())
		for _, id := range []string{"B1", "B3", "B7", "B9"} {
			row, _ := fr.Row(id)
			report(b, id, row.Average)
		}
	}
}

// BenchmarkFig5SelectionThrottling regenerates Figure 5: the novel
// selection-throttling heuristic (paper: C2 best overall, 13.5 % energy,
// +~2 pp over C1 from no-select).
func BenchmarkFig5SelectionThrottling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sim.RunFigure("fig5", sim.SelectionExperiments(), benchOpts())
		for _, id := range []string{"C1", "C2", "C6", "C7"} {
			row, _ := fr.Row(id)
			report(b, id, row.Average)
		}
	}
}

// BenchmarkFig6PipelineDepth regenerates Figure 6: C2's savings across
// pipeline depths (paper: energy savings 11 % at 6 stages to 17.2 % at 28).
func BenchmarkFig6PipelineDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := sim.DepthSweepE(context.Background(), benchOpts(), []int{6, 14, 28})
		for _, p := range points {
			switch p.X {
			case 6:
				b.ReportMetric(p.Average.EnergySaving, "d6_energy_sav_%")
			case 14:
				b.ReportMetric(p.Average.EnergySaving, "d14_energy_sav_%")
			case 28:
				b.ReportMetric(p.Average.EnergySaving, "d28_energy_sav_%")
			}
		}
	}
}

// BenchmarkFig7TableSize regenerates Figure 7: C2's savings across
// predictor+estimator budgets (paper: power savings 20.3 % at 8 KB falling
// to 16.5 % at 64 KB; energy/E-D roughly flat).
func BenchmarkFig7TableSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := sim.SizeSweepE(context.Background(), benchOpts(), []int{8, 64})
		for _, p := range points {
			switch p.X {
			case 8:
				b.ReportMetric(p.Average.PowerSaving, "kb8_power_sav_%")
			case 64:
				b.ReportMetric(p.Average.PowerSaving, "kb64_power_sav_%")
			}
		}
	}
}

// BenchmarkConfidenceQuality regenerates the §4.3 estimator quality numbers
// (paper: BPRU SPEC 60 % / PVN 45 %; JRS SPEC 90 % / PVN 24 %).
func BenchmarkConfidenceQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		crs, err := sim.RunConfidenceE(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, cr := range crs {
			b.ReportMetric(100*cr.SPEC, string(cr.Estimator)+"_SPEC_%")
			b.ReportMetric(100*cr.PVN, string(cr.Estimator)+"_PVN_%")
		}
	}
}

// BenchmarkAblationEstimatorCross regenerates the estimator/mechanism
// cross ablation: how much of Selective Throttling's edge over Pipeline
// Gating comes from the graded policy vs the estimator pairing.
func BenchmarkAblationEstimatorCross(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sim.RunFigure("cross", sim.EstimatorCrossExperiments(), benchOpts())
		for _, id := range []string{"C2-bpru", "C2-jrs", "PG-jrs", "PG-bpru"} {
			row, _ := fr.Row(id)
			b.ReportMetric(row.Average.EnergySaving, id+"_energy_sav_%")
		}
	}
}

// BenchmarkSingleRun measures one scaled-down sim.Run end to end — the unit
// of work every figure and sweep above is built from — and reports allocs/op
// so the hot path's allocation behaviour lands in the benchmark trajectory.
// Result caching is disabled: this benchmark gauges the simulator itself,
// not the memo table in front of it.
func BenchmarkSingleRun(b *testing.B) {
	profile, _ := prog.ProfileByName("go")
	cfg := sim.Default()
	cfg.Instructions = 32000
	cfg.Warmup = 8000
	prev := sim.SetResultCaching(false)
	defer sim.SetResultCaching(prev)
	sim.Run(cfg, profile) // warm the program cache and runner pool
	sim.Run(cfg, profile) // settle pool and wakeup-list high-water marks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(cfg, profile)
	}
}

// BenchmarkIssueStage isolates the issue stage on an enlarged instruction
// window (256 entries — double Table 3), where wakeup/select dominates the
// cycle loop. The sub-benchmark name (event) is the one CI's same-runner
// comparison pairs head with base by.
func BenchmarkIssueStage(b *testing.B) {
	prev := sim.SetResultCaching(false)
	defer sim.SetResultCaching(prev)
	b.Run("event", func(b *testing.B) {
		profile, _ := prog.ProfileByName("gcc")
		cfg := sim.Default()
		cfg.Pipe.WindowSize = 256
		cfg.Pipe.LSQSize = 128
		cfg.Instructions = 24000
		cfg.Warmup = 6000
		sim.Run(cfg, profile)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Run(cfg, profile)
		}
	})
}

// BenchmarkFrontEnd isolates the in-order front end on a front-end-bound
// shape (28-stage pipe: 12-deep fetch and decode pipes, so refill traffic
// after every squash dominates). The sub-benchmark keeps its name (fused)
// for CI's same-runner comparison.
func BenchmarkFrontEnd(b *testing.B) {
	prev := sim.SetResultCaching(false)
	defer sim.SetResultCaching(prev)
	b.Run("fused", func(b *testing.B) {
		profile, _ := prog.ProfileByName("go")
		cfg := sim.Default()
		cfg.Pipe.SetDepth(28)
		cfg.Instructions = 24000
		cfg.Warmup = 6000
		sim.Run(cfg, profile)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Run(cfg, profile)
		}
	})
}

// BenchmarkSquashHeavy isolates the power-attribution machinery on the shape
// where it dominates: the highest-misprediction profile on the deepest pipe
// (28 stages) with a doubled instruction window (256 entries, as in
// BenchmarkIssueStage), so every flush squashes the largest possible
// population of in-flight work and folds its epochs' events into the wasted
// pool. The sub-benchmark keeps its name (epoch) for CI's same-runner
// comparison.
func BenchmarkSquashHeavy(b *testing.B) {
	prev := sim.SetResultCaching(false)
	defer sim.SetResultCaching(prev)
	b.Run("epoch", func(b *testing.B) {
		profile, _ := prog.ProfileByName("go")
		cfg := sim.Default()
		cfg.Pipe.SetDepth(28)
		cfg.Pipe.WindowSize = 256
		cfg.Pipe.LSQSize = 128
		cfg.Instructions = 24000
		cfg.Warmup = 6000
		sim.Run(cfg, profile)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Run(cfg, profile)
		}
	})
}

// BenchmarkWalkerNext isolates the workload walker on the
// highest-misprediction profile: each op is one NextGroup call into an
// 8-slot fetch buffer, the call the cycle loop's fetch stage makes. The
// sub-benchmark keeps its name (fast) for CI's same-runner comparison.
func BenchmarkWalkerNext(b *testing.B) {
	profile, _ := prog.ProfileByName("go")
	program := prog.Generate(profile)
	b.Run("fast", func(b *testing.B) {
		w := prog.NewWalker(program)
		var buf [8]prog.DynInst
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := w.NextGroup(buf[:])
			if d := &buf[k-1]; d.BrID != prog.NoBranch {
				w.Steer(d.Taken)
				w.Release(d)
			}
		}
	})
}

// BenchmarkDepthSweep measures the Figure 6 grid (12 depths x C2+baseline x
// all profiles) cold and then repeated, demonstrating the result cache: the
// warm pass re-serves every grid point from the memo table, so the repeat
// costs a vanishing fraction of the cold sweep (cache_win_%).
func BenchmarkDepthSweep(b *testing.B) {
	opts := sim.Options{Instructions: 20000, Warmup: 5000}
	var depths []int
	for d := 6; d <= 28; d += 2 {
		depths = append(depths, d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.ClearResultCache()
		t0 := time.Now()
		cold := sim.DepthSweepE(context.Background(), opts, depths)
		coldT := time.Since(t0)
		t1 := time.Now()
		warm := sim.DepthSweepE(context.Background(), opts, depths)
		warmT := time.Since(t1)
		if len(cold) != len(warm) || cold[0].Average != warm[0].Average {
			b.Fatal("cached sweep diverged from cold sweep")
		}
		b.ReportMetric(float64(coldT.Milliseconds()), "cold_ms")
		b.ReportMetric(float64(warmT.Milliseconds()), "warm_ms")
		b.ReportMetric(100*(1-warmT.Seconds()/coldT.Seconds()), "cache_win_%")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (instructions
// simulated per wall-clock second), the engineering budget every experiment
// above spends. Result caching is disabled so every iteration simulates.
func BenchmarkSimulatorThroughput(b *testing.B) {
	profile, _ := prog.ProfileByName("gzip")
	cfg := sim.Default()
	cfg.Instructions = 50000
	cfg.Warmup = 5000
	prev := sim.SetResultCaching(false)
	defer sim.SetResultCaching(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(cfg, profile)
	}
	insts := float64(cfg.Instructions+cfg.Warmup) * float64(b.N)
	b.ReportMetric(insts/b.Elapsed().Seconds(), "sim_instrs/s")
}
