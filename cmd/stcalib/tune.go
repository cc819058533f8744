package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
)

// tuneHardFreq searches, per profile, for the HardFreqOverride (the hard
// diamond's gate frequency) that lands the measured gshare misprediction
// rate closest to the paper's Table 2 value. It tries every frequency from
// 0.05 to 1.0 in steps of 0.05 and keeps the best. It prints the results
// as lines to paste into internal/prog/profile.go. Canceling ctx (Ctrl-C)
// stops the search and suppresses the paste block — a partial grid search
// would print wrong constants.
func tuneHardFreq(ctx context.Context, n, warmup uint64) int {
	profiles := prog.Profiles()
	type result struct {
		name string
		freq float64
		miss float64
	}
	results := make([]result, len(profiles))
	var wg sync.WaitGroup
	var sup sim.Supervisor
	for i, p := range profiles {
		wg.Add(1)
		go func(i int, p prog.Profile) {
			defer wg.Done()
			// Grid search: the miss-rate response to the gate frequency
			// is monotone only on average (hot-loop phases shift), so a
			// best-seen grid beats bisection here.
			target := p.PaperMissPct / 100
			best, bestMiss, bestErr := 0.5, 0.0, math.Inf(1)
			for f := 0.05; f <= 1.0001; f += 0.05 {
				p.HardFreqOverride = f
				cfg := sim.Default()
				cfg.Instructions = n
				cfg.Warmup = warmup
				r, st := sup.RunPointE(ctx, cfg, p)
				if !st.OK() {
					return // canceled or failed: this profile reports nothing
				}
				if err := math.Abs(r.MissRate - target); err < bestErr {
					best, bestMiss, bestErr = f, r.MissRate, err
				}
			}
			results[i] = result{p.Name, best, bestMiss}
		}(i, p)
	}
	wg.Wait()
	if ctx.Err() != nil {
		fmt.Println("== tuning interrupted; no constants to paste")
		return 1
	}
	fmt.Println("== tuned gate frequencies (paste HardFreqOverride into profiles)")
	for i, r := range results {
		fmt.Printf("%-10s HardFreqOverride: %.3f,   // measured miss %.1f%% target %.1f%%\n",
			r.name, r.freq, 100*r.miss, profiles[i].PaperMissPct)
	}
	return 0
}
