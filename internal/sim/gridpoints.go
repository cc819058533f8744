package sim

// Grid enumeration: the deterministic point list behind multi-worker
// sharding. A worker process must decide which points it owns without
// talking to anyone — worker i of N owns the points whose content address
// hashes to i mod N — which only works if every worker and the coordinator
// enumerate exactly the same grid in the same canonical terms. This file is
// that single source of truth: it expands an hpca03 experiment selection
// into its unique (Config, Profile) points, keyed by the same canonical
// SHA-256 the disk store files their Results under.

import (
	"fmt"

	"selthrottle/internal/prog"
	"selthrottle/internal/store"
)

// GridPoint is one (configuration, benchmark) cell of an experiment grid.
type GridPoint struct {
	Cfg     Config
	Profile prog.Profile
}

// Key content-addresses the point: the canonical SHA-256 under which the
// disk tier persists its Result. Two points with the same Key are the same
// simulation, whatever cosmetic differences their Configs carry.
func (g GridPoint) Key() store.Key { return PointKey(g.Cfg, g.Profile) }

// PointKey content-addresses a simulation point (see GridPoint.Key).
func PointKey(cfg Config, profile prog.Profile) store.Key {
	return diskKeyOf(cacheKey{canonicalConfig(cfg), canonicalProfile(profile)})
}

// EnumerateGrid expands an hpca03 experiment selection (the -exp/-id flag
// pair) under opts into the unique simulation points it runs, deduplicated
// by canonical key in first-appearance order. The order and membership are
// deterministic — pure functions of (exp, id, opts) — so a fleet
// coordinator and its workers enumerating the same selection agree on every
// point's index and on the grid's identity.
func EnumerateGrid(exp, id string, opts Options) ([]GridPoint, error) {
	opts = opts.withDefaults()
	var pts []GridPoint
	addCfgs := func(cfgs []Config) {
		for _, c := range cfgs {
			for _, p := range opts.Profiles {
				pts = append(pts, GridPoint{Cfg: c, Profile: p})
			}
		}
	}
	figure := func(exps []Experiment) { addCfgs(figureConfigs(opts, exps)) }
	sweep := func(vary func(Options) []Options) {
		for _, o := range vary(opts) {
			for _, c := range figureConfigs(o, []Experiment{BestExperiment()}) {
				for _, p := range o.Profiles {
					pts = append(pts, GridPoint{Cfg: c, Profile: p})
				}
			}
		}
	}
	one := func(exp string) error {
		switch exp {
		case "table3":
			// Static configuration dump; no simulation points.
		case "table1", "table2":
			addCfgs([]Config{opts.baseConfig()})
		case "conf":
			for _, kind := range []EstimatorKind{EstBPRU, EstJRS} {
				cfg := opts.baseConfig()
				cfg.Estimator = kind
				addCfgs([]Config{cfg})
			}
		case "fig1":
			figure(OracleExperiments())
		case "fig3":
			figure(FetchExperiments())
		case "fig4":
			figure(DecodeExperiments())
		case "fig5":
			figure(SelectionExperiments())
		case "ablation":
			figure(EstimatorCrossExperiments())
			figure(GateThresholdExperiments())
			figure(EscalationAblationExperiments())
		case "fig6":
			sweep(func(o Options) []Options {
				var out []Options
				for d := 6; d <= 28; d += 2 {
					v := o
					v.Depth = d
					out = append(out, v)
				}
				return out
			})
		case "fig7":
			sweep(func(o Options) []Options {
				var out []Options
				for _, kb := range []int{8, 16, 32, 64} {
					v := o
					v.PredBytes = kb * 1024 / 2
					v.ConfBytes = kb * 1024 / 2
					out = append(out, v)
				}
				return out
			})
		case "run":
			e, ok := ExperimentByID(id)
			if !ok {
				return fmt.Errorf("sim: unknown experiment id %q", id)
			}
			figure([]Experiment{e})
		default:
			return fmt.Errorf("sim: unknown experiment %q", exp)
		}
		return nil
	}
	if exp == "all" {
		for _, e := range []string{"table3", "table2", "table1", "conf", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7"} {
			if err := one(e); err != nil {
				return nil, err
			}
		}
	} else if err := one(exp); err != nil {
		return nil, err
	}
	// Dedup by canonical key, first appearance wins: overlapping baselines
	// (every figure shares them) must not be owned twice.
	seen := make(map[store.Key]struct{}, len(pts))
	uniq := pts[:0]
	for _, g := range pts {
		k := g.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		uniq = append(uniq, g)
	}
	return uniq, nil
}
