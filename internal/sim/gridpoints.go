package sim

// Grid enumeration: the deterministic point list behind fleet dispatch. The
// coordinator (hpca03 -fleet or -workers) and every worker it sends points
// to expand the same experiment selection into the same list, index for
// index, so a request can name a point by its grid ID and index, and the
// report that renders after dispatch finds every point it simulates already
// published. EnumerateGrid reads that list off the report catalogue
// (report.go): each block's configurations on every profile, keyed by the
// same canonical SHA-256 the disk store files their Results under.

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
// pair) under opts into the unique simulation points its report runs,
// deduplicated by canonical key in first-appearance order. The order and
// membership are deterministic — pure functions of (exp, id, opts) — so a
// fleet coordinator and its workers enumerating the same selection agree on
// every point's index and on the grid's identity.
func EnumerateGrid(exp, id string, opts Options) ([]GridPoint, error) {
	blocks, err := reportBlocks(exp, id)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	opts = opts.withDefaults()
	var pts []GridPoint
	// Overlapping baselines (every figure shares them) are one point.
	seen := make(map[store.Key]struct{})
	for _, b := range blocks {
		if b.configs == nil {
			continue
		}
		for _, cfg := range b.configs(opts) {
			for _, p := range opts.Profiles {
				g := GridPoint{Cfg: cfg, Profile: p}
				k := g.Key()
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				pts = append(pts, g)
			}
		}
	}
	return pts, nil
}
