package experiments

import (
	"fmt"
	"math"

	"hare/internal/stats"
)

// Multi-seed aggregation: every headline number in the evaluation is
// a point estimate from one seeded workload; MultiSeed re-runs a
// sweep across independent seeds and reports mean ± stddev per
// scheme, so EXPERIMENTS.md's "who wins by what factor" claims can be
// checked for seed-robustness (cmd/harebench -experiment ext-seeds).

// SeedStats is one scheme's weighted JCT across seeds.
type SeedStats struct {
	Scheme string
	Mean   float64
	Std    float64
	N      int
}

// MultiSeedRow aggregates one sweep setting across seeds.
type MultiSeedRow struct {
	Label string
	Stats []SeedStats
}

// MultiSeed runs the sweep `run` with three seeds derived from
// cfg.Seed and aggregates per (setting, scheme). Every seed must yield
// the same settings and scheme lineup.
func MultiSeed(cfg Config, run func(Config) ([]SweepRow, error)) ([]MultiSeedRow, error) {
	const seeds = 3
	cfg = cfg.Defaults()

	// Seeds are fully independent sweeps, so they fan out first; each
	// derived Config carries the shared pool, so a sweep's own points
	// keep fanning out on whatever workers the other seeds leave idle.
	// Aggregation below walks perSeed in seed order, making the output
	// independent of completion order.
	perSeed := make([][]SweepRow, seeds)
	err := cfg.pool.forEach(seeds, func(s int) error {
		c := cfg
		c.Seed = cfg.Seed + int64(s)*1009
		rows, err := run(c)
		if err != nil {
			return fmt.Errorf("experiments: seed %d: %w", c.Seed, err)
		}
		perSeed[s] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Seed 0's rows fix the settings and the lineup; cell (i, j) of every
	// other seed must be the same setting and scheme.
	out := make([]MultiSeedRow, len(perSeed[0]))
	for i, first := range perSeed[0] {
		out[i].Label = first.Label
		for j, res := range first.Results {
			values := make([]float64, seeds)
			for s, rows := range perSeed {
				if len(rows) != len(perSeed[0]) || rows[i].Label != first.Label ||
					len(rows[i].Results) != len(first.Results) || rows[i].Results[j].Scheme != res.Scheme {
					return nil, fmt.Errorf("experiments: seed %d of %d has no %q result for %q", s+1, seeds, res.Scheme, first.Label)
				}
				values[s] = rows[i].Results[j].WeightedJCT
			}
			sum := stats.Summarize(values)
			out[i].Stats = append(out[i].Stats, SeedStats{Scheme: res.Scheme, Mean: sum.Mean, Std: sum.Stddev, N: seeds})
		}
	}
	return out, nil
}

// HareLeadConfidence summarizes, across a multi-seed row, whether
// Hare's mean beats every other scheme's mean by more than the
// combined noise (one pooled standard deviation).
func HareLeadConfidence(row MultiSeedRow) (leads bool, worstMargin float64) {
	var hare SeedStats
	for _, s := range row.Stats {
		if s.Scheme == "Hare" {
			hare = s
		}
	}
	leads = true
	worstMargin = math.Inf(1)
	for _, s := range row.Stats {
		if s.Scheme == "Hare" {
			continue
		}
		noise := math.Sqrt(hare.Std*hare.Std + s.Std*s.Std)
		margin := s.Mean - hare.Mean - noise
		if margin < worstMargin {
			worstMargin = margin
		}
		if s.Mean <= hare.Mean {
			leads = false
		}
	}
	return leads, worstMargin
}
