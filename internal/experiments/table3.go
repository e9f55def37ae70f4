package experiments

import (
	"hare/internal/cluster"
	"hare/internal/model"
	"hare/internal/profile"
	"hare/internal/sim"
	"hare/internal/switching"
)

// Table3Row is one model's average switching cost per scheme, with
// the paper's parenthetical overhead percentage (switch ÷ (switch +
// task time)).
type Table3Row struct {
	Model string
	// Seconds[scheme] is the mean cost of a switch into this model.
	Seconds map[string]float64
	// Percent[scheme] is the overhead as % of total task time.
	Percent map[string]float64
	// HareHitRate is the speculative-memory hit rate measured in the
	// Hare rotation run.
	HareHitRate float64
}

// Table3Switching reproduces Table 3: the average task-switching time
// of each Table 2 model under Default, PipeSwitch and Hare switching.
// Default and PipeSwitch costs are averaged over switches from every
// other model in the zoo. The Hare number is *measured* from a
// simulated rotation of four jobs sharing one V100 with speculative
// memory on, so it reflects the real mix of residency hits and
// misses under memory pressure.
func Table3Switching() ([]Table3Row, error) {
	zoo := model.Zoo()
	prof := profile.New(profile.Options{})
	gpu := cluster.V100
	rows := make([]Table3Row, 0, len(zoo))
	for _, m := range zoo {
		row := Table3Row{
			Model:   m.Name,
			Seconds: make(map[string]float64, 3),
			Percent: make(map[string]float64, 3),
		}
		task := prof.TrainTime(m, gpu, 1)
		for _, s := range []switching.Scheme{switching.Default, switching.PipeSwitch} {
			var sum float64
			n := 0
			for _, prev := range zoo {
				if prev.Name == m.Name {
					continue
				}
				sum += switching.Cost(s, gpu, prev, m, false).Total()
				n++
			}
			avg := sum / float64(n)
			row.Seconds[s.String()] = avg
			row.Percent[s.String()] = switching.OverheadPercent(avg, task)
		}
		hareAvg, hitRate, err := hareRotationSwitch(m)
		if err != nil {
			return nil, err
		}
		row.Seconds[switching.Hare.String()] = hareAvg
		row.Percent[switching.Hare.String()] = switching.OverheadPercent(hareAvg, task)
		row.HareHitRate = hitRate
		rows = append(rows, row)
	}
	return rows, nil
}

// rotationPartners picks three partners for the rotation workload,
// cycling through the zoo deterministically.
func rotationPartners(target *model.Model) []*model.Model {
	zoo := model.Zoo()
	var out []*model.Model
	for i := 0; len(out) < 3; i++ {
		cand := zoo[i%len(zoo)]
		if cand.Name != target.Name {
			out = append(out, cand)
		}
	}
	return out
}

// hareRotationSwitch measures the mean Hare switch cost into the
// target model while four jobs rotate on one V100 — the speculative
// memory manager keeps what fits and evicts under pressure.
func hareRotationSwitch(target *model.Model) (float64, float64, error) {
	models := append([]*model.Model{target}, rotationPartners(target)...)
	res, err := rotateOnV100(models, 8, sim.Options{Scheme: switching.Hare, Speculative: true})
	if err != nil {
		return 0, 0, err
	}
	var sum float64
	n := 0
	for _, rec := range res.Trace.Records {
		if rec.Task.Job == 0 && rec.Switch > 0 {
			sum += rec.Switch
			n++
		}
	}
	if n == 0 {
		return 0, 0, nil
	}
	hitRate := float64(res.ResidencyHits) / float64(res.SwitchCount)
	return sum / float64(n), hitRate, nil
}
