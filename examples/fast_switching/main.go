// Fast-switching walkthrough: compares the three task-switching
// schemes (Default, PipeSwitch, Hare) per model, then demonstrates
// the speculative memory manager end to end by alternating two jobs
// on one V100 in the in-process testbed and measuring the actual
// switching stalls — Table 3 and Fig. 7/8 of the paper, live.
//
//	go run ./examples/fast_switching
package main

import (
	"fmt"
	"log"

	"hare"
	"hare/internal/metrics"
)

func main() {
	costTable()
	liveAlternation()
}

// costTable prints the modeled switch-into cost of every Table 2
// model under each scheme (cold, i.e. no speculative residency).
func costTable() {
	fmt.Println("== modeled switch cost into each model on a V100 (from ResNet50) ==")
	from, err := hare.ModelByName("ResNet50")
	if err != nil {
		log.Fatal(err)
	}
	var rows [][]string
	for _, m := range hare.ModelZoo() {
		if m.Name == from.Name {
			continue
		}
		d := hare.SwitchCost(hare.SwitchDefault, hare.V100, from, m, false)
		p := hare.SwitchCost(hare.SwitchPipeSwitch, hare.V100, from, m, false)
		h := hare.SwitchCost(hare.SwitchHare, hare.V100, from, m, false)
		hres := hare.SwitchCost(hare.SwitchHare, hare.V100, from, m, true)
		rows = append(rows, []string{
			m.Name,
			metrics.FormatSeconds(d.Total()),
			metrics.FormatSeconds(p.Total()),
			metrics.FormatSeconds(h.Total()),
			metrics.FormatSeconds(hres.Total()),
		})
	}
	fmt.Print(metrics.Table(
		[]string{"model", "Default", "PipeSwitch", "Hare (miss)", "Hare (resident)"}, rows))
	fmt.Println()
}

// liveAlternation runs GraphSAGE and ResNet50 alternating on a single
// V100 in the real (goroutine) testbed under each scheme and reports
// the measured switching overhead and weighted JCT.
func liveAlternation() {
	fmt.Println("== live alternation of GraphSAGE and ResNet50 on one V100 ==")
	cl := hare.NewCluster([]hare.ClusterSpec{{Type: hare.V100, Count: 1}}, 1)

	graphsage, err := hare.ModelByName("GraphSAGE")
	if err != nil {
		log.Fatal(err)
	}
	resnet, err := hare.ModelByName("ResNet50")
	if err != nil {
		log.Fatal(err)
	}
	models := []*hare.Model{graphsage, resnet}

	const rounds = 8
	in := &hare.Instance{NumGPUs: 1}
	for i, m := range models {
		in.Jobs = append(in.Jobs, &hare.Job{
			ID: hare.JobID(i), Name: m.Name, Model: m.Name, Weight: 1,
			Rounds: rounds, Scale: 1,
		})
		// One task = 20 mini-batches on the V100; no network sync
		// (single worker).
		batch := m.BatchSeconds(hare.V100.Speed, 1)
		in.Train = append(in.Train, []float64{batch * 20})
		in.Sync = append(in.Sync, []float64{0})
	}
	// Strict alternation plan.
	plan := hare.NewSchedule(in)
	t := 0.0
	for r := 0; r < rounds; r++ {
		for j := range models {
			plan.Place(hare.TaskRef{Job: hare.JobID(j), Round: r}, 0, t)
			t += in.Train[j][0]
		}
	}

	var rows [][]string
	for _, scheme := range []hare.SwitchScheme{hare.SwitchDefault, hare.SwitchPipeSwitch, hare.SwitchHare} {
		res, err := hare.RunTestbed(in, plan, cl, models, hare.TestbedOptions{
			TimeScale:   2e-3,
			Scheme:      scheme,
			Speculative: scheme == hare.SwitchHare,
		})
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, []string{
			scheme.String(),
			fmt.Sprintf("%.1f", res.WeightedJCT),
			metrics.FormatSeconds(res.TotalSwitch),
			fmt.Sprintf("%d", res.SwitchCount),
			fmt.Sprintf("%d", res.ResidencyHits),
		})
	}
	fmt.Print(metrics.Table(
		[]string{"scheme", "weighted JCT", "measured switch time", "switches", "residency hits"}, rows))
}
