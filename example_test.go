package hare_test

import (
	"fmt"
	"sort"

	"hare"
)

// ExampleNewScheduler plans a deterministic workload with Hare and
// validates the plan against the paper's feasibility constraints.
func ExampleNewScheduler() {
	cl := hare.HeterogeneousCluster(hare.MidHeterogeneity, 4)
	_, in, _, err := hare.BuildWorkload(hare.WorkloadConfig{
		Jobs: 4, Seed: 1, RoundsScale: 0.05,
	}, cl)
	if err != nil {
		panic(err)
	}
	plan, err := hare.NewScheduler().Schedule(in)
	if err != nil {
		panic(err)
	}
	fmt.Println("feasible:", hare.Validate(in, plan) == nil)
	fmt.Println("tasks placed:", in.NumTasks())
	// Output:
	// feasible: true
	// tasks placed: 64
}

// ExampleSimulate replays a plan with Hare's fast task switching and
// reports the realized objective.
func ExampleSimulate() {
	cl := hare.HeterogeneousCluster(hare.HighHeterogeneity, 4)
	_, in, models, err := hare.BuildWorkload(hare.WorkloadConfig{
		Jobs: 4, Seed: 2, RoundsScale: 0.05,
	}, cl)
	if err != nil {
		panic(err)
	}
	plan, err := hare.NewScheduler().Schedule(in)
	if err != nil {
		panic(err)
	}
	res, err := hare.Simulate(in, plan, cl, models, hare.SimOptions{
		Scheme: hare.SwitchHare, Speculative: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("all jobs finished:", len(res.JobCompletion) == len(in.Jobs))
	fmt.Println("weighted JCT positive:", res.WeightedJCT > 0)
	// Output:
	// all jobs finished: true
	// weighted JCT positive: true
}

// ExampleSchedulers lists the paper's evaluation lineup.
func ExampleSchedulers() {
	var names []string
	for _, a := range hare.Schedulers() {
		names = append(names, a.Name())
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Println(n)
	}
	// Output:
	// Gavel_FIFO
	// Hare
	// SRTF
	// Sched_Allox
	// Sched_Homo
}

// ExampleSwitchCost contrasts the three switching schemes for one
// model pair on a V100.
func ExampleSwitchCost() {
	from, _ := hare.ModelByName("GraphSAGE")
	to, _ := hare.ModelByName("ResNet50")
	d := hare.SwitchCost(hare.SwitchDefault, hare.V100, from, to, false)
	p := hare.SwitchCost(hare.SwitchPipeSwitch, hare.V100, from, to, false)
	h := hare.SwitchCost(hare.SwitchHare, hare.V100, from, to, true)
	fmt.Println("default is seconds-scale:", d.Total() > 1)
	fmt.Println("pipeswitch is ms-scale:", p.Total() < 0.05)
	fmt.Println("hare hit is sub-ms:", h.Total() < 0.001)
	// Output:
	// default is seconds-scale: true
	// pipeswitch is ms-scale: true
	// hare hit is sub-ms: true
}

// ExampleModelZoo shows the Fig. 2 calibration anchors.
func ExampleModelZoo() {
	resnet, _ := hare.ModelByName("ResNet50")
	sage, _ := hare.ModelByName("GraphSAGE")
	fmt.Printf("ResNet50 on V100: %.1fx\n", resnet.Speedup(hare.V100.Speed))
	fmt.Printf("GraphSAGE on V100: %.1fx\n", sage.Speedup(hare.V100.Speed))
	// Output:
	// ResNet50 on V100: 7.0x
	// GraphSAGE on V100: 1.9x
}
