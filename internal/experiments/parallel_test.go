package experiments

// Serial/parallel equivalence: the parallel engine must be invisible
// in the output. Every test compares a serial run against a parallel
// run of the same Config with reflect.DeepEqual on the full typed rows
// (reports and fairness included). scripts/check.sh runs this file
// under -race, which also exercises the pool's index-disjoint writes.

import (
	"reflect"
	"testing"
)

// parallelCfg is smallCfg with an oversubscribed pool (more workers
// than any single fan-out level), maximizing interleaving.
func parallelCfg() Config {
	cfg := smallCfg()
	cfg.Parallel = 8
	return cfg
}

func TestParallelMatchesSerialFig14(t *testing.T) {
	serial, err := Fig14GPUSweep(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig14GPUSweep(parallelCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Fatalf("fig14 parallel rows differ from serial\n got: %+v\nwant: %+v", par, serial)
	}
}

func TestParallelMatchesSerialFig16(t *testing.T) {
	serial, err := Fig16Heterogeneity(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig16Heterogeneity(parallelCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Fatalf("fig16 parallel rows differ from serial\n got: %+v\nwant: %+v", par, serial)
	}
}

func TestParallelMatchesSerialFig17(t *testing.T) {
	serial, err := Fig17JobMix(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig17JobMix(parallelCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Fatal("fig17 parallel rows differ from serial")
	}
}

func TestParallelMatchesSerialFig19(t *testing.T) {
	// Fig19 mutates RoundsScale per point — the per-point Config copy
	// must keep parallel points independent.
	serial, err := Fig19BatchSize(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig19BatchSize(parallelCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Fatal("fig19 parallel rows differ from serial")
	}
}

func TestParallelMatchesSerialMultiSeed(t *testing.T) {
	serial, err := MultiSeed(smallCfg(), Fig16Heterogeneity)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MultiSeed(parallelCfg(), Fig16Heterogeneity)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Fatalf("multi-seed parallel rows differ from serial\n got: %+v\nwant: %+v", par, serial)
	}
}

// TestParallelErrorMatchesSerial pins error equivalence: the parallel
// engine reports the error the serial loop would have hit first (the
// lowest-index failure), not whichever goroutine lost the race.
func TestParallelErrorMatchesSerial(t *testing.T) {
	cfg := smallCfg()
	cfg.GPUs = -4 // Defaults() fills only 0: the axis is -2, -3, -4, -5, -6 GPUs
	bad := func(c Config) ([]SweepRow, error) {
		// Every GPU count is invalid; serial fails on the first.
		_, err := Fig14GPUSweep(c)
		return nil, err
	}
	serial, serialErr := bad(cfg)
	if serialErr == nil {
		t.Skip("workload generation tolerated a negative fleet; nothing to compare")
	}
	cfgP := cfg
	cfgP.Parallel = 4
	par, parErr := bad(cfgP)
	if par != nil || serial != nil {
		t.Fatal("expected no rows on error")
	}
	if parErr == nil || parErr.Error() != serialErr.Error() {
		t.Fatalf("parallel error %v, serial error %v", parErr, serialErr)
	}
}

func TestWorkersResolution(t *testing.T) {
	for _, tc := range []struct {
		parallel int
		min      int
	}{
		{parallel: 0, min: 1},
		{parallel: 1, min: 1},
		{parallel: 6, min: 6},
		{parallel: -1, min: 1}, // GOMAXPROCS ≥ 1 always
	} {
		got := Config{Parallel: tc.parallel}.Workers()
		if got < tc.min {
			t.Errorf("Parallel=%d: Workers()=%d, want >=%d", tc.parallel, got, tc.min)
		}
		if tc.parallel > 1 && got != tc.parallel {
			t.Errorf("Parallel=%d: Workers()=%d", tc.parallel, got)
		}
	}
	if (Config{}).Defaults().pool != nil {
		t.Error("serial Defaults() should not allocate a pool")
	}
	if (Config{Parallel: 4}).Defaults().pool == nil {
		t.Error("Parallel=4 Defaults() should allocate a pool")
	}
}

// TestForEachNested exercises the try-acquire pool under nesting far
// deeper than any worker count — it must neither deadlock nor lose
// indices.
func TestForEachNested(t *testing.T) {
	p := newWorkerPool(2)
	outer := make([]int, 16)
	err := p.forEach(len(outer), func(i int) error {
		inner := make([]int, 8)
		if err := p.forEach(len(inner), func(j int) error {
			inner[j] = j + 1
			return nil
		}); err != nil {
			return err
		}
		sum := 0
		for _, v := range inner {
			sum += v
		}
		outer[i] = sum
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range outer {
		if v != 36 {
			t.Fatalf("outer[%d] = %d, want 36", i, v)
		}
	}
}
