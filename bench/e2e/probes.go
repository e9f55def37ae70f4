package main

import (
	"fmt"
	"os"
	"path/filepath"

	"hare/internal/cluster"
	"hare/internal/manager"
	"hare/internal/obs"
	"hare/internal/obs/critpath"
	"hare/internal/obs/dtrace"
	"hare/internal/obs/span"
	"hare/internal/rpcnet"
	"hare/internal/sim"
	"hare/internal/store"
	"hare/internal/switching"
	"hare/internal/testbed"
)

// Per-layer probes: short stand-alone measurements of one layer's
// public functions on the workload's own inputs. They run only on a
// traced run, after the traced pass, and each reports the median of
// sizes.probeReps repetitions.

// probeDirLog measures the device floor under the WAL: a bare
// DirLog.Append of an 800-byte record (write + fsync) and reading the
// records back.
func probeDirLog(e *env) (appendUS, readUS float64, err error) {
	dir, err := e.freshDir("dirlog")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	log, err := store.OpenDirLog(filepath.Join(dir, "wal.log"))
	if err != nil {
		return 0, 0, err
	}
	defer log.Close()
	rec := make([]byte, 800)
	const appends = 24
	var ds []float64
	for i := 0; i < appends; i++ {
		ds = append(ds, seconds(func() { err = log.Append(rec) }))
		if err != nil {
			return 0, 0, err
		}
	}
	var recs [][]byte
	read := seconds(func() { recs, err = log.Records() })
	if err != nil {
		return 0, 0, err
	}
	if len(recs) != appends {
		return 0, 0, fmt.Errorf("dirlog probe read %d records, appended %d", len(recs), appends)
	}
	return median(ds) * 1e6, read * 1e6 / appends, nil
}

// probeJournals runs one batch on the bare control plane with no
// journal, a memory journal and a directory journal: successive
// differences attribute wire+lock, gob encoding and fsync. The
// in-process testbed.Run of the same batch is the no-network floor.
func probeJournals(e *env, cl *cluster.Cluster, b *batch, m metricSet) error {
	type variant struct {
		journal       func() (*rpcnet.Journal, func(), error)
		total, serves []float64
		runs          []float64
	}
	none := &variant{journal: func() (*rpcnet.Journal, func(), error) { return nil, func() {}, nil }}
	mem := &variant{journal: func() (*rpcnet.Journal, func(), error) { return rpcnet.NewMemJournal(), func() {}, nil }}
	dir := &variant{journal: func() (*rpcnet.Journal, func(), error) {
		d, err := e.freshDir("probe-wal")
		if err != nil {
			return nil, nil, err
		}
		j, err := rpcnet.OpenDirJournal(d)
		if err != nil {
			return nil, nil, err
		}
		return j, func() { j.Close(); os.RemoveAll(d) }, nil
	}}
	// The three variants differ by tens of microseconds per task, so
	// they run interleaved and three times as often as other probes.
	for r := 0; r < 3*e.sz.probeReps; r++ {
		for _, v := range []*variant{none, mem, dir} {
			j, done, err := v.journal()
			if err != nil {
				return err
			}
			s, rn, res, err := runDirect(cl, b, rpcnet.DistributedOptions{Journal: j})
			done()
			if err != nil {
				return err
			}
			if err := checkExactlyOnce(b.in, res.Trace); err != nil {
				return err
			}
			v.total, v.serves, v.runs = append(v.total, s+rn), append(v.serves, s), append(v.runs, rn)
		}
	}
	perTask := func(v *variant) float64 { return median(v.total) * 1e6 / float64(b.tasks) }
	m.set("rpcnet.nojournal.us_per_task", perTask(none))
	m.set("rpcnet.memjournal.us_per_task", perTask(mem))
	m.set("rpcnet.dirjournal.us_per_task", perTask(dir))
	m.set("rpcnet.serve_s", median(dir.serves))
	m.set("rpcnet.run_s", median(dir.runs))

	var floor []float64
	for r := 0; r < e.sz.probeReps; r++ {
		var err error
		floor = append(floor, seconds(func() {
			_, err = testbed.Run(b.in, b.plan, cl, b.models, testbed.Options{TimeScale: distTimeScale})
		}))
		if err != nil {
			return err
		}
	}
	m.set("testbed.run.us_per_task", median(floor)*1e6/float64(b.tasks))
	return nil
}

// probeAttribution times what the manager runs after every batch: the
// canonical critical-path attribution, and its two folding stages on
// their own.
func probeAttribution(e *env, cl *cluster.Cluster, b *batch, m metricSet) error {
	opts := sim.Options{Scheme: switching.Hare, Speculative: true}
	var whole, build, analyze []float64
	for r := 0; r < e.sz.probeReps; r++ {
		var err error
		whole = append(whole, seconds(func() { _, _, err = critpath.PlanAttribution(b.in, b.plan, cl, b.models, opts) }))
		if err != nil {
			return err
		}
		collect := obs.NewCollectSink()
		o := opts
		o.Recorder = obs.NewRecorder(collect)
		if _, err := sim.Run(b.in, b.plan, cl, b.models, o); err != nil {
			return err
		}
		var tree *span.Tree
		build = append(build, seconds(func() { tree, err = span.Build(collect.Events()) }))
		if err != nil {
			return err
		}
		analyze = append(analyze, seconds(func() { _, err = critpath.Analyze(tree, b.in, cl) }))
		if err != nil {
			return err
		}
	}
	m.set("critpath.plan_attribution_s", median(whole))
	m.set("span.build_s", median(build))
	m.set("critpath.analyze_s", median(analyze))
	return nil
}

// probeObs measures what observability costs the control plane: one
// ring emit, a memory-journal batch with ring+registry against the same
// batch with neither, a batch with per-process fleet capture against
// one without, and the cross-process merge of the captured streams.
func probeObs(e *env, cl *cluster.Cluster, b *batch, m metricSet) error {
	ring := obs.NewRingSink(4096)
	rec := obs.NewRecorder(ring)
	const emits = 100_000
	d := seconds(func() {
		for i := 0; i < emits; i++ {
			rec.Emit(obs.Event{Type: obs.EvTaskStart, Time: float64(i), GPU: i & 3, Job: i & 7})
		}
	})
	m.set("obs.ring.emit_ns", d*1e9/emits)

	// Both comparisons are a few percent of a ~10 ms batch, so the two
	// sides run interleaved (drift hits both) and three times as often
	// as other probes.
	var on, off []float64
	for r := 0; r < 3*e.sz.probeReps; r++ {
		for _, observed := range []bool{false, true} {
			opts := rpcnet.DistributedOptions{Journal: rpcnet.NewMemJournal()}
			if observed {
				opts.Recorder, opts.Metrics = obs.NewRecorder(obs.NewRingSink(4096)), obs.NewRegistry()
			}
			s, rn, _, err := runDirect(cl, b, opts)
			if err != nil {
				return err
			}
			if observed {
				on = append(on, s+rn)
			} else {
				off = append(off, s+rn)
			}
		}
	}
	m.set("obs.enabled_overhead_share", median(on)/median(off)-1)

	traceDir, err := e.freshDir("fleet")
	if err != nil {
		return err
	}
	defer os.RemoveAll(traceDir)
	var captured, plain []float64
	for r := 0; r < 3*e.sz.probeReps; r++ {
		for _, capture := range []bool{false, true} {
			back := &manager.DistributedBackend{TimeScale: distTimeScale, Journal: rpcnet.NewMemJournal()}
			if capture {
				back.TraceDir = traceDir
			}
			mgr := manager.New(cl, manager.Options{Backend: back})
			for _, req := range b.reqs {
				if _, err := mgr.Submit(req); err != nil {
					return err
				}
			}
			var err error
			d := seconds(func() { _, err = mgr.ExecuteBatch() })
			if err != nil {
				return err
			}
			if capture {
				captured = append(captured, d)
			} else {
				plain = append(plain, d)
			}
		}
	}
	m.set("obs.fleet_capture_overhead_share", median(captured)/median(plain)-1)

	streams, err := dtrace.ReadDir(filepath.Join(traceDir, "batch-1"))
	if err != nil {
		return err
	}
	var merges []float64
	for r := 0; r < e.sz.probeReps; r++ {
		var err error
		merges = append(merges, seconds(func() { _, _, err = dtrace.Merge(streams) }))
		if err != nil {
			return err
		}
	}
	m.set("dtrace.merge_s", median(merges))
	return nil
}
