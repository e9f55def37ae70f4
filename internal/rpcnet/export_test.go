package rpcnet

import (
	"time"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/model"
)

// Hooks for the external rpcnet_test package, whose tests also import
// packages built on this one (manager, chaos).

var ChaosWorkload = chaosWorkload

// ServeWithConfigScale serves the batch on a mem: listener at TimeScale
// 1e-3 but answers every Config with scale: the reply of a coordinator
// that keeps another clock rule than this build.
func ServeWithConfigScale(in *core.Instance, plan *core.Schedule, cl *cluster.Cluster, models []*model.Model, scale float64) (*Server, string, error) {
	co, err := newDistributed(in, plan, cl, models, DistributedOptions{TimeScale: 1e-3, LeaseTimeout: time.Hour})
	if err != nil {
		return nil, "", err
	}
	co.opts.TimeScale = scale
	lis, err := listen("mem:")
	if err != nil {
		return nil, "", err
	}
	srv, addr, _, err := co.serve(lis)
	return srv, addr, err
}

// JournalWithScale returns a memory journal holding the batch's first
// snapshot, written at TimeScale 1e-3 and rewritten to carry scale.
func JournalWithScale(in *core.Instance, plan *core.Schedule, cl *cluster.Cluster, models []*model.Model, scale float64) (*Journal, error) {
	j := NewMemJournal()
	co, err := newDistributed(in, plan, cl, models, DistributedOptions{TimeScale: 1e-3, Journal: j})
	if err != nil {
		return nil, err
	}
	co.kill()
	snap, _, _, err := j.read()
	if err != nil {
		return nil, err
	}
	snap.Opts.TimeScale = scale
	_, err = j.writeSnapshot(snap)
	return j, err
}
