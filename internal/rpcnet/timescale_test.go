package rpcnet_test

import (
	"math"
	"testing"
	"time"

	"hare/internal/chaos"
	"hare/internal/manager"
	"hare/internal/rpcnet"
)

// TestDistributedRefusesBadTimeScale: every way into the distributed
// engine refuses a clock scale its wall clock cannot keep, and says so
// at once. 0 is the in-process engine's virtual time; a negative, NaN or
// infinite scale means nothing. A 0 or negative scale used to run at
// 1e-3, a NaN or +Inf one left the executors spinning in SleepUntil
// forever (a +Inf clock's Now stays 0), and a Config reply carrying 0
// panicked the executor.
func TestDistributedRefusesBadTimeScale(t *testing.T) {
	in, plan, cl, models := rpcnet.ChaosWorkload(t, 2, 5)
	for _, scale := range []float64{0, -1, math.Inf(-1), math.NaN(), math.Inf(1)} {
		refused(t, "ServeDistributed", scale, func() error {
			srv, _, _, err := rpcnet.ServeDistributed("mem:", in, plan, cl, models, rpcnet.DistributedOptions{TimeScale: scale})
			if err == nil {
				srv.Close()
			}
			return err
		})
		refused(t, "DistributedBackend.Execute", scale, func() error {
			_, _, err := (&manager.DistributedBackend{TimeScale: scale}).Execute(in, plan, cl, models)
			return err
		})
		refused(t, "chaos.RunSpec", scale, func() error {
			out := chaos.RunSpec(1, "", chaos.Options{Jobs: 2, TimeScale: scale})
			if out.Violation != nil {
				return nil // a run that went wrong, not a refusal
			}
			return out.Err
		})
		j, err := rpcnet.JournalWithScale(in, plan, cl, models, scale)
		if err != nil {
			t.Fatal(err)
		}
		refused(t, "RecoverDistributed", scale, func() error {
			srv, _, _, err := rpcnet.RecoverDistributed("mem:", j, rpcnet.RecoverOptions{})
			if err == nil {
				srv.Kill()
			}
			return err
		})
	}
	// The executor takes its scale from the coordinator's Config reply.
	for _, scale := range []float64{0, math.NaN()} {
		srv, addr, err := rpcnet.ServeWithConfigScale(in, plan, cl, models, scale)
		if err != nil {
			t.Fatal(err)
		}
		refused(t, "RunExecutorOpts", scale, func() error {
			return rpcnet.RunExecutorOpts(addr, 0, rpcnet.ExecutorOptions{})
		})
		srv.Close()
	}
}

// refused fails the test unless call returns an error within a bounded
// wait; a panic is a failure too, not a crash of the test binary.
func refused(t *testing.T, what string, scale float64, call func() error) {
	t.Helper()
	type result struct {
		err      error
		panicked any
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- result{panicked: p}
			}
		}()
		done <- result{err: call()}
	}()
	const bound = 10 * time.Second
	select {
	case r := <-done:
		switch {
		case r.panicked != nil:
			t.Errorf("%s at TimeScale %g panicked: %v; want an error", what, scale, r.panicked)
		case r.err == nil:
			t.Errorf("%s at TimeScale %g: no error; want the scale refused", what, scale)
		default:
			t.Logf("%s at TimeScale %g: %v", what, scale, r.err)
		}
	case <-time.After(bound):
		t.Errorf("%s at TimeScale %g: still running after %v; want the scale refused", what, scale, bound)
	}
}
