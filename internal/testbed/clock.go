package testbed

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"
)

// Clock is the wall clock: it maps simulated seconds onto wall time at a
// fixed scale, so a workload profiled in GPU-hours replays in wall
// seconds while preserving every relative timing. All executors of a
// run share one clock; realized timings are measured with Now, so
// scheduling and synchronization delays show up in the results exactly
// as they happen. It is the package's one wall-clock reader: at
// TimeScale 0, Run's executors sleep on the plane's virtual clock
// instead.
//
// A wait wakes on time, not a timer tick late: SleepUntil sleeps only
// to sleepGrain before its target and spins on Now for the rest, which
// trades CPU for punctuality.
type Clock struct {
	start time.Time
	// wallPerSim is wall seconds per simulated second.
	wallPerSim float64
}

// CheckScale is the one rule for a wall clock's scale: it must be
// positive and finite. 0 is no wall clock's scale but the in-process
// engine's virtual time (Options.TimeScale); a negative, NaN or infinite
// scale means nothing (a +Inf clock's Now would stay 0 for ever). The
// error completes a sentence that names the clock's user.
func CheckScale(wallPerSim float64) error {
	switch {
	case wallPerSim > 0 && !math.IsInf(wallPerSim, 1):
		return nil
	case wallPerSim == 0:
		return errors.New("needs a positive scale (0, virtual time, runs only the in-process engine)")
	}
	return errors.New("needs a positive, finite scale")
}

// NewClock starts a clock with the given wall-seconds-per-sim-second
// scale (e.g. 0.001 replays 1000 simulated seconds per wall second),
// which CheckScale must accept.
func NewClock(wallPerSim float64) (*Clock, error) {
	return NewClockAt(time.Now(), wallPerSim) //lint:allow walltime the wall clock's epoch: Clock is the testbed's one wall-clock reader
}

// NewClockAt starts a clock with an explicit wall epoch, so clocks in
// different processes (distributed executors) share one simulated
// time base.
func NewClockAt(start time.Time, wallPerSim float64) (*Clock, error) {
	if err := CheckScale(wallPerSim); err != nil {
		return nil, fmt.Errorf("testbed: invalid TimeScale %g: a wall clock %w", wallPerSim, err)
	}
	return &Clock{start: start, wallPerSim: wallPerSim}, nil
}

// Epoch returns the clock's wall-time origin.
func (c *Clock) Epoch() time.Time { return c.start }

// Scale returns the clock's wall-seconds-per-simulated-second factor.
func (c *Clock) Scale() float64 { return c.wallPerSim }

// Until returns the wall-clock duration remaining until simulated time
// t (non-positive when t has already passed). It exists so callers can
// arm select-able timers against simulated deadlines instead of
// blocking in SleepUntil — the difference between a goroutine that can
// be shut down and one that leaks.
func (c *Clock) Until(t float64) time.Duration {
	return time.Duration((t - c.Now()) * c.wallPerSim * float64(time.Second))
}

// Now returns the current simulated time in seconds.
func (c *Clock) Now() float64 {
	return time.Since(c.start).Seconds() / c.wallPerSim //lint:allow walltime the wall clock's time, scaled
}

// sleepGrain is the granularity of Go's timers on an idle runtime:
// once every P is idle, the scheduler waits for the next timer in whole
// milliseconds, so a time.Sleep wakes up to about a millisecond late,
// and any sleep under a millisecond takes about one. A longer grain
// only spins longer, and on few CPUs the spinning lanes slow the ones
// that work.
const sleepGrain = time.Millisecond

// SleepUntil blocks until the simulated time reaches t (no-op when t
// has already passed) and returns the simulated time on wakeup, which
// is never before t. It sleeps with time.Sleep until sleepGrain before
// t, then yields the processor in a loop until Now reaches t, so a wait
// shorter than sleepGrain never sleeps.
func (c *Clock) SleepUntil(t float64) float64 {
	for {
		now := c.Now()
		if now >= t {
			return now
		}
		if d := time.Duration((t - now) * c.wallPerSim * float64(time.Second)); d > sleepGrain {
			time.Sleep(d - sleepGrain) //lint:allow walltime the wall clock's sleep; the virtual clock parks in the plane instead
		} else {
			runtime.Gosched()
		}
	}
}
