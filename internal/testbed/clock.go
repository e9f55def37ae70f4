package testbed

import (
	"fmt"
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
type Clock struct {
	start time.Time
	// wallPerSim is wall seconds per simulated second.
	wallPerSim float64
}

// NewClock starts a clock with the given wall-seconds-per-sim-second
// scale (e.g. 0.001 replays 1000 simulated seconds per wall second).
func NewClock(wallPerSim float64) *Clock {
	return NewClockAt(time.Now(), wallPerSim) //lint:allow walltime the wall clock's epoch: Clock is the testbed's one wall-clock reader
}

// NewClockAt starts a clock with an explicit wall epoch, so clocks in
// different processes (distributed executors) share one simulated
// time base.
func NewClockAt(start time.Time, wallPerSim float64) *Clock {
	if wallPerSim <= 0 {
		panic(fmt.Sprintf("testbed: non-positive clock scale %g", wallPerSim))
	}
	return &Clock{start: start, wallPerSim: wallPerSim}
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

// SleepUntil blocks until the simulated time reaches t (no-op when t
// has already passed) and returns the simulated time on wakeup.
func (c *Clock) SleepUntil(t float64) float64 {
	d := time.Duration((t - c.Now()) * c.wallPerSim * float64(time.Second))
	if d > 0 {
		time.Sleep(d) //lint:allow walltime the wall clock's sleep; the virtual clock parks in the plane instead
	}
	return c.Now()
}
