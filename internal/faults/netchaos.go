package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Partition cuts one executor off from the coordinator for a window:
// starting at simulated time At, every dial and in-flight call from
// that GPU fails for a wall-clock duration Dur. The anchor is
// simulated time (shared with fail=/crash= so scenarios compose);
// the width is wall time because a partition is a property of the real
// network between the processes, not of the simulated workload.
type Partition struct {
	GPU int
	At  float64 // simulated seconds
	Dur time.Duration
}

// CoordDown schedules a coordinator outage: at simulated time At the
// coordinator process is killed, stays down for wall-clock Dur, and is
// then restarted from its write-ahead log (docs/ROBUSTNESS.md). The
// chaos harness interprets this entry; the transport itself does not.
type CoordDown struct {
	At  float64 // simulated seconds
	Dur time.Duration
}

// NetChaos is a seeded model of an unreliable network between
// executors and the coordinator. Probabilities apply independently to
// every RPC; injection happens at the call level (above the codec) so
// a dropped or duplicated message is a well-formed request, exercising
// the dedup/idempotency machinery rather than corrupting the stream.
type NetChaos struct {
	// Drop is the per-call loss probability in [0, 1). Half of the
	// losses eat the request (the call never reaches the coordinator),
	// half eat the reply (the coordinator processed it but the caller
	// sees an error) — the reply-loss half is what forces duplicate
	// pushes through the dedup path.
	Drop float64
	// Dup is the probability a call is transparently sent twice.
	Dup float64
	// Reorder is the probability a call is held back briefly so a
	// later call overtakes it.
	Reorder float64
	// DelayMin/DelayMax bound a uniform extra latency added to every
	// call. Zero means no injected delay.
	DelayMin, DelayMax time.Duration
	// Seed drives the per-GPU chaos decision streams (see RetrySeed);
	// zero falls back to the plan's transient seed.
	Seed int64
	// Partitions lists executor↔coordinator partition windows.
	Partitions []Partition
	// CoordDowns lists coordinator kill/restart windows.
	CoordDowns []CoordDown
}

// Empty reports whether no network fault is configured. Nil-safe.
func (n *NetChaos) Empty() bool {
	return n == nil || (n.Drop == 0 && n.Dup == 0 && n.Reorder == 0 &&
		n.DelayMax == 0 && len(n.Partitions) == 0 && len(n.CoordDowns) == 0)
}

// SortedPartitions returns the partition windows ordered by start time
// (ties by GPU) — the order the transport arms them in. Nil-safe.
func (n *NetChaos) SortedPartitions() []Partition {
	if n == nil {
		return nil
	}
	out := append([]Partition(nil), n.Partitions...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].At != out[b].At {
			return out[a].At < out[b].At
		}
		return out[a].GPU < out[b].GPU
	})
	return out
}

// SortedCoordDowns returns the coordinator outages ordered by start
// time. Nil-safe.
func (n *NetChaos) SortedCoordDowns() []CoordDown {
	if n == nil {
		return nil
	}
	out := append([]CoordDown(nil), n.CoordDowns...)
	sort.Slice(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out
}

// Validate checks internal consistency; numGPUs > 0 range-checks
// partition GPU indices. Nil receivers are valid.
func (n *NetChaos) Validate(numGPUs int) error {
	if n == nil {
		return nil
	}
	for _, pr := range []struct {
		name string
		v    float64
	}{{"netdrop", n.Drop}, {"netdup", n.Dup}, {"netreorder", n.Reorder}} {
		if math.IsNaN(pr.v) || pr.v < 0 || pr.v >= 1 {
			return fmt.Errorf("faults: %s %g outside [0, 1)", pr.name, pr.v)
		}
	}
	if n.DelayMin < 0 || n.DelayMax < 0 || n.DelayMax < n.DelayMin {
		return fmt.Errorf("faults: netdelay window %v~%v invalid (want 0 <= min <= max)", n.DelayMin, n.DelayMax)
	}
	for _, p := range n.Partitions {
		if p.GPU < 0 || (numGPUs > 0 && p.GPU >= numGPUs) {
			return fmt.Errorf("faults: partition of GPU %d outside fleet of %d", p.GPU, numGPUs)
		}
		if math.IsNaN(p.At) || math.IsInf(p.At, 0) || p.At < 0 {
			return fmt.Errorf("faults: partition of GPU %d at invalid time %g", p.GPU, p.At)
		}
		if p.Dur <= 0 {
			return fmt.Errorf("faults: partition of GPU %d has non-positive duration %v", p.GPU, p.Dur)
		}
	}
	for _, d := range n.CoordDowns {
		if math.IsNaN(d.At) || math.IsInf(d.At, 0) || d.At < 0 {
			return fmt.Errorf("faults: codown at invalid time %g", d.At)
		}
		if d.Dur <= 0 {
			return fmt.Errorf("faults: codown at %g has non-positive duration %v", d.At, d.Dur)
		}
	}
	return nil
}

// netString renders the network fields in Parse's grammar.
func (n *NetChaos) netString() []string {
	if n == nil {
		return nil
	}
	var parts []string
	if n.Drop != 0 {
		parts = append(parts, "netdrop="+strconv.FormatFloat(n.Drop, 'g', -1, 64))
	}
	if n.Dup != 0 {
		parts = append(parts, "netdup="+strconv.FormatFloat(n.Dup, 'g', -1, 64))
	}
	if n.Reorder != 0 {
		parts = append(parts, "netreorder="+strconv.FormatFloat(n.Reorder, 'g', -1, 64))
	}
	if n.DelayMax != 0 || n.DelayMin != 0 {
		parts = append(parts, "netdelay="+n.DelayMin.String()+"~"+n.DelayMax.String())
	}
	if n.Seed != 0 {
		parts = append(parts, "netseed="+strconv.FormatInt(n.Seed, 10))
	}
	for _, p := range n.Partitions {
		parts = append(parts, fmt.Sprintf("partition=%d@%s+%s", p.GPU, strconv.FormatFloat(p.At, 'g', -1, 64), p.Dur))
	}
	for _, d := range n.CoordDowns {
		parts = append(parts, fmt.Sprintf("codown=%s+%s", strconv.FormatFloat(d.At, 'g', -1, 64), d.Dur))
	}
	return parts
}

// NetModel returns the plan's network chaos model, nil when absent.
// Nil-safe.
func (p *Plan) NetModel() *NetChaos {
	if p == nil {
		return nil
	}
	return p.Net
}

// NetSeed returns the seed of the chaos decision streams, falling back
// to the transient fault seed when netseed is unset. Nil-safe.
func (p *Plan) NetSeed() int64 {
	if p == nil || p.Net == nil {
		return 0
	}
	if p.Net.Seed != 0 {
		return p.Net.Seed
	}
	return p.Seed
}

// parseNetField consumes one network-grammar field into p.Net,
// reporting whether the key belonged to the network grammar.
func (p *Plan) parseNetField(key, val string) (bool, error) {
	ensure := func() *NetChaos {
		if p.Net == nil {
			p.Net = &NetChaos{}
		}
		return p.Net
	}
	switch key {
	case "netdrop", "netdup", "netreorder":
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return true, fmt.Errorf("faults: bad %s %q: %w", key, val, err)
		}
		n := ensure()
		switch key {
		case "netdrop":
			n.Drop = v
		case "netdup":
			n.Dup = v
		default:
			n.Reorder = v
		}
	case "netdelay":
		lo, hi, ok := strings.Cut(val, "~")
		if !ok {
			hi = lo
		}
		dlo, err := time.ParseDuration(lo)
		if err != nil {
			return true, fmt.Errorf("faults: bad netdelay min %q: %w", lo, err)
		}
		dhi, err := time.ParseDuration(hi)
		if err != nil {
			return true, fmt.Errorf("faults: bad netdelay max %q: %w", hi, err)
		}
		n := ensure()
		n.DelayMin, n.DelayMax = dlo, dhi
	case "netseed":
		seed, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return true, fmt.Errorf("faults: bad netseed %q: %w", val, err)
		}
		ensure().Seed = seed
	case "partition":
		gs, rest, ok := strings.Cut(val, "@")
		if !ok {
			return true, fmt.Errorf("faults: bad partition %q (want GPU@TIME+DUR)", val)
		}
		gpu, err := strconv.Atoi(gs)
		if err != nil {
			return true, fmt.Errorf("faults: bad partition GPU %q: %w", gs, err)
		}
		at, dur, err := parseAtDur(rest)
		if err != nil {
			return true, fmt.Errorf("faults: bad partition %q: %w", val, err)
		}
		n := ensure()
		n.Partitions = append(n.Partitions, Partition{GPU: gpu, At: at, Dur: dur})
	case "codown":
		at, dur, err := parseAtDur(val)
		if err != nil {
			return true, fmt.Errorf("faults: bad codown %q: %w", val, err)
		}
		n := ensure()
		n.CoordDowns = append(n.CoordDowns, CoordDown{At: at, Dur: dur})
	default:
		return false, nil
	}
	return true, nil
}

// parseAtDur parses "TIME+DUR" (simulated seconds + wall duration). It
// splits at the last '+': String renders a large TIME with an exponent
// sign ("1e+07"), and a duration has none.
func parseAtDur(s string) (float64, time.Duration, error) {
	i := strings.LastIndexByte(s, '+')
	if i < 0 {
		return 0, 0, fmt.Errorf("want TIME+DUR")
	}
	ts, ds := s[:i], s[i+1:]
	at, err := strconv.ParseFloat(ts, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad time %q: %w", ts, err)
	}
	dur, err := time.ParseDuration(ds)
	if err != nil {
		return 0, 0, fmt.Errorf("bad duration %q: %w", ds, err)
	}
	return at, dur, nil
}
