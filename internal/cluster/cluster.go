// Package cluster models the heterogeneous GPU fleet that Hare
// schedules onto: GPU types with their compute speed, memory capacity,
// PCIe and memory bandwidth, the hosts they sit in, and the data-center
// network connecting hosts.
//
// Calibration. Per-type relative training speeds are calibrated
// directly from the paper's Fig. 2 (ResNet50 speedup vs. a K80
// baseline: T4 ≈ 2×, V100 ≈ 7×); capacities and link speeds come from
// the public spec sheets and the paper's testbed description
// (PCIe-3×16 at 15.75 GB/s, 25 Gbps Ethernet between hosts).
package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// GPUType describes one GPU product.
type GPUType struct {
	Name string
	// Speed is the relative training speed for a fully compute-bound
	// workload, normalized to K80 = 1.0 (paper Fig. 2).
	Speed float64
	// MemBytes is the device memory capacity.
	MemBytes int64
	// PCIeBytesPerSec is the host↔device transfer bandwidth. The
	// testbed uses PCIe-3×16 for every GPU.
	PCIeBytesPerSec float64
	// MemBWBytesPerSec is the device memory bandwidth, which bounds
	// memory-cleaning speed during task switching.
	MemBWBytesPerSec float64
}

const gib = 1 << 30

// The four GPU types of the paper's testbed. Speeds are the Fig. 2
// compute-bound calibration; memory sizes are per-device.
var (
	V100 = GPUType{Name: "V100", Speed: 7.0, MemBytes: 16 * gib, PCIeBytesPerSec: 15.75e9, MemBWBytesPerSec: 900e9}
	T4   = GPUType{Name: "T4", Speed: 2.0, MemBytes: 16 * gib, PCIeBytesPerSec: 15.75e9, MemBWBytesPerSec: 300e9}
	K80  = GPUType{Name: "K80", Speed: 1.0, MemBytes: 12 * gib, PCIeBytesPerSec: 15.75e9, MemBWBytesPerSec: 240e9}
	M60  = GPUType{Name: "M60", Speed: 1.3, MemBytes: 8 * gib, PCIeBytesPerSec: 15.75e9, MemBWBytesPerSec: 160e9}
)

// TypeByName looks a GPU type up by name (case-insensitive).
func TypeByName(name string) (GPUType, error) {
	switch strings.ToUpper(name) {
	case "V100":
		return V100, nil
	case "T4":
		return T4, nil
	case "K80":
		return K80, nil
	case "M60":
		return M60, nil
	}
	return GPUType{}, fmt.Errorf("cluster: unknown GPU type %q", name)
}

// GPU is one device in the fleet.
type GPU struct {
	ID   int
	Type GPUType
	Host int // index of the machine the GPU is attached to
}

// Cluster is a fleet of GPUs plus the network that synchronizes them.
type Cluster struct {
	GPUs []GPU
	// NetworkBps is the inter-host network bandwidth in bits per
	// second (the paper's default is 25 Gbps Ethernet).
	NetworkBps float64
	// Hosts is the number of machines.
	Hosts int
}

// DefaultNetworkBps is the testbed's 25 Gbps Ethernet.
const DefaultNetworkBps = 25e9

// Spec requests n GPUs of one type when building a cluster.
type Spec struct {
	Type  GPUType
	Count int
}

// New builds a cluster from type counts, packing GPUs onto hosts of
// gpusPerHost devices each (4, matching the EC2 instances of the
// testbed, when gpusPerHost <= 0). GPU IDs are dense and ordered by
// the spec order.
func New(specs []Spec, gpusPerHost int) *Cluster {
	if gpusPerHost <= 0 {
		gpusPerHost = 4
	}
	c := &Cluster{NetworkBps: DefaultNetworkBps}
	id := 0
	for _, s := range specs {
		for i := 0; i < s.Count; i++ {
			c.GPUs = append(c.GPUs, GPU{ID: id, Type: s.Type, Host: id / gpusPerHost})
			id++
		}
	}
	if len(c.GPUs) > 0 {
		c.Hosts = c.GPUs[len(c.GPUs)-1].Host + 1
	}
	return c
}

// Testbed returns the paper's 15-GPU evaluation fleet: 8 V100s,
// 4 T4s, 1 K80 and 2 M60s on 4 hosts with 25 Gbps Ethernet.
func Testbed() *Cluster {
	return New([]Spec{{V100, 8}, {T4, 4}, {K80, 1}, {M60, 2}}, 4)
}

// HeterogeneityLevel selects one of the paper's Fig. 16 presets.
type HeterogeneityLevel int

const (
	// LowHeterogeneity is a pure V100 fleet.
	LowHeterogeneity HeterogeneityLevel = iota
	// MidHeterogeneity mixes V100 and K80 evenly.
	MidHeterogeneity
	// HighHeterogeneity mixes V100, T4, K80 and M60 evenly.
	HighHeterogeneity
)

func (h HeterogeneityLevel) String() string {
	switch h {
	case LowHeterogeneity:
		return "low(V100)"
	case MidHeterogeneity:
		return "mid(V100xK80)"
	case HighHeterogeneity:
		return "high(V100xT4xK80xM60)"
	}
	return fmt.Sprintf("HeterogeneityLevel(%d)", int(h))
}

// Heterogeneous builds an n-GPU cluster at the requested heterogeneity
// level, splitting the fleet evenly across the level's GPU types
// (remainders go to the earlier types, so the fleet always has exactly
// n devices).
func Heterogeneous(level HeterogeneityLevel, n int) *Cluster {
	var types []GPUType
	switch level {
	case LowHeterogeneity:
		types = []GPUType{V100}
	case MidHeterogeneity:
		types = []GPUType{V100, K80}
	case HighHeterogeneity:
		types = []GPUType{V100, T4, K80, M60}
	default:
		panic(fmt.Sprintf("cluster: unknown heterogeneity level %d", level))
	}
	specs := make([]Spec, len(types))
	base, rem := n/len(types), n%len(types)
	for i, t := range types {
		cnt := base
		if i < rem {
			cnt++
		}
		specs[i] = Spec{Type: t, Count: cnt}
	}
	return New(specs, 4)
}

// Preset builds the fleet the CLIs' fleet flags describe: the paper's
// testbed, or an n-GPU fleet at the heterogeneity level named "low",
// "mid" or "high" (any case).
func Preset(testbed bool, level string, n int) (*Cluster, error) {
	if testbed {
		return Testbed(), nil
	}
	switch strings.ToLower(level) {
	case "low":
		return Heterogeneous(LowHeterogeneity, n), nil
	case "mid":
		return Heterogeneous(MidHeterogeneity, n), nil
	case "high":
		return Heterogeneous(HighHeterogeneity, n), nil
	}
	return nil, fmt.Errorf("unknown heterogeneity level %q", level)
}

// Size returns the number of GPUs.
func (c *Cluster) Size() int { return len(c.GPUs) }

// Counts returns the number of GPUs per type name.
func (c *Cluster) Counts() map[string]int {
	out := make(map[string]int)
	for _, g := range c.GPUs {
		out[g.Type.Name]++
	}
	return out
}

// String formats the fleet as "8xV100+4xT4+1xK80+2xM60 (15 GPUs, 25 Gbps)".
func (c *Cluster) String() string {
	counts := c.Counts()
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	// Stable presentation: descending speed, then name.
	sort.Slice(names, func(i, j int) bool {
		ti, _ := TypeByName(names[i])
		tj, _ := TypeByName(names[j])
		if ti.Speed != tj.Speed {
			return ti.Speed > tj.Speed
		}
		return names[i] < names[j]
	})
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%dx%s", counts[n], n)
	}
	return fmt.Sprintf("%s (%d GPUs, %g Gbps)", strings.Join(parts, "+"), c.Size(), c.NetworkBps/1e9)
}

// WithNetwork returns a shallow copy of the cluster with a different
// inter-host bandwidth (bits/second); used by the Fig. 18 sweep.
func (c *Cluster) WithNetwork(bps float64) *Cluster {
	cp := *c
	cp.NetworkBps = bps
	return &cp
}
