package cluster

import (
	"strings"
	"testing"
)

func TestTestbedComposition(t *testing.T) {
	c := Testbed()
	if c.Size() != 15 {
		t.Fatalf("testbed has %d GPUs, want 15", c.Size())
	}
	counts := c.Counts()
	want := map[string]int{"V100": 8, "T4": 4, "K80": 1, "M60": 2}
	//lint:ordered independent per-key assertions
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("%s count %d, want %d", name, counts[name], n)
		}
	}
	if c.Hosts != 4 {
		t.Errorf("testbed spans %d hosts, want 4", c.Hosts)
	}
	if c.NetworkBps != 25e9 {
		t.Errorf("network %g bps, want 25e9", c.NetworkBps)
	}
}

func TestGPUIDsDense(t *testing.T) {
	c := Testbed()
	for i, g := range c.GPUs {
		if g.ID != i {
			t.Fatalf("GPU at position %d has ID %d", i, g.ID)
		}
	}
}

func TestHeterogeneousExactSize(t *testing.T) {
	for _, lv := range []HeterogeneityLevel{LowHeterogeneity, MidHeterogeneity, HighHeterogeneity} {
		for _, n := range []int{1, 7, 16, 33, 160} {
			c := Heterogeneous(lv, n)
			if c.Size() != n {
				t.Errorf("%v n=%d: got %d GPUs", lv, n, c.Size())
			}
		}
	}
}

func TestHeterogeneousTypeMix(t *testing.T) {
	c := Heterogeneous(HighHeterogeneity, 160)
	counts := c.Counts()
	for _, name := range []string{"V100", "T4", "K80", "M60"} {
		if counts[name] != 40 {
			t.Errorf("%s count %d, want 40", name, counts[name])
		}
	}
	if got := Heterogeneous(LowHeterogeneity, 10).Counts()["V100"]; got != 10 {
		t.Errorf("low heterogeneity not pure V100: %d", got)
	}
	mid := Heterogeneous(MidHeterogeneity, 11).Counts()
	if mid["V100"] != 6 || mid["K80"] != 5 {
		t.Errorf("mid split %v", mid)
	}
}

func TestTypeByName(t *testing.T) {
	for _, name := range []string{"V100", "t4", "K80", "m60"} {
		if _, err := TypeByName(name); err != nil {
			t.Errorf("TypeByName(%q): %v", name, err)
		}
	}
	if _, err := TypeByName("H100"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestSpeedOrdering(t *testing.T) {
	if !(V100.Speed > T4.Speed && T4.Speed > M60.Speed && M60.Speed > K80.Speed) {
		t.Errorf("speed ordering broken: V100=%g T4=%g M60=%g K80=%g",
			V100.Speed, T4.Speed, M60.Speed, K80.Speed)
	}
	if K80.Speed != 1 {
		t.Errorf("K80 is the baseline and must have speed 1, got %g", K80.Speed)
	}
}

func TestString(t *testing.T) {
	s := Testbed().String()
	for _, want := range []string{"8xV100", "4xT4", "1xK80", "2xM60", "15 GPUs", "25 Gbps"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestWithNetwork(t *testing.T) {
	c := Testbed()
	c2 := c.WithNetwork(10e9)
	if c2.NetworkBps != 10e9 {
		t.Error("WithNetwork did not apply")
	}
	if c.NetworkBps != 25e9 {
		t.Error("WithNetwork mutated the original")
	}
	if c2.Size() != c.Size() {
		t.Error("WithNetwork changed the fleet")
	}
}

func TestSameHost(t *testing.T) {
	c := Testbed() // 4 GPUs per host
	if c.GPUs[0].Host != c.GPUs[3].Host {
		t.Error("GPUs 0 and 3 should share host 0")
	}
	if c.GPUs[3].Host == c.GPUs[4].Host {
		t.Error("GPUs 3 and 4 should be on different hosts")
	}
}
