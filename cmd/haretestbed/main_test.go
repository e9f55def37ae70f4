package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "haretestbed")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestDistributedModesRunToCompletion builds the binary and runs a small
// batch through the coordinator both ways: -rpc (executor goroutines)
// and -distributed (the binary re-executing itself once per GPU).
func TestDistributedModesRunToCompletion(t *testing.T) {
	bin := buildBinary(t)
	for _, mode := range []string{"-rpc", "-distributed"} {
		out, err := exec.Command(bin, "-jobs", "3", mode).CombinedOutput()
		if err != nil {
			t.Fatalf("haretestbed -jobs 3 %s: %v\n%s", mode, err, out)
		}
		for _, want := range []string{"coordinator on 127.0.0.1:", "distributed run: ", "weighted JCT: "} {
			if !strings.Contains(string(out), want) {
				t.Errorf("haretestbed -jobs 3 %s output lacks %q:\n%s", mode, want, out)
			}
		}
		if strings.Contains(string(out), "exited with") {
			t.Errorf("haretestbed -jobs 3 %s lost an executor in a fault-free run:\n%s", mode, out)
		}
	}
}

// TestRejectsClausesItsEngineCannotReplay: a fault clause the selected
// engine would silently ignore is a non-zero exit naming the clause, not
// a run that prints "faults: ..." and injects nothing — -rpc has no
// supervisor to perform a coordinator outage, the in-process testbed no
// GPU to lose. So is -timescale 0 on the distributed control plane,
// which has no virtual clock, and a -timescale no wall clock can keep on
// either engine (inf used to hang -rpc and -distributed).
func TestRejectsClausesItsEngineCannotReplay(t *testing.T) {
	bin := buildBinary(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-rpc", "-fault-spec", "codown=1+100ms"}, "cannot replay codown=1+100ms"},
		{[]string{"-distributed", "-fault-spec", "codown=1+100ms"}, "cannot replay codown=1+100ms"},
		{[]string{"-fault-spec", "fail=1@20"}, "cannot replay fail=1@20"},
		{[]string{"-fault-spec", "netdrop=0.1"}, "cannot replay netdrop=0.1"},
		{[]string{"-rpc", "-timescale", "0"}, "-timescale 0: the distributed control plane needs a positive scale"},
		{[]string{"-distributed", "-timescale", "0"}, "-timescale 0: the distributed control plane needs a positive scale"},
		{[]string{"-rpc", "-timescale", "inf"}, "-timescale +Inf: the distributed control plane needs a positive, finite scale"},
		{[]string{"-distributed", "-timescale", "inf"}, "-timescale +Inf: the distributed control plane needs a positive, finite scale"},
		{[]string{"-timescale", "inf"}, "-timescale +Inf: the in-process testbed needs a positive, finite scale"},
	} {
		out, err := exec.Command(bin, append([]string{"-jobs", "3"}, tc.args...)...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("haretestbed -jobs 3 %s: err %v, want a non-zero exit saying %q:\n%s", strings.Join(tc.args, " "), err, tc.want, out)
		}
	}
}
