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
// GPU to lose.
func TestRejectsClausesItsEngineCannotReplay(t *testing.T) {
	bin := buildBinary(t)
	for _, args := range [][]string{
		{"-rpc", "-fault-spec", "codown=1+100ms"},
		{"-distributed", "-fault-spec", "codown=1+100ms"},
		{"-fault-spec", "fail=1@20"},
		{"-fault-spec", "netdrop=0.1"},
	} {
		out, err := exec.Command(bin, append([]string{"-jobs", "3"}, args...)...).CombinedOutput()
		clause := args[len(args)-1]
		if err == nil || !strings.Contains(string(out), "cannot replay "+clause) {
			t.Errorf("haretestbed -jobs 3 %s: err %v, want a non-zero exit naming %s:\n%s", strings.Join(args, " "), err, clause, out)
		}
	}
}
