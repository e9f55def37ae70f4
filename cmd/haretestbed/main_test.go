package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDistributedModesRunToCompletion builds the binary and runs a small
// batch through the coordinator both ways: -rpc (executor goroutines)
// and -distributed (the binary re-executing itself once per GPU).
func TestDistributedModesRunToCompletion(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "haretestbed")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
