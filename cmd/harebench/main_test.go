package main

import (
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hare/internal/experiments"
)

// TestCommandLine builds the binary and drives the three things main
// decides itself: -list prints the registry, an unknown -experiment
// exits 2, and a capture that could not be reproduced — -events-out or
// -trace-out with parallel replays, whose events interleave differently
// every run — is refused before anything runs.
func TestCommandLine(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "harebench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var list strings.Builder
	for _, e := range experiments.All() {
		fmt.Fprintf(&list, "%-8s %s\n", e.ID, e.Desc)
	}
	capture := filepath.Join(t.TempDir(), "capture")
	small := []string{"-experiment", "fig14", "-scale", "0.05", "-jobs", "8", "-gpus", "6"}
	for _, tc := range []struct {
		args []string
		exit int
		want string // the whole output; "" = any
	}{
		{[]string{"-list"}, 0, list.String()},
		{[]string{"-experiment", "fig99"}, 2, "harebench: unknown experiment \"fig99\" (use -list)\n"},
		{append([]string{"-parallel", "0", "-events-out", capture}, small...), 1, "harebench: -events-out needs a serial run (drop -parallel)\n"},
		{append([]string{"-parallel", "4", "-trace-out", capture}, small...), 1, "harebench: -trace-out needs a serial run (drop -parallel)\n"},
		{append([]string{"-parallel", "4", "-attrib-out", capture}, small...), 0, ""},
		{append([]string{"-events-out", capture}, small...), 0, ""},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		exit := 0
		var exitErr *exec.ExitError
		if errors.As(err, &exitErr) {
			exit = exitErr.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		name := "harebench " + strings.Join(tc.args, " ")
		switch {
		case exit != tc.exit:
			t.Errorf("%s: exit %d, want %d:\n%s", name, exit, tc.exit, out)
		case tc.want != "" && string(out) != tc.want:
			t.Errorf("%s printed\n%s\nwant\n%s", name, out, tc.want)
		}
	}
}
