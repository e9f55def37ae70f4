package perf

import (
	"runtime"
	"time"
)

// Env fingerprints the environment a benchmark run was measured in.
// Absolute numbers are only comparable within a fingerprint, so
// bench/e2e stamps every -out result file with one.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit is the git commit the run measured ("unknown" outside a
	// checkout).
	Commit string `json:"commit"`
	// Date is the run's start time, RFC 3339 UTC.
	Date string `json:"date"`
}

// Fingerprint captures the current process environment. commit may be
// empty ("unknown" is recorded); now stamps the run.
func Fingerprint(commit string, now time.Time) Env {
	if commit == "" {
		commit = "unknown"
	}
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit,
		Date:       now.UTC().Format(time.RFC3339),
	}
}
