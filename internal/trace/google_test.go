package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestGoogleRoundTrip(t *testing.T) {
	arr := Arrivals(40, 2000, 5)
	var buf bytes.Buffer
	if err := WriteGoogleJobEvents(&buf, arr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGoogleJobEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(arr) {
		t.Fatalf("got %d arrivals, want %d", len(got), len(arr))
	}
	for i := range arr {
		// µs quantization loses < 1e-6 s.
		if math.Abs(got[i]-arr[i]) > 2e-6 {
			t.Errorf("arrival %d: %g != %g", i, got[i], arr[i])
		}
	}
}

func TestGoogleReadSkipsNonSubmit(t *testing.T) {
	csv := strings.Join([]string{
		"3000000,,1,0,u,2,a,la", // SUBMIT at 3s
		"4000000,,1,1,u,2,a,la", // SCHEDULE — skipped
		"1000000,,2,0,u,2,b,lb", // SUBMIT at 1s (out of order)
		"9000000,,1,4,u,2,a,la", // FINISH — skipped
		"6500000,,3,0,u,2,c,lc", // SUBMIT at 6.5s
	}, "\n")
	got, err := ReadGoogleJobEvents(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 5.5} // shifted to start at 0
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("arrival %d = %g, want %g", i, got[i], want[i])
		}
	}
	if !sort.Float64sAreSorted(got) {
		t.Error("arrivals not sorted")
	}
}

func TestGoogleReadErrors(t *testing.T) {
	cases := []string{
		"1,2",                // too few fields
		"x,,1,0",             // bad timestamp
		"1,,1,z",             // bad event type
		"-5,,1,0",            // negative timestamp
		"1000,,1,1,u,2,a,la", // no SUBMIT events at all
	}
	for i, c := range cases {
		if _, err := ReadGoogleJobEvents(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestLoadGoogleArrivalsFileAndRescale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job_events.csv")
	var csv bytes.Buffer
	if err := WriteGoogleJobEvents(&csv, []float64{0, 10, 40, 100}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGoogleArrivals(path, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
	if math.Abs(got[3]-500) > 1e-6 || math.Abs(got[1]-50) > 1e-6 {
		t.Errorf("rescaled arrivals %v", got)
	}
	// Truncation.
	two, err := LoadGoogleArrivals(path, 2, 0)
	if err != nil || len(two) != 2 {
		t.Errorf("truncated %v %v", two, err)
	}
	if _, err := LoadGoogleArrivals(filepath.Join(t.TempDir(), "no.csv"), 0, 0); err == nil {
		t.Error("missing file accepted")
	}
}
