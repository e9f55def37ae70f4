package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hare/internal/stats"
)

func TestScheduleRoundTrip(t *testing.T) {
	in := validInstance()
	s := greedyDispatch(in, stats.New(3))
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := SaveSchedule(s, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSchedule(in, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("loaded %+v, saved %+v", got, s)
	}
	if err := ValidateSchedule(in, got); err != nil {
		t.Errorf("loaded schedule infeasible: %v", err)
	}
	if _, err := LoadSchedule(in, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestScheduleMarshalDeterministic(t *testing.T) {
	in := validInstance()
	s := greedyDispatch(in, stats.New(5))
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		path := filepath.Join(dir, fmt.Sprint(i))
		if err := SaveSchedule(s, path); err != nil {
			t.Fatal(err)
		}
		var err error
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Error("saving not deterministic")
	}
}

// TestScheduleUnmarshalRejectsDuplicates: a plan file is outside input.
// Every record the instance cannot hold is rejected with the task
// named: a duplicate, a task outside the shape, a GPU outside the
// fleet.
func TestScheduleUnmarshalRejectsDuplicates(t *testing.T) {
	in := validInstance()
	rec := func(job, round, index, gpu int) string {
		return fmt.Sprintf(`{"task":{"Job":%d,"Round":%d,"Index":%d},"gpu":%d,"start":0}`, job, round, index, gpu)
	}
	for _, c := range []struct {
		recs []string
		want string
	}{
		{[]string{rec(0, 0, 0, 0), rec(0, 0, 0, 1)}, "task j0/r0/t0 is placed twice"},
		{[]string{rec(0, 2, 0, 0)}, "task j0/r2/t0 is outside the instance"},
		{[]string{rec(1, 0, 2, 0)}, "task j1/r0/t2 is outside the instance"},
		{[]string{rec(2, 0, 0, 0)}, "task j2/r0/t0 is outside the instance"},
		{[]string{rec(-1, 0, 0, 0)}, "task j-1/r0/t0 is outside the instance"},
		{[]string{rec(0, 1099511627776, 0, 0)}, "task j0/r1099511627776/t0 is outside the instance"},
		{[]string{rec(1, 0, 1, 2)}, "task j1/r0/t1 placed on invalid GPU 2"},
		{[]string{rec(1, 0, 1, -1)}, "task j1/r0/t1 placed on invalid GPU -1"},
	} {
		blob := `{"placements":[` + strings.Join(c.recs, ",") + `]}`
		if _, err := decodeSchedule(in, []byte(blob)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", blob, err, c.want)
		}
	}
}

// FuzzLoadSchedule: no plan file panics the loader, and every schedule
// it accepts saves to bytes that load back to the same schedule and
// save to the same bytes again.
func FuzzLoadSchedule(f *testing.F) {
	in := validInstance()
	saved, err := encodeSchedule(greedyDispatch(in, stats.New(7)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	f.Add([]byte(`{"placements":[{"task":{"Job":0,"Round":0,"Index":0},"gpu":0,"start":0},{"task":{"Job":0,"Round":0,"Index":0},"gpu":1,"start":5}]}`))
	f.Add([]byte(`{"placements":[{"task":{"Job":0,"Round":1099511627776,"Index":0},"gpu":0,"start":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSchedule(in, data)
		if err != nil {
			return
		}
		s.Each(func(tr TaskRef, p Placement) {
			if p.GPU >= in.NumGPUs || math.IsNaN(p.Start) || math.IsInf(p.Start, 0) {
				t.Fatalf("accepted %v at %+v", tr, p)
			}
		})
		a, err := encodeSchedule(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeSchedule(in, a)
		if err != nil {
			t.Fatalf("saved plan does not load: %v\n%s", err, a)
		}
		b, err := encodeSchedule(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) || !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip moved the plan:\n%s\n%s", a, b)
		}
	})
}
