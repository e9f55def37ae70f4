package core

import (
	"path/filepath"
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
	got, err := LoadSchedule(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Placements) != len(s.Placements) {
		t.Fatalf("loaded %d placements, want %d", len(got.Placements), len(s.Placements))
	}
	//lint:ordered independent per-key equality checks
	for tr, p := range s.Placements {
		if got.Placements[tr] != p {
			t.Errorf("task %v: %+v != %+v", tr, got.Placements[tr], p)
		}
	}
	if err := ValidateSchedule(in, got); err != nil {
		t.Errorf("loaded schedule infeasible: %v", err)
	}
}

func TestScheduleMarshalDeterministic(t *testing.T) {
	in := validInstance()
	s := greedyDispatch(in, stats.New(5))
	a, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("marshaling not deterministic")
	}
}

func TestScheduleUnmarshalRejectsDuplicates(t *testing.T) {
	blob := []byte(`{"placements":[
		{"task":{"Job":0,"Round":0,"Index":0},"gpu":0,"start":0},
		{"task":{"Job":0,"Round":0,"Index":0},"gpu":1,"start":5}]}`)
	s := NewSchedule()
	if err := s.UnmarshalJSON(blob); err == nil {
		t.Error("duplicate placements accepted")
	}
}
