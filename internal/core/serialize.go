package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// The on-disk schedule format: the scheduler persists its decision so
// executors (or a later replay) can pick it up — the file analogue of
// the task sequences Hare's scheduler pushes to executors over the
// control plane.

type scheduleFile struct {
	Placements []placementRec `json:"placements"`
}

type placementRec struct {
	Task  TaskRef `json:"task"`
	GPU   int     `json:"gpu"`
	Start float64 `json:"start"`
}

// SaveSchedule writes a schedule to path as JSON, placements in
// (job, round, index) order.
func SaveSchedule(s *Schedule, path string) error {
	data, err := encodeSchedule(s)
	if err != nil {
		return fmt.Errorf("core: marshal schedule: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

func encodeSchedule(s *Schedule) ([]byte, error) {
	recs := make([]placementRec, 0, len(s.p))
	s.Each(func(t TaskRef, p Placement) {
		recs = append(recs, placementRec{Task: t, GPU: p.GPU, Start: p.Start})
	})
	return json.MarshalIndent(scheduleFile{Placements: recs}, "", " ")
}

// LoadSchedule reads a schedule written by SaveSchedule for the
// instance in. The file is outside input: a record whose task lies
// outside in's shape, that repeats a task, names a GPU outside
// [0, in.NumGPUs) or carries a non-finite start is an error naming the
// task, and nothing is allocated beyond in's task count.
func LoadSchedule(in *Instance, path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: read schedule: %w", err)
	}
	s, err := decodeSchedule(in, data)
	if err != nil {
		return nil, fmt.Errorf("core: parse schedule: %w", err)
	}
	return s, nil
}

func decodeSchedule(in *Instance, data []byte) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	s := NewSchedule(in)
	f := struct {
		Placements placementList `json:"placements"`
	}{placementList{s: s, gpus: in.NumGPUs}}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	return s, nil
}

// placementList decodes the file's placement array one record at a
// time, straight into the instance-shaped schedule, so the input's
// length grows nothing.
type placementList struct {
	s    *Schedule
	gpus int
}

func (l *placementList) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, _ := dec.Token(); tok != json.Delim('[') {
		return fmt.Errorf("placements is not an array")
	}
	for dec.More() {
		var r placementRec
		if err := dec.Decode(&r); err != nil {
			return err
		}
		i, ok := l.s.slot(r.Task)
		switch {
		case !ok:
			return fmt.Errorf("task %v is outside the instance", r.Task)
		case l.s.p[i].GPU >= 0:
			return fmt.Errorf("task %v is placed twice", r.Task)
		case r.GPU < 0 || r.GPU >= l.gpus:
			return fmt.Errorf("task %v placed on invalid GPU %d", r.Task, r.GPU)
		case math.IsNaN(r.Start) || math.IsInf(r.Start, 0):
			return fmt.Errorf("task %v has invalid start %g", r.Task, r.Start)
		}
		l.s.p[i] = Placement{GPU: r.GPU, Start: r.Start}
	}
	return nil
}
