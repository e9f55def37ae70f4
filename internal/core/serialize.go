package core

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
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

// MarshalJSON serializes the schedule with placements in
// deterministic (job, round, index) order.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	recs := make([]placementRec, 0, len(s.Placements))
	for t, p := range s.Placements {
		recs = append(recs, placementRec{Task: t, GPU: p.GPU, Start: p.Start})
	}
	sort.Slice(recs, func(a, b int) bool { return lessTask(recs[a].Task, recs[b].Task) })
	return json.Marshal(scheduleFile{Placements: recs})
}

// UnmarshalJSON parses a schedule written by MarshalJSON. Duplicate
// task entries are rejected.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var f scheduleFile
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	s.Placements = make(map[TaskRef]Placement, len(f.Placements))
	for _, r := range f.Placements {
		if _, dup := s.Placements[r.Task]; dup {
			return fmt.Errorf("core: duplicate placement for task %v", r.Task)
		}
		s.Placements[r.Task] = Placement{GPU: r.GPU, Start: r.Start}
	}
	return nil
}

// SaveSchedule writes a schedule to path as JSON.
func SaveSchedule(s *Schedule, path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return fmt.Errorf("core: marshal schedule: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadSchedule reads a schedule written by SaveSchedule.
func LoadSchedule(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: read schedule: %w", err)
	}
	s := NewSchedule()
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("core: parse schedule: %w", err)
	}
	return s, nil
}
