package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// Support for the Google cluster-data trace format the paper replays
// ("Google Cluster Traces", github.com/google/cluster-data): the
// job_events table is a headerless CSV whose first eight columns are
//
//	timestamp(µs), missing_info, job_id, event_type,
//	user, scheduling_class, job_name, logical_job_name
//
// Event type 0 is SUBMIT. ReadGoogleJobEvents extracts submission
// times for workload arrivals; WriteGoogleJobEvents emits synthetic
// arrivals in the same format so generated workloads round-trip
// through tooling that expects real trace files.

// googleEventSubmit is the SUBMIT event type code in the trace.
const googleEventSubmit = 0

// ReadGoogleJobEvents parses job_events CSV rows from r and returns
// the SUBMIT timestamps as seconds, sorted ascending and shifted so
// the first arrival is 0. Rows with other event types are skipped;
// malformed rows are an error.
func ReadGoogleJobEvents(r io.Reader) ([]float64, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // the real trace has trailing optional fields
	var micros []int64
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: job_events line %d: %w", line, err)
		}
		if len(rec) < 4 {
			return nil, fmt.Errorf("trace: job_events line %d has %d fields, need ≥4", line, len(rec))
		}
		et, err := strconv.Atoi(rec[3])
		if err != nil {
			return nil, fmt.Errorf("trace: job_events line %d: bad event type %q", line, rec[3])
		}
		if et != googleEventSubmit {
			continue
		}
		ts, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: job_events line %d: bad timestamp %q", line, rec[0])
		}
		if ts < 0 {
			return nil, fmt.Errorf("trace: job_events line %d: negative timestamp %d", line, ts)
		}
		micros = append(micros, ts)
	}
	if len(micros) == 0 {
		return nil, fmt.Errorf("trace: no SUBMIT events found")
	}
	sort.Slice(micros, func(i, j int) bool { return micros[i] < micros[j] })
	out := make([]float64, len(micros))
	base := micros[0]
	for i, m := range micros {
		out[i] = float64(m-base) / 1e6
	}
	return out, nil
}

// WriteGoogleJobEvents emits the arrivals (seconds) as SUBMIT rows in
// the job_events format, with synthetic job IDs and names.
func WriteGoogleJobEvents(w io.Writer, arrivals []float64) error {
	cw := csv.NewWriter(w)
	for i, a := range arrivals {
		if a < 0 {
			return fmt.Errorf("trace: negative arrival %g at index %d", a, i)
		}
		rec := []string{
			strconv.FormatInt(int64(a*1e6), 10), // timestamp µs
			"",                                  // missing_info
			strconv.Itoa(100000 + i),            // job_id
			strconv.Itoa(googleEventSubmit),     // event_type
			"hare",                              // user
			"2",                                 // scheduling_class
			fmt.Sprintf("job-%d", i),            // job_name
			fmt.Sprintf("logical-%d", i),        // logical_job_name
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write job_events: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// LoadGoogleArrivals reads a job_events CSV file and returns up to n
// arrival times (all when n ≤ 0), rescaled to the given horizon in
// seconds (no rescaling when horizon ≤ 0).
func LoadGoogleArrivals(path string, n int, horizon float64) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	defer f.Close()
	arr, err := ReadGoogleJobEvents(f)
	if err != nil {
		return nil, err
	}
	if n > 0 && n < len(arr) {
		arr = arr[:n]
	}
	if horizon > 0 && len(arr) > 1 && arr[len(arr)-1] > 0 {
		scale := horizon / arr[len(arr)-1]
		for i := range arr {
			arr[i] *= scale
		}
	}
	return arr, nil
}
