package rpcnet

import (
	"encoding/binary"
	"fmt"
	"math"

	"hare/internal/core"
	"hare/internal/switching"
	"hare/internal/testbed"
	"hare/internal/trace"
)

// The journal's one binary layout: appendRecord/decodeRecord for WAL
// records, appendSnapshot/decodeSnapshot for the coordinator snapshot
// (docs/ROBUSTNESS.md, "Journal layout"). A payload is layoutVersion
// followed by the fields in declaration order:
//
//   - integers as varints, signed ones zig-zagged (encoding/binary);
//   - a float64 as its eight little-endian IEEE-754 bytes;
//   - a bool as one byte, 0 or 1, and so a pointer's presence;
//   - a string as its byte length, then the bytes;
//   - a slice as its length plus one (0 for nil, so a decoded state holds
//     nil and empty slices exactly as the live one did), then the
//     elements.
//
// The decoder holds every count against the bytes left — at least
// minimum-size bytes an element — before it allocates, so a corrupt
// count costs an error, not memory. It refuses whatever the encoder
// would not have written (a non-minimal varint, a bool byte other than
// 0 or 1, trailing bytes), so a payload it accepts re-encodes to the
// same bytes (FuzzJournalDecode).

// layoutVersion leads every record, snapshot and wire frame (wire.go).
// Its high bit keeps it clear of the first byte of any gob stream (a
// length below 0x80 or a negated byte count of 0xf8 and up), so a
// journal written before this layout, or a peer still speaking gob,
// fails with the version named, not as a corrupt payload.
const layoutVersion byte = 0x82

// Minimum encoded sizes of the elements whose slices can be long.
const (
	minTask   = 3                     // three varints
	minPush   = minTask + 1 + 3*8 + 3 // task, GPU, three floats, hit, retries, gradient prefix
	minGPU    = 1 + minTask + 3 + 1 + 8
	minJob    = 1 + 1 + 1 + 2*8 + 2
	minFence  = 1 + 1 + 2*8
	minRecord = minTask + 1 + 4*8
)

type encoder struct{ b []byte }

func (e *encoder) uint(x uint64)   { e.b = binary.AppendUvarint(e.b, x) }
func (e *encoder) int(x int)       { e.b = binary.AppendVarint(e.b, int64(x)) }
func (e *encoder) float(x float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(x)) }

func (e *encoder) bool(x bool) {
	if x {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *encoder) str(s string) {
	e.uint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// count writes a slice's prefix.
func (e *encoder) count(n int, isNil bool) bool {
	if isNil {
		e.uint(0)
		return false
	}
	e.uint(uint64(n) + 1)
	return true
}

func (e *encoder) floats(s []float64) {
	if e.count(len(s), s == nil) {
		for _, x := range s {
			e.float(x)
		}
	}
}

func (e *encoder) task(t core.TaskRef) {
	e.int(int(t.Job))
	e.int(t.Round)
	e.int(t.Index)
}

func (e *encoder) tasks(s []core.TaskRef) {
	if e.count(len(s), s == nil) {
		for _, t := range s {
			e.task(t)
		}
	}
}

// slice writes s with put for each element.
func slice[T any](e *encoder, s []T, put func(*encoder, *T)) {
	if e.count(len(s), s == nil) {
		for i := range s {
			put(e, &s[i])
		}
	}
}

type decoder struct {
	b   []byte
	err error
}

// fail records the first error and empties the input, so every later
// read yields a zero value without allocating.
func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

func (d *decoder) uint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decoder) int() int {
	ux := d.uint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	if int64(int(x)) != x {
		d.fail("integer %d out of range", x)
	}
	return int(x)
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail("short float")
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return x
}

func (d *decoder) bool() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail("bad bool")
		return false
	}
	x := d.b[0] == 1
	d.b = d.b[1:]
	return x
}

func (d *decoder) str() string {
	n := d.uint()
	if n > uint64(len(d.b)) {
		d.fail("string of %d bytes in %d", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads a slice's prefix: the length, and whether the slice is
// non-nil. The length is held against the bytes left at minSize bytes
// an element.
func (d *decoder) count(minSize int) (int, bool) {
	c := d.uint()
	if c == 0 {
		return 0, false
	}
	if n := c - 1; n <= uint64(len(d.b)/minSize) {
		return int(n), true
	}
	d.fail("%d elements in %d bytes", c-1, len(d.b))
	return 0, false
}

func (d *decoder) floats() []float64 {
	n, ok := d.count(8)
	if !ok {
		return nil
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = d.float()
	}
	return s
}

func (d *decoder) task() core.TaskRef {
	return core.TaskRef{Job: core.JobID(d.int()), Round: d.int(), Index: d.int()}
}

func (d *decoder) tasks() []core.TaskRef {
	n, ok := d.count(minTask)
	if !ok {
		return nil
	}
	s := make([]core.TaskRef, n)
	for i := range s {
		s[i] = d.task()
	}
	return s
}

// unslice reads a slice written by slice, with get for each element of
// at least minSize bytes.
func unslice[T any](d *decoder, minSize int, get func(*decoder, *T)) []T {
	n, ok := d.count(minSize)
	if !ok {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		get(d, &s[i])
	}
	return s
}

// begin checks the layout version of a payload.
func (d *decoder) begin(what string) {
	switch {
	case len(d.b) == 0:
		d.fail("empty %s", what)
		return
	case d.b[0] != layoutVersion:
		d.fail("%s starts with %#x, not journal layout version %#x (a journal written by an older build cannot be read by this one)",
			what, d.b[0], layoutVersion)
		return
	}
	d.b = d.b[1:]
}

// end reports the decode's outcome: its first error, or trailing bytes.
func (d *decoder) end() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	return d.err
}

// appendRecord appends rec's encoding to b. Only the payload of rec's
// kind is written; a kind this build does not know has none.
func appendRecord(b []byte, rec *testbed.Record) []byte {
	e := encoder{append(b, layoutVersion)}
	e.uint(rec.LSN)
	e.b = append(e.b, rec.Kind)
	e.float(rec.SimTime)
	switch rec.Kind {
	case testbed.RecPush:
		putPush(&e, &rec.Push)
	case testbed.RecFence:
		if fp := rec.Fence; fp != nil {
			e.bool(true)
			e.int(fp.GPU)
			e.str(fp.Reason)
			e.float(fp.SimTime)
			e.float(fp.DetectMillis)
			e.tasks(fp.Stranded)
			if e.count(len(fp.Queues), fp.Queues == nil) {
				for _, q := range fp.Queues {
					e.tasks(q)
				}
			}
			e.tasks(fp.Inflight)
			e.bool(fp.HasQueues)
			e.str(fp.Unrecoverable)
			e.int(fp.Pending)
			e.int(fp.Alive)
		} else {
			e.bool(false)
		}
	case testbed.RecReport:
		e.int(rec.GPU)
		e.str(rec.Err)
	}
	return e.b
}

// decodeRecord decodes one WAL record written by appendRecord.
func decodeRecord(p []byte) (*testbed.Record, error) {
	d := decoder{b: p}
	d.begin("record")
	rec := &testbed.Record{LSN: d.uint()}
	if len(d.b) > 0 {
		rec.Kind, d.b = d.b[0], d.b[1:]
	} else {
		d.fail("record without a kind")
	}
	rec.SimTime = d.float()
	switch rec.Kind {
	case testbed.RecPush:
		getPush(&d, &rec.Push)
	case testbed.RecFence:
		if d.bool() {
			fp := &testbed.FencePlan{GPU: d.int(), Reason: d.str(), SimTime: d.float(), DetectMillis: d.float(), Stranded: d.tasks()}
			if n, ok := d.count(1); ok {
				fp.Queues = make([][]core.TaskRef, n)
				for g := range fp.Queues {
					fp.Queues[g] = d.tasks()
				}
			}
			fp.Inflight, fp.HasQueues, fp.Unrecoverable, fp.Pending, fp.Alive = d.tasks(), d.bool(), d.str(), d.int(), d.int()
			rec.Fence = fp
		}
	case testbed.RecReport:
		rec.GPU, rec.Err = d.int(), d.str()
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return rec, nil
}

func putPush(e *encoder, p *testbed.PushReport) {
	e.task(p.Task)
	e.int(p.GPU)
	e.float(p.Start)
	e.float(p.TrainEnd)
	e.float(p.Switch)
	e.bool(p.Hit)
	e.int(p.Retries)
	e.floats(p.Grad)
}

func getPush(d *decoder, p *testbed.PushReport) {
	*p = testbed.PushReport{
		Task: d.task(), GPU: d.int(), Start: d.float(), TrainEnd: d.float(), Switch: d.float(),
		Hit: d.bool(), Retries: d.int(), Grad: d.floats(),
	}
}

// instance writes a presence byte, then in's jobs, GPU count and time
// matrices: the snapshot's header and the Config handshake's reply.
func (e *encoder) instance(in *core.Instance) {
	e.bool(in != nil)
	if in == nil {
		return
	}
	slice(e, in.Jobs, func(e *encoder, jp **core.Job) {
		j := *jp
		e.int(int(j.ID))
		e.str(j.Name)
		e.str(j.Model)
		e.float(j.Weight)
		e.float(j.Arrival)
		e.int(j.Rounds)
		e.int(j.Scale)
	})
	e.int(in.NumGPUs)
	slice(e, in.Train, func(e *encoder, row *[]float64) { e.floats(*row) })
	slice(e, in.Sync, func(e *encoder, row *[]float64) { e.floats(*row) })
}

func (d *decoder) instance() *core.Instance {
	if !d.bool() {
		return nil
	}
	in := &core.Instance{
		Jobs: unslice(d, minJob, func(d *decoder, jp **core.Job) {
			*jp = &core.Job{
				ID: core.JobID(d.int()), Name: d.str(), Model: d.str(), Weight: d.float(), Arrival: d.float(),
				Rounds: d.int(), Scale: d.int(),
			}
		}),
		NumGPUs: d.int(),
	}
	in.Train = unslice(d, 1, func(d *decoder, row *[]float64) { *row = d.floats() })
	in.Sync = unslice(d, 1, func(d *decoder, row *[]float64) { *row = d.floats() })
	return in
}

// appendSnapshot appends snap's encoding to b.
func appendSnapshot(b []byte, snap *coordSnapshot) []byte {
	e := encoder{append(b, layoutVersion)}
	e.float(snap.SimTime)
	e.str(snap.FaultSpec)
	o := &snap.Opts
	e.float(o.TimeScale)
	e.int(int(o.Scheme))
	e.bool(o.Speculative)
	e.int(int(o.HeartbeatMillis))
	e.int(int(o.LeaseMillis))
	e.int(o.SnapshotEvery)
	e.instance(snap.Instance)
	slice(&e, snap.GPUTypeNames, func(e *encoder, s *string) { e.str(*s) })
	slice(&e, snap.ModelNames, func(e *encoder, s *string) { e.str(*s) })
	e.uint(snap.LastLSN)

	st := &snap.State
	e.uint(st.Epoch)
	e.int(st.Recovered)
	slice(&e, st.GPUs, func(e *encoder, g *testbed.GPUState) {
		e.tasks(g.Queue)
		e.task(g.Inflight)
		e.bool(g.Failed)
		e.str(g.FenceReason)
		e.bool(g.Reported)
		e.int(int(g.PrevJob))
		e.float(g.PrevFree)
	})
	slice(&e, st.Jobs, func(e *encoder, j *testbed.PSState) {
		e.floats(j.Params)
		e.floats(j.Losses)
		e.floats(j.RoundEnds)
		slice(e, j.Partial, putPush)
	})
	e.int(st.TasksLeft)
	slice(&e, st.FenceLog, func(e *encoder, f *testbed.FenceInfo) {
		e.int(f.GPU)
		e.str(f.Reason)
		e.float(f.SimTime)
		e.float(f.DetectMillis)
	})
	slice(&e, st.Records, func(e *encoder, r *trace.TaskRecord) {
		e.task(r.Task)
		e.int(r.GPU)
		e.float(r.Start)
		e.float(r.Train)
		e.float(r.Sync)
		e.float(r.Switch)
	})
	e.floats(st.Completions)
	e.float(st.SwitchTot)
	e.int(st.SwitchCnt)
	e.int(st.Hits)
	e.int(st.Retries)
	e.int(st.Migrated)
	e.int(st.Reschedule)
	return e.b
}

// decodeSnapshot decodes a snapshot written by appendSnapshot. Its
// state is unbound (testbed.State.Bind).
func decodeSnapshot(p []byte) (*coordSnapshot, error) {
	d := decoder{b: p}
	d.begin("snapshot")
	snap := &coordSnapshot{
		SimTime:   d.float(),
		FaultSpec: d.str(),
		Opts: snapOpts{
			TimeScale: d.float(), Scheme: switching.Scheme(d.int()), Speculative: d.bool(),
			HeartbeatMillis: int64(d.int()), LeaseMillis: int64(d.int()), SnapshotEvery: d.int(),
		},
	}
	snap.Instance = d.instance()
	snap.GPUTypeNames = unslice(&d, 1, func(d *decoder, s *string) { *s = d.str() })
	snap.ModelNames = unslice(&d, 1, func(d *decoder, s *string) { *s = d.str() })
	snap.LastLSN = d.uint()

	st := &snap.State
	st.Epoch = d.uint()
	st.Recovered = d.int()
	st.GPUs = unslice(&d, minGPU, func(d *decoder, g *testbed.GPUState) {
		*g = testbed.GPUState{
			Queue: d.tasks(), Inflight: d.task(), Failed: d.bool(), FenceReason: d.str(), Reported: d.bool(),
			PrevJob: core.JobID(d.int()), PrevFree: d.float(),
		}
	})
	st.Jobs = unslice(&d, 4, func(d *decoder, j *testbed.PSState) {
		*j = testbed.PSState{Params: d.floats(), Losses: d.floats(), RoundEnds: d.floats(), Partial: unslice(d, minPush, getPush)}
	})
	st.TasksLeft = d.int()
	st.FenceLog = unslice(&d, minFence, func(d *decoder, f *testbed.FenceInfo) {
		*f = testbed.FenceInfo{GPU: d.int(), Reason: d.str(), SimTime: d.float(), DetectMillis: d.float()}
	})
	st.Records = unslice(&d, minRecord, func(d *decoder, r *trace.TaskRecord) {
		*r = trace.TaskRecord{Task: d.task(), GPU: d.int(), Start: d.float(), Train: d.float(), Sync: d.float(), Switch: d.float()}
	})
	st.Completions = d.floats()
	st.SwitchTot = d.float()
	st.SwitchCnt, st.Hits, st.Retries, st.Migrated, st.Reschedule = d.int(), d.int(), d.int(), d.int(), d.int()
	if err := d.end(); err != nil {
		return nil, err
	}
	return snap, nil
}
