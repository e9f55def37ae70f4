package obs

import (
	"sync"
	"testing"
)

// TestConcurrentEmitAndDrain exercises the event bus the way the
// testbed does — one emitting goroutine per GPU — with a reader taking
// snapshots concurrently, the shape hared's /events endpoint sees.
// Run with -race.
func TestConcurrentEmitAndDrain(t *testing.T) {
	const (
		emitters  = 8
		perEmit   = 500
		ringSlots = 64
	)
	ring := NewRingSink(ringSlots)
	collect := NewCollectSink()
	rec := NewRecorder(ring, collect)

	var emitWG sync.WaitGroup
	for g := 0; g < emitters; g++ {
		emitWG.Add(1)
		go func(g int) {
			defer emitWG.Done()
			for i := 0; i < perEmit; i++ {
				rec.Emit(Event{Type: EvTaskFinish, Time: float64(i), GPU: g, Job: i % 4})
			}
		}(g)
	}

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			batch := ring.Snapshot()
			// Snapshots must be internally oldest-first.
			for i := 1; i < len(batch); i++ {
				if batch[i].GPU == batch[i-1].GPU && batch[i].Time < batch[i-1].Time {
					t.Errorf("snapshot out of order for gpu %d: %g after %g",
						batch[i].GPU, batch[i].Time, batch[i-1].Time)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	emitWG.Wait()
	close(stop)
	readerWG.Wait()

	want := emitters * perEmit
	if ring.total != uint64(want) {
		t.Errorf("ring total = %d, want %d", ring.total, want)
	}
	if got := len(collect.Events()); got != want {
		t.Errorf("collect sink kept %d events, want %d", got, want)
	}
	// Everything is either still retained or was overwritten.
	if kept := len(ring.Snapshot()); kept+int(ring.dropped) != want {
		t.Errorf("retained %d + dropped %d != emitted %d", kept, ring.dropped, want)
	}
}

// TestSeqRecorderRecordsInStampOrder: a sequencing recorder's sinks see
// events in Seq order however many goroutines emit — the contract raw
// consumers (JSONL streams, flight dumps, harectl tail) rely on.
func TestSeqRecorderRecordsInStampOrder(t *testing.T) {
	const emitters, perEmit = 8, 2000
	collect := NewCollectSink()
	rec := NewSeqRecorder(collect)
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmit; i++ {
				rec.Emit(Event{Type: EvTaskFinish, GPU: g})
			}
		}(g)
	}
	wg.Wait()
	events := collect.Events()
	if len(events) != emitters*perEmit {
		t.Fatalf("recorded %d events, want %d", len(events), emitters*perEmit)
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d recorded with seq %d", i, e.Seq)
		}
	}
}
