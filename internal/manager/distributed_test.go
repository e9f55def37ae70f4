package manager

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"hare/internal/faults"
	"hare/internal/rpcnet"
)

func TestDistributedBackendBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real TCP control plane")
	}
	m := testManager(&DistributedBackend{
		TimeScale: 1e-4,
		Journal:   rpcnet.NewMemJournal(),
	})
	var ids []int
	for _, name := range []string{"ResNet50", "GraphSAGE"} {
		id, err := m.Submit(req(name, 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	res, err := m.ExecuteBatch()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 2 || res.Makespan <= 0 {
		t.Fatalf("batch result %+v", res)
	}
	for _, id := range ids {
		st, _ := m.Status(id)
		if st.State != StateDone || st.Completion <= 0 {
			t.Errorf("job %d: %+v", id, st)
		}
	}
}

// TestDistributedBackendClosesCoordinator: each batch's coordinator —
// listener, accept goroutine, lease monitor — is gone once Execute
// returns, so a long-lived manager's goroutine count does not grow
// with the batches it has run.
func TestDistributedBackendClosesCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real TCP control plane")
	}
	m := testManager(&DistributedBackend{TimeScale: 1e-4})
	before := runtime.NumGoroutine()
	for batch := 0; batch < 5; batch++ {
		if _, err := m.Submit(req("ResNet50", 2, 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ExecuteBatch(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	// net/rpc's ServeConn goroutines drain asynchronously after the
	// connections close; poll (up to 5 s) until the count settles back.
	for tries := 0; runtime.NumGoroutine() > before; tries++ {
		if tries == 500 {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked over 5 batches: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond) //lint:allow walltime waiting for real goroutines to exit
	}
}

func TestInProcessBackendsRejectNetChaos(t *testing.T) {
	plan, err := faults.Parse("netdrop=0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, back := range []Backend{
		&TestbedBackend{Faults: plan},
		&SimBackend{Faults: plan},
	} {
		m := testManager(back)
		if _, err := m.Submit(req("ResNet50", 1, 1)); err != nil {
			t.Fatal(err)
		}
		_, err := m.ExecuteBatch()
		if err == nil || !strings.Contains(err.Error(), "requires the distributed backend") {
			t.Errorf("%T: want net-chaos rejection, got %v", back, err)
		}
	}
}

func TestDistributedBackendRejectsCoordDowns(t *testing.T) {
	plan, err := faults.Parse("codown=1+50ms")
	if err != nil {
		t.Fatal(err)
	}
	m := testManager(&DistributedBackend{Faults: plan})
	if _, err := m.Submit(req("ResNet50", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExecuteBatch(); err == nil || !strings.Contains(err.Error(), "harechaos") {
		t.Errorf("want codown rejection, got %v", err)
	}
}
