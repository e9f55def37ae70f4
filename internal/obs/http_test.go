package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hare_test_total").Add(12)
	ring := NewRingSink(8)
	ring.Record(Event{Type: EvTaskFinish, Time: 1, GPU: 0, Job: 0})
	ring.Record(Event{Type: EvJobSwitch, Time: 2, GPU: 0, Job: 1, From: 0})
	ring.Record(Event{Type: EvTaskFinish, Time: 3, GPU: 0, Job: 1})
	srv := httptest.NewServer(Handler(reg, ring))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "hare_test_total 12") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get("/events"); code != 200 || strings.Count(body, "\n") != 3 {
		t.Errorf("/events = %d %q", code, body)
	}
	code, body := get("/events?type=job-switch&n=5")
	if code != 200 || strings.Count(body, "\n") != 1 {
		t.Errorf("filtered /events = %d %q", code, body)
	}
	events, err := ReadJSONL(strings.NewReader(body))
	if err != nil || len(events) != 1 || events[0].Type != EvJobSwitch {
		t.Errorf("filtered /events decoded to %+v (err %v)", events, err)
	}
	if code, _ := get("/events?type=bogus"); code != 400 {
		t.Errorf("bad type filter returned %d, want 400", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("unknown path returned %d, want 404", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q", code, body)
	}
}
