package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestReadJSONLRejectsUnknownType: a type number that names no event
// type — garbage, or the number of a retired type — fails the read at
// its line instead of decoding to Type(n).
func TestReadJSONLRejectsUnknownType(t *testing.T) {
	for _, typ := range []int{200, 5, 8} {
		in := fmt.Sprintf("{\"type\":0,\"time\":1,\"gpu\":0,\"job\":0}\n\n{\"type\":%d,\"time\":2,\"gpu\":0,\"job\":0}\n", typ)
		events, err := ReadJSONL(strings.NewReader(in))
		if want := fmt.Sprintf("line 3: unknown event type %d", typ); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("type %d: ReadJSONL = %+v, %v; want an error containing %q", typ, events, err, want)
		}
	}
}

// FuzzReadJSONL: ReadJSONL never panics, accepts only known event
// types, and what it accepts re-encodes (the JSONLSink line format) and
// decodes to the same events.
func FuzzReadJSONL(f *testing.F) {
	var all bytes.Buffer
	for i := range typeNames {
		e := Event{Type: Type(i), Time: 1.5, GPU: 1, Job: 2, Round: 3, Dur: 0.25, Note: "n", Seq: 4}
		if !e.Type.known() {
			continue
		}
		line, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
		all.Write(line)
		all.WriteByte('\n')
	}
	f.Add(all.Bytes())
	f.Add([]byte("\n"))
	f.Add(all.Bytes()[:all.Len()/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		for _, e := range events {
			if !e.Type.known() {
				t.Fatalf("accepted an event of unknown type: %+v", e)
			}
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatalf("accepted event %+v does not encode: %v", e, err)
			}
			enc.Write(line)
			enc.WriteByte('\n')
		}
		back, err := ReadJSONL(&enc)
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v\n%s", err, enc.String())
		}
		if len(back) != len(events) || (len(events) > 0 && !reflect.DeepEqual(back, events)) {
			t.Fatalf("round trip changed the events:\n got %+v\nwant %+v", back, events)
		}
	})
}
