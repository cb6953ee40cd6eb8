package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzIndent checks the single-pass indenter against json.Indent, the
// second half of json.MarshalIndent, on compact JSON: the json.Marshal
// encoding of whatever value the input decodes to, and the input itself
// compacted, which keeps its own escapes and number spellings. The seeds
// are one response of each planning endpoint, compacted as a miss
// encodes it before indenting.
func FuzzIndent(f *testing.F) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	h := s.Handler()
	for _, e := range endpointRequests {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, e.path, strings.NewReader(e.body)))
		var compact bytes.Buffer
		if err := json.Compact(&compact, rec.Body.Bytes()); rec.Code != http.StatusOK || err != nil {
			f.Fatalf("%s: status %d (%v): %s", e.path, rec.Code, err, rec.Body.Bytes())
		}
		f.Add(compact.Bytes())
	}
	f.Add([]byte(`{"a":[],"b":{},"c":[{},[]],"d":"\\\"{[,:]}\\\\","e":[[1,-2.5e-7],{"f":null,"g":true}],""":"<&>"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		if json.Unmarshal(data, &v) != nil {
			return
		}
		marshaled, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var compacted bytes.Buffer
		if err := json.Compact(&compacted, data); err != nil {
			t.Fatal(err)
		}
		for _, src := range [][]byte{marshaled, compacted.Bytes()} {
			var want bytes.Buffer
			if err := json.Indent(&want, src, "", "  "); err != nil {
				t.Fatal(err)
			}
			if got := appendIndent(nil, src); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("appendIndent(%q)\n got %q\nwant %q", src, got, want.Bytes())
			}
		}
	})
}

// TestIndentDeepNesting covers indentation past the precomputed levels.
func TestIndentDeepNesting(t *testing.T) {
	src := []byte(strings.Repeat(`{"k":[`, 20) + "1" + strings.Repeat("]}", 20))
	var want bytes.Buffer
	if err := json.Indent(&want, src, "", "  "); err != nil {
		t.Fatal(err)
	}
	if got := appendIndent(nil, src); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("got %q\nwant %q", got, want.Bytes())
	}
}
