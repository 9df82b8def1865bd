package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// oracleWriteJSON is the encoding/json form of WriteJSON, the reference the
// hand-written writer must match byte for byte.
func oracleWriteJSON(t *testing.T, r *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// adversarialNames exercise every string escaping rule: HTML characters,
// quotes, backslashes, control bytes, U+2028/U+2029, invalid UTF-8 and
// non-ASCII text.
var adversarialNames = []string{
	"<b>&amp;</b>", `say "hi"`, `C:\dir\file`, "ctl\x00\x01\b\f\t\r\n\x1f\x7f",
	"ls\u2028ps\u2029", "bad\xff\xc3", "\xe2\x80", "h\u00e9llo \u2713 \U0001d11e",
}

func TestWriteJSONMatchesEncoder(t *testing.T) {
	full := NewRegistry()
	for i, s := range adversarialNames {
		full.Counter("c_"+s, s, L(s, s), L("n", s)).Add(uint64(i))
		g := full.Gauge("g", s, L("k", s))
		g.Set(int64(i + 1))
		g.Set(int64(-i))
	}
	full.Counter("zero_total", "")
	full.Histogram("no_buckets", "a histogram with zero buckets", nil).Observe(7)
	full.Histogram("empty", "never observed", []int64{1, 10})
	h := full.Histogram("resp", "response <time>", TimeBuckets(), L("task", "a&b"))
	for _, v := range []int64{-5, 0, 3, 1 << 40, 1 << 62} {
		h.Observe(v)
	}
	// 2e6 observations summing to 1: a mean below 1e-6, which encoding/json
	// writes in exponent form.
	tiny := full.Histogram("tiny_mean", "", []int64{0})
	tiny.Observe(1)
	for range 2_000_000 - 1 {
		tiny.Observe(0)
	}

	cases := []struct {
		name string
		reg  *Registry
	}{
		{"nil registry", nil},
		{"empty registry", NewRegistry()},
		{"adversarial", full},
	}
	for _, c := range cases {
		var got bytes.Buffer
		if err := c.reg.WriteJSON(&got); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := oracleWriteJSON(t, c.reg); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: WriteJSON differs from encoding/json\ngot:\n%s\nwant:\n%s", c.name, got.Bytes(), want)
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = errors.New("injected write failure")

func TestWriteJSONPropagatesWriteError(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Inc()
	if err := r.WriteJSON(failingWriter{}); !errors.Is(err, errWrite) {
		t.Errorf("WriteJSON to a failing writer returned %v, want the write error", err)
	}
}
