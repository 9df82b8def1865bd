package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// stringSeeds cover every escaping rule: HTML characters, quotes and
// backslashes, named and numbered control bytes, DEL, U+2028/U+2029,
// invalid and truncated UTF-8, and valid multi-byte text.
var stringSeeds = []string{
	"", "plain", `<script>&"x"</script>`, `back\slash`, "\b\f\n\r\t\x00\x01\x1f\x7f",
	"line\u2028para\u2029end", "\xff", "ok\xc3", "\xe2\x80", "\xed\xa0\x80", "h\u00e9llo \u2713 \U0001d11e",
	"\ufffd", "a\x80b\xc0\xafc",
}

func FuzzAppendString(f *testing.F) {
	for _, s := range stringSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal = %s", s, got, want)
		}
	})
}

func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.999999e-7, 1e-7, 1e20, 1e21, -1e21,
		123456.789, 1.5e300, 5e-324, math.MaxFloat64, 1e6 / 3} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		want, err := json.Marshal(v)
		if err != nil { // NaN and the infinities: outside AppendFloat's domain
			return
		}
		if got := AppendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, json.Marshal = %s", v, got, want)
		}
	})
}

// TestWriteHandsOverOneDocument checks that Write calls the writer once with
// the whole document, and that a reused buffer does not leak into the next
// document.
func TestWriteHandsOverOneDocument(t *testing.T) {
	for _, doc := range []string{"a long first document", "short"} {
		var w countingWriter
		if err := Write(&w, func(dst []byte) []byte { return append(dst, doc...) }); err != nil {
			t.Fatal(err)
		}
		if w.calls != 1 || w.buf.String() != doc {
			t.Errorf("Write: %d calls, %q; want 1 call, %q", w.calls, w.buf.String(), doc)
		}
	}
}

// TestWriteConcurrent has several goroutines share the scratch buffers, each
// checking that the document it wrote arrived whole.
func TestWriteConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			doc := strings.Repeat(string(rune('a'+g)), 100+1000*g)
			for range 200 {
				var w bytes.Buffer
				if err := Write(&w, func(dst []byte) []byte { return append(dst, doc...) }); err != nil {
					t.Error(err)
					return
				}
				if w.String() != doc {
					t.Errorf("goroutine %d: document corrupted", g)
					return
				}
			}
		}()
	}
	wg.Wait()
}

type countingWriter struct {
	buf   bytes.Buffer
	calls int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	return w.buf.Write(p)
}
