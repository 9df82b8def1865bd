// Package jsonw appends JSON scalars byte-for-byte as encoding/json encodes
// them, for exporters that lay out a whole document by hand in one pass
// instead of reflecting over a value tree and re-indenting the result.
package jsonw

import (
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// safe marks the ASCII bytes AppendString copies unescaped.
var safe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// AppendString appends s as a quoted JSON string, exactly as json.Marshal
// writes it: HTML-safe (<, > and & become \u003c, \u003e and \u0026), control
// bytes escaped (\b \f \n \r \t by name, the rest as \u00XX), each invalid
// UTF-8 byte replaced by \ufffd, and U+2028/U+2029 escaped.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as json.Marshal writes a float64: the shortest
// decimal that round-trips, in 'f' notation, or in 'e' notation with a
// trimmed exponent (1e-7, not 1e-07) when |f| is below 1e-6 or at least
// 1e21. f must be finite; encoding/json refuses NaN and the infinities.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// maxPooled bounds the documents whose buffer goes back to the pool, so one
// long run's export does not stay pinned in memory for later small ones.
const maxPooled = 4 << 20

var docPool = sync.Pool{New: func() any { return new([]byte) }}

// Write lets build append a whole document to a reused scratch buffer and
// hands it to w in a single Write. A bytes.Buffer destination therefore
// allocates the document once, at its final size, with no growth slack for
// whoever keeps the bytes.
func Write(w io.Writer, build func(dst []byte) []byte) error {
	p := docPool.Get().(*[]byte)
	doc := build((*p)[:0])
	_, err := w.Write(doc)
	if cap(doc) <= maxPooled {
		*p = doc
		docPool.Put(p)
	}
	return err
}
