package service

import (
	"net/http"
	"sync"
)

// The cache holds response bodies compact, as json.Marshal writes them,
// at about half the size of the indented form; writeCached indents them
// on the way out, in one pass into a pooled buffer.

// indentPool recycles the buffers writeCached indents bodies into.
var indentPool = sync.Pool{New: func() any { return new([]byte) }}

// writeCached emits a response body produced (now or earlier) by the
// planners, indented, tagging cache status in the X-Cache header.
func writeCached(w http.ResponseWriter, body []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	w.WriteHeader(http.StatusOK)
	buf := indentPool.Get().(*[]byte)
	*buf = append(appendIndent((*buf)[:0], body), '\n')
	w.Write(*buf) //nolint:errcheck // the connection is gone; nothing to do
	indentPool.Put(buf)
}

// newlines is a newline followed by the indentation of the first levels.
const newlines = "\n                                "

// appendIndent appends src, compact JSON as json.Marshal writes it, to
// dst indented as json.MarshalIndent(v, "", "  ") indents the same value:
// one value or member per line, two spaces a level, ": " after a key, and
// empty objects and arrays kept as {} and []. Each run of bytes up to a
// structural byte outside a string, whole strings included, is copied in
// one append. It does not validate src.
func appendIndent(dst, src []byte) []byte {
	depth, run := 0, 0 // run is the start of the bytes not yet copied
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '"':
			for i++; i < len(src) && src[i] != '"'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
		case ',':
			dst = newline(append(dst, src[run:i+1]...), depth)
			run = i + 1
		case ':':
			dst = append(append(dst, src[run:i+1]...), ' ')
			run = i + 1
		case '{', '[':
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				i++ // empty: copied with the run
				continue
			}
			depth++
			dst = newline(append(dst, src[run:i+1]...), depth)
			run = i + 1
		case '}', ']':
			depth--
			dst = newline(append(dst, src[run:i]...), depth)
			run = i
		}
	}
	return append(dst, src[run:]...)
}

// newline appends a newline and the indentation of depth levels.
func newline(dst []byte, depth int) []byte {
	if n := 1 + 2*depth; n <= len(newlines) {
		return append(dst, newlines[:n]...)
	}
	dst = append(dst, newlines...)
	for k := (len(newlines) - 1) / 2; k < depth; k++ {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
