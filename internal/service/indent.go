package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
)

// The cache holds each response as the bytes it writes: the value's
// json.Marshal encoding, indented as json.MarshalIndent indents it, and a
// newline. A miss encodes its response once, with encodeBody, and a hit
// writes the cached slice as it is.

// encodeBufs are one encodeBody call's scratch buffers, pooled: the
// compact encoding and its indented form.
type encodeBufs struct {
	compact  bytes.Buffer
	indented []byte
}

var encodePool = sync.Pool{New: func() any { return new(encodeBufs) }}

// encodeBody returns the response bytes of v: what json.MarshalIndent(v,
// "", "  ") writes plus a newline. It encodes v compact into a pooled
// buffer, indents that in one pass into another (several times faster
// than json.Indent) and returns a copy, which the cache may keep for as
// long as the entry lives. The copy's capacity is the size class the
// runtime allocated for it, so the cache, which counts an entry by its
// body's capacity, counts all the memory the body holds.
func encodeBody(v any) ([]byte, error) {
	b := encodePool.Get().(*encodeBufs)
	defer encodePool.Put(b)
	b.compact.Reset()
	// Encode writes json.Marshal's bytes and a newline, which appendIndent
	// copies through.
	if err := json.NewEncoder(&b.compact).Encode(v); err != nil {
		return nil, err
	}
	b.indented = appendIndent(b.indented[:0], b.compact.Bytes())
	return bytes.Clone(b.indented), nil
}

// writeCached writes a response body encodeBody produced, now or for an
// earlier request, tagging cache status in the X-Cache header.
func writeCached(w http.ResponseWriter, body []byte, hit bool) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if hit {
		h.Set("X-Cache", "HIT")
	} else {
		h.Set("X-Cache", "MISS")
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // the connection is gone; nothing to do
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
