package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// digester hashes outputs for bit-identity checks. Values go in as JSON,
// whose float encoding round-trips exactly, so equal digests mean equal
// values bit for bit.
type digester struct{ h [sha256.Size]byte }

func newDigest() *digester { return &digester{} }

// json folds a value's JSON encoding into the digest.
func (d *digester) json(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("digest: %w", err)
	}
	d.bytes(b)
	return nil
}

// floats folds a float slice into the digest by bit pattern, cheaper than
// JSON for the long response-time series.
func (d *digester) floats(xs []float64) {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	d.bytes(b)
}

// bytes folds raw bytes, length-prefixed, into the digest.
func (d *digester) bytes(b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	h := sha256.New()
	h.Write(d.h[:])
	h.Write(n[:])
	h.Write(b)
	h.Sum(d.h[:0])
}

// hex returns the digest's first 16 bytes in hex.
func (d *digester) hex() string { return hex.EncodeToString(d.h[:16]) }

// expectPath is the committed digest file of a seed.
func expectPath(o *options) string {
	return filepath.Join(o.expectDir, fmt.Sprintf("seed%d.json", o.seed))
}

// checkExpect compares the run's digests with the committed ones for the
// seed, counting every mismatch as failed operations; a key the file does
// not hold is not checked. With -update-expect it records the run's
// digests in the file instead.
func checkExpect(o *options, r *report) error {
	path := expectPath(o)
	want := map[string]string{}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if !o.updateExpect {
			r.note("no committed digests for seed %d (%s); outputs checked for consistency only", o.seed, path)
			return nil
		}
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &want); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if o.updateExpect {
		for k, v := range r.digests {
			want[k] = v
		}
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(o.expectDir, 0o755); err != nil {
			return err
		}
		r.note("recorded %d digests in %s", len(r.digests), path)
		return os.WriteFile(path, append(out, '\n'), 0o644)
	}
	checked := 0
	for _, k := range sortedKeys(r.digests) {
		exp, ok := want[k]
		if !ok {
			continue
		}
		checked++
		if got := r.digests[k]; got != exp {
			r.fail(r.weights[k], "output digest %s = %s, committed %s", k, got, exp)
		}
	}
	r.note("checked %d of %d output digests against %s", checked, len(r.digests), path)
	return nil
}
