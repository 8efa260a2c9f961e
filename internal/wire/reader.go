package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Reader reads varints, counts and float64s off a byte slice. Its error
// saturates: after the first failure every read returns zero and Err
// reports that failure, so a decoder checks once at the end. The caller
// wraps Err in its own error.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first failed read's error, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the bytes not read yet.
func (r *Reader) Rest() []byte { return r.b }

// Done returns Err, or an error naming the bytes left if any are: a
// decoder that read a whole encoding calls it last.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errors.New("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a signed varint: a zigzag-encoded Uvarint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Count reads the length of a collection, an unsigned varint. Each element
// takes at least one byte, so a count above the bytes left fails: a
// corrupt count cannot drive a huge allocation.
func (r *Reader) Count() int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(len(r.b)) {
		r.err = fmt.Errorf("count %d exceeds the %d bytes left", v, len(r.b))
		return 0
	}
	return int(v)
}

// zeros is what take returns once a read failed.
var zeros [8]byte

// take returns the next n <= 8 bytes, or n zero bytes once a read failed.
func (r *Reader) take(n int, what string) []byte {
	if r.err == nil && len(r.b) < n {
		r.err = errors.New("truncated " + what)
	}
	if r.err != nil {
		return zeros[:n]
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// Float64 reads a little-endian IEEE 754 float64.
func (r *Reader) Float64() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r.take(8, "float64")))
}

// Byte reads one byte.
func (r *Reader) Byte() byte { return r.take(1, "byte")[0] }

// Varints reads a count and that many signed varints; a count of zero
// reads as nil.
func Varints[T int | int64](r *Reader) []T {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(r.Varint())
	}
	return out
}
