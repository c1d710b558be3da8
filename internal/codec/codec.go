// Package codec is the binary substrate of the simulation snapshot format:
// append-style writers and a sticky-error reader over varint-encoded
// primitives. Every stateful layer of a checkpoint — the dense world, the
// engine counters, the scheduler cursors, the public session header —
// encodes through this package, so truncation and corruption surface as
// one typed error (ErrTruncated) instead of per-layer ad-hoc checks.
//
// The encoding is deliberately minimal: unsigned and zig-zag varints
// (encoding/binary wire format) plus length-prefixed byte strings. There
// is no reflection, no field tags and no self-description — snapshot
// layouts are versioned by the outermost header, and each layer reads
// exactly what it wrote.
//
//gather:deterministic
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is returned (wrapped) by Reader when the input ends in the
// middle of a value. Callers use errors.Is to distinguish a short snapshot
// from a structurally invalid one.
var ErrTruncated = errors.New("codec: input truncated")

// AppendUvarint appends v in unsigned varint encoding.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v in zig-zag varint encoding.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendInt appends a machine int (zig-zag varint).
func AppendInt(b []byte, v int) []byte {
	return binary.AppendVarint(b, int64(v))
}

// AppendBool appends a bool as one byte (0 or 1).
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Reader decodes values appended by the Append helpers. Errors are sticky:
// after the first failure every subsequent read returns the zero value and
// Err() reports the failure, so decode sequences read straight through and
// check once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a reader over b (which is not copied; the caller must
// not mutate it while reading).
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Rest returns the unread remainder without consuming it.
func (r *Reader) Rest() []byte { return r.b }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint. A short buffer is truncation
// (ErrTruncated); an over-long encoding (binary.Uvarint overflow, n < 0)
// is corruption and reports a plain error — callers distinguish "fetch
// more bytes" from "discard corrupt input" via errors.Is. So is a
// non-minimal encoding (a final zero byte after continuation bytes): it
// decodes to a value whose re-encoding differs, and equal states must
// have equal bytes.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail(fmt.Errorf("%w: bad uvarint", ErrTruncated))
		return 0
	case n < 0:
		r.fail(errors.New("codec: uvarint overflows 64 bits"))
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.fail(errors.New("codec: non-minimal uvarint"))
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zig-zag varint (same truncation/corruption split and
// minimality rule as Uvarint).
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	switch {
	case n == 0:
		r.fail(fmt.Errorf("%w: bad varint", ErrTruncated))
		return 0
	case n < 0:
		r.fail(errors.New("codec: varint overflows 64 bits"))
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.fail(errors.New("codec: non-minimal varint"))
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a machine int (zig-zag varint), failing on values outside the
// platform's int range.
func (r *Reader) Int() int {
	v := r.Varint()
	if v > math.MaxInt || v < math.MinInt {
		r.fail(fmt.Errorf("codec: varint %d outside int range", v))
		return 0
	}
	return int(v)
}

// Bool reads a one-byte bool, rejecting values other than 0 and 1.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.b) == 0 {
		r.fail(fmt.Errorf("%w: bad bool", ErrTruncated))
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	if v > 1 {
		r.fail(fmt.Errorf("codec: bad bool byte %d", v))
		return false
	}
	return v == 1
}

// Text reads a length-prefixed string (named Text, not String, so the
// reader does not accidentally satisfy fmt.Stringer).
func (r *Reader) Text() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail(fmt.Errorf("%w: string of %d bytes, %d left", ErrTruncated, n, len(r.b)))
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}
