package codec

import (
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, -1)
	b = AppendInt(b, math.MinInt)
	b = AppendInt(b, math.MaxInt)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendString(b, "")
	b = AppendString(b, "hollow")

	r := NewReader(b)
	if v := r.Uvarint(); v != 0 {
		t.Errorf("uvarint = %d", v)
	}
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Errorf("uvarint = %d", v)
	}
	if v := r.Varint(); v != -1 {
		t.Errorf("varint = %d", v)
	}
	if v := r.Int(); v != math.MinInt {
		t.Errorf("int = %d", v)
	}
	if v := r.Int(); v != math.MaxInt {
		t.Errorf("int = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("bools did not round-trip")
	}
	if s := r.Text(); s != "" {
		t.Errorf("string = %q", s)
	}
	if s := r.Text(); s != "hollow" {
		t.Errorf("string = %q", s)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes left over", r.Len())
	}
}

// Every truncation point of a valid stream must surface as ErrTruncated,
// never as a zero value with a nil error.
func TestTruncation(t *testing.T) {
	var full []byte
	full = AppendUvarint(full, 1<<40)
	full = AppendVarint(full, -(1 << 40))
	full = AppendBool(full, true)
	full = AppendString(full, "snapshot")
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Uvarint()
		r.Varint()
		r.Bool()
		r.Text()
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, r.Err())
		}
	}
}

// Errors are sticky: reads after a failure return zero values and the
// first error is preserved.
func TestStickyError(t *testing.T) {
	r := NewReader(nil)
	r.Uvarint()
	first := r.Err()
	if first == nil {
		t.Fatal("expected error on empty input")
	}
	if v := r.Int(); v != 0 {
		t.Errorf("read after error = %d", v)
	}
	if s := r.Text(); s != "" {
		t.Errorf("read after error = %q", s)
	}
	if r.Err() != first {
		t.Error("first error not preserved")
	}
}

func TestBadBoolByte(t *testing.T) {
	r := NewReader([]byte{7})
	r.Bool()
	if r.Err() == nil || errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("err = %v, want a non-truncation failure", r.Err())
	}
}

// An over-long varint is corruption, not truncation: the bytes are all
// there, they just don't encode a 64-bit value.
func TestVarintOverflowIsNotTruncation(t *testing.T) {
	// 11 continuation bytes: binary.Uvarint reports overflow only once it
	// has consumed more than MaxVarintLen64 bytes; a 10-byte prefix of
	// 0xFF still reads as "buffer too small".
	overlong := bytesRepeat(0xFF, 11)
	r := NewReader(overlong)
	r.Uvarint()
	if r.Err() == nil || errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("uvarint overflow err = %v, want non-truncation", r.Err())
	}
	r = NewReader(overlong)
	r.Varint()
	if r.Err() == nil || errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("varint overflow err = %v, want non-truncation", r.Err())
	}
}

func bytesRepeat(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// A varint padded with a zero continuation byte decodes to the value its
// minimal form encodes; accepting it would let two byte strings restore to
// one state, so it is corruption.
func TestNonMinimalVarintIsCorruption(t *testing.T) {
	for _, b := range [][]byte{{0x80, 0x00}, {0xfc, 0x00}, {0x81, 0x80, 0x00}} {
		r := NewReader(b)
		r.Uvarint()
		if r.Err() == nil || errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("uvarint % x: err = %v, want non-truncation", b, r.Err())
		}
		r = NewReader(b)
		r.Varint()
		if r.Err() == nil || errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("varint % x: err = %v, want non-truncation", b, r.Err())
		}
	}
	// Minimal multi-byte encodings still read.
	r := NewReader(AppendVarint(AppendUvarint(nil, 1<<40), -(1 << 40)))
	if u, v := r.Uvarint(), r.Varint(); r.Err() != nil || u != 1<<40 || v != -(1<<40) {
		t.Errorf("minimal varints: %d, %d, %v", u, v, r.Err())
	}
}
