package sched

import (
	"bytes"
	"testing"
)

// A cursor of every Parse-built scheduler, restored into a fresh
// instance, reproduces the original's activation sets exactly from that
// round on.
func TestCursorCodecResumes(t *testing.T) {
	specs := []string{"fsync", "ssync-rr:3", "ssync-rand:3", "ssync-lazy:5", "async:4"}
	cells := cellsN(23)
	const cut, tail = 9, 30
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			orig, err := Parse(spec, 42)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < cut; round++ {
				activate(orig, round, cells)
			}
			cursor := orig.AppendCursor(nil)
			if again := orig.AppendCursor(nil); !bytes.Equal(cursor, again) {
				t.Fatal("cursor encoding not deterministic")
			}

			fresh, err := Parse(spec, 42)
			if err != nil {
				t.Fatal(err)
			}
			rest, err := fresh.RestoreCursor(cursor)
			if err != nil {
				t.Fatal(err)
			}
			if len(rest) != 0 {
				t.Fatalf("%d trailing bytes", len(rest))
			}
			for round := cut; round < cut+tail; round++ {
				want := activate(orig, round, cells)
				got := activate(fresh, round, cells)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("round %d: activation diverged at %d", round, i)
					}
				}
			}
		})
	}
}

// A cursor restored into a scheduler with unconsumed input (extra bytes)
// must hand the remainder back; a truncated cursor must fail.
func TestCursorCodecFraming(t *testing.T) {
	for _, spec := range []string{"ssync-rand:3", "ssync-lazy:5", "async:4"} {
		s, _ := Parse(spec, 7)
		cells := cellsN(11)
		for round := 0; round < 5; round++ {
			activate(s, round, cells)
		}
		cursor := s.AppendCursor(nil)
		if len(cursor) == 0 {
			t.Fatalf("%s: stateful scheduler encoded an empty cursor", spec)
		}

		fresh, _ := Parse(spec, 7)
		rest, err := fresh.RestoreCursor(append(append([]byte(nil), cursor...), 0xEE, 0xFF))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if len(rest) != 2 {
			t.Errorf("%s: remainder = %d bytes, want 2", spec, len(rest))
		}

		fresh, _ = Parse(spec, 7)
		if _, err := fresh.RestoreCursor(cursor[:len(cursor)-1]); err == nil {
			t.Errorf("%s: truncated cursor accepted", spec)
		}
	}
}
