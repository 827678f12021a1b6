package core

import (
	"testing"
	"unsafe"

	"repro/internal/join"
	"repro/internal/matrix"
)

// message is the control and migration planes' unit: the struct orders
// fields by descending alignment and this test pins the layout to the
// padding-free size — the embedded tuple and mapping, one word for the
// sender id, then epoch+kind+expand packed into a single word. It also
// pins, on 64-bit, the bytes every routed tuple moves through the data
// plane: the 64-byte join.Tuple (its Size, Rel and Dummy share one
// word), which is also the source ring's item, and the result Pair. A
// tuple lands once in the envelope of its grid row or column, which
// every joiner of it shares, so on a (4,4) grid one input tuple costs a
// source slot plus one envelope body slot — 128 bytes, where four
// per-joiner message copies cost 448.
func TestMessageLayoutHasNoPadding(t *testing.T) {
	var m message
	tail := unsafe.Sizeof(m.from) + unsafe.Sizeof(m.epoch) +
		unsafe.Sizeof(m.kind) + unsafe.Sizeof(m.expand)
	// The four trailing scalars round up to two words on 64-bit.
	tailWords := (tail + unsafe.Sizeof(uintptr(0)) - 1) / unsafe.Sizeof(uintptr(0))
	want := unsafe.Sizeof(join.Tuple{}) + unsafe.Sizeof(matrix.Mapping{}) +
		tailWords*unsafe.Sizeof(uintptr(0))
	if got := unsafe.Sizeof(m); got != want {
		t.Fatalf("sizeof(message) = %d, want %d (padding crept into the layout)", got, want)
	}
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the byte sizes below are the 64-bit layout")
	}
	var e envelope
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"join.Tuple", unsafe.Sizeof(join.Tuple{}), 64},
		{"join.Pair", unsafe.Sizeof(join.Pair{}), 128},
		{"message", unsafe.Sizeof(message{}), 96},
		{"data-plane bytes per input tuple on a (4,4) grid", unsafe.Sizeof(join.Tuple{}) + unsafe.Sizeof(e.tuples[0]), 128},
	} {
		if c.got != c.want {
			t.Errorf("sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// The kind byte is on the wire (envelope headers, migration frames), so each
// kind keeps its value; slot 4 belongs to the retired per-tuple kind.
func TestMessageKindWireValues(t *testing.T) {
	got := []msgKind{kTuple, kSignal, kEOS, kMigBegin, kMigDone, kCkpt, kMigBlocks}
	want := []msgKind{0, 1, 2, 3, 5, 6, 7}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("kind values %v, want %v", got, want)
		}
	}
}
