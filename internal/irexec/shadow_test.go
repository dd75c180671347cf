package irexec_test

import (
	"math/rand"
	"testing"

	"wytiwyg/internal/irexec"
)

// shadowRef is the map the paged shadow memory replaced: present entries
// only, keyed by byte address.
type shadowRef map[uint32]int

func (r shadowRef) clear(addr, n uint32) {
	for a := addr; a != addr+n; a++ {
		delete(r, a)
	}
}

// TestShadowMatchesMap drives a Shadow and a map reference with the same
// random Set/Get/Clear sequence and compares every read. Addresses cluster
// around page boundaries (including the top of the address space and 0),
// clears span up to three pages, and the tracers' addr-3 invalidation
// window is exercised at addresses below 3, where it wraps.
func TestShadowMatchesMap(t *testing.T) {
	const page = 1024
	rng := rand.New(rand.NewSource(1))
	bases := []uint32{0, page, 5 * page, 0xFFFF_FC00, 0xFFFF_FFFF - page + 1, 0x7FFF_F000}
	addr := func() uint32 {
		b := bases[rng.Intn(len(bases))]
		return b + uint32(rng.Intn(3*page)) - page
	}
	var s irexec.Shadow[int]
	ref := shadowRef{}
	check := func(step int, a uint32) {
		t.Helper()
		if got, want := s.Get(a), ref[a]; got != want {
			t.Fatalf("step %d: Get(0x%x) = %d, want %d", step, a, got, want)
		}
	}
	for step := 0; step < 200000; step++ {
		a := addr()
		switch op := rng.Intn(10); {
		case op < 4:
			v := rng.Intn(4) // 0 removes the entry
			s.Set(a, v)
			if v == 0 {
				delete(ref, a)
			} else {
				ref[a] = v
			}
		case op < 7:
			check(step, a)
		case op < 9:
			// The tracers' per-store invalidation: [a-3, a+size).
			size := uint32(1 << rng.Intn(3))
			if rng.Intn(8) == 0 {
				a = uint32(rng.Intn(3)) // wraps below 0
			}
			s.Clear(a-3, size+3)
			ref.clear(a-3, size+3)
			for d := uint32(0); d < size+6; d++ {
				check(step, a-4+d)
			}
		default:
			n := uint32(rng.Intn(3 * page))
			s.Clear(a, n)
			ref.clear(a, n)
		}
	}
	for a, v := range ref {
		if got := s.Get(a); got != v {
			t.Fatalf("final: Get(0x%x) = %d, want %d", a, got, v)
		}
	}
}

// A Clear that wraps past the top of the address space clears both ends.
func TestShadowClearWraps(t *testing.T) {
	var s irexec.Shadow[uint8]
	for _, a := range []uint32{0xFFFF_FFFD, 0xFFFF_FFFF, 0, 3, 4} {
		s.Set(a, 1)
	}
	var zero uint32
	s.Clear(zero-3, 7) // the invalidation window of a 4-byte store at 0
	for _, a := range []uint32{0xFFFF_FFFD, 0xFFFF_FFFF, 0, 3} {
		if s.Get(a) != 0 {
			t.Errorf("0x%x survived the clear", a)
		}
	}
	if s.Get(4) != 1 {
		t.Error("0x4 was cleared")
	}
}
