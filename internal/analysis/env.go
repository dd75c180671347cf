package analysis

import (
	"math/bits"

	"wytiwyg/internal/ir"
)

// Slot-indexed analysis state. Every forward client of Solve keeps, per
// block boundary, one lattice element per SSA value evaluated so far. A
// map keyed by *ir.Value makes each clone and join a hash-table walk;
// Env instead stores the elements in a slice indexed by the function's
// dense value slots (ir.Value.Slot) with a presence bit per slot, so a
// clone is two slice copies and a join walks only the set bits. An absent
// slot is bottom (not yet evaluated), exactly as a missing map key was.

// Slots is one function's slot → value owner table. It validates every
// lookup: a value the function does not own — one from another function,
// one no block holds any more, or one whose slot a later re-layout gave
// to another value — reads as absent, as it would from a map.
type Slots struct {
	owner []*ir.Value
}

// NewSlots refreshes f's dense layout (values added since the last
// EnsureLayout get slots) and records the owner of every slot: the
// parameters and each block's phis and instructions.
func NewSlots(f *ir.Func) *Slots {
	f.EnsureLayout()
	owner := make([]*ir.Value, f.Layout().NumSlots)
	for _, p := range f.Params {
		owner[p.Slot()] = p
	}
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			owner[v.Slot()] = v
		}
		for _, v := range b.Insts {
			owner[v.Slot()] = v
		}
	}
	return &Slots{owner: owner}
}

// index returns v's slot, or -1 when v is not one of the function's values.
func (s *Slots) index(v *ir.Value) int {
	if i := v.Slot(); i >= 0 && i < len(s.owner) && s.owner[i] == v {
		return i
	}
	return -1
}

// Env maps a function's values to lattice elements of type T. The zero
// vals slice is the empty env; it is allocated on the first Set or Join
// that adds an element. Absent slots hold T's zero value.
type Env[T any] struct {
	slots *Slots
	vals  []T
	has   []uint64
}

// NewEnv returns the empty env over s.
func NewEnv[T any](s *Slots) Env[T] { return Env[T]{slots: s} }

// Get returns v's element and whether it is present.
func (e Env[T]) Get(v *ir.Value) (T, bool) {
	var zero T
	if e.vals == nil {
		return zero, false
	}
	i := e.slots.index(v)
	if i < 0 || e.has[i>>6]&(1<<(i&63)) == 0 {
		return zero, false
	}
	return e.vals[i], true
}

// Set records v's element. A value the function does not own is dropped.
func (e *Env[T]) Set(v *ir.Value, x T) {
	i := e.slots.index(v)
	if i < 0 {
		return
	}
	if e.vals == nil {
		n := len(e.slots.owner)
		e.vals = make([]T, n)
		e.has = make([]uint64, (n+63)/64)
	}
	e.vals[i] = x
	e.has[i>>6] |= 1 << (i & 63)
}

// Clone returns an independent copy of e. Elements are copied by value,
// so T must not be mutated in place through a shared reference.
func (e Env[T]) Clone() Env[T] {
	out := Env[T]{slots: e.slots}
	if e.vals != nil {
		out.vals = append([]T(nil), e.vals...)
		out.has = append([]uint64(nil), e.has...)
	}
	return out
}

// Join merges src into e, which it may mutate, and reports whether e
// changed. A slot present only in src is copied; a slot present in both
// is merged by join, which returns the merged element and whether it
// differs from dst.
func (e Env[T]) Join(src Env[T], join func(dst, src T) (T, bool)) (Env[T], bool) {
	if src.vals == nil {
		return e, false
	}
	if e.vals == nil {
		changed := false
		for _, w := range src.has {
			if w != 0 {
				changed = true
				break
			}
		}
		return src.Clone(), changed
	}
	changed := false
	for w, word := range src.has {
		for word != 0 {
			bit := word & -word
			word &^= bit
			i := w<<6 + bits.TrailingZeros64(bit)
			if e.has[w]&bit == 0 {
				e.vals[i] = src.vals[i]
				e.has[w] |= bit
				changed = true
				continue
			}
			if x, grew := join(e.vals[i], src.vals[i]); grew {
				e.vals[i] = x
				changed = true
			}
		}
	}
	return e, changed
}

// Widen applies widen(prev, next) to every slot present in both e (the
// next state, mutated in place) and prev, and returns e.
func (e Env[T]) Widen(prev Env[T], widen func(prev, next T) T) Env[T] {
	if prev.vals == nil || e.vals == nil {
		return e
	}
	for w, word := range e.has {
		word &= prev.has[w]
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			e.vals[i] = widen(prev.vals[i], e.vals[i])
		}
	}
	return e
}
