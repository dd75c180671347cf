package irexec

// shadowBits is the log2 of a shadow page's span: one page covers 1 KiB of
// addresses.
const shadowBits = 10

const shadowPageSize = 1 << shadowBits

type shadowPage[T comparable] [shadowPageSize]T

// Shadow is a paged shadow memory for tracers: one T per byte address of
// the interpreted program. The zero T means "absent", so a Shadow stores
// no explicit presence bits and the zero Shadow is empty and ready to use.
// Pages are allocated on the first write that touches them and are never
// freed; a last-page cache makes the common case — consecutive accesses to
// one stack frame — a single comparison. Clearing a range is an array
// clear per page, not a delete per byte.
type Shadow[T comparable] struct {
	pages    map[uint32]*shadowPage[T]
	lastKey  uint32
	lastPage *shadowPage[T]
}

// page returns the page holding addr, or nil when none has been written.
// With alloc set it allocates the missing page instead.
func (s *Shadow[T]) page(addr uint32, alloc bool) *shadowPage[T] {
	key := addr >> shadowBits
	if s.lastPage != nil && s.lastKey == key {
		return s.lastPage
	}
	pg := s.pages[key]
	if pg == nil {
		if !alloc {
			return nil
		}
		if s.pages == nil {
			s.pages = make(map[uint32]*shadowPage[T])
		}
		pg = new(shadowPage[T])
		s.pages[key] = pg
	}
	s.lastKey, s.lastPage = key, pg
	return pg
}

// Get returns the entry at addr (the zero T when absent).
func (s *Shadow[T]) Get(addr uint32) T {
	if pg := s.page(addr, false); pg != nil {
		return pg[addr&(shadowPageSize-1)]
	}
	var zero T
	return zero
}

// Set records v at addr; setting the zero T removes the entry.
func (s *Shadow[T]) Set(addr uint32, v T) {
	var zero T
	if v == zero {
		if pg := s.page(addr, false); pg != nil {
			pg[addr&(shadowPageSize-1)] = zero
		}
		return
	}
	s.page(addr, true)[addr&(shadowPageSize-1)] = v
}

// Clear removes the n entries starting at addr. The range wraps around the
// top of the address space, like the byte loop it replaces.
func (s *Shadow[T]) Clear(addr, n uint32) {
	for n > 0 {
		off := addr & (shadowPageSize - 1)
		k := min(n, shadowPageSize-off)
		if pg := s.page(addr, false); pg != nil {
			clear(pg[off : off+k])
		}
		addr += k
		n -= k
	}
}
