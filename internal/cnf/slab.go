package cnf

// Slab carves many short slices out of a few large arrays, so a reader
// allocates once per slab rather than once per clause or hint list. Items
// go onto the run in progress; Cut ends the run and returns it with its
// capacity clipped, so appending to a carved slice copies it instead of
// overwriting the next one.
type Slab[T any] struct {
	buf   []T // buf[start:] is the run in progress
	start int
}

// Slabs start small, so a short input allocates little, and double up to
// slabMax items.
const (
	slabMin = 1 << 10
	slabMax = 1 << 16
)

// Append adds x to the run in progress.
func (s *Slab[T]) Append(x T) {
	if len(s.buf) == cap(s.buf) {
		s.grow(1)
	}
	s.buf = append(s.buf, x)
}

// Extend adds xs to the run in progress.
func (s *Slab[T]) Extend(xs []T) {
	if len(s.buf)+len(xs) > cap(s.buf) {
		s.grow(len(xs))
	}
	s.buf = append(s.buf, xs...)
}

// Len is the length of the run in progress.
func (s *Slab[T]) Len() int { return len(s.buf) - s.start }

// Cut ends the run in progress and returns it; an empty run is nil.
func (s *Slab[T]) Cut() []T {
	n := len(s.buf)
	if n == s.start {
		return nil
	}
	run := s.buf[s.start:n:n]
	s.start = n
	return run
}

// grow starts a new slab with room for need more items and moves the run
// in progress into it; the runs already cut keep the old one alive.
func (s *Slab[T]) grow(need int) {
	n := s.Len()
	size := min(max(2*cap(s.buf), slabMin), slabMax)
	buf := make([]T, n, max(size, 2*n, n+need))
	copy(buf, s.buf[s.start:])
	s.buf, s.start = buf, 0
}
