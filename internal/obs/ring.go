package obs

// ring is a bounded overwrite-oldest buffer: once it holds its
// capacity, each push replaces the oldest item. It allocates its buffer
// on the first push and has no lock of its own; the registry guards
// each ring with the mutex of the state that owns it (the span ring,
// the ledger store, the SLO window).
type ring[T any] struct {
	size int // capacity; 0 or less holds one item
	buf  []T // nil until the first push, then cap(buf) == max(size, 1)
	next int // the oldest item's index once buf is full
}

// reset drops the contents and sets the capacity for the next push.
func (r *ring[T]) reset(size int) { *r = ring[T]{size: size} }

func (r *ring[T]) push(v T) {
	if r.buf == nil {
		r.buf = make([]T, 0, max(r.size, 1))
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
}

func (r *ring[T]) len() int { return len(r.buf) }

// items returns a copy of the contents, oldest first (nil when empty).
func (r *ring[T]) items() []T {
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
