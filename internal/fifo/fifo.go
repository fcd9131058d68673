// Package fifo is the eviction queue of the relay's flow and exchange
// tables and of the endpoint's receive-side exchange table: a ring of keys
// in arrival order that holds at most a fixed number of them and, once it
// has held that many, never allocates again.
package fifo

// Ring is a bounded FIFO of keys. The zero value is ready to use.
type Ring[K any] struct {
	buf     []K
	head, n int
}

// Len returns the number of keys held.
func (q *Ring[K]) Len() int { return q.n }

// Push appends k. When the ring already holds max keys it first drops the
// oldest and returns it. max must be positive and the same on every call.
func (q *Ring[K]) Push(k K, max int) (oldest K, evicted bool) { //alpha:alloc-ok the ring itself (the compiler reports an instantiation's make here)
	if q.buf == nil {
		q.buf = make([]K, max) //alpha:alloc-ok the ring itself: once per table
	}
	if q.n == len(q.buf) {
		oldest, evicted = q.buf[q.head], true
		q.head = (q.head + 1) % len(q.buf)
		q.n--
	}
	q.buf[(q.head+q.n)%len(q.buf)] = k
	q.n++
	return oldest, evicted
}
