// Package table holds an endpoint's and a relay's exchanges, and a relay's
// flows, under one retention rule: past the bound, the oldest complete entry
// is evicted, and the oldest incomplete one only when none is complete. So
// an exchange waiting for a lost S2 outlives any number of newer ones that
// completed (§3.5: a hop keeps what it needs to verify a retransmission).
// The holder says when an entry completes; the table reads no clock.
// Entries link through the Entry they embed, in insertion order or on the
// free list, so the table allocates nothing but its map.
package table

// Entry is what a table's entries embed.
type Entry[K comparable, V any] struct {
	key        K
	prev, next *V
	done       bool
}

// Key returns the key the entry was inserted under.
func (e *Entry[K, V]) Key() K { return e.key }

func (e *Entry[K, V]) entry() *Entry[K, V] { return e }

// Ptr constrains a table's entries to pointers to a type that embeds Entry.
type Ptr[K comparable, V any] interface {
	*V
	entry() *Entry[K, V]
}

// Table maps keys to entries. The zero value is empty.
type Table[K comparable, V any, P Ptr[K, V]] struct {
	m          map[K]P
	head, tail *V  // oldest and newest entry
	complete   int // complete entries held
	free       *V  // linked through next
}

// Len returns the number of entries held.
func (t *Table[K, V, P]) Len() int { return len(t.m) }

// Get returns the entry held under k.
func (t *Table[K, V, P]) Get(k K) (P, bool) {
	v, ok := t.m[k]
	return v, ok
}

// First returns the oldest entry, nil if there is none.
func (t *Table[K, V, P]) First() P { return t.head }

// Next returns the entry inserted after v. A walk may remove an entry once
// it has its successor.
func (t *Table[K, V, P]) Next(v P) P { return v.entry().next }

// Insert holds v, incomplete, under k, which the table must not hold. If
// that makes more than max entries, it evicts one by the rule above, never
// v, and returns it.
func (t *Table[K, V, P]) Insert(k K, v P, max int) (evicted P) {
	if t.m == nil {
		t.m = make(map[K]P) //alpha:alloc-ok the first entry: once per table
	}
	e := v.entry()
	e.key, e.done, e.prev, e.next = k, false, t.tail, nil
	if t.tail == nil {
		t.head = v
	} else {
		P(t.tail).entry().next = v
	}
	t.tail, t.m[k] = v, v
	if len(t.m) <= max {
		return nil
	}
	evicted = t.head
	for t.complete > 0 && !evicted.entry().done {
		evicted = evicted.entry().next
	}
	t.Remove(evicted)
	return evicted
}

// Complete marks v, which the table holds, complete.
func (t *Table[K, V, P]) Complete(v P) {
	if e := v.entry(); !e.done {
		e.done = true
		t.complete++
	}
}

// Remove drops v, which the table holds.
func (t *Table[K, V, P]) Remove(v P) {
	e := v.entry()
	if e.done {
		t.complete--
	}
	delete(t.m, e.key)
	if e.prev == nil {
		t.head = e.next
	} else {
		P(e.prev).entry().next = e.next
	}
	if e.next == nil {
		t.tail = e.prev
	} else {
		P(e.next).entry().prev = e.prev
	}
	e.prev, e.next = nil, nil
}

// Recycle puts v, which the table does not hold, on the free list.
func (t *Table[K, V, P]) Recycle(v P) { v.entry().next, t.free = t.free, v }

// Reuse takes an entry off the free list, or returns nil.
func (t *Table[K, V, P]) Reuse() P {
	v := P(t.free)
	if v != nil {
		t.free, v.entry().next = v.entry().next, nil
	}
	return v
}
