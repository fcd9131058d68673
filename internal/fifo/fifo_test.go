package fifo

import "testing"

func TestRingEvictsOldestFirst(t *testing.T) {
	var q Ring[uint32]
	for k := uint32(1); k <= 3; k++ {
		if _, evicted := q.Push(k, 3); evicted {
			t.Fatalf("push %d evicted from a ring with room", k)
		}
	}
	// Twice around, so head wraps.
	for k := uint32(4); k <= 10; k++ {
		old, evicted := q.Push(k, 3)
		if !evicted || old != k-3 {
			t.Fatalf("push %d evicted (%d, %v), want %d", k, old, evicted, k-3)
		}
		if q.Len() != 3 {
			t.Fatalf("ring holds %d keys, want 3", q.Len())
		}
	}
	if n := testing.AllocsPerRun(100, func() { q.Push(0, 3) }); n != 0 {
		t.Fatalf("a full ring allocated %.0f times per push", n)
	}
}
