package table

import (
	"slices"
	"testing"
)

type item struct {
	Entry[int, item]
}

type items = Table[int, item, *item]

// fill inserts keys 0..n-1 into a table bounded at max, completes the keys
// in done in that order, then inserts n..n+more-1. It returns the keys of
// the evicted entries in eviction order.
func fill(t *testing.T, tab *items, max, n, more int, done ...int) []int {
	t.Helper()
	var evicted []int
	insert := func(k int) {
		if v := tab.Insert(k, &item{}, max); v != nil {
			evicted = append(evicted, v.Key())
		}
	}
	for k := 0; k < n; k++ {
		insert(k)
	}
	for _, k := range done {
		v, ok := tab.Get(k)
		if !ok {
			t.Fatalf("key %d not held", k)
		}
		tab.Complete(v)
	}
	for k := n; k < n+more; k++ {
		insert(k)
	}
	if tab.Len() != min(max, n+more) {
		t.Fatalf("table holds %d entries, want %d", tab.Len(), min(max, n+more))
	}
	return evicted
}

func TestEvictionOrder(t *testing.T) {
	rows := []struct {
		name          string
		max, n, more  int
		done, evicted []int
	}{
		{"all incomplete: oldest first", 3, 3, 3, nil, []int{0, 1, 2}},
		{"complete before incomplete", 3, 3, 2, []int{1}, []int{1, 0}},
		{"complete ones oldest first", 4, 4, 3, []int{2, 0, 3}, []int{0, 2, 3}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var tab items
			if got := fill(t, &tab, r.max, r.n, r.more, r.done...); !slices.Equal(got, r.evicted) {
				t.Fatalf("evicted %v, want %v", got, r.evicted)
			}
		})
	}
}

// TestIncompleteOutlivesCompleted is the retention rule a lost S2 relies on:
// the oldest entry, never completed, stays while many times the bound of
// newer entries arrive and complete.
func TestIncompleteOutlivesCompleted(t *testing.T) {
	var tab items
	const max = 4
	tab.Insert(0, &item{}, max)
	for k := 1; k < 10*max; k++ {
		v := &item{}
		tab.Insert(k, v, max)
		tab.Complete(v)
	}
	if _, ok := tab.Get(0); !ok {
		t.Fatal("the incomplete entry was evicted")
	}
}

// TestWalk pins First/Next: every entry in insertion order, complete or
// not, and an entry may go once its successor is taken.
func TestWalk(t *testing.T) {
	var tab items
	for k := 0; k < 4; k++ {
		tab.Insert(k, &item{}, 4)
	}
	for _, k := range []int{2, 0} {
		v, _ := tab.Get(k)
		tab.Complete(v)
	}
	var walked []int
	for v, next := tab.First(), (*item)(nil); v != nil; v = next {
		next = tab.Next(v)
		walked = append(walked, v.Key())
		tab.Remove(v)
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(walked, want) || tab.Len() != 0 {
		t.Fatalf("walked %v and left %d entries, want %v and none", walked, tab.Len(), want)
	}
}

func TestRecycle(t *testing.T) {
	var tab items
	if tab.Reuse() != nil {
		t.Fatal("empty free list returned an entry")
	}
	a, b := &item{}, &item{}
	tab.Recycle(a)
	tab.Recycle(b)
	if got := tab.Reuse(); got != b {
		t.Fatal("free list is not last in, first out")
	}
	if got := tab.Reuse(); got != a {
		t.Fatal("free list lost an entry")
	}
	if tab.Reuse() != nil {
		t.Fatal("free list returned an entry twice")
	}
}

// TestSteadyStateZeroAlloc pins that a full table which recycles what it
// evicts allocates nothing: the order and the free list live in the entries.
func TestSteadyStateZeroAlloc(t *testing.T) {
	var tab items
	const max = 8
	k := 0
	step := func() {
		v := tab.Reuse()
		if v == nil {
			v = &item{}
		}
		if old := tab.Insert(k, v, max); old != nil {
			tab.Recycle(old)
		}
		if k%2 == 0 {
			tab.Complete(v)
		}
		k++
	}
	for range 4 * max {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("%v allocations per insertion", n)
	}
}
