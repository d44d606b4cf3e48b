package chip

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap event queue the typed eventHeap replaces.
type refHeap []event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestEventHeapMatchesContainerHeap checks that the typed heap pops events
// in exactly container/heap's order, ties on the same cycle included: that
// order decides which of several same-cycle events fires first, and so
// feeds every simulated result.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var typed eventHeap
		var ref refHeap
		var popped int
		id := 0
		// Few distinct keys, so most events tie with others.
		keys := int64(1 + rng.Intn(6))
		for op := 0; op < 500; op++ {
			if len(typed) > 0 && rng.Intn(3) == 0 {
				got, want := typed.pop(), heap.Pop(&ref).(event)
				// Each event's fn returns its id.
				got.fn()
				g := popped
				want.fn()
				if g != popped || got.at != want.at {
					t.Fatalf("trial %d op %d: typed heap popped event %d (at %d), container/heap popped %d (at %d)",
						trial, op, g, got.at, popped, want.at)
				}
				continue
			}
			n := id
			e := event{at: rng.Int63n(keys), fn: func() { popped = n }}
			typed.push(e)
			heap.Push(&ref, e)
			id++
		}
		for len(typed) > 0 {
			got, want := typed.pop(), heap.Pop(&ref).(event)
			got.fn()
			g := popped
			want.fn()
			if g != popped {
				t.Fatalf("trial %d drain: typed heap popped event %d, container/heap popped %d", trial, g, popped)
			}
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: container/heap still holds %d events", trial, len(ref))
		}
	}
}

// TestNewCacheAllocationsIndependentOfGeometry gates the flat set arrays:
// building a cache costs the same few allocations whatever its size.
func TestNewCacheAllocationsIndependentOfGeometry(t *testing.T) {
	want := testing.AllocsPerRun(20, func() { NewCache(1024, 2, 64) })
	for _, g := range []struct{ capacity, ways int }{
		{32 << 10, 8},
		{512 << 10, 16},
		{1 << 20, 16},
	} {
		got := testing.AllocsPerRun(20, func() { NewCache(g.capacity, g.ways, 64) })
		if got != want || got > 3 {
			t.Errorf("NewCache(%d, %d, 64) makes %v allocations, want %v (at most 3)", g.capacity, g.ways, got, want)
		}
	}
}
