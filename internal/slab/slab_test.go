package slab

import (
	"sync"
	"testing"
)

type item struct{ a, b uint64 }

// freeLen is the length of T's free list.
func freeLen[T any]() int {
	f := freeListOf[T]()
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.chunks)
}

func TestGetCarvesChunksInOrder(t *testing.T) {
	var s Slab[item]
	first := s.Get()
	for i := 1; i < Chunk; i++ {
		s.Get()
	}
	if len(s.chunks) != 1 || s.ci != 1 || s.off != 0 {
		t.Fatalf("after one full chunk: %d chunks at (%d,%d), want 1 at (1,0)", len(s.chunks), s.ci, s.off)
	}
	if &s.chunks[0][0] != first {
		t.Fatal("first element is not the start of the first chunk")
	}
	s.Get()
	if len(s.chunks) != 2 {
		t.Fatalf("%d chunks after %d gets, want 2", len(s.chunks), Chunk+1)
	}
}

func TestGetNStaysInOneChunk(t *testing.T) {
	var s Slab[uint64]
	const n = 7
	for i := 0; i < 3*Chunk/n; i++ {
		v := s.GetN(n)
		if len(v) != n || cap(v) != n {
			t.Fatalf("window %d: len %d cap %d, want %d and %d", i, len(v), cap(v), n, n)
		}
	}
	// Every chunk loses its Chunk%n tail instead of splitting a window.
	if want := (3*Chunk/n + Chunk/n - 1) / (Chunk / n); len(s.chunks) != want {
		t.Fatalf("%d chunks, want %d", len(s.chunks), want)
	}
}

func TestGetNRejectsOversizedWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a window larger than a chunk did not panic")
		}
	}()
	var s Slab[uint64]
	s.GetN(Chunk + 1)
}

// TestRewindReturnsChunksPastTheMark pins the pool's ownership rule: the
// mark's chunk stays with the slab, every later chunk moves to the free
// list, and the next chunk the slab (or any slab of the type) needs comes
// back from there instead of the heap.
func TestRewindReturnsChunksPastTheMark(t *testing.T) {
	type local struct{ v [3]uint64 } // a type of its own: an empty free list
	var s Slab[local]
	for i := 0; i < Chunk/2; i++ {
		s.Get()
	}
	m := s.Mark()
	for i := 0; i < 3*Chunk; i++ {
		s.Get()
	}
	if len(s.chunks) != 4 {
		t.Fatalf("%d chunks, want 4", len(s.chunks))
	}
	tail := &s.chunks[3][0]
	s.Rewind(m)
	if len(s.chunks) != 1 || s.Mark() != m {
		t.Fatalf("after rewind: %d chunks at %+v, want 1 at %+v", len(s.chunks), s.Mark(), m)
	}
	if got := freeLen[local](); got != 3 {
		t.Fatalf("free list holds %d chunks, want 3", got)
	}
	// Rewinding to the same mark again is a no-op.
	s.Rewind(m)
	if len(s.chunks) != 1 || freeLen[local]() != 3 {
		t.Fatal("a second rewind to the same mark changed the slab or the free list")
	}
	// Another slab of the type draws the last chunk returned.
	var other Slab[local]
	if p := other.Get(); p != tail {
		t.Fatal("a new slab did not reuse the most recently returned chunk")
	}
	if got := freeLen[local](); got != 2 {
		t.Fatalf("free list holds %d chunks after one draw, want 2", got)
	}
}

// TestRewindCycleAllocFree: a slab that fills several chunks past its
// mark and rewinds allocates nothing once the free list is warm. A
// sync.Pool would box every chunk it takes back.
func TestRewindCycleAllocFree(t *testing.T) {
	var s Slab[item]
	var tags Slab[uint64]
	s.Get()
	tags.GetN(4)
	m, tm := s.Mark(), tags.Mark()
	cycle := func() {
		for i := 0; i < 4*Chunk; i++ {
			s.Get()
			tags.GetN(4)
		}
		s.Rewind(m)
		tags.Rewind(tm)
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
		t.Fatalf("fill+rewind cycle allocates %.1f objects; want 0", allocs)
	}
}

// TestPoolConcurrentSlabs runs slabs of one type on several goroutines,
// as concurrent worker slots do: chunks move between them through the
// shared free list, and each chunk must be written by one owner at a
// time (the race detector checks the hand-offs).
func TestPoolConcurrentSlabs(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			var s Slab[item]
			m := s.Mark()
			for round := uint64(0); round < 20; round++ {
				var got []*item
				for i := uint64(0); i < 2*Chunk+3; i++ {
					p := s.Get()
					*p = item{a: g, b: round<<32 | i}
					got = append(got, p)
				}
				for i, p := range got {
					if *p != (item{a: g, b: round<<32 | uint64(i)}) {
						t.Errorf("goroutine %d round %d: element %d overwritten: %+v", g, round, i, *p)
						return
					}
				}
				s.Rewind(m)
			}
		}(uint64(g))
	}
	wg.Wait()
}
