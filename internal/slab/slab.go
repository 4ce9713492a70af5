// Package slab provides the rewindable bump allocator behind
// allocation-flat snapshot/fork execution (DESIGN.md §8, §14).
//
// A Slab hands out protocol objects that are built once, shared by
// pointer and never individually freed (requests, replies, votes,
// authenticator vectors, wire messages): a full-throughput deployment
// used to allocate one heap object per message, which made the allocator
// and the garbage collector the top sites of a campaign profile.
//
// Rewindability is what makes forked execution allocation-flat:
// everything a measurement window builds becomes unreachable the moment
// the deployment restores its snapshot, so the restore rewinds each slab
// to its capture mark. Objects are handed out dirty — every call site
// fully initializes the object — and objects allocated before the mark
// are never rewound, so pointers captured by the snapshot stay valid.
//
// Chunks past the mark's chunk go back to a process-wide free list for
// their element type, and Get/GetN draw from it before allocating. A
// parked deployment therefore holds only its warm prefix, and the next
// window of any deployment — another master, another worker slot —
// writes into memory that is already mapped and likely cached. Ownership
// of a chunk is always exclusive: it belongs either to exactly one slab
// or to the free list, never to both, so pooling adds no sharing. The
// free lists never shrink, so a process keeps the peak of its window
// scratch mapped, not the sum over its deployments.
package slab

import (
	"fmt"
	"reflect"
	"sync"
)

// Chunk is the number of elements in every chunk of every slab, so one
// free list serves all slabs of an element type.
const Chunk = 512

// Slab is a rewindable bump allocator over elements of type T. The zero
// value is ready to use. A Slab is not safe for concurrent use; the free
// lists behind it are.
type Slab[T any] struct {
	chunks [][]T
	ci     int // chunk currently being carved
	off    int // next free slot in that chunk
	free   *freeList[T]
}

// Mark is a rewind point: the allocation position at capture time.
type Mark struct{ ci, off int }

// Get hands out one dirty element.
func (s *Slab[T]) Get() *T {
	if s.ci == len(s.chunks) {
		s.grow()
	}
	c := s.chunks[s.ci]
	p := &c[s.off]
	if s.off++; s.off == len(c) {
		s.ci++
		s.off = 0
	}
	return p
}

// GetN hands out n contiguous dirty elements, capacity-limited so an
// append on the result never runs into a neighbour. A window never
// straddles two chunks; n must be at most Chunk.
func (s *Slab[T]) GetN(n int) []T {
	if n > Chunk {
		panic(fmt.Sprintf("slab: window of %d elements exceeds the %d-element chunk", n, Chunk))
	}
	if s.ci < len(s.chunks) && s.off+n > len(s.chunks[s.ci]) {
		s.ci++
		s.off = 0
	}
	if s.ci == len(s.chunks) {
		s.grow()
	}
	c := s.chunks[s.ci]
	v := c[s.off : s.off+n : s.off+n]
	if s.off += n; s.off == len(c) {
		s.ci++
		s.off = 0
	}
	return v
}

// Mark returns the current allocation position.
func (s *Slab[T]) Mark() Mark { return Mark{ci: s.ci, off: s.off} }

// Rewind rolls the slab back to m, which must not lie past the current
// position: the mark's chunk stays (it may hold objects allocated before
// the mark) and every later chunk goes back to the free list. Rewinding
// to the same mark again is a no-op, so several owners of one slab may
// each rewind it to a mark they captured together.
func (s *Slab[T]) Rewind(m Mark) {
	if keep := m.ci + 1; keep < len(s.chunks) {
		s.freeList().put(s.chunks[keep:])
		clear(s.chunks[keep:])
		s.chunks = s.chunks[:keep]
	}
	s.ci, s.off = m.ci, m.off
}

// grow appends a chunk, from the free list when it has one.
func (s *Slab[T]) grow() {
	s.chunks = append(s.chunks, s.freeList().get())
}

func (s *Slab[T]) freeList() *freeList[T] {
	if s.free == nil {
		s.free = freeListOf[T]()
	}
	return s.free
}

// freeList is the process-wide chunk free list of one element type. It
// is a plain slice behind a mutex, not a sync.Pool: boxing a chunk into
// an interface allocates, and the steady state must not.
type freeList[T any] struct {
	mu     sync.Mutex
	chunks [][]T
}

func (f *freeList[T]) get() []T {
	f.mu.Lock()
	n := len(f.chunks)
	if n == 0 {
		f.mu.Unlock()
		return make([]T, Chunk)
	}
	c := f.chunks[n-1]
	f.chunks[n-1] = nil
	f.chunks = f.chunks[:n-1]
	f.mu.Unlock()
	return c
}

func (f *freeList[T]) put(chunks [][]T) {
	f.mu.Lock()
	f.chunks = append(f.chunks, chunks...)
	f.mu.Unlock()
}

var (
	freeListsMu sync.Mutex
	freeLists   = make(map[reflect.Type]any)
)

// freeListOf returns the free list of element type T, creating it on
// first use.
func freeListOf[T any]() *freeList[T] {
	t := reflect.TypeFor[T]()
	freeListsMu.Lock()
	defer freeListsMu.Unlock()
	f, ok := freeLists[t].(*freeList[T])
	if !ok {
		f = &freeList[T]{}
		freeLists[t] = f
	}
	return f
}
