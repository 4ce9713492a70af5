package raftsim

// This file ports the PBFT slab diet (internal/pbft/replica.go, PR 5) to
// raftsim: every wire message a node or client sends used to be a fresh
// heap allocation, which made sendAppend/onAppendEntries/Client.send the
// top three sites of a campaign allocation profile (~36k allocs per
// forked test vs PBFT's 30).
//
// slab is a rewindable bump allocator for fixed-size protocol objects
// that are built once, shared by pointer and never individually freed
// (vote requests and replies, AppendEntries headers, append replies,
// client requests and replies).
//
// Rewindability is what makes snapshot/fork execution allocation-flat:
// everything a measurement window builds becomes unreachable the moment
// the deployment restores its snapshot, so Restore rewinds each slab to
// its capture mark and the next fork overwrites the same memory.
// Objects are handed out dirty — every call site fully initializes the
// object — and objects allocated before the mark are never rewound, so
// pointers captured by the snapshot (in-flight messages inside the
// engine's event snapshot) stay valid.
//
// The entries an AppendEntries carries need no slab: sendAppend shares
// the leader's log suffix by reference, under the shared-suffix
// invariant — an index of a node's log backing array below any length
// the node has already shared is never rewritten. The log grows in
// place; conflict truncation copies onto a fresh array and a
// state-losing Crash drops the array, so a batch in flight reads the
// values it was sent with. Restore copies in place, which is sound too:
// into the capture-time array it writes back the values already there,
// and a later array is shared only by messages the rollback discarded.
// (Copying the suffix per send cost O(lag), quadratic under link faults.)
type slab[T any] struct {
	chunks [][]T
	ci     int // chunk currently being carved
	off    int // next free slot in that chunk
}

// slabMark is a rewind point: the allocation position at capture time.
type slabMark struct{ ci, off int }

const slabChunk = 512

func (s *slab[T]) get() *T {
	if s.ci == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, slabChunk))
	}
	c := s.chunks[s.ci]
	p := &c[s.off]
	if s.off++; s.off == len(c) {
		s.ci++
		s.off = 0
	}
	return p
}

func (s *slab[T]) mark() slabMark    { return slabMark{ci: s.ci, off: s.off} }
func (s *slab[T]) rewind(m slabMark) { s.ci, s.off = m.ci, m.off }
