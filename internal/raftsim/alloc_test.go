package raftsim

import (
	"testing"
	"time"
)

// TestRaftRestoreAllocFree pins the slab diet (slab.go): once the
// message slabs, the engine's lane buffers and the latency tail have
// reached steady-state capacity, a measurement-window/restore cycle must
// not allocate. Every AppendEntries batch, vote, client request and
// reply the window builds comes from a rewindable slab that Restore
// rolls back, so the next fork overwrites the same memory — this is the
// raft port of PBFT's PR 5 treatment and the guard for ISSUE 10.
func TestRaftRestoreAllocFree(t *testing.T) {
	w := DefaultWorkload()
	d := newDeployment(w, 8)
	d.eng.RunFor(w.Warmup)
	d.capture()

	cycle := func() {
		d.eng.RunFor(100 * time.Millisecond)
		d.restore()
	}
	// Warm to the high-water marks: the first cycles may grow slab
	// chunks, lane buffers and dense tables.
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs > 0 {
		t.Fatalf("run+restore cycle allocates %.1f objects per fork; want 0", allocs)
	}
}
