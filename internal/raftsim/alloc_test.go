package raftsim

import (
	"runtime"
	"testing"
	"time"

	"avd/internal/simnet"
)

// TestRaftRestoreAllocFree pins the slab diet (package slab): once the
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

// TestLaggingFollowerAllocBound pins the cost of a lagging follower. A
// follower whose replies never arrive (a one-way partition) is resent
// the leader's whole log suffix with every heartbeat and every client
// broadcast. Shared by reference (the shared-suffix invariant, see sendAppend)
// a send costs the same at any lag and the window below allocates about
// 1.4 MB; copied into slab windows, its 3000-entry suffix made the same
// window allocate 62 MB.
func TestLaggingFollowerAllocBound(t *testing.T) {
	w := DefaultWorkload()
	d := newDeployment(w, 10)
	d.eng.RunFor(w.Warmup)
	leader := currentLeader(d.nodes)
	if leader < 0 {
		t.Fatal("no leader after warmup")
	}
	victim := (leader + 1) % len(d.nodes)
	for _, n := range d.nodes {
		if n.ID() != victim {
			d.net.Block(simnet.Addr(victim), simnet.Addr(n.ID()))
		}
	}
	lead := d.nodes[leader]
	for i := 0; lead.LogLen() < 3000; i++ {
		if i == 100 || !lead.IsLeader() {
			t.Fatalf("leader stalled at %d entries (still leader: %v)", lead.LogLen(), lead.IsLeader())
		}
		d.eng.RunFor(100 * time.Millisecond)
	}
	stuck := lead.nextIndex[victim]

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.eng.RunFor(200 * time.Millisecond)
	runtime.ReadMemStats(&after)
	if lead.nextIndex[victim] != stuck || !lead.IsLeader() {
		t.Fatal("the cut-off follower caught up or the leader changed: the window measures nothing")
	}
	const bound = 4 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("a 200 ms window with a %d-entry lag allocated %d bytes; want under %d", uint64(lead.LogLen())-stuck, got, bound)
	}
}
