package pbft

import (
	"testing"
	"time"

	"avd/internal/slab"
)

// TestSharedClientArena: clients built with one arena carve from it and
// capture identical marks; restoring them one after another rewinds the
// arena to the mark at the first restore and leaves it there at every
// later one. A client built without an arena gets a private one.
func TestSharedClientArena(t *testing.T) {
	tb := newTestbed(t, testbedOpts{})
	arena := &ClientArena{}
	for i := 0; i < 5; i++ {
		tb.addClient(DefaultClientConfig(), WithArena(arena))
	}
	loner := tb.addClient(DefaultClientConfig())
	if loner.arena == nil || loner.arena == arena {
		t.Fatal("a client built without an arena does not own a private one")
	}
	for _, c := range tb.clients {
		c.Start()
	}
	tb.run(200 * time.Millisecond)

	engSnap, netSnap := tb.eng.Snapshot(), tb.net.Snapshot()
	var reps []*ReplicaState
	for _, r := range tb.replicas {
		reps = append(reps, r.Snapshot())
	}
	var cls []*ClientState
	for _, c := range tb.clients {
		cls = append(cls, c.Snapshot())
	}
	type marks struct{ req, auth slab.Mark }
	at := func() marks { return marks{arena.reqs.Mark(), arena.auths.Mark()} }
	mark := at()
	for i, s := range cls[:5] {
		if (marks{s.reqMark, s.authMark}) != mark {
			t.Fatalf("client %d captured %+v, want the arena's %+v", i, marks{s.reqMark, s.authMark}, mark)
		}
	}

	window := func() uint64 {
		tb.run(500 * time.Millisecond)
		return totalCompleted(tb.clients)
	}
	first := window()
	if at() == mark {
		t.Fatal("the window carved nothing from the shared arena")
	}
	for round := 0; round < 3; round++ {
		tb.eng.Restore(engSnap)
		tb.net.Restore(netSnap)
		for i, r := range tb.replicas {
			r.Restore(reps[i])
		}
		for i, c := range tb.clients {
			c.Restore(cls[i])
			if i < 5 && at() != mark {
				t.Fatalf("round %d: after restoring client %d the arena is at %+v, want %+v", round, i, at(), mark)
			}
		}
		if got := window(); got != first {
			t.Fatalf("round %d: restored window completed %d requests, first window %d", round, got, first)
		}
	}
}
