package raftsim

import (
	"fmt"
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/simnet"
)

// batchKey identifies the entries of one AppendEntries batch: the array
// slot of its first entry and its length.
type batchKey struct {
	first *Entry
	n     int
}

// payloadTap checks the shared-suffix invariant (see sendAppend) end to end: it
// records a checksum of every AppendEntries batch when it is sent and
// checks it again when it is delivered, so a sender that rewrites a log
// index an in-flight batch still shares is caught at the receiver.
type payloadTap struct {
	sent      map[batchKey]uint64
	delivered map[simnet.Addr]int // checked batches by sender
	bad       int
	first     string // the first mismatch
}

func batchSum(es []Entry) uint64 {
	h := uint64(len(es))
	for _, e := range es {
		h = h*1099511628211 ^ EntryDigest(e)
	}
	return h
}

// tapPayloads installs the tap on a network: an interceptor sees every
// batch at send time, before link faults garble or duplicate it, and a
// wrapper around each node's handler sees it at delivery.
func tapPayloads(net *simnet.Network, nodes []*Node) *payloadTap {
	p := &payloadTap{sent: make(map[batchKey]uint64), delivered: make(map[simnet.Addr]int)}
	net.AddInterceptor(simnet.InterceptorFunc(func(m *simnet.Message) simnet.Verdict {
		if ae, ok := m.Payload.(*AppendEntries); ok && len(ae.Entries) > 0 {
			p.sent[batchKey{&ae.Entries[0], len(ae.Entries)}] = batchSum(ae.Entries)
		}
		return simnet.VerdictDeliver
	}))
	for _, n := range nodes {
		net.Handle(simnet.Addr(n.ID()), func(from simnet.Addr, payload any) {
			if ae, ok := payload.(*AppendEntries); ok && len(ae.Entries) > 0 {
				p.delivered[from]++
				want, sent := p.sent[batchKey{&ae.Entries[0], len(ae.Entries)}]
				if got := batchSum(ae.Entries); !sent || got != want {
					if p.bad++; p.bad == 1 {
						p.first = fmt.Sprintf("%d-entry batch %v->node%d (prev %d) changed in flight: sum %x, sent %x (recorded %v)",
							len(ae.Entries), from, n.ID(), ae.PrevLogIndex, got, want, sent)
					}
				}
			}
			n.onMessage(from, payload)
		})
	}
	return p
}

func (p *payloadTap) check(t *testing.T) {
	t.Helper()
	if p.bad > 0 {
		t.Fatalf("%d AppendEntries batches changed between send and delivery; first: %s", p.bad, p.first)
	}
}

// strandBatches elects a leader in a 3-node cluster, slows every link out
// of it so the batches it sends from now on stay in flight for two
// seconds, and has it append uncommitted entries that those batches
// carry. The other two nodes elect a new leader meanwhile, which then
// appends conflicting entries of its own at the same indices.
func strandBatches(t *testing.T) (c *edgeCluster, tap *payloadTap, old, next *Node) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.N = 3
	c = newEdgeCluster(t, cfg, 5)
	tap = tapPayloads(c.net, c.nodes)
	c.start()
	c.eng.RunFor(time.Second)
	id := currentLeader(c.nodes)
	if id < 0 {
		t.Fatal("no leader after 1s")
	}
	old = c.nodes[id]
	for _, n := range c.nodes {
		if n != old {
			c.net.SetLinkLatency(simnet.Addr(old.ID()), simnet.Addr(n.ID()), 2*time.Second)
		}
	}
	for seq := uint64(1); seq <= 4; seq++ {
		old.onClientRequest(&ClientRequest{Client: 50, Seq: seq})
	}
	c.eng.RunFor(500 * time.Millisecond)
	if id = currentLeader(c.nodes); id < 0 || id == old.ID() {
		t.Fatalf("no new leader while the old one was slowed (leader %d)", id)
	}
	next = c.nodes[id]
	for seq := uint64(1); seq <= 4; seq++ {
		next.onClientRequest(&ClientRequest{Client: 51, Seq: seq})
	}
	return c, tap, old, next
}

// TestAppendPayloadStable: every AppendEntries batch is delivered with
// the entries it was sent with, whatever its sender does to its own log
// in the meantime. Batches share the sender's log by reference, so this
// is the regression test of copy-on-truncate and of a state-losing crash
// dropping the log's array.
func TestAppendPayloadStable(t *testing.T) {
	t.Run("step-down truncation", func(t *testing.T) {
		c, tap, old, next := strandBatches(t)
		oldTerm := old.log[0].Term
		c.eng.RunFor(3 * time.Second)
		if old.LogLen() == 0 || old.log[0].Term != next.Term() {
			t.Fatalf("old leader's conflicting entries were not replaced (log %v, new term %d)", old.log, next.Term())
		}
		if old.log[0].Term == oldTerm {
			t.Fatal("old leader never truncated its log")
		}
		if tap.delivered[simnet.Addr(old.ID())] == 0 {
			t.Fatal("no batch of the old leader was delivered")
		}
		tap.check(t)
	})

	t.Run("state-losing crash then appends", func(t *testing.T) {
		c, tap, old, next := strandBatches(t)
		old.Crash(false)
		old.Restart()
		for _, n := range c.nodes {
			if n != old {
				c.net.SetLinkLatency(simnet.Addr(old.ID()), simnet.Addr(n.ID()), -1)
			}
		}
		c.eng.RunFor(3 * time.Second)
		if old.LogLen() == 0 || old.log[0].Term != next.Term() {
			t.Fatalf("restarted node did not take the new leader's entries (log %v)", old.log)
		}
		if tap.delivered[simnet.Addr(old.ID())] == 0 {
			t.Fatal("no batch of the crashed node was delivered")
		}
		tap.check(t)
	})

	t.Run("run+restore cycles", func(t *testing.T) {
		w := DefaultWorkload()
		d := newDeployment(w, 10)
		tap := tapPayloads(d.net, d.nodes)
		d.eng.RunFor(w.Warmup)
		space, err := core.Space(NewClientsPlugin(), NewCrashRestartPlugin(), NewOneWayPlugin(), NewNetFaultsPlugin())
		if err != nil {
			t.Fatal(err)
		}
		sc := space.New(map[string]int64{
			DimClients: 10, DimCrashIntervalMS: 100, DimCrashDownMS: 50, DimCrashLose: 1,
			DimOneWayVictim: 2, DimOneWayDir: 1, DimCorruptMask: 0x11, DimDupMask: 0x22,
		})
		var crashes uint64
		for fork := 0; fork < 4; fork++ {
			d.Fork()
			d.Arm(sc, true)
			_, rep := d.Measure(sc, 400*time.Millisecond)
			crashes += rep.Crashes
		}
		if crashes == 0 {
			t.Fatal("no crash was injected")
		}
		if len(tap.delivered) == 0 {
			t.Fatal("no batch was delivered")
		}
		tap.check(t)
	})
}
