package raftsim

import (
	"time"

	"avd/internal/sim"
)

// This file implements the SUT side of snapshot/fork execution
// (DESIGN.md §8): a Node or Client captures every mutable field it owns —
// protocol state, counters, and its sim.Timer handles — and can roll
// itself back to that capture. Timer handles survive because the engine's
// own Restore revalidates the arena generations they reference; the
// pending timer events themselves live in the engine snapshot.

// NodeState is a restorable capture of one Raft node.
type NodeState struct {
	crashed    bool
	role       role
	term       uint64
	votedFor   int
	leader     int
	log        []Entry
	commit     uint64
	applied    uint64
	votes      uint64
	nextIndex  []uint64
	matchIndex []uint64

	electionTimer  sim.Timer
	heartbeatTimer sim.Timer

	lastSeq []uint64
	pending []uint64

	// Slab rewind points: Restore rewinds each message slab to its
	// capture mark, so everything a measurement window bump-allocated is
	// reused by the next fork (slab.go).
	rvMark  slabMark
	rvrMark slabMark
	aeMark  slabMark
	aerMark slabMark
	crMark  slabMark

	stats NodeStats
}

// Snapshot captures the node's complete mutable state.
func (n *Node) Snapshot() *NodeState {
	s := &NodeState{
		crashed:        n.crashed,
		role:           n.role,
		term:           n.term,
		votedFor:       n.votedFor,
		leader:         n.leader,
		log:            append([]Entry(nil), n.log...),
		commit:         n.commit,
		applied:        n.applied,
		votes:          n.votes,
		nextIndex:      append([]uint64(nil), n.nextIndex...),
		matchIndex:     append([]uint64(nil), n.matchIndex...),
		electionTimer:  n.electionTimer,
		heartbeatTimer: n.heartbeatTimer,
		lastSeq:        append([]uint64(nil), n.lastSeq...),
		pending:        append([]uint64(nil), n.pending...),
		rvMark:         n.rvSlab.mark(),
		rvrMark:        n.rvrSlab.mark(),
		aeMark:         n.aeSlab.mark(),
		aerMark:        n.aerSlab.mark(),
		crMark:         n.crSlab.mark(),
		stats:          n.stats,
	}
	return s
}

// Restore rolls the node back to the captured state.
func (n *Node) Restore(s *NodeState) {
	// Rewind the message slabs first: every object allocated after the
	// mark is unreachable once the engine/network snapshots roll back.
	n.rvSlab.rewind(s.rvMark)
	n.rvrSlab.rewind(s.rvrMark)
	n.aeSlab.rewind(s.aeMark)
	n.aerSlab.rewind(s.aerMark)
	n.crSlab.rewind(s.crMark)
	n.crashed = s.crashed
	n.role = s.role
	n.term = s.term
	n.votedFor = s.votedFor
	n.leader = s.leader
	// In place, yet within the shared-suffix invariant (slab.go).
	n.log = append(n.log[:0], s.log...)
	n.commit = s.commit
	n.applied = s.applied
	n.votes = s.votes
	n.nextIndex = append(n.nextIndex[:0], s.nextIndex...)
	n.matchIndex = append(n.matchIndex[:0], s.matchIndex...)
	n.electionTimer = s.electionTimer
	n.heartbeatTimer = s.heartbeatTimer
	n.lastSeq = append(n.lastSeq[:0], s.lastSeq...)
	n.pending = append(n.pending[:0], s.pending...)
	n.stats = s.stats
}

// ClientState is a restorable capture of one Raft client.
type ClientState struct {
	running  bool
	seq      uint64
	target   int
	sentAt   sim.Time
	curRetry time.Duration
	retryFor uint64
	retry    sim.Timer
	reqMark  slabMark
	stats    ClientStats
}

// Snapshot captures the client's complete mutable state.
func (c *Client) Snapshot() *ClientState {
	return &ClientState{
		running:  c.running,
		seq:      c.seq,
		target:   c.target,
		sentAt:   c.sentAt,
		curRetry: c.curRetry,
		retryFor: c.retryFor,
		retry:    c.retry,
		reqMark:  c.reqSlab.mark(),
		stats:    c.stats,
	}
}

// Restore rolls the client back to the captured state.
func (c *Client) Restore(s *ClientState) {
	c.reqSlab.rewind(s.reqMark)
	c.running = s.running
	c.seq = s.seq
	c.target = s.target
	c.sentAt = s.sentAt
	c.curRetry = s.curRetry
	c.retryFor = s.retryFor
	c.retry = s.retry
	c.stats = s.stats
}
