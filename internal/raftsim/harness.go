package raftsim

import (
	"time"

	"avd/internal/core"
	"avd/internal/oracle"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
	"avd/internal/slab"
)

// Workload fixes everything about a Raft test that is not a hyperspace
// dimension: protocol configuration, network model, timing, seeds. It is
// the Raft analogue of cluster.Workload, and the impact metric is
// computed identically — 0.8 x normalized throughput collapse + 0.2 x
// latency inflation against LatencyRef — so impacts are comparable
// across the two targets.
type Workload struct {
	// Raft is the protocol configuration shared by all nodes.
	Raft Config
	// Net is the simulated network model.
	Net simnet.Config
	// Seed drives all simulation randomness; a test is a deterministic
	// function of (Workload, Scenario).
	Seed int64
	// Warmup runs before measurement starts (long enough to elect the
	// first leader).
	Warmup time.Duration
	// Measure is the measurement window.
	Measure time.Duration
	// BaselineMeasure, when positive, is a shorter measurement window
	// used only for attack-free baseline runs: a steady-state baseline
	// converges long before the full attack window elapses, and the
	// window dominates baseline cost once masters are warm-forked. Zero
	// means "use Measure", preserving historical results bit-for-bit.
	BaselineMeasure time.Duration
	// Client configures the closed-loop clients.
	Client ClientConfig
	// LatencyRef scales the latency component of the impact metric (see
	// cluster.Workload.LatencyRef). Zero disables it.
	LatencyRef time.Duration
	// StepBudget caps the number of engine events one measurement window
	// may fire; a scenario that exhausts it (a runaway event storm) is
	// reported as hung instead of being waited on. 0 disables the
	// watchdog.
	StepBudget uint64
}

// DefaultWorkload returns the Raft evaluation workload: 5 nodes,
// sub-millisecond LAN, compressed timers, 2-second measurement window.
func DefaultWorkload() Workload {
	return Workload{
		Raft:       DefaultConfig(),
		Net:        simnet.Config{BaseLatency: 500 * time.Microsecond},
		Seed:       1,
		Warmup:     500 * time.Millisecond,
		Measure:    2 * time.Second,
		Client:     DefaultClientConfig(),
		LatencyRef: 500 * time.Millisecond,
	}
}

// Report carries the detailed outcome of one Raft test beyond the
// core.Result impact summary.
type Report struct {
	Completed        uint64
	ElectionsStarted uint64
	MaxTerm          uint64
	// LeaderChanged reports whether the leader at the end of the window
	// differs from the one at its start.
	LeaderChanged   bool
	Redirects       uint64
	Retransmissions uint64
	P99Latency      time.Duration
	// Crashes / Restarts count injected crash-restart fault activity.
	Crashes  uint64
	Restarts uint64
}

// leaderFlap is the network-level attacker of the LeaderFlap plugin: on
// every interval tick it finds the node currently acting as leader and
// severs its links to every peer for the down window, forcing the rest
// of the cluster into an election. At most one node is isolated at a
// time (an attacker with a single vantage point): ticks that land while
// a victim is still down are skipped, so every isolation lasts the full
// down window and the next strike hits the successor leader. Flapping
// faster than the cluster can stabilize produces an election storm:
// terms inflate, candidates split votes, and client requests redirect
// in circles.
type leaderFlap struct {
	eng      *sim.Engine
	net      *simnet.Network
	nodes    []*Node
	interval time.Duration
	down     time.Duration
	isolated int // node currently cut off, -1 when none
	flaps    uint64
}

func (a *leaderFlap) start() {
	a.isolated = -1
	a.eng.Schedule(a.interval, a.strike)
}

func (a *leaderFlap) strike() {
	if a.isolated < 0 {
		victim := currentLeader(a.nodes)
		if victim >= 0 {
			a.isolated = victim
			a.flaps++
			for _, n := range a.nodes {
				if n.ID() != victim {
					a.net.BlockPair(simnet.Addr(victim), simnet.Addr(n.ID()))
				}
			}
			a.eng.Schedule(a.down, a.heal)
		}
	}
	a.eng.Schedule(a.interval, a.strike)
}

func (a *leaderFlap) heal() {
	if a.isolated < 0 {
		return
	}
	for _, n := range a.nodes {
		if n.ID() != a.isolated {
			a.net.UnblockPair(simnet.Addr(a.isolated), simnet.Addr(n.ID()))
		}
	}
	a.isolated = -1
}

// crashRestart is the crash-restart attacker: every interval tick it
// picks a victim, takes it down with Node.Crash, and schedules the
// restart after the down window. At most one node is down at a time.
// Victim selection is deterministic and vote-aware: a follower that
// granted its vote in a still-unresolved election is the highest-value
// target — crashed with durable-state loss it forgets the grant, and on
// restart it can vote again in the same term, which is the schedule that
// breaks Election Safety. With no such follower the current leader is
// struck (forcing an election), falling back to round-robin.
type crashRestart struct {
	eng      *sim.Engine
	nodes    []*Node
	obs      *oracle.Set // crash/restart markers for the coverage timeline
	interval time.Duration
	down     time.Duration
	lose     bool // take the durable state with it
	victim   int  // node currently down, -1 when none
	strikes  uint64
}

func (a *crashRestart) start() {
	a.victim = -1
	a.eng.Schedule(a.interval, a.strike)
}

func (a *crashRestart) pick() int {
	for _, n := range a.nodes {
		if !n.crashed && n.role == follower && n.votedFor >= 0 && n.votedFor != n.id && n.leader < 0 {
			return n.id
		}
	}
	if v := currentLeader(a.nodes); v >= 0 && !a.nodes[v].crashed {
		return v
	}
	for i := range a.nodes {
		n := a.nodes[(int(a.strikes)+i)%len(a.nodes)]
		if !n.crashed {
			return n.id
		}
	}
	return -1
}

func (a *crashRestart) strike() {
	if a.victim < 0 {
		if v := a.pick(); v >= 0 {
			a.victim = v
			a.strikes++
			a.nodes[v].Crash(!a.lose)
			a.obs.Observe(oracle.Event{Kind: oracle.EventCrash, Node: v})
			a.eng.Schedule(a.down, a.restart)
		}
	}
	a.eng.Schedule(a.interval, a.strike)
}

func (a *crashRestart) restart() {
	if a.victim < 0 {
		return
	}
	a.nodes[a.victim].Restart()
	a.obs.Observe(oracle.Event{Kind: oracle.EventRestart, Node: a.victim})
	a.victim = -1
}

// corrupter is the raft target's simnet.Corrupter: it garbles a
// protocol message into a new value (payloads are shared and must never
// be mutated in place). Corruptions perturb protocol claims — log-state
// advertisements, consistency-check coordinates, vote/ack verdicts —
// rather than forging identities, modelling bit rot the transport failed
// to catch. Client traffic is left alone (it has its own fault tools).
//
// The copies are carved from the deployment's rewindable slabs instead
// of the heap, where they were most of a link-fault campaign's
// allocations. Corruption arms after the snapshot is captured, so every
// copy lies past the capture marks and the park rewinds it.
type corrupter struct {
	rv  slab.Slab[RequestVote]
	rvr slab.Slab[RequestVoteReply]
	ae  slab.Slab[AppendEntries]
	aer slab.Slab[AppendEntriesReply]
}

// corrupterMark is the corrupter's capture position.
type corrupterMark struct{ rv, rvr, ae, aer slab.Mark }

func (c *corrupter) mark() corrupterMark {
	return corrupterMark{rv: c.rv.Mark(), rvr: c.rvr.Mark(), ae: c.ae.Mark(), aer: c.aer.Mark()}
}

func (c *corrupter) rewind(m corrupterMark) {
	c.rv.Rewind(m.rv)
	c.rvr.Rewind(m.rvr)
	c.ae.Rewind(m.ae)
	c.aer.Rewind(m.aer)
}

// corrupt implements simnet.Corrupter.
func (c *corrupter) corrupt(from, to simnet.Addr, payload any) any {
	switch m := payload.(type) {
	case *RequestVote:
		cp := c.rv.Get()
		*cp = *m
		cp.LastLogIndex ^= 1
		cp.LastLogTerm ^= 1
		return cp
	case *RequestVoteReply:
		cp := c.rvr.Get()
		*cp = *m
		cp.Granted = false
		return cp
	case *AppendEntries:
		cp := c.ae.Get()
		*cp = *m
		cp.PrevLogIndex ^= 1
		cp.PrevLogTerm ^= 1
		return cp
	case *AppendEntriesReply:
		cp := c.aer.Get()
		*cp = *m
		cp.Success = false
		cp.MatchIndex = 0
		return cp
	}
	return nil
}

// EntryDigest is the committed-value identity the oracles compare across
// nodes: a hash of everything that makes two log entries "the same
// command" — term, issuing client, and client sequence number.
func EntryDigest(e Entry) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range [3]uint64{e.Term, uint64(int64(e.Client)), e.Seq} {
		h ^= v
		h *= prime
	}
	return h
}

// currentLeader returns the id of the highest-term node acting as
// leader, or -1 when none is.
func currentLeader(nodes []*Node) int {
	best, bestTerm := -1, uint64(0)
	for _, n := range nodes {
		if n.IsLeader() && (best < 0 || n.Term() > bestTerm) {
			best, bestTerm = n.ID(), n.Term()
		}
	}
	return best
}

// Target is the Raft system under test: the shared core.Harness over
// Raft deployments, mirroring cluster.Target. A deployment's master key
// is its client count: the Raft attackers are purely network- and
// node-level and arm at measurement start, so scenario runs and
// baselines fork the same per-count master.
type Target struct {
	*core.Harness[int64, *deployment, Report]
	w Workload
}

var (
	_ core.Target            = (*Target)(nil)
	_ core.WorkerSnapshotter = (*Target)(nil)
)

// NewTarget builds the Raft system under test for a workload. With no
// explicit plugins it exposes the default Raft hyperspace: the client
// population composed with the leader-flap attack dimensions.
func NewTarget(w Workload, plugins ...core.Plugin) (*Target, error) {
	if err := w.Raft.Validate(); err != nil {
		return nil, err
	}
	if len(plugins) == 0 {
		plugins = []core.Plugin{NewClientsPlugin(), NewLeaderFlapPlugin()}
	}
	h, err := core.NewHarness[int64, *deployment, Report](core.HarnessSpec[int64, *deployment]{
		Name:          "raft",
		Config:        w,
		Plugins:       plugins,
		PopulationDim: DimClients,
		Key:           func(sc scenario.Scenario) int64 { return sc.GetOr(DimClients, 10) },
		Build: func(clients int64) *deployment {
			d := newDeployment(w, clients)
			d.eng.RunFor(w.Warmup)
			return d
		},
		Measure:         w.Measure,
		BaselineMeasure: w.BaselineMeasure,
		LatencyRef:      w.LatencyRef,
	})
	if err != nil {
		return nil, err
	}
	return &Target{Harness: h, w: w}, nil
}

// Workload returns the target's workload.
func (t *Target) Workload() Workload { return t.w }
