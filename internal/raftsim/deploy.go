package raftsim

import (
	"fmt"
	"time"

	"avd/internal/core"
	"avd/internal/faultinject"
	"avd/internal/metrics"
	"avd/internal/oracle"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
)

// deployment is one instantiated Raft cluster bound to its own engine.
// Construction is fault-neutral — the leader-flap attacker arms at
// measurement start — so one warm deployment serves both scenario runs
// and the attack-free baseline for its client count (DESIGN.md §8). It
// is the Raft core.Deployment: one test at a time, and the harness gives
// each worker slot its own.
type deployment struct {
	w       Workload
	eng     *sim.Engine
	net     *simnet.Network
	oracles *oracle.Set
	cov     *oracle.CoverageChecker // rides oracles; measure reads its digest
	nodes   []*Node
	cs      []*Client

	// win counts client completions inside the measurement window.
	win metrics.Window

	// corr carves link-corrupted message copies.
	corr corrupter

	snap *deploymentSnapshot
}

// deploymentSnapshot pairs the engine/network captures with every
// node's and client's own state capture.
type deploymentSnapshot struct {
	eng     *sim.Snapshot
	net     *simnet.NetSnapshot
	oracles []any
	nodes   []*NodeState
	clients []*ClientState
	corr    corrupterMark
}

var _ core.Deployment[Report] = (*deployment)(nil)

// newDeployment builds and starts a fault-neutral Raft deployment. The
// caller runs the warmup.
func newDeployment(w Workload, clients int64) *deployment {
	// The coverage checker is part of the base oracle set: it is
	// Rewindable, so snapshot/fork execution rolls its timeline fold back
	// with the invariant checkers and forked digests equal cold ones.
	cov := oracle.NewCoverage()
	d := &deployment{
		w:   w,
		eng: sim.New(w.Seed),
		oracles: oracle.NewSet(
			oracle.NewElectionSafety("raft"),
			oracle.NewAgreement("raft"),
			cov,
		),
		cov: cov,
	}
	d.net = simnet.New(d.eng, w.Net)

	d.nodes = make([]*Node, 0, w.Raft.N)
	for i := 0; i < w.Raft.N; i++ {
		id := i
		n, err := NewNode(i, w.Raft, d.net,
			WithLeadObserver(func(term uint64) {
				d.oracles.Observe(oracle.Event{Kind: oracle.EventLeader, Node: id, Term: term})
			}),
			WithApplyObserver(func(index uint64, e Entry) {
				d.oracles.Observe(oracle.Event{Kind: oracle.EventCommit, Node: id, Seq: index, Term: e.Term, Digest: EntryDigest(e)})
			}))
		if err != nil {
			panic(fmt.Sprintf("raftsim: node construction: %v", err)) // config was validated
		}
		d.nodes = append(d.nodes, n)
	}

	onComplete := d.win.Complete
	d.cs = make([]*Client, 0, clients)
	nextAddr := simnet.Addr(w.Raft.N)
	for i := int64(0); i < clients; i++ {
		c, err := NewClient(nextAddr, w.Raft, w.Client, d.net, WithOnComplete(onComplete))
		if err != nil {
			panic(fmt.Sprintf("raftsim: client construction: %v", err))
		}
		nextAddr++
		d.cs = append(d.cs, c)
	}

	for _, n := range d.nodes {
		n.Start()
	}
	for _, c := range d.cs {
		c.Start()
	}
	return d
}

// Fork implements core.Deployment: the first call captures the
// post-warmup snapshot, later calls park the deployment on it.
func (d *deployment) Fork() {
	if d.snap == nil {
		d.capture()
	} else {
		d.restore()
	}
}

// capture takes the post-warmup snapshot forks restore from.
func (d *deployment) capture() {
	s := &deploymentSnapshot{
		eng:     d.eng.Snapshot(),
		net:     d.net.Snapshot(),
		oracles: d.oracles.Snapshot(),
		corr:    d.corr.mark(),
	}
	for _, n := range d.nodes {
		s.nodes = append(s.nodes, n.Snapshot())
	}
	for _, c := range d.cs {
		s.clients = append(s.clients, c.Snapshot())
	}
	d.snap = s
}

// restore rolls the whole deployment back to the post-warmup snapshot.
func (d *deployment) restore() {
	s := d.snap
	d.eng.Restore(s.eng)
	d.net.Restore(s.net)
	d.oracles.Restore(s.oracles)
	for i, n := range d.nodes {
		n.Restore(s.nodes[i])
	}
	for i, c := range d.cs {
		c.Restore(s.clients[i])
	}
	d.corr.rewind(s.corr)
	d.win.Reset()
}

// Arm implements core.Deployment: it activates the scenario's attacker
// and per-run checkers at measurement start (cold path and forked path
// alike).
func (d *deployment) Arm(sc scenario.Scenario, withFaults bool, extra ...oracle.Checker) {
	d.oracles.Attach(extra...)
	if !withFaults {
		return
	}
	flapInterval := time.Duration(sc.GetOr(DimFlapIntervalMS, 0)) * time.Millisecond
	flapDown := time.Duration(sc.GetOr(DimFlapDownMS, 0)) * time.Millisecond
	if flapInterval > 0 && flapDown > 0 {
		attacker := &leaderFlap{eng: d.eng, net: d.net, nodes: d.nodes, interval: flapInterval, down: flapDown}
		attacker.start()
	}
	crashInterval := time.Duration(sc.GetOr(DimCrashIntervalMS, 0)) * time.Millisecond
	crashDown := time.Duration(sc.GetOr(DimCrashDownMS, 0)) * time.Millisecond
	if crashInterval > 0 && crashDown > 0 {
		attacker := &crashRestart{
			eng: d.eng, nodes: d.nodes, obs: d.oracles,
			interval: crashInterval, down: crashDown,
			lose: sc.GetOr(DimCrashLose, 0) != 0,
		}
		attacker.start()
	}
	if v := sc.GetOr(DimSkewNode, 0); v > 0 && int(v) <= len(d.nodes) {
		if pm := sc.GetOr(DimSkewPermille, 0); pm != 0 {
			d.eng.SetSkew(d.nodes[v-1].Clock(), int32(pm))
		}
	}
	if v := sc.GetOr(DimOneWayVictim, 0); v > 0 && int(v) <= len(d.nodes) {
		victim := simnet.Addr(v - 1)
		outbound := sc.GetOr(DimOneWayDir, 0) != 0
		for _, n := range d.nodes {
			peer := simnet.Addr(n.ID())
			if peer == victim {
				continue
			}
			if outbound {
				d.net.Block(victim, peer)
			} else {
				d.net.Block(peer, victim)
			}
		}
	}
	corruptMask := sc.GetOr(DimCorruptMask, 0)
	dupMask := sc.GetOr(DimDupMask, 0)
	if corruptMask != 0 || dupMask != 0 {
		from := simnet.AnyAddr
		if v := sc.GetOr(DimNetFaultFrom, 0); v > 0 && int(v) <= len(d.nodes) {
			from = simnet.Addr(v - 1)
		}
		plan := faultinject.NewPlan(
			faultinject.Rule{
				Point:    simnet.PointLinkCorrupt,
				Trigger:  faultinject.ModMask{Mask: uint64(corruptMask), Period: 8},
				Decision: faultinject.Decision{Action: faultinject.ActCorrupt},
			},
			faultinject.Rule{
				Point:    simnet.PointLinkDup,
				Trigger:  faultinject.ModMask{Mask: uint64(dupMask), Period: 8},
				Decision: faultinject.Decision{Action: faultinject.ActCorrupt},
			},
		)
		d.net.ArmLinkFaults(from, simnet.AnyAddr, plan, d.corr.corrupt)
	}
}

// Measure implements core.Deployment: it runs the measurement window and
// collects the scenario outcome.
func (d *deployment) Measure(sc scenario.Scenario, window time.Duration) (core.Result, Report) {
	d.win.Begin()
	leaderBefore := currentLeader(d.nodes)
	if d.w.StepBudget > 0 {
		d.eng.SetStepBudget(d.w.StepBudget)
	}
	d.eng.RunFor(window)
	hung := d.eng.BudgetExceeded()
	if d.w.StepBudget > 0 {
		d.eng.SetStepBudget(0)
	}
	d.win.End()
	leaderAfter := currentLeader(d.nodes)

	// Censored latency for requests still stuck at window end.
	end := d.eng.Now()
	for _, c := range d.cs {
		if sentAt, ok := c.Outstanding(); ok {
			d.win.Censor(end.Sub(sentAt))
		}
	}

	res := core.Result{Scenario: sc}
	res.Throughput = float64(d.win.Completed()) / window.Seconds()
	res.AvgLatency = d.win.AvgLatency()
	rep := Report{Completed: d.win.Completed(), LeaderChanged: leaderBefore != leaderAfter}
	for _, n := range d.nodes {
		st := n.Stats()
		rep.ElectionsStarted += st.ElectionsStarted
		rep.Redirects += st.Redirects
		rep.Crashes += st.Crashes
		rep.Restarts += st.Restarts
		if st.TermsSeen > rep.MaxTerm {
			rep.MaxTerm = st.TermsSeen
		}
	}
	for _, c := range d.cs {
		rep.Retransmissions += c.Stats().Retransmissions
	}
	res.ViewChanges = rep.ElectionsStarted // terms are Raft's "views"
	res.InjectedCrashes = rep.Crashes
	res.Restarts = rep.Restarts
	if hung {
		res.Hung = true
		res.Error = fmt.Sprintf("raftsim: scenario exceeded the %d-event step budget (runaway event storm)", d.w.StepBudget)
	}
	rep.P99Latency = d.win.P99()
	res.Coverage = d.cov.Digest()
	res.Violations = d.oracles.Finish()
	return res, rep
}
