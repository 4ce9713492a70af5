package cluster

import (
	"fmt"
	"time"

	"avd/internal/core"
	"avd/internal/faultinject"
	"avd/internal/graycode"
	"avd/internal/mac"
	"avd/internal/metrics"
	"avd/internal/oracle"
	"avd/internal/pbft"
	"avd/internal/plugin"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
)

// deployment is one instantiated PBFT cluster bound to its own engine.
// Construction is fault-neutral: every scenario-specific tool (MAC
// corruption plans, Byzantine behaviors, interceptors) arms at
// measurement start, which is what lets one warm deployment serve many
// tests — the warmup prefix is shared, scenarios only diverge once
// fault injection begins (DESIGN.md §8). It is the PBFT core.Deployment:
// single-run at a time and not safe for concurrent use; the harness
// gives each worker slot its own.
type deployment struct {
	w         Workload
	eng       *sim.Engine
	net       *simnet.Network
	keyring   *mac.Keyring
	oracles   *oracle.Set
	cov       *oracle.CoverageChecker // rides oracles; measure reads its digest
	replicas  []*pbft.Replica
	byz       *pbft.ByzantineBehavior // attached to replica byzIdx, zero = inert
	byzIdx    int                     // which replica carries byz (Workload.ByzantineReplica, clamped)
	clients   []*pbft.Client
	malicious []*pbft.Client

	// win counts correct-client completions inside the measurement
	// window.
	win metrics.Window

	// snap is the post-warmup capture every park restores (nil on a
	// cold deployment, which is never captured).
	snap *deploymentSnapshot
}

// deploymentSnapshot pairs the engine/network captures with every
// replica's and client's own state capture.
type deploymentSnapshot struct {
	eng       *sim.Snapshot
	net       *simnet.NetSnapshot
	oracles   []any
	replicas  []*pbft.ReplicaState
	clients   []*pbft.ClientState
	malicious []*pbft.ClientState
}

var _ core.Deployment[Report] = (*deployment)(nil)

// newDeployment builds and starts a fault-neutral deployment with the
// given client population. The caller runs the warmup.
func newDeployment(w Workload, correctClients, nMalicious int64) *deployment {
	// The coverage checker is part of the base oracle set: it is
	// Rewindable, so snapshot/fork execution rolls its timeline fold back
	// with the invariant checkers and forked digests equal cold ones.
	cov := oracle.NewCoverage()
	d := &deployment{
		w:       w,
		eng:     sim.New(w.Seed),
		net:     nil,
		keyring: mac.NewKeyring(uint64(w.Seed)),
		oracles: oracle.NewSet(oracle.NewAgreement("pbft"), cov),
		cov:     cov,
		byz:     &pbft.ByzantineBehavior{},
		byzIdx:  w.ByzantineReplica,
	}
	if d.byzIdx < 0 || d.byzIdx >= w.PBFT.N {
		d.byzIdx = 0
	}
	d.net = simnet.New(d.eng, w.Net)

	// Protocol oracles observe every replica's executions: no two
	// replicas may commit different batches at one sequence number
	// (agreement), and no replica may overwrite its own committed
	// history (durability).
	d.replicas = make([]*pbft.Replica, 0, w.PBFT.N)
	// View installations feed the oracle stream as leadership events when
	// the installing replica is the new view's primary, so the coverage
	// signal sees view-change progress (the max-term bucket and the
	// transition edges both move). One closure is shared by all replicas
	// — the callback receives the installing node — to keep deployment
	// construction off the per-replica closure tax.
	viewObs := pbft.WithViewObserver(func(node int, view uint64) {
		if w.PBFT.PrimaryOf(view) == node {
			d.oracles.Observe(oracle.Event{Kind: oracle.EventLeader, Node: node, Term: view})
		}
	})
	for i := 0; i < w.PBFT.N; i++ {
		id := i
		opts := []pbft.ReplicaOption{
			pbft.WithCrashOnBadReproposal(w.CrashOnBadReproposal),
			pbft.WithCommitObserver(func(seq, digest uint64) {
				d.oracles.Observe(oracle.Event{Kind: oracle.EventCommit, Node: id, Seq: seq, Digest: digest})
			}),
			viewObs,
		}
		if i == d.byzIdx {
			// The potential Byzantine replica: behavior fields stay zero
			// (a correct replica) until a scenario arms them.
			opts = append(opts, pbft.WithByzantine(d.byz))
		}
		rep, err := pbft.NewReplica(i, w.PBFT, d.net, d.keyring, opts...)
		if err != nil {
			panic(fmt.Sprintf("cluster: replica construction: %v", err)) // config was validated
		}
		d.replicas = append(d.replicas, rep)
	}

	onComplete := d.win.Complete

	// Every client carves its requests and authenticators from one
	// arena: one allocation stream per deployment instead of one per
	// client.
	arena := pbft.WithArena(&pbft.ClientArena{})

	// Correct clients.
	nextAddr := simnet.Addr(w.PBFT.N)
	d.clients = make([]*pbft.Client, 0, correctClients)
	for i := int64(0); i < correctClients; i++ {
		c, err := pbft.NewClient(nextAddr, w.PBFT, w.Correct, d.net, d.keyring,
			pbft.WithOnComplete(onComplete), arena)
		if err != nil {
			panic(fmt.Sprintf("cluster: client construction: %v", err))
		}
		nextAddr++
		d.clients = append(d.clients, c)
	}

	// Malicious clients: correct-behaving until a scenario arms its MAC
	// corruption plan (their injector still counts generateMAC calls from
	// boot, exactly like an instrumented binary would).
	d.malicious = make([]*pbft.Client, 0, nMalicious)
	for i := int64(0); i < nMalicious; i++ {
		m, err := pbft.NewClient(nextAddr, w.PBFT, w.Malicious, d.net, d.keyring,
			pbft.WithInjector(faultinject.NewInjector(faultinject.Plan{})), arena)
		if err != nil {
			panic(fmt.Sprintf("cluster: malicious client construction: %v", err))
		}
		nextAddr++
		d.malicious = append(d.malicious, m)
	}

	for _, c := range d.clients {
		c.Start()
	}
	for _, m := range d.malicious {
		m.Start()
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
	}
	for _, rep := range d.replicas {
		s.replicas = append(s.replicas, rep.Snapshot())
	}
	for _, c := range d.clients {
		s.clients = append(s.clients, c.Snapshot())
	}
	for _, m := range d.malicious {
		s.malicious = append(s.malicious, m.Snapshot())
	}
	d.snap = s
}

// restore rolls the whole deployment back to the post-warmup snapshot.
func (d *deployment) restore() {
	s := d.snap
	d.eng.Restore(s.eng)
	d.net.Restore(s.net)
	d.oracles.Restore(s.oracles) // also detaches per-run checkers
	for i, rep := range d.replicas {
		rep.Restore(s.replicas[i])
	}
	for i, c := range d.clients {
		c.Restore(s.clients[i])
	}
	for i, m := range d.malicious {
		m.Restore(s.malicious[i])
		// Disarm: the plan and broadcast flag are arm-time settings, not
		// snapshot state — a master now serves attack forks and baseline
		// forks alike, so a fork that arms nothing must get a client as
		// benign as the post-warmup original.
		m.SetPlan(faultinject.NewPlan())
		m.SetBroadcast(false)
	}
	*d.byz = pbft.ByzantineBehavior{}
	d.win.Reset()
}

// Arm implements core.Deployment: it activates the scenario's faults and
// per-run checkers at measurement start, on the cold path and the forked
// path alike, so both execute the identical post-warmup event sequence.
func (d *deployment) Arm(sc scenario.Scenario, withFaults bool, extra ...oracle.Checker) {
	d.oracles.Attach(extra...)
	if !withFaults {
		return
	}
	w := d.w

	maskCoord := sc.GetOr(plugin.DimMACMask, 0)
	mask := uint64(maskCoord)
	if !w.BinaryMask {
		mask = graycode.Encode(uint64(maskCoord))
	}
	slowPrimary := sc.GetOr(plugin.DimSlowPrimary, 0) == 1
	collude := slowPrimary && sc.GetOr(plugin.DimCollude, 0) == 1
	slowInterval := time.Duration(sc.GetOr(plugin.DimSlowIntervalMS, 0)) * time.Millisecond
	reorderPct := sc.GetOr(plugin.DimReorderPct, 0)
	reorderDelay := time.Duration(sc.GetOr(plugin.DimReorderDelayMS, 0)) * time.Millisecond
	dropCall := sc.GetOr(plugin.DimDropCall, 0)
	dropLen := sc.GetOr(plugin.DimDropLen, 0)

	// Network-level tools.
	if reorderPct > 0 && reorderDelay > 0 {
		d.net.AddInterceptor(simnet.NewReorderer(w.Seed+7, float64(reorderPct)/100, reorderDelay))
	}

	// Client-level tools: MAC corruption per the mask, plus collusion.
	d.byz.SlowPrimary = slowPrimary
	d.byz.SlowInterval = slowInterval
	d.byz.Equivocate = w.Equivocate
	for _, m := range d.malicious {
		m.SetPlan(faultinject.NewPlan(faultinject.Rule{
			Point:    pbft.PointGenerateMAC,
			Trigger:  faultinject.ModMask{Mask: mask, Period: uint64(w.MaskBits)},
			Decision: faultinject.Decision{Action: faultinject.ActCorrupt},
		}))
		if collude {
			m.SetBroadcast(true) // seeds the backups' request timers
			if d.byz.ColludeWith == nil {
				d.byz.ColludeWith = make(map[simnet.Addr]bool)
			}
			d.byz.ColludeWith[m.Addr()] = true
		}
	}
	if dropLen > 0 && len(d.malicious) > 0 {
		d.net.AddInterceptor(newDropWindow(d.malicious[0].Addr(), uint64(dropCall), uint64(dropLen)))
	}
	d.replicas[d.byzIdx].ApplyByzantine()

	// Fault vocabulary v2 (DESIGN.md §10): crash-restart, clock skew,
	// asymmetric partitions, link corruption/duplication. Every axis is
	// off at its minimum, so legacy scenarios arm exactly what they used
	// to.
	crashInterval := time.Duration(sc.GetOr(plugin.DimCrashIntervalMS, 0)) * time.Millisecond
	crashDown := time.Duration(sc.GetOr(plugin.DimCrashDownMS, 0)) * time.Millisecond
	if crashInterval > 0 && crashDown > 0 {
		attacker := &crashRestart{
			eng: d.eng, replicas: d.replicas, obs: d.oracles,
			interval: crashInterval, down: crashDown,
			lose: sc.GetOr(plugin.DimCrashLose, 0) != 0,
		}
		attacker.start()
	}
	if v := sc.GetOr(plugin.DimSkewNode, 0); v > 0 && int(v) <= len(d.replicas) {
		if pm := sc.GetOr(plugin.DimSkewPermille, 0); pm != 0 {
			d.eng.SetSkew(d.replicas[v-1].Clock(), int32(pm))
		}
	}
	if v := sc.GetOr(plugin.DimOneWayVictim, 0); v > 0 && int(v) <= len(d.replicas) {
		victim := d.replicas[v-1].Addr()
		outbound := sc.GetOr(plugin.DimOneWayDir, 0) != 0
		for _, rpl := range d.replicas {
			peer := rpl.Addr()
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
	corruptMask := sc.GetOr(plugin.DimCorruptMask, 0)
	dupMask := sc.GetOr(plugin.DimDupMask, 0)
	if corruptMask != 0 || dupMask != 0 {
		from := simnet.AnyAddr
		if v := sc.GetOr(plugin.DimNetFaultFrom, 0); v > 0 && int(v) <= len(d.replicas) {
			from = d.replicas[v-1].Addr()
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
		d.net.ArmLinkFaults(from, simnet.AnyAddr, plan, corruptPayload)
	}
}

// crashRestart is the PBFT-side crash-restart attacker: every interval
// tick it picks a victim, takes it down with Replica.Crash, and schedules
// the restart after the down window. At most one injected crash is
// outstanding at a time, and a replica that already died of a protocol
// defect is never struck or revived (Crash reports whether the fault took
// effect). Victim selection is deterministic: the current primary is the
// highest-value target — killing it forces a view change, and killing it
// with durable-state loss discards the log the view change needs — with
// round-robin as the fallback.
type crashRestart struct {
	eng      *sim.Engine
	replicas []*pbft.Replica
	obs      *oracle.Set // crash/restart markers for the coverage timeline
	interval time.Duration
	down     time.Duration
	lose     bool // take the durable state with it
	victim   int  // replica currently down from an injected crash, -1 when none
	strikes  uint64
}

func (a *crashRestart) start() {
	a.victim = -1
	a.eng.Schedule(a.interval, a.strike)
}

func (a *crashRestart) pick() int {
	for _, rpl := range a.replicas {
		if crashed, _ := rpl.Crashed(); !crashed && rpl.IsPrimary() && !rpl.InViewChange() {
			return rpl.ID()
		}
	}
	for i := range a.replicas {
		rpl := a.replicas[(int(a.strikes)+i)%len(a.replicas)]
		if crashed, _ := rpl.Crashed(); !crashed {
			return rpl.ID()
		}
	}
	return -1
}

func (a *crashRestart) strike() {
	if a.victim < 0 {
		if v := a.pick(); v >= 0 && a.replicas[v].Crash(!a.lose) {
			a.victim = v
			a.strikes++
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
	a.replicas[a.victim].Restart()
	a.obs.Observe(oracle.Event{Kind: oracle.EventRestart, Node: a.victim})
	a.victim = -1
}

// corruptPayload is the PBFT target's simnet.Corrupter: it garbles a
// protocol message into a new value (payloads are pooled and shared, so
// corruption must never mutate in place). Flipping the digest a vote or
// proposal speaks for desynchronizes it from its authenticator, so the
// receiver rejects it — modelling bit rot that PBFT's MACs catch, which
// selectively erases agreement votes from the schedule. Client traffic is
// left alone (it has its own MAC-corruption tool).
func corruptPayload(from, to simnet.Addr, payload any) any {
	switch m := payload.(type) {
	case *pbft.PrePrepare:
		c := *m
		c.Digest ^= 1
		return &c
	case *pbft.Prepare:
		c := *m
		c.Digest ^= 1
		return &c
	case *pbft.Commit:
		c := *m
		c.Digest ^= 1
		return &c
	case *pbft.Checkpoint:
		c := *m
		c.Digest ^= 1
		return &c
	}
	return nil
}

// Measure implements core.Deployment: it runs the measurement window and
// collects the scenario outcome.
func (d *deployment) Measure(sc scenario.Scenario, window time.Duration) (core.Result, Report) {
	d.win.Begin()
	if d.w.StepBudget > 0 {
		d.eng.SetStepBudget(d.w.StepBudget)
	}
	d.eng.RunFor(window)
	hung := d.eng.BudgetExceeded()
	if d.w.StepBudget > 0 {
		d.eng.SetStepBudget(0)
	}
	d.win.End()

	// Censored latency: a request still stuck at window end (e.g. the
	// whole system crashed) contributes its elapsed wait.
	end := d.eng.Now()
	for _, c := range d.clients {
		if sentAt, ok := c.Outstanding(); ok {
			d.win.Censor(end.Sub(sentAt))
		}
	}

	res := core.Result{Scenario: sc}
	res.Throughput = float64(d.win.Completed()) / window.Seconds()
	res.AvgLatency = d.win.AvgLatency()
	rep := Report{CorrectCompleted: d.win.Completed()}
	for _, c := range d.clients {
		rep.Retransmissions += c.Stats().Retransmissions
	}
	for _, m := range d.malicious {
		rep.MaliciousCompleted += m.Stats().Completed
	}
	for _, rpl := range d.replicas {
		st := rpl.Stats()
		rep.ViewsInstalled += st.ViewsInstalled
		rep.TimerViewChanges += st.TimerViewChanges
		rep.RejectedBatches += st.RejectedBatches
		rep.RejectedRequests += st.RejectedRequests
		rep.StateTransfers += st.StateTransfers
		rep.Crashes += st.Crashes
		rep.Restarts += st.Restarts
		rep.FinalViews = append(rep.FinalViews, rpl.View())
		if crashed, reason := rpl.Crashed(); crashed {
			rep.CrashedReplicas = append(rep.CrashedReplicas, rpl.ID())
			rep.CrashReasons = append(rep.CrashReasons, reason)
		}
	}
	res.CrashedReplicas = len(rep.CrashedReplicas)
	res.ViewChanges = rep.ViewsInstalled
	res.InjectedCrashes = rep.Crashes
	res.Restarts = rep.Restarts
	if hung {
		res.Hung = true
		res.Error = fmt.Sprintf("cluster: scenario exceeded the %d-event step budget (runaway event storm)", d.w.StepBudget)
	}
	rep.P99Latency = d.win.P99()
	res.Coverage = d.cov.Digest()
	res.Violations = d.oracles.Finish()
	return res, rep
}
