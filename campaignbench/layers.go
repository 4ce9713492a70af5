package main

import (
	"fmt"
	"slices"
	"time"

	"avd/internal/campaign"
	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/oracle"
	"avd/internal/raftsim"
	"avd/internal/scenario"
	"avd/internal/sim"
	"avd/internal/simnet"
)

// tailStats is what the traced run measured around the campaign proper:
// its wall time and span coverage, durable recovery, and supervision.
type tailStats struct {
	WallS      float64
	Coverage   float64 // share of WallS the root's child spans cover
	RecoverNS  int64   // ReadDurableResults over every checkpoint
	MergeNS    int64   // MergeShards
	ShardWallS []float64
	ShardCPUS  float64
	Starts     int
}

// traceLayers replays the campaign's scenarios and times the simulation
// layers, then derives every per-layer metric. Metrics of a layer the
// workload does not run read 0.
func traceLayers(cfg campaign.Config, results []core.Result, fp string, ps procStats, tail tailStats) (map[string]float64, error) {
	rp, err := replay(cfg, results, fp)
	if err != nil {
		return nil, err
	}
	tests, wall := float64(ps.Tests), float64(ps.WallNS)
	m := map[string]float64{
		"trace.tests_per_s":   float64(len(results)) / tail.WallS,
		"trace.span_coverage": tail.Coverage,

		"engine.worker_busy_share": float64(sum(ps.RunNS)) / float64(ps.SlotNS),
		"engine.coord_ms_per_test": float64(ps.WallNS-ps.CoveredNS) / tests / 1e6,

		"explorer.next_us.p50":   percentile(ps.NextNS, 50) / 1e3,
		"explorer.record_us.p50": percentile(ps.RecordNS, 50) / 1e3,
		"explorer.share":         float64(sum(ps.NextNS)+sum(ps.RecordNS)) / wall,

		"harness.test_ms.p50":     percentile(ps.RunNS, 50) / 1e6,
		"harness.test_ms.p90":     percentile(ps.RunNS, 90) / 1e6,
		"harness.warm_ms":         float64(sum(ps.WarmNS)) / 1e6,
		"harness.warmup_s":        ps.Phases.WarmupSeconds,
		"harness.baseline_s":      ps.Phases.BaselineSeconds,
		"harness.fork_s":          ps.Phases.ForkSeconds,
		"harness.run_s":           ps.Phases.RunSeconds,
		"harness.allocs_per_test": float64(ps.Mallocs) / tests,
		"harness.bytes_per_test":  float64(ps.AllocBytes) / tests,
		"harness.heap_sys_mb":     float64(ps.HeapSys) / (1 << 20),

		"sim.ns_per_event":       simNSPerEvent(cfg.Seed),
		"simnet.ns_per_message":  simnetNSPerMessage(cfg.Seed),
		"oracle.events_per_test": float64(rp.Events) / float64(len(results)),
		"oracle.ns_per_event":    float64(rp.OracleNS) / float64(max(rp.Events, 1)),

		"durable.append_ms.p50":    percentile(ps.AppendNS, 50) / 1e6,
		"durable.append_ms.p90":    percentile(ps.AppendNS, 90) / 1e6,
		"durable.bytes_per_result": float64(ps.JournalBytes) / tests,
		"durable.recover_ms":       float64(tail.RecoverNS) / 1e6,

		"supervise.shard_wall_s.max": 0,
		"supervise.shard_imbalance":  0,
		"supervise.shard_cpu_s":      tail.ShardCPUS,
		"supervise.starts":           float64(tail.Starts),
		"merge.ms":                   float64(tail.MergeNS) / 1e6,
	}
	if n := len(tail.ShardWallS); n > 0 {
		hi, total := slices.Max(tail.ShardWallS), 0.0
		for _, s := range tail.ShardWallS {
			total += s
		}
		m["supervise.shard_wall_s.max"] = hi
		m["supervise.shard_imbalance"] = hi / (total / float64(n))
	}
	// Both protocol families are always reported; the other family's
	// read 0.
	for _, fam := range []string{"pbft", "raft"} {
		for _, k := range []string{"requests_per_test", "retransmissions_per_test", "run_ns_per_request"} {
			m[fam+"."+k] = 0
		}
	}
	m["pbft.views_per_test"], m["raft.elections_per_test"] = 0, 0
	f := rp.Family + "."
	m[f+"requests_per_test"] = float64(rp.Requests) / float64(len(results))
	m[f+"retransmissions_per_test"] = float64(rp.Retransmissions) / float64(len(results))
	m[f+"run_ns_per_request"] = ps.Phases.RunSeconds * 1e9 / float64(max(rp.Requests, 1))
	if rp.Family == "pbft" {
		m["pbft.views_per_test"] = float64(rp.Views) / float64(len(results))
	} else {
		m["raft.elections_per_test"] = float64(rp.Views) / float64(len(results))
	}
	return m, nil
}

// replayStats is what replaying a campaign's scenarios measured.
type replayStats struct {
	Family string
	// Requests, Retransmissions and Views sum the harness reports: for
	// Raft, Views counts elections started.
	Requests, Retransmissions, Views uint64
	Events                           uint64 // oracle events recorded
	OracleNS                         int64  // replaying them through fresh checkers
}

// tracedRun is a target's RunTracedFork with its harness report reduced
// to the counts the benchmark reports.
type tracedRun func(sc scenario.Scenario) (res core.Result, requests, retransmissions, views uint64, events []oracle.Event)

// tracedRunOf returns the target's traced replay.
func tracedRunOf(t core.Target) (tracedRun, error) {
	switch t := t.(type) {
	case *cluster.Target:
		return func(sc scenario.Scenario) (core.Result, uint64, uint64, uint64, []oracle.Event) {
			res, rep, events := t.RunTracedFork(sc)
			return res, rep.CorrectCompleted + rep.MaliciousCompleted, rep.Retransmissions, rep.ViewsInstalled, events
		}, nil
	case *raftsim.Target:
		return func(sc scenario.Scenario) (core.Result, uint64, uint64, uint64, []oracle.Event) {
			res, rep, events := t.RunTracedFork(sc)
			return res, rep.Completed, rep.Retransmissions, rep.ElectionsStarted, events
		}, nil
	default:
		return nil, fmt.Errorf("campaignbench: no traced replay for target %T", t)
	}
}

// replay re-executes every scenario of a campaign on a fresh unsharded
// target through RunTracedFork, which returns the harness report and the
// oracle event stream with the result, and must reproduce the campaign's
// fingerprint. Each stream is then fed through fresh checkers and the
// coverage fold. Their verdicts are not compared with the run's: the
// run's checkers also saw the warm-up, which the stream leaves out.
func replay(cfg campaign.Config, results []core.Result, fp string) (replayStats, error) {
	cfg.Shard, cfg.Shards = 0, 1
	setup, err := campaign.Build(cfg)
	if err != nil {
		return replayStats{}, err
	}
	run, err := tracedRunOf(setup.Target)
	if err != nil {
		return replayStats{}, err
	}
	rs := replayStats{Family: cfg.Target}
	again := make([]core.Result, len(results))
	for i, res := range results {
		out, events := traceOne(run, res.Scenario, &rs)
		out.Generator = res.Generator
		again[i] = out
		set, cov := checkers(cfg.Target)
		start := time.Now()
		for _, ev := range events {
			set.Observe(ev)
		}
		set.Finish()
		cov.Digest()
		rs.OracleNS += time.Since(start).Nanoseconds()
		rs.Events += uint64(len(events))
	}
	return rs, sameFingerprint("replay", again, fp)
}

// traceOne replays one scenario. A panic becomes an error result with
// the first line the engine gives it, and no event stream.
func traceOne(run tracedRun, sc scenario.Scenario, rs *replayStats) (res core.Result, events []oracle.Event) {
	defer func() {
		if r := recover(); r != nil {
			res, events = core.Result{Scenario: sc, Error: fmt.Sprintf("core: target panicked running %s: %v", sc.Key(), r)}, nil
		}
	}()
	res, requests, retransmissions, views, events := run(sc)
	rs.Requests += requests
	rs.Retransmissions += retransmissions
	rs.Views += views
	return res, events
}

// checkers returns a fresh copy of the oracle set a target's deployments
// run, and its coverage fold.
func checkers(target string) (*oracle.Set, *oracle.CoverageChecker) {
	cov := oracle.NewCoverage()
	if target == "raft" {
		return oracle.NewSet(oracle.NewElectionSafety("raft"), oracle.NewAgreement("raft"), cov), cov
	}
	return oracle.NewSet(oracle.NewAgreement("pbft"), cov), cov
}

// simNSPerEvent times the event engine's Schedule and Step: a fixed
// population of timers, each rescheduling itself when it fires. Median
// of five rounds.
func simNSPerEvent(seed int64) float64 {
	const timers, events = 256, 200_000
	var rounds []float64
	for r := 0; r < 5; r++ {
		eng := sim.New(seed)
		rng := eng.Rand()
		var fire func()
		fire = func() { eng.Schedule(time.Duration(rng.Int63n(int64(time.Millisecond))), fire) }
		for i := 0; i < timers; i++ {
			fire()
		}
		start := time.Now()
		for i := 0; i < events; i++ {
			eng.Step()
		}
		rounds = append(rounds, float64(time.Since(start).Nanoseconds())/events)
	}
	return median(rounds)
}

// simnetNSPerMessage times the simulated network from Send to delivery
// on the harnesses' network model: messages relayed between five nodes,
// a fixed number in flight. Median of five rounds.
func simnetNSPerMessage(seed int64) float64 {
	const nodes, inflight, messages = 5, 64, 100_000
	var rounds []float64
	for r := 0; r < 5; r++ {
		eng := sim.New(seed)
		net := simnet.New(eng, cluster.DefaultWorkload().Net)
		rng := eng.Rand()
		delivered := 0
		for a := simnet.Addr(0); a < nodes; a++ {
			net.Handle(a, func(_ simnet.Addr, payload any) {
				delivered++
				if delivered+inflight <= messages {
					net.Send(a, (a+1+simnet.Addr(rng.Intn(nodes-1)))%nodes, payload)
				}
			})
		}
		start := time.Now()
		for i := 0; i < inflight; i++ {
			net.Send(0, simnet.Addr(1+i%(nodes-1)), i)
		}
		for delivered < messages && eng.Step() {
		}
		rounds = append(rounds, float64(time.Since(start).Nanoseconds())/float64(delivered))
	}
	return median(rounds)
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// percentile is the nearest-rank percentile of xs, 0 when empty.
func percentile(xs []int64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := (len(s)*p + 99) / 100
	return float64(s[max(i, 1)-1])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
