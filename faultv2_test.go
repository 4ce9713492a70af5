package avd_test

// Fault vocabulary v2 (ISSUE 6, DESIGN.md §10): crash-restart with
// durable-state loss, per-node clock skew, asymmetric partitions, and
// per-link corruption/duplication. The tests here pin the two contracts
// the new faults must keep:
//
//  1. The headline vulnerability: a crash-restart schedule that loses a
//     follower's durable vote record breaks Raft Election Safety — two
//     leaders in the same term — while the identical schedule with
//     durable state intact, and every scenario the old delay/drop/
//     partition/flap vocabulary can express, leaves the invariant
//     standing. This is the class of bug the enlarged hyperspace exists
//     to reach.
//
//  2. forked == cold for every new fault: arming any fault-v2 plugin on
//     a forked deployment reproduces the cold run bit for bit (trace,
//     result, report), including repeated forks through the delta-
//     restore path.

import (
	"reflect"
	"testing"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/oracle"
	"avd/internal/plugin"
	"avd/internal/raftsim"
	"avd/internal/scenario"
)

func raftFaultV2Space(t *testing.T) *scenario.Space {
	t.Helper()
	space, err := core.Space(
		raftsim.NewClientsPlugin(), raftsim.NewLeaderFlapPlugin(),
		plugin.NewCrashRestart(), plugin.NewClockSkew(5),
		plugin.NewOneWay(5), plugin.NewNetFaults(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// TestCrashRestartStateLossBreaksElectionSafety is the acceptance test
// of the crash-restart fault: a deterministic scenario where a node
// crash that loses durable state produces an Election Safety violation
// no old-vocabulary scenario reproduces.
//
// The schedule: a 50 ms crash cadence keeps an election perpetually
// unresolved; the attacker's vote-aware victim selection crashes a
// follower that granted its vote while the election is still open.
// Restarted without its durable state the follower has forgotten the
// grant, votes again in the same term, and two candidates assemble
// majorities for the same term.
func TestCrashRestartStateLossBreaksElectionSafety(t *testing.T) {
	space := raftFaultV2Space(t)
	r, err := raftsim.NewTarget(raftsim.DefaultWorkload())
	if err != nil {
		t.Fatal(err)
	}

	lossy := space.New(map[string]int64{
		raftsim.DimClients:        10,
		plugin.DimCrashIntervalMS: 50,
		plugin.DimCrashDownMS:     25,
		plugin.DimCrashLose:       1,
	})
	res, rep, _ := r.RunTracedFork(lossy)
	if !oracle.Violated(res.Violations, "raft/election-safety") {
		t.Fatalf("state-losing crash-restart schedule did not break election safety: violations=%v report=%+v",
			oracle.Names(res.Violations), rep)
	}
	if rep.Crashes == 0 || rep.Restarts == 0 {
		t.Fatalf("attacker idle: %d crashes, %d restarts", rep.Crashes, rep.Restarts)
	}
	if res.InjectedCrashes != rep.Crashes || res.Restarts != rep.Restarts {
		t.Fatalf("Result fault counters diverge from report: result %d/%d, report %d/%d",
			res.InjectedCrashes, res.Restarts, rep.Crashes, rep.Restarts)
	}

	// The identical schedule with durable state intact: the restarted
	// follower remembers its vote, and the invariant holds. The state
	// loss — not the crash — is the vulnerability.
	durable := lossy.With(plugin.DimCrashLose, 0)
	dres, drep, _ := r.RunTracedFork(durable)
	if oracle.Violated(dres.Violations, "raft/election-safety") {
		t.Fatalf("durable crash-restart broke election safety: violations=%v", oracle.Names(dres.Violations))
	}
	if drep.Crashes == 0 {
		t.Fatalf("durable variant injected no crashes; nothing was compared")
	}

	// The old fault vocabulary cannot express this bug: no leader-flap
	// schedule (the prior attacker: symmetric partition of the leader,
	// any cadence x any outage length) trips the invariant.
	flapPoints := [][2]int64{
		{50, 25}, {50, 50}, {100, 400}, {200, 175}, {400, 200},
		{500, 400}, {850, 75}, {1000, 25},
	}
	if !testing.Short() {
		flapPoints = flapPoints[:0]
		for interval := int64(50); interval <= 1000; interval += 50 {
			for down := int64(25); down <= 400; down += 25 {
				flapPoints = append(flapPoints, [2]int64{interval, down})
			}
		}
	}
	for _, p := range flapPoints {
		sc := space.New(map[string]int64{
			raftsim.DimClients:        10,
			raftsim.DimFlapIntervalMS: p[0],
			raftsim.DimFlapDownMS:     p[1],
		})
		fres := r.RunFork(sc)
		if oracle.Violated(fres.Violations, "raft/election-safety") {
			t.Fatalf("old-vocabulary flap scenario %s also breaks election safety; the crash fault adds nothing",
				sc.Key())
		}
	}
}

// TestForkedEqualsColdFaultV2Raft: forked == cold for each new fault on
// the Raft target — crash-restart (both durability modes), clock skew,
// asymmetric partition, and link corruption/duplication — including
// repeated forks from the same master (the delta-restore path).
func TestForkedEqualsColdFaultV2Raft(t *testing.T) {
	w := raftsim.DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	w.Measure = 800 * time.Millisecond
	r, err := raftsim.NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	space := raftFaultV2Space(t)
	for _, point := range []map[string]int64{
		{raftsim.DimClients: 10, plugin.DimCrashIntervalMS: 100, plugin.DimCrashDownMS: 50, plugin.DimCrashLose: 1},
		{raftsim.DimClients: 10, plugin.DimCrashIntervalMS: 150, plugin.DimCrashDownMS: 100, plugin.DimCrashLose: 0},
		{raftsim.DimClients: 10, plugin.DimSkewNode: 2, plugin.DimSkewPermille: 400},
		{raftsim.DimClients: 10, plugin.DimOneWayVictim: 1, plugin.DimOneWayDir: 1},
		{raftsim.DimClients: 10, plugin.DimOneWayVictim: 3, plugin.DimOneWayDir: 0},
		{raftsim.DimClients: 10, plugin.DimCorruptMask: 0xA5},
		{raftsim.DimClients: 10, plugin.DimDupMask: 0x3C, plugin.DimNetFaultFrom: 2},
		// Everything at once: the kitchen-sink schedule.
		{raftsim.DimClients: 10, plugin.DimCrashIntervalMS: 200, plugin.DimCrashDownMS: 75,
			plugin.DimCrashLose: 1, plugin.DimSkewNode: 4, plugin.DimSkewPermille: 200,
			plugin.DimOneWayVictim: 2, plugin.DimOneWayDir: 1,
			plugin.DimCorruptMask: 0x11, plugin.DimDupMask: 0x22},
	} {
		sc := space.New(point)
		coldRes, coldRep, coldTrace := r.RunTraced(sc)
		for fork := 0; fork < 2; fork++ {
			forkRes, forkRep, forkTrace := r.RunTracedFork(sc)
			assertSameRun(t, sc.Key(), coldRes, forkRes, coldTrace, forkTrace)
			if !reflect.DeepEqual(coldRep, forkRep) {
				t.Errorf("%s fork %d: report differs:\ncold: %+v\nfork: %+v", sc.Key(), fork, coldRep, forkRep)
			}
		}
	}
}

// TestRunawayScenarioDegradesToHung: a corrupt+dup schedule turns the
// Raft leader's reject-then-resend path into an unbounded full-log
// resend storm — every corrupted reply reads Success=false, the leader
// immediately re-sends, and the reply to that is corrupted too. Virtual
// time advances (each round trip costs a link latency) but event volume
// explodes; the step-budget watchdog must degrade the test to a Hung
// result instead of burning wall-clock forever, and the forked path
// must reach the same verdict as the cold one.
func TestRunawayScenarioDegradesToHung(t *testing.T) {
	w := raftsim.DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	w.Measure = 800 * time.Millisecond
	w.StepBudget = 400_000
	r, err := raftsim.NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	space := raftFaultV2Space(t)
	storm := space.New(map[string]int64{
		raftsim.DimClients:    10,
		plugin.DimCorruptMask: 0xA5,
		plugin.DimDupMask:     0x3C,
	})
	cold := r.Run(storm)
	if !cold.Hung {
		t.Fatalf("runaway corrupt+dup storm was not flagged hung (error=%q)", cold.Error)
	}
	if !cold.Errored() || cold.Error == "" {
		t.Fatalf("hung result must carry an error: %+v", cold)
	}
	fork := r.RunFork(storm)
	if !reflect.DeepEqual(cold, fork) {
		t.Errorf("hung verdict differs between cold and fork:\ncold: %+v\nfork: %+v", cold, fork)
	}

	// The same deployment still executes a healthy scenario afterwards:
	// the exhausted budget must not leak into the next run.
	calm := space.New(map[string]int64{raftsim.DimClients: 10})
	if res := r.RunFork(calm); res.Hung || res.Error != "" {
		t.Fatalf("budget leaked into a healthy scenario: %+v", res)
	}
}

// TestForkedEqualsColdFaultV2PBFT: the same contract on the PBFT
// target, whose crash-restart path exercises the replica persistence
// seam (durable agreement log vs volatile protocol bookkeeping).
func TestForkedEqualsColdFaultV2PBFT(t *testing.T) {
	r, err := cluster.NewTarget(pbftForkWorkload())
	if err != nil {
		t.Fatal(err)
	}
	space, err := core.Space(
		plugin.NewMACCorrupt(), plugin.NewClients(),
		plugin.NewCrashRestart(), plugin.NewClockSkew(4),
		plugin.NewOneWay(4), plugin.NewNetFaults(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, point := range []map[string]int64{
		{plugin.DimCorrectClients: 10, plugin.DimMaliciousClients: 1,
			plugin.DimCrashIntervalMS: 100, plugin.DimCrashDownMS: 50, plugin.DimCrashLose: 1},
		{plugin.DimCorrectClients: 10, plugin.DimMaliciousClients: 1,
			plugin.DimCrashIntervalMS: 150, plugin.DimCrashDownMS: 100, plugin.DimCrashLose: 0},
		{plugin.DimCorrectClients: 10, plugin.DimMaliciousClients: 1,
			plugin.DimSkewNode: 2, plugin.DimSkewPermille: 300},
		{plugin.DimCorrectClients: 10, plugin.DimMaliciousClients: 1,
			plugin.DimOneWayVictim: 2, plugin.DimOneWayDir: 1},
		{plugin.DimCorrectClients: 10, plugin.DimMaliciousClients: 1,
			plugin.DimCorruptMask: 0x55, plugin.DimDupMask: 0xAA},
		{plugin.DimCorrectClients: 10, plugin.DimMaliciousClients: 1, plugin.DimMACMask: 0x0F0,
			plugin.DimCrashIntervalMS: 200, plugin.DimCrashDownMS: 75, plugin.DimCrashLose: 1,
			plugin.DimSkewNode: 3, plugin.DimSkewPermille: 200,
			plugin.DimOneWayVictim: 1, plugin.DimOneWayDir: 0,
			plugin.DimCorruptMask: 0x0F, plugin.DimDupMask: 0xF0, plugin.DimNetFaultFrom: 1},
	} {
		sc := space.New(point)
		coldRes, coldRep, coldTrace := r.RunTraced(sc)
		if coldTrace == nil {
			coldTrace = []oracle.Event{}
		}
		for fork := 0; fork < 2; fork++ {
			forkRes, forkRep, forkTrace := r.RunTracedFork(sc)
			if forkTrace == nil {
				forkTrace = []oracle.Event{}
			}
			assertSameRun(t, sc.Key(), coldRes, forkRes, coldTrace, forkTrace)
			if !reflect.DeepEqual(coldRep, forkRep) {
				t.Errorf("%s fork %d: report differs:\ncold: %+v\nfork: %+v", sc.Key(), fork, coldRep, forkRep)
			}
		}
	}
}
