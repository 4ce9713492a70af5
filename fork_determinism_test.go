package avd_test

// The snapshot/fork determinism contract (ISSUE 4, DESIGN.md §8): a
// forked run must be indistinguishable from a cold run of the same
// scenario — identical oracle-event trace, identical Result (impact,
// throughput, latency, violations), identical detailed report — and a
// master snapshot must be reusable for any number of forks.

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/oracle"
	"avd/internal/plugin"
	"avd/internal/raftsim"
	"avd/internal/scenario"
)

func pbftForkWorkload() cluster.Workload {
	w := cluster.DefaultWorkload()
	w.Warmup = 200 * time.Millisecond
	w.Measure = 600 * time.Millisecond
	return w
}

func pbftForkSpace(t *testing.T) *scenario.Space {
	t.Helper()
	space, err := core.Space(plugin.NewMACCorrupt(), plugin.NewClients(),
		&plugin.SlowPrimary{}, &plugin.Reorder{}, plugin.NewFaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// pbftForkScenarios exercises every fault tool the PBFT deployment arms:
// MAC corruption, slow primary with collusion, reordering, drop windows.
func pbftForkScenarios(t *testing.T) []scenario.Scenario {
	space := pbftForkSpace(t)
	return []scenario.Scenario{
		space.New(map[string]int64{
			plugin.DimMACMask:          0xEEE,
			plugin.DimCorrectClients:   20,
			plugin.DimMaliciousClients: 1,
		}),
		space.New(map[string]int64{
			plugin.DimMACMask:          0,
			plugin.DimCorrectClients:   10,
			plugin.DimMaliciousClients: 1,
			plugin.DimSlowPrimary:      1,
			plugin.DimCollude:          1,
			plugin.DimSlowIntervalMS:   400,
		}),
		space.New(map[string]int64{
			plugin.DimMACMask:          0x0F0,
			plugin.DimCorrectClients:   20,
			plugin.DimMaliciousClients: 2,
			plugin.DimReorderPct:       40,
			plugin.DimReorderDelayMS:   10,
			plugin.DimDropCall:         5,
			plugin.DimDropLen:          20,
		}),
	}
}

func assertSameRun(t *testing.T, label string, coldRes, forkRes core.Result, coldTrace, forkTrace []oracle.Event) {
	t.Helper()
	if !reflect.DeepEqual(coldRes, forkRes) {
		t.Errorf("%s: forked Result differs from cold:\ncold: %+v\nfork: %+v", label, coldRes, forkRes)
	}
	if len(coldTrace) != len(forkTrace) {
		t.Fatalf("%s: trace lengths differ: cold %d vs fork %d", label, len(coldTrace), len(forkTrace))
	}
	for i := range coldTrace {
		if coldTrace[i] != forkTrace[i] {
			t.Fatalf("%s: trace diverges at event %d: cold %v vs fork %v", label, i, coldTrace[i], forkTrace[i])
		}
	}
}

// TestForkedEqualsColdPBFT: forked == cold for the PBFT target across
// every fault tool, with each master forked repeatedly.
func TestForkedEqualsColdPBFT(t *testing.T) {
	r, err := cluster.NewTarget(pbftForkWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range pbftForkScenarios(t) {
		coldRes, coldRep, coldTrace := r.RunTraced(sc)
		if coldTrace == nil {
			coldTrace = []oracle.Event{}
		}
		// Fork twice from the same master: the first fork validates
		// forked==cold, the second validates snapshot reuse after restore.
		for fork := 0; fork < 2; fork++ {
			forkRes, forkRep, forkTrace := r.RunTracedFork(sc)
			if forkTrace == nil {
				forkTrace = []oracle.Event{}
			}
			label := sc.Key()
			assertSameRun(t, label, coldRes, forkRes, coldTrace, forkTrace)
			if !reflect.DeepEqual(coldRep, forkRep) {
				t.Errorf("%s fork %d: report differs:\ncold: %+v\nfork: %+v", label, fork, coldRep, forkRep)
			}
		}
		_ = i
	}
}

// TestForkedEqualsColdPBFTOracleVerdicts: a forked run reports the same
// injected-defect violations as a cold run (executed agreement violation
// via QuorumBug + equivocation).
func TestForkedEqualsColdPBFTOracleVerdicts(t *testing.T) {
	w := pbftForkWorkload()
	w.PBFT.QuorumBug = true
	w.Equivocate = true
	r, err := cluster.NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	sc := pbftForkSpace(t).New(map[string]int64{
		plugin.DimMACMask:          0,
		plugin.DimCorrectClients:   10,
		plugin.DimMaliciousClients: 1,
	})
	cold := r.Run(sc)
	if !cold.Violated("pbft/agreement") {
		t.Fatalf("cold run did not trip the injected agreement violation: %v", cold.Violations)
	}
	fork := r.RunFork(sc)
	if !reflect.DeepEqual(cold.Violations, fork.Violations) {
		t.Errorf("forked violations differ: cold %v vs fork %v", cold.Violations, fork.Violations)
	}
}

// TestForkedEqualsColdRaft: forked == cold for the Raft target under the
// leader-flap election storm, including trace and report equality.
func TestForkedEqualsColdRaft(t *testing.T) {
	w := raftsim.DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	w.Measure = 800 * time.Millisecond
	r, err := raftsim.NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	space, err := core.Space(raftsim.NewClientsPlugin(), raftsim.NewLeaderFlapPlugin())
	if err != nil {
		t.Fatal(err)
	}
	for _, point := range []map[string]int64{
		{raftsim.DimClients: 10, raftsim.DimFlapIntervalMS: 100, raftsim.DimFlapDownMS: 200},
		{raftsim.DimClients: 25, raftsim.DimFlapIntervalMS: 0, raftsim.DimFlapDownMS: 0},
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

// TestForkedCoverageDigests: the coverage digest is part of the
// forked==cold contract — every measured run carries a non-zero digest,
// and forked executions reproduce the cold one bit for bit on both
// shipped targets. Coverage-guided exploration depends on this: the
// corpus must make the same admission decisions whether the engine
// forked the run or ran it cold.
func TestForkedCoverageDigests(t *testing.T) {
	pr, err := cluster.NewTarget(pbftForkWorkload())
	if err != nil {
		t.Fatal(err)
	}
	pbftSC := pbftForkScenarios(t)[0]
	cold := pr.Run(pbftSC)
	fork := pr.RunFork(pbftSC)
	if cold.Coverage.IsZero() {
		t.Error("pbft: cold run has no coverage digest")
	}
	if cold.Coverage != fork.Coverage {
		t.Errorf("pbft: forked coverage differs:\ncold: %+v\nfork: %+v", cold.Coverage, fork.Coverage)
	}

	w := raftsim.DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	w.Measure = 800 * time.Millisecond
	rr, err := raftsim.NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	space, err := core.Space(raftsim.NewClientsPlugin(), raftsim.NewLeaderFlapPlugin())
	if err != nil {
		t.Fatal(err)
	}
	raftSC := space.New(map[string]int64{
		raftsim.DimClients: 10, raftsim.DimFlapIntervalMS: 100, raftsim.DimFlapDownMS: 200,
	})
	cold = rr.Run(raftSC)
	fork = rr.RunFork(raftSC)
	if cold.Coverage.IsZero() {
		t.Error("raft: cold run has no coverage digest")
	}
	if cold.Coverage != fork.Coverage {
		t.Errorf("raft: forked coverage differs:\ncold: %+v\nfork: %+v", cold.Coverage, fork.Coverage)
	}
}

// TestWorkerForkEqualsFork: the per-slot arena fork path is bit-for-bit
// the cold run on both targets, for every worker slot — including the
// baseline throughput the impact score folds in — and RunFork is slot 0.
func TestWorkerForkEqualsFork(t *testing.T) {
	pr, err := cluster.NewTarget(pbftForkWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range pbftForkScenarios(t) {
		want := pr.Run(sc)
		if got := pr.RunFork(sc); !reflect.DeepEqual(want, got) {
			t.Errorf("pbft %s: RunFork differs from cold:\ncold: %+v\nfork: %+v", sc.Key(), want, got)
		}
		for worker := 0; worker < 3; worker++ {
			got := pr.RunForkWorker(sc, worker)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("pbft %s worker %d: arena-forked Result differs from cold:\ncold:  %+v\narena: %+v", sc.Key(), worker, want, got)
			}
			// A second run on the same slot reuses the retained master.
			if again := pr.RunForkWorker(sc, worker); !reflect.DeepEqual(want, again) {
				t.Errorf("pbft %s worker %d: arena re-fork diverged", sc.Key(), worker)
			}
		}
	}

	w := raftsim.DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	w.Measure = 800 * time.Millisecond
	rr, err := raftsim.NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	space, err := core.Space(raftsim.NewClientsPlugin(), raftsim.NewLeaderFlapPlugin())
	if err != nil {
		t.Fatal(err)
	}
	sc := space.New(map[string]int64{
		raftsim.DimClients: 10, raftsim.DimFlapIntervalMS: 100, raftsim.DimFlapDownMS: 200,
	})
	want := rr.Run(sc)
	for worker := 0; worker < 3; worker++ {
		if got := rr.RunForkWorker(sc, worker); !reflect.DeepEqual(want, got) {
			t.Errorf("raft worker %d: arena-forked Result differs from cold:\ncold:  %+v\narena: %+v", worker, want, got)
		}
	}
}

// coldTarget hides the fork capabilities from the engine, so every test
// runs cold: the reference the fork path must match.
type coldTarget struct{ core.Target }

// TestWorkerForkCampaignDeterminism: for a fixed (seed, workers) pair, a
// parallel engine routing live tests through the per-slot arenas
// produces bit-for-bit the results of the same campaign run cold, and
// repeated arena campaigns reproduce themselves exactly. (Campaign
// determinism is per (seed, workers) — different worker counts
// legitimately explore different proposals, so the comparison holds the
// pair fixed.)
func TestWorkerForkCampaignDeterminism(t *testing.T) {
	const workers = 4
	run := func(cold bool) []core.Result {
		var target core.Target
		var err error
		target, err = cluster.NewTarget(pbftForkWorkload())
		if err != nil {
			t.Fatal(err)
		}
		if cold {
			target = coldTarget{target}
		}
		eng, err := core.NewEngine(target, core.WithSeed(7), core.WithBudget(12), core.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		results, err := eng.RunAll(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	want := run(true) // cold reference
	for rep := 0; rep < 2; rep++ {
		got := run(false) // per-slot arenas
		if len(got) != len(want) {
			t.Fatalf("arena run %d: %d results, want %d", rep, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("arena run %d: result %d differs from the cold campaign:\ncold:  %+v\narena: %+v", rep, i, want[i], got[i])
			}
		}
	}
}

// TestConcurrentForksAreDeterministic: parallel workers forking the same
// and different scenarios produce exactly the serial results (run under
// -race this doubles as the fork race test).
func TestConcurrentForksAreDeterministic(t *testing.T) {
	r, err := cluster.NewTarget(pbftForkWorkload())
	if err != nil {
		t.Fatal(err)
	}
	scs := pbftForkScenarios(t)
	// Serial reference.
	want := make([]core.Result, len(scs))
	for i, sc := range scs {
		want[i] = r.RunFork(sc)
	}
	var wg sync.WaitGroup
	got := make([]core.Result, len(scs)*3)
	for rep := 0; rep < 3; rep++ {
		for i, sc := range scs {
			wg.Add(1)
			go func(slot int, sc scenario.Scenario) {
				defer wg.Done()
				got[slot] = r.RunFork(sc)
			}(rep*len(scs)+i, sc)
		}
	}
	wg.Wait()
	for rep := 0; rep < 3; rep++ {
		for i := range scs {
			if !reflect.DeepEqual(want[i], got[rep*len(scs)+i]) {
				t.Errorf("concurrent fork of %s diverged from serial result", scs[i].Key())
			}
		}
	}
}
