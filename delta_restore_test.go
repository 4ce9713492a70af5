package avd_test

// Delta-restore property (ISSUE 5, DESIGN.md §9): an engine that
// snapshots once and then interleaves many restore/run cycles — with
// different scenarios dirtying different amounts of state each window —
// must stay bit-identical to fresh cold runs, for both targets. This is
// the contract that lets Restore copy back only touched state: any slot
// the dirty tracking misses shows up here as a trace or Result
// divergence on a later cycle.

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/oracle"
	"avd/internal/raftsim"
	"avd/internal/scenario"
)

// TestDeltaRestoreInterleavedPBFT runs N interleaved fork cycles on one
// PBFT runner (one master per population, restored over and over in a
// scenario order that keeps changing the dirty footprint) and compares
// every cycle against a cold reference from a fresh runner.
func TestDeltaRestoreInterleavedPBFT(t *testing.T) {
	w := pbftForkWorkload()
	forked, err := cluster.NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := pbftForkScenarios(t)

	// Cold references, one fresh runner per scenario so nothing is shared.
	type ref struct {
		res   core.Result
		rep   cluster.Report
		trace []oracle.Event
	}
	refs := make([]ref, len(scenarios))
	for i, sc := range scenarios {
		cold, err := cluster.NewTarget(w)
		if err != nil {
			t.Fatal(err)
		}
		res, rep, trace := cold.RunTraced(sc)
		refs[i] = ref{res: res, rep: rep, trace: trace}
	}

	// Interleave: a deterministic shuffle with repeats, so consecutive
	// restores of one master alternate between heavy (healthy window,
	// thousands of dirtied slots) and light (collapsed window) forks.
	order := make([]int, 0, 24)
	rng := rand.New(rand.NewSource(7))
	for len(order) < cap(order) {
		order = append(order, rng.Intn(len(scenarios)))
	}
	for cycle, idx := range order {
		res, rep, trace := forked.RunTracedFork(scenarios[idx])
		label := scenarios[idx].Key()
		if !reflect.DeepEqual(res, refs[idx].res) {
			t.Fatalf("cycle %d (%s): forked Result diverged from cold:\ncold: %+v\nfork: %+v",
				cycle, label, refs[idx].res, res)
		}
		if len(rep.CrashedReplicas) != len(refs[idx].rep.CrashedReplicas) ||
			rep.CorrectCompleted != refs[idx].rep.CorrectCompleted ||
			rep.ViewsInstalled != refs[idx].rep.ViewsInstalled {
			t.Fatalf("cycle %d (%s): forked Report diverged from cold:\ncold: %+v\nfork: %+v",
				cycle, label, refs[idx].rep, rep)
		}
		if len(trace) != len(refs[idx].trace) {
			t.Fatalf("cycle %d (%s): trace length %d, cold %d", cycle, label, len(trace), len(refs[idx].trace))
		}
		for i := range trace {
			if trace[i] != refs[idx].trace[i] {
				t.Fatalf("cycle %d (%s): trace diverged at event %d: cold %v fork %v",
					cycle, label, i, refs[idx].trace[i], trace[i])
			}
		}
	}
}

// TestDeltaRestoreInterleavedRaft is the same property against the Raft
// target, whose leader-flap attack dirties the network partition maps as
// well as the engine arena.
func TestDeltaRestoreInterleavedRaft(t *testing.T) {
	w := raftsim.DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	w.Measure = 600 * time.Millisecond
	forked, err := raftsim.NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	space := scenario.MustNewSpace(
		scenario.Dimension{Name: raftsim.DimClients, Min: 1, Max: 50, Step: 1},
		scenario.Dimension{Name: raftsim.DimFlapIntervalMS, Min: 0, Max: 1000, Step: 50},
		scenario.Dimension{Name: raftsim.DimFlapDownMS, Min: 0, Max: 1000, Step: 50},
	)
	scenarios := []scenario.Scenario{
		// Clean run: nothing but the engine clock and client state dirty.
		space.New(map[string]int64{raftsim.DimClients: 8}),
		// Election storm: partitions flap, terms inflate, maps churn.
		space.New(map[string]int64{
			raftsim.DimClients:        8,
			raftsim.DimFlapIntervalMS: 250,
			raftsim.DimFlapDownMS:     200,
		}),
		// Slow flap: long isolation windows, different timer footprint.
		space.New(map[string]int64{
			raftsim.DimClients:        8,
			raftsim.DimFlapIntervalMS: 500,
			raftsim.DimFlapDownMS:     450,
		}),
	}
	type ref struct {
		res   core.Result
		trace []oracle.Event
	}
	refs := make([]ref, len(scenarios))
	for i, sc := range scenarios {
		cold, err := raftsim.NewTarget(w)
		if err != nil {
			t.Fatal(err)
		}
		res, _, trace := cold.RunTraced(sc)
		refs[i] = ref{res: res, trace: trace}
	}
	order := make([]int, 0, 24)
	rng := rand.New(rand.NewSource(11))
	for len(order) < cap(order) {
		order = append(order, rng.Intn(len(scenarios)))
	}
	for cycle, idx := range order {
		res, _, trace := forked.RunTracedFork(scenarios[idx])
		label := scenarios[idx].Key()
		if !reflect.DeepEqual(res, refs[idx].res) {
			t.Fatalf("cycle %d (%s): forked Result diverged from cold:\ncold: %+v\nfork: %+v",
				cycle, label, refs[idx].res, res)
		}
		if len(trace) != len(refs[idx].trace) {
			t.Fatalf("cycle %d (%s): trace length %d, cold %d", cycle, label, len(trace), len(refs[idx].trace))
		}
		for i := range trace {
			if trace[i] != refs[idx].trace[i] {
				t.Fatalf("cycle %d (%s): trace diverged at event %d: cold %v fork %v",
					cycle, label, i, refs[idx].trace[i], trace[i])
			}
		}
	}
}
