package raftsim

import (
	"reflect"
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/scenario"
)

func raftBaselineScenario(t *testing.T, clients int64) scenario.Scenario {
	t.Helper()
	return scenario.MustNewSpace(scenario.Dimension{
		Name: DimClients, Min: clients, Max: clients, Step: 1,
	}).New(nil)
}

// coldBaseline measures an attack-free baseline on a freshly built and
// warmed deployment, nothing armed.
func coldBaseline(t *testing.T, w Workload, clients int64, window time.Duration) (core.Result, Report) {
	sc := raftBaselineScenario(t, clients)
	d := newDeployment(w, clients)
	d.eng.RunFor(w.Warmup)
	d.Arm(sc, false)
	return d.Measure(sc, window)
}

// TestBaselineForkedEqualsCold pins the warm-fork baseline contract for
// the Raft target: an attack-free baseline forked from the per-count
// master must be bit-for-bit the cold-built baseline, and the target's
// own baseline, measured on a slot master an attack run already forked,
// agrees too.
func TestBaselineForkedEqualsCold(t *testing.T) {
	w := DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	w.Measure = 800 * time.Millisecond
	for _, clients := range []int64{10, 25} {
		coldRes, coldRep := coldBaseline(t, w, clients, w.Measure)
		sc := raftBaselineScenario(t, clients)
		master := newDeployment(w, clients)
		master.eng.RunFor(w.Warmup)
		// The first fork captures the snapshot, the second restores it.
		for fork := 0; fork < 2; fork++ {
			master.Fork()
			master.Arm(sc, false)
			forkRes, forkRep := master.Measure(sc, w.Measure)
			if !reflect.DeepEqual(coldRes, forkRes) {
				t.Errorf("clients=%d fork %d: forked baseline Result differs from cold:\ncold: %+v\nfork: %+v", clients, fork, coldRes, forkRes)
			}
			if !reflect.DeepEqual(coldRep, forkRep) {
				t.Errorf("clients=%d fork %d: forked baseline Report differs from cold:\ncold: %+v\nfork: %+v", clients, fork, coldRep, forkRep)
			}
		}
		target, err := NewTarget(w)
		if err != nil {
			t.Fatal(err)
		}
		storm := testSpace(t).New(map[string]int64{DimClients: clients, DimFlapIntervalMS: 100, DimFlapDownMS: 200})
		if res := target.RunFork(storm); res.BaselineThroughput != coldRes.Throughput {
			t.Errorf("clients=%d: target baseline %v, cold %v", clients, res.BaselineThroughput, coldRes.Throughput)
		}
	}
}

// TestBaselineWindowForkedEqualsCold: the target's forked baseline
// equals the cold one when BaselineMeasure shortens the baseline window.
func TestBaselineWindowForkedEqualsCold(t *testing.T) {
	w := DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	w.Measure = 800 * time.Millisecond
	w.BaselineMeasure = 300 * time.Millisecond
	target, err := NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, _ := coldBaseline(t, w, 15, w.BaselineMeasure)
	if got := target.Baseline(15); got != coldRes.Throughput {
		t.Errorf("forked baseline under BaselineMeasure %v differs from cold %v", got, coldRes.Throughput)
	}
}

// TestBaselineMeasureValidation: a negative baseline window is rejected;
// zero keeps the full Measure window.
func TestBaselineMeasureValidation(t *testing.T) {
	w := DefaultWorkload()
	w.Warmup = 300 * time.Millisecond
	w.Measure = 800 * time.Millisecond
	w.BaselineMeasure = -time.Second
	if _, err := NewTarget(w); err == nil {
		t.Error("negative BaselineMeasure accepted")
	}
	w.BaselineMeasure = 0
	target, err := NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, _ := coldBaseline(t, w, 10, w.Measure)
	if got := target.Baseline(10); got != coldRes.Throughput {
		t.Errorf("zero BaselineMeasure: baseline %v, want the Measure-window %v", got, coldRes.Throughput)
	}
}
