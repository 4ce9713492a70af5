package cluster

import (
	"reflect"
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/plugin"
	"avd/internal/scenario"
)

func baselineScenario(t *testing.T, correct int64) scenario.Scenario {
	t.Helper()
	return scenario.MustNewSpace(scenario.Dimension{
		Name: plugin.DimCorrectClients, Min: correct, Max: correct, Step: 1,
	}).New(nil)
}

// coldBaseline measures an attack-free baseline on a freshly built and
// warmed deployment, nothing armed.
func coldBaseline(w Workload, correct int64, window time.Duration) (core.Result, Report) {
	sc := scenario.MustNewSpace(scenario.Dimension{
		Name: plugin.DimCorrectClients, Min: correct, Max: correct, Step: 1,
	}).New(nil)
	d := newDeployment(w, correct, 1)
	d.eng.RunFor(w.Warmup)
	d.Arm(sc, false)
	return d.Measure(sc, window)
}

// TestBaselineForkedEqualsCold pins the warm-fork baseline contract: an
// attack-free baseline forked from the (count, 1) master must be
// bit-for-bit the cold-built baseline — same throughput, same latency,
// same report — exactly as attack tests enforce forked==cold. The
// target's own baseline, measured on a slot master an attack run
// already forked, agrees too.
func TestBaselineForkedEqualsCold(t *testing.T) {
	w := DefaultWorkload()
	w.Warmup = 200 * time.Millisecond
	w.Measure = 600 * time.Millisecond
	for _, correct := range []int64{10, 30} {
		coldRes, coldRep := coldBaseline(w, correct, w.Measure)
		sc := baselineScenario(t, correct)
		master := newDeployment(w, correct, 1)
		master.eng.RunFor(w.Warmup)
		// The first fork captures the snapshot, the second restores it.
		for fork := 0; fork < 2; fork++ {
			master.Fork()
			master.Arm(sc, false)
			forkRes, forkRep := master.Measure(sc, w.Measure)
			if !reflect.DeepEqual(coldRes, forkRes) {
				t.Errorf("correct=%d fork %d: forked baseline Result differs from cold:\ncold: %+v\nfork: %+v", correct, fork, coldRes, forkRes)
			}
			if !reflect.DeepEqual(coldRep, forkRep) {
				t.Errorf("correct=%d fork %d: forked baseline Report differs from cold:\ncold: %+v\nfork: %+v", correct, fork, coldRep, forkRep)
			}
		}
		target, err := NewTarget(w)
		if err != nil {
			t.Fatal(err)
		}
		attack := paperSpace(t).New(map[string]int64{
			plugin.DimMACMask:          0xEEE,
			plugin.DimCorrectClients:   correct,
			plugin.DimMaliciousClients: 1,
		})
		if res := target.RunFork(attack); res.BaselineThroughput != coldRes.Throughput {
			t.Errorf("correct=%d: target baseline %v, cold %v", correct, res.BaselineThroughput, coldRes.Throughput)
		}
	}
}

// TestBaselineWindowForkedEqualsCold: with a shortened BaselineMeasure
// the target's forked baseline still equals the cold baseline over the
// same (baseline) window.
func TestBaselineWindowForkedEqualsCold(t *testing.T) {
	w := DefaultWorkload()
	w.Warmup = 200 * time.Millisecond
	w.Measure = 600 * time.Millisecond
	w.BaselineMeasure = 250 * time.Millisecond
	target, err := NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, _ := coldBaseline(w, 15, w.BaselineMeasure)
	if got := target.Baseline(15); got != coldRes.Throughput {
		t.Errorf("forked baseline under BaselineMeasure %v differs from cold %v", got, coldRes.Throughput)
	}
}

// TestBaselineMeasureValidation: a negative baseline window is a
// configuration error, and zero preserves the full Measure window.
func TestBaselineMeasureValidation(t *testing.T) {
	w := DefaultWorkload()
	w.Warmup = 200 * time.Millisecond
	w.Measure = 600 * time.Millisecond
	w.BaselineMeasure = -time.Second
	if _, err := NewTarget(w); err == nil {
		t.Error("negative BaselineMeasure accepted")
	}
	w.BaselineMeasure = 0
	target, err := NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, _ := coldBaseline(w, 10, w.Measure)
	if got := target.Baseline(10); got != coldRes.Throughput {
		t.Errorf("zero BaselineMeasure: baseline %v, want the Measure-window %v", got, coldRes.Throughput)
	}
}
