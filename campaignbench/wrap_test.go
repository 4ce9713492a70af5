package main

import (
	"sync"
	"testing"
	"time"

	"avd/internal/campaign"
	"avd/internal/core"
	"avd/internal/scenario"
)

// TestTimedTargetKeepsCapabilities guards the traced run against
// measuring a different campaign: the engine picks its execution path
// (fork per test, per-worker master arenas, warming, prefetch) by type
// assertion, so a wrapper that dropped WorkerSnapshotter would silently
// move the 2-worker workload onto the pooled ForkCache path.
func TestTimedTargetKeepsCapabilities(t *testing.T) {
	for _, w := range workloads {
		setup, err := campaign.Build(w.Config)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		wrapped, err := wrapTarget(setup.Target, newRecorder("campaign"))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got, want := capabilitiesOf(wrapped), capabilitiesOf(setup.Target); got != want {
			t.Errorf("%s (%s target): wrapper capabilities %+v, target %+v", w.Name, setup.Target.Name(), got, want)
		}
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{Name: "campaign", Start: 0, End: 100, Parent: -1},
		{Name: "target.run", Start: 10, End: 50, Parent: 0},
		{Name: "target.run", Start: 30, End: 70, Parent: 0},
		{Name: "explorer.next", Start: 90, End: 120, Parent: 0},
		{Name: "inner", Start: 0, End: 100, Parent: 1},
	}
	if got := covered(spans, 0); got != 70 {
		t.Errorf("covered = %d, want 70 (10..70 and 90..100)", got)
	}
}

// plainTarget has none of the optional capabilities.
type plainTarget struct{}

func (plainTarget) Run(sc scenario.Scenario) core.Result { return core.Result{Scenario: sc} }
func (plainTarget) Name() string                         { return "plain" }
func (plainTarget) Plugins() []core.Plugin               { return nil }

func TestWrapTargetRefusesOtherCapabilitySets(t *testing.T) {
	if _, err := wrapTarget(plainTarget{}, newRecorder("campaign")); err == nil {
		t.Fatal("wrapTarget accepted a target without fork capabilities")
	}
}

// TestRecorderConcurrentChildren records spans from parallel goroutines,
// as the 2-worker workload's target calls do; run it under -race.
func TestRecorderConcurrentChildren(t *testing.T) {
	rec := newRecorder("campaign")
	rec.begin()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rec.child("target.run", w*100+i, time.Now())
			}
		}(w)
	}
	wg.Wait()
	rec.end()
	if got := len(durations(rec.snapshot(), "target.run")); got != 400 {
		t.Errorf("recorded %d spans, want 400", got)
	}
}
