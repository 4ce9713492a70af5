package core

import (
	"context"
	"runtime"
	"testing"

	"avd/internal/scenario"
)

// pureRunner is a deterministic, concurrency-safe scenario scorer over
// two dimensions; impact depends on both so feedback trajectories are
// sensitive to ordering mistakes.
func pureRunner() Runner {
	return RunnerFunc(func(sc scenario.Scenario) Result {
		x := sc.GetOr("x", 0)
		y := sc.GetOr("y", 0)
		impact := float64((x*31+y*17)%1000) / 1000
		return Result{Scenario: sc, Impact: impact, Throughput: 1000 * (1 - impact), BaselineThroughput: 1000}
	})
}

func twoDimPlugins() []Plugin {
	return []Plugin{
		&gridPlugin{name: "x", dim: scenario.Dimension{Name: "x", Min: 0, Max: 1023, Step: 1}},
		&gridPlugin{name: "y", dim: scenario.Dimension{Name: "y", Min: 0, Max: 63, Step: 1}},
	}
}

func campaignFingerprint(results []Result) []string {
	keys := make([]string, 0, len(results)*2)
	for _, r := range results {
		keys = append(keys, r.Scenario.Key(), r.Generator)
	}
	return keys
}

// campaign runs ex against runner for budget tests on a serial Engine.
func campaign(t testing.TB, ex Explorer, runner Runner, budget int) []Result {
	t.Helper()
	return engineCampaign(t, ex, runner, budget, 1, nil)
}

// engineCampaign runs ex against runner on an Engine with the given
// workers and observer.
func engineCampaign(t testing.TB, ex Explorer, runner Runner, budget, workers int, obs CampaignObserver) []Result {
	t.Helper()
	eng, err := NewEngine(fakeTarget{Runner: runner}, WithExplorer(ex), WithBudget(budget),
		WithWorkers(workers), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// referenceCampaign is the schedule an Engine with the given workers
// must reproduce, written out serially over cold Run: each batch takes
// up to workers proposals, runs them, and records the results in
// dispatch order. With workers=1 it is the paper's worker loop.
func referenceCampaign(ex Explorer, runner Runner, budget, workers int) []Result {
	var results []Result
	for len(results) < budget {
		var batch []Result
		for len(batch) < workers && len(results)+len(batch) < budget {
			sc, generator, ok := ex.Next()
			if !ok {
				break
			}
			res := runner.Run(sc)
			res.Generator = generator
			batch = append(batch, res)
		}
		if len(batch) == 0 {
			break
		}
		for _, res := range batch {
			ex.Record(res)
		}
		results = append(results, batch...)
	}
	return results
}

// TestEngineParallelDeterministicAcrossRuns: a fixed (seed, workers)
// pair must reproduce itself exactly, however goroutines interleave.
func TestEngineParallelDeterministicAcrossRuns(t *testing.T) {
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		run := func() []string {
			c, err := NewController(ControllerConfig{Seed: 7, SeedTests: 6}, twoDimPlugins()...)
			if err != nil {
				t.Fatal(err)
			}
			return campaignFingerprint(engineCampaign(t, c, pureRunner(), 60, workers, nil))
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d nondeterministic at %d: %s vs %s", workers, i, a[i], b[i])
			}
		}
	}
}

func TestEngineParallelRespectsBudget(t *testing.T) {
	c, err := NewController(ControllerConfig{Seed: 3, SeedTests: 4}, twoDimPlugins()...)
	if err != nil {
		t.Fatal(err)
	}
	results := engineCampaign(t, c, pureRunner(), 37, 8, nil)
	if len(results) != 37 {
		t.Fatalf("campaign ran %d tests, budget 37", len(results))
	}
}

func TestEngineParallelObserverInDispatchOrder(t *testing.T) {
	c, err := NewController(ControllerConfig{Seed: 5, SeedTests: 4}, twoDimPlugins()...)
	if err != nil {
		t.Fatal(err)
	}
	var iters []int
	results := engineCampaign(t, c, pureRunner(), 20, 4, func(i int, _ Result) {
		iters = append(iters, i)
	})
	if len(iters) != len(results) {
		t.Fatalf("observer saw %d of %d tests", len(iters), len(results))
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("observer out of order: %v", iters)
		}
	}
}

// TestEngineParallelNoRepeats: the Ω dedup must hold across batches.
func TestEngineParallelNoRepeats(t *testing.T) {
	c, err := NewController(ControllerConfig{Seed: 9, SeedTests: 8}, twoDimPlugins()...)
	if err != nil {
		t.Fatal(err)
	}
	results := engineCampaign(t, c, pureRunner(), 200, 8, nil)
	seen := make(map[scenario.CompactKey]bool, len(results))
	for _, r := range results {
		k := r.Scenario.Compact()
		if seen[k] {
			t.Fatalf("scenario %s executed twice", r.Scenario.Key())
		}
		seen[k] = true
	}
}

// TestRandomExplorerDrainsSpaceCompletely guards the exhaustion fix: the
// explorer must visit every point before reporting ok=false, even though
// the tail of the drain is collision-heavy.
func TestRandomExplorerDrainsSpaceCompletely(t *testing.T) {
	space := scenario.MustNewSpace(
		scenario.Dimension{Name: "x", Min: 0, Max: 31, Step: 1},
		scenario.Dimension{Name: "y", Min: 0, Max: 15, Step: 1},
	)
	ex := NewRandomExplorer(space, 13)
	seen := make(map[scenario.CompactKey]bool)
	for {
		sc, _, ok := ex.Next()
		if !ok {
			break
		}
		if seen[sc.Compact()] {
			t.Fatalf("repeat proposal %s", sc.Key())
		}
		seen[sc.Compact()] = true
	}
	if uint64(len(seen)) != space.Size() {
		t.Fatalf("explorer gave up after %d of %d points", len(seen), space.Size())
	}
	if _, _, ok := ex.Next(); ok {
		t.Fatal("exhausted explorer still proposing")
	}
}
