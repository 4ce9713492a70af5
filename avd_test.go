package avd_test

import (
	"context"
	"testing"
	"time"

	"avd"
)

// funcTarget adapts a RunnerFunc to the Target seam; explorers come from
// WithExplorer, so it declares no plugins.
type funcTarget struct{ avd.RunnerFunc }

func (funcTarget) Name() string          { return "func" }
func (funcTarget) Plugins() []avd.Plugin { return nil }

// runCampaign drives ex against target on an Engine and returns the
// results.
func runCampaign(t *testing.T, target avd.Target, ex avd.Explorer, budget, workers int) []avd.Result {
	t.Helper()
	eng, err := avd.NewEngine(target, avd.WithExplorer(ex), avd.WithBudget(budget), avd.WithWorkers(workers))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	return results
}

// TestPublicAPIEndToEnd exercises the facade the way a downstream user
// would: build a target, compose plugins, run a short campaign, inspect
// results.
func TestPublicAPIEndToEnd(t *testing.T) {
	w := avd.DefaultWorkload()
	w.Measure = 500 * time.Millisecond
	target, err := avd.NewPBFTTarget(w)
	if err != nil {
		t.Fatalf("NewPBFTTarget: %v", err)
	}
	ctrl, err := avd.NewController(avd.ControllerConfig{Seed: 1, SeedTests: 4},
		avd.NewMACCorruptPlugin(), avd.NewClientsPlugin())
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	results := runCampaign(t, target, ctrl, 8, 1)
	if len(results) != 8 {
		t.Fatalf("campaign ran %d tests, want 8", len(results))
	}
	for _, r := range results {
		if !r.Scenario.Valid() {
			t.Fatal("result with invalid scenario")
		}
		if r.BaselineThroughput <= 0 {
			t.Fatal("result without baseline")
		}
	}
	best := avd.BestSoFar(results)
	if len(best) != len(results) {
		t.Fatal("BestSoFar length mismatch")
	}
}

// TestPublicAPISpaceSize checks that the composed paper hyperspace is
// exposed correctly through the facade.
func TestPublicAPISpaceSize(t *testing.T) {
	space, err := avd.SpaceOf(avd.NewMACCorruptPlugin(), avd.NewClientsPlugin())
	if err != nil {
		t.Fatal(err)
	}
	if space.Size() != 204800 {
		t.Errorf("space size = %d, want 204800", space.Size())
	}
}

// TestPublicAPIExplorers checks the baseline explorers through the
// facade.
func TestPublicAPIExplorers(t *testing.T) {
	space, err := avd.NewSpace(avd.Dimension{Name: "x", Min: 0, Max: 9, Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	runner := avd.RunnerFunc(func(sc avd.Scenario) avd.Result {
		return avd.Result{Scenario: sc, Impact: float64(sc.GetOr("x", 0)) / 9}
	})
	random := runCampaign(t, funcTarget{runner}, avd.NewRandomExplorer(space, 1), 5, 1)
	if len(random) != 5 {
		t.Errorf("random campaign ran %d tests", len(random))
	}
	exhaustive := runCampaign(t, funcTarget{runner}, avd.NewExhaustiveExplorer(space), 100, 1)
	if len(exhaustive) != 10 {
		t.Errorf("exhaustive campaign ran %d tests, want all 10", len(exhaustive))
	}
	if n := avd.TestsToImpact(exhaustive, 1.0); n != 10 {
		t.Errorf("TestsToImpact = %d, want 10", n)
	}
}

// TestPublicAPIEngineWorkers pins the engine's determinism contract
// against the real PBFT target: one worker reproduces the serial
// campaign of cold runs exactly, and a multi-worker run reproduces
// itself.
func TestPublicAPIEngineWorkers(t *testing.T) {
	w := avd.DefaultWorkload()
	w.Measure = 300 * time.Millisecond
	newTarget := func() *avd.PBFTTarget {
		target, err := avd.NewPBFTTarget(w)
		if err != nil {
			t.Fatalf("NewPBFTTarget: %v", err)
		}
		return target
	}
	newCtrl := func() *avd.Controller {
		ctrl, err := avd.NewController(avd.ControllerConfig{Seed: 3, SeedTests: 4},
			avd.NewMACCorruptPlugin(), avd.NewClientsPlugin())
		if err != nil {
			t.Fatalf("NewController: %v", err)
		}
		return ctrl
	}
	fingerprint := func(results []avd.Result) []string {
		out := make([]string, len(results))
		for i, r := range results {
			out[i] = r.Scenario.Key()
		}
		return out
	}

	// The serial reference: the paper's worker loop over cold runs.
	var serial []avd.Result
	ctrl, cold := newCtrl(), newTarget()
	for len(serial) < 8 {
		sc, _, ok := ctrl.Next()
		if !ok {
			break
		}
		res := cold.Run(sc)
		ctrl.Record(res)
		serial = append(serial, res)
	}
	oneWorker := runCampaign(t, newTarget(), newCtrl(), 8, 1)
	a, b := fingerprint(serial), fingerprint(oneWorker)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("workers=1 diverged from the serial campaign at test %d: %s vs %s", i, a[i], b[i])
		}
		if serial[i].Impact != oneWorker[i].Impact {
			t.Fatalf("workers=1 impact diverged at test %d", i)
		}
	}

	par1 := runCampaign(t, newTarget(), newCtrl(), 8, 4)
	par2 := runCampaign(t, newTarget(), newCtrl(), 8, 4)
	c, d := fingerprint(par1), fingerprint(par2)
	for i := range c {
		if c[i] != d[i] {
			t.Fatalf("workers=4 nondeterministic at test %d: %s vs %s", i, c[i], d[i])
		}
		if par1[i].Impact != par2[i].Impact {
			t.Fatalf("workers=4 impact nondeterministic at test %d", i)
		}
	}
}

// TestPublicAPIGenetic exercises the genetic explorer via the facade.
func TestPublicAPIGenetic(t *testing.T) {
	ga, err := avd.NewGenetic(avd.GeneticConfig{Seed: 1, Population: 6},
		avd.NewMACCorruptPlugin(), avd.NewClientsPlugin())
	if err != nil {
		t.Fatal(err)
	}
	runner := avd.RunnerFunc(func(sc avd.Scenario) avd.Result {
		return avd.Result{Scenario: sc, Impact: float64(sc.GetOr(avd.DimMACMask, 0)) / 4095}
	})
	results := runCampaign(t, funcTarget{runner}, ga, 30, 1)
	if len(results) != 30 {
		t.Fatalf("GA campaign ran %d tests, want 30", len(results))
	}
	best := avd.BestSoFar(results)[len(results)-1]
	if best.Impact <= 0 {
		t.Error("GA made no progress on a trivial objective")
	}
}

// TestPublicAPISweep checks a parallel exhaustive sweep through the
// facade: every point once, in grid order.
func TestPublicAPISweep(t *testing.T) {
	space, err := avd.NewSpace(avd.Dimension{Name: "x", Min: 0, Max: 31, Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	var scs []avd.Scenario
	for i := int64(0); i < 32; i++ {
		scs = append(scs, space.New(map[string]int64{"x": i}))
	}
	runner := avd.RunnerFunc(func(sc avd.Scenario) avd.Result {
		return avd.Result{Scenario: sc, Impact: 0.5}
	})
	results := runCampaign(t, funcTarget{runner}, avd.NewExhaustiveExplorer(space), len(scs), 8)
	if len(results) != 32 {
		t.Fatalf("sweep returned %d results", len(results))
	}
	for i, r := range results {
		if r.Scenario.Key() != scs[i].Key() {
			t.Fatal("sweep order broken")
		}
	}
}
