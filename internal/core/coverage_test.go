package core

import (
	"strings"
	"testing"

	"avd/internal/oracle"
	"avd/internal/scenario"
)

// covRunner synthesizes coverage as a pure function of the scenario:
// Timeline is unique per point, Behaviors buckets x so only some moves
// discover new behavior — the shape real SUT coverage has.
func covRunner(bucket int64) Runner {
	return RunnerFunc(func(sc scenario.Scenario) Result {
		x := sc.GetOr("x", 0)
		return Result{
			Scenario: sc,
			Impact:   float64(x) / 5000,
			Coverage: oracle.Coverage{
				Timeline:      uint64(x) + 1,
				Behaviors:     uint64(x/bucket) + 1,
				BehaviorCount: uint32(x/bucket) + 1,
			},
		}
	})
}

func newTestCoverage(t *testing.T, cfg CoverageConfig, plugins ...Plugin) *CoverageExplorer {
	t.Helper()
	if len(plugins) == 0 {
		plugins = []Plugin{&gridPlugin{name: "x", dim: scenario.Dimension{Name: "x", Min: 0, Max: 4095, Step: 1}}}
	}
	e, err := NewCoverageExplorer(cfg, plugins...)
	if err != nil {
		t.Fatalf("NewCoverageExplorer: %v", err)
	}
	return e
}

func TestCoverageExplorerRequiresPlugins(t *testing.T) {
	if _, err := NewCoverageExplorer(CoverageConfig{}); err == nil {
		t.Error("explorer without plugins accepted")
	}
}

func TestCoverageExplorerNeverRepeats(t *testing.T) {
	e := newTestCoverage(t, CoverageConfig{Seed: 1})
	results := campaign(t, e, covRunner(64), 300)
	if len(results) != 300 {
		t.Fatalf("campaign ran %d of 300 tests", len(results))
	}
	seen := make(map[string]bool)
	for _, r := range results {
		key := r.Scenario.Key()
		if seen[key] {
			t.Fatalf("explorer proposed %s twice", key)
		}
		seen[key] = true
	}
}

// TestCoverageExplorerExhaustsSpace: like RandomExplorer and the fixed
// Genetic, ok=false means every point ran — never an early strikeout.
func TestCoverageExplorerExhaustsSpace(t *testing.T) {
	p := &gridPlugin{name: "tiny", dim: scenario.Dimension{Name: "x", Min: 0, Max: 999, Step: 1}}
	e := newTestCoverage(t, CoverageConfig{Seed: 2}, p)
	results := campaign(t, e, covRunner(10), 2000)
	if len(results) != 1000 {
		t.Fatalf("explorer executed %d of 1000 scenarios before reporting exhaustion", len(results))
	}
}

func TestCoverageExplorerSchedulesMutants(t *testing.T) {
	e := newTestCoverage(t, CoverageConfig{Seed: 3})
	results := campaign(t, e, covRunner(64), 200)
	var seeds, mutants int
	for _, r := range results {
		switch {
		case r.Generator == "cov:seed":
			seeds++
		case strings.HasPrefix(r.Generator, "cov:mutate:"), r.Generator == "cov:splice":
			mutants++
		case r.Generator == "cov:probe" || r.Generator == "cov:scan":
		default:
			t.Fatalf("unexpected generator %q", r.Generator)
		}
	}
	if seeds < 12 {
		t.Errorf("bootstrap ran %d seed probes, want >= 12", seeds)
	}
	if mutants == 0 {
		t.Error("no corpus mutations scheduled in 200 tests")
	}
	if e.Corpus().Len() == 0 || e.Corpus().Behaviors() == 0 {
		t.Errorf("corpus empty after campaign: %d entries, %d behaviors", e.Corpus().Len(), e.Corpus().Behaviors())
	}
}

func TestCoverageExplorerDeterministic(t *testing.T) {
	run := func() []string {
		e := newTestCoverage(t, CoverageConfig{Seed: 11})
		results := campaign(t, e, covRunner(32), 120)
		keys := make([]string, len(results))
		for i, r := range results {
			keys[i] = r.Scenario.Key()
		}
		return keys
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("explorer nondeterministic at test %d", i)
		}
	}
}

// TestCoverageExplorerSkipsBrokenRuns: a run that errored before
// measuring carries no coverage signal; a hung run (event storm) does.
func TestCoverageExplorerSkipsBrokenRuns(t *testing.T) {
	e := newTestCoverage(t, CoverageConfig{Seed: 4})
	sc, _, _ := e.Next()
	e.Record(Result{Scenario: sc, Error: "panic", Coverage: oracle.Coverage{Timeline: 1, Behaviors: 1, BehaviorCount: 1}})
	if e.Corpus().Len() != 0 {
		t.Error("errored run admitted to corpus")
	}
	sc, _, _ = e.Next()
	e.Record(Result{Scenario: sc, Hung: true, Error: "step budget", Coverage: oracle.Coverage{Timeline: 2, Behaviors: 2, BehaviorCount: 1}})
	if e.Corpus().Len() != 1 {
		t.Error("hung run (interesting behavior) rejected from corpus")
	}
}

// TestCoverageBeatsGeneticOnNeedle: the guided explorer's edge in
// miniature. Impact is flat almost everywhere (nothing for the GA's
// fitness to climb), but behavior buckets leave a gradient the corpus
// can follow toward the violating needle region.
func TestCoverageBeatsGeneticOnNeedle(t *testing.T) {
	needle := func() Runner {
		return RunnerFunc(func(sc scenario.Scenario) Result {
			x := sc.GetOr("x", 0)
			res := Result{Scenario: sc, Coverage: oracle.Coverage{
				Timeline:      uint64(x) + 1,
				Behaviors:     uint64(x/128) + 1,
				BehaviorCount: uint32(x/128) + 1,
			}}
			if x >= 4000 && x < 4016 {
				res.Violations = []oracle.Violation{{Invariant: "needle", Count: 1}}
			}
			return res
		})
	}
	firstViolation := func(results []Result) int {
		for i, r := range results {
			if len(r.Violations) > 0 {
				return i + 1
			}
		}
		return len(results) + 1
	}
	budget := 600
	covWins := 0
	for seed := int64(0); seed < 5; seed++ {
		ce := newTestCoverage(t, CoverageConfig{Seed: seed})
		covAt := firstViolation(campaign(t, ce, needle(), budget))
		ge := newTestGenetic(t, GeneticConfig{Seed: seed})
		genAt := firstViolation(campaign(t, ge, needle(), budget))
		if covAt <= genAt {
			covWins++
		}
	}
	if covWins < 3 {
		t.Errorf("coverage found the needle first in only %d of 5 seeds", covWins)
	}
}
