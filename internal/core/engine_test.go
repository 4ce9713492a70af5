package core

import (
	"context"
	"sync/atomic"
	"testing"

	"avd/internal/scenario"
)

// fakeTarget adapts the deterministic pureRunner grid to the Target
// seam.
type fakeTarget struct {
	Runner
	plugins []Plugin
}

func (t fakeTarget) Name() string      { return "fake" }
func (t fakeTarget) Plugins() []Plugin { return t.plugins }

func newFakeTarget() Target {
	return fakeTarget{Runner: pureRunner(), plugins: twoDimPlugins()}
}

func newEngineController(t *testing.T, seed int64) Explorer {
	t.Helper()
	c, err := NewController(ControllerConfig{Seed: seed, SeedTests: 6}, twoDimPlugins()...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEngineWorkers1MatchesCampaign: the engine's serial path must
// reproduce the paper's serial worker loop bit-for-bit — results,
// generators, impacts and explorer feedback sequence.
func TestEngineWorkers1MatchesCampaign(t *testing.T) {
	legacy := referenceCampaign(newEngineController(t, 42), pureRunner(), 80, 1)

	eng, err := NewEngine(newFakeTarget(), WithExplorer(newEngineController(t, 42)), WithBudget(80), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	results, runErr := eng.RunAll(context.Background())
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(results) != len(legacy) {
		t.Fatalf("engine ran %d tests, the reference ran %d", len(results), len(legacy))
	}
	a, b := campaignFingerprint(legacy), campaignFingerprint(results)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("engine workers=1 diverged from the reference at %d: %s vs %s", i, a[i], b[i])
		}
	}
	for i := range legacy {
		if legacy[i].Impact != results[i].Impact {
			t.Fatalf("impact diverged at %d", i)
		}
	}
}

// TestEngineStreamingDeterministic: a fixed (seed, workers) pair must
// reproduce itself through the streaming path, and match the reference
// batch schedule exactly.
func TestEngineStreamingDeterministic(t *testing.T) {
	for _, workers := range []int{2, 4} {
		run := func() []string {
			eng, err := NewEngine(newFakeTarget(),
				WithExplorer(newEngineController(t, 7)), WithBudget(60), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			var results []Result
			for res := range eng.Run(context.Background()) {
				results = append(results, res)
			}
			if err := eng.Err(); err != nil {
				t.Fatal(err)
			}
			return campaignFingerprint(results)
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d streaming nondeterministic at %d: %s vs %s", workers, i, a[i], b[i])
			}
		}
		ref := campaignFingerprint(referenceCampaign(newEngineController(t, 7), pureRunner(), 60, workers))
		for i := range a {
			if a[i] != ref[i] {
				t.Fatalf("workers=%d engine diverged from the reference at %d: %s vs %s", workers, i, a[i], ref[i])
			}
		}
	}
}

// TestEngineCancellation: canceling mid-campaign closes the stream with
// the partial results executed so far, dispatching at most the batch in
// flight beyond the cancellation point. Gating runs on a token channel
// (instead of sleeps and elapsed-time bounds) keeps the test exact and
// wall-clock free: the execution count proves promptness.
func TestEngineCancellation(t *testing.T) {
	const workers = 4
	var executed atomic.Int64
	// Two full batches' worth of tokens: the third batch blocks until
	// the consumer has canceled and closed the channel.
	tokens := make(chan struct{}, 2*workers)
	for i := 0; i < 2*workers; i++ {
		tokens <- struct{}{}
	}
	gated := RunnerFunc(func(sc scenario.Scenario) Result {
		executed.Add(1)
		<-tokens
		return pureRunner().Run(sc)
	})
	eng, err := NewEngine(fakeTarget{Runner: gated, plugins: twoDimPlugins()},
		WithExplorer(newEngineController(t, 11)), WithBudget(10_000), WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var partial []Result
	for res := range eng.Run(ctx) {
		partial = append(partial, res)
		if len(partial) == 2*workers {
			cancel()
			close(tokens) // release the blocked in-flight batch
		}
	}
	if eng.Err() != context.Canceled {
		t.Fatalf("Err() = %v, want context.Canceled", eng.Err())
	}
	if len(partial) < 2*workers || len(partial) > 4*workers {
		t.Fatalf("got %d partial results, want between %d and %d", len(partial), 2*workers, 4*workers)
	}
	// Prompt cancellation means no new batch after the one in flight: a
	// budget of 10,000 must stop within three batches.
	if n := executed.Load(); n > 3*workers {
		t.Fatalf("engine executed %d tests after cancellation at %d", n, 2*workers)
	}
}

// TestEngineCheckpointResume: a campaign canceled partway and resumed
// from its checkpoint must reproduce the uninterrupted campaign
// bit-for-bit.
func TestEngineCheckpointResume(t *testing.T) {
	for _, workers := range []int{1, 3} {
		const budget = 60
		uninterrupted, err := func() ([]Result, error) {
			eng, err := NewEngine(newFakeTarget(),
				WithExplorer(newEngineController(t, 21)), WithBudget(budget), WithWorkers(workers))
			if err != nil {
				return nil, err
			}
			return eng.RunAll(context.Background())
		}()
		if err != nil {
			t.Fatal(err)
		}

		ck := NewCheckpoint()
		ctx, cancel := context.WithCancel(context.Background())
		eng1, err := NewEngine(newFakeTarget(),
			WithExplorer(newEngineController(t, 21)), WithBudget(budget), WithWorkers(workers), WithCheckpoint(ck))
		if err != nil {
			t.Fatal(err)
		}
		streamed := 0
		for range eng1.Run(ctx) {
			streamed++
			if streamed == 25 {
				cancel()
			}
		}
		cancel()
		if eng1.Err() != context.Canceled {
			t.Fatalf("workers=%d interrupted run Err() = %v", workers, eng1.Err())
		}
		done := ck.Len()
		if done < 25 || done >= budget {
			t.Fatalf("workers=%d checkpoint holds %d results after cancel at 25", workers, done)
		}

		// Resume: fresh engine, fresh explorer with the same seed, same
		// checkpoint.
		eng2, err := NewEngine(newFakeTarget(),
			WithExplorer(newEngineController(t, 21)), WithBudget(budget), WithWorkers(workers), WithCheckpoint(ck))
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := eng2.RunAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if done+len(resumed) != budget {
			t.Fatalf("workers=%d resume ran %d new tests on top of %d; want total %d", workers, len(resumed), done, budget)
		}
		full := ck.Results()
		if len(full) != len(uninterrupted) {
			t.Fatalf("workers=%d resumed campaign has %d results, uninterrupted %d", workers, len(full), len(uninterrupted))
		}
		a, b := campaignFingerprint(uninterrupted), campaignFingerprint(full)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d resume diverged at %d: %s vs %s", workers, i, a[i], b[i])
			}
		}
		for i := range full {
			if full[i].Impact != uninterrupted[i].Impact {
				t.Fatalf("workers=%d impact diverged at %d", workers, i)
			}
		}
	}
}

// TestEngineCheckpointMismatch: resuming a checkpoint with a differently
// seeded explorer must fail loudly instead of silently corrupting the
// campaign.
func TestEngineCheckpointMismatch(t *testing.T) {
	ck := NewCheckpoint()
	eng1, err := NewEngine(newFakeTarget(),
		WithExplorer(newEngineController(t, 1)), WithBudget(20), WithCheckpoint(ck))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng1.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(newFakeTarget(),
		WithExplorer(newEngineController(t, 999)), WithBudget(40), WithCheckpoint(ck))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.RunAll(context.Background()); err == nil {
		t.Fatal("replaying a foreign checkpoint did not error")
	}
}

// TestEngineDefaultExplorer: without WithExplorer the engine builds a
// Controller over the target's own plugins, seeded by WithSeed.
func TestEngineDefaultExplorer(t *testing.T) {
	run := func() []string {
		eng, err := NewEngine(newFakeTarget(), WithSeed(5), WithBudget(30))
		if err != nil {
			t.Fatal(err)
		}
		results, err := eng.RunAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return campaignFingerprint(results)
	}
	a, b := run(), run()
	if len(a) != 2*30 {
		t.Fatalf("default-explorer engine ran %d entries, want 60", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("default explorer nondeterministic at %d", i)
		}
	}
}

// TestEngineObserverOrder: the observer sees every executed test with
// consecutive 1-based iterations, in dispatch order.
func TestEngineObserverOrder(t *testing.T) {
	var iters []int
	eng, err := NewEngine(newFakeTarget(),
		WithExplorer(newEngineController(t, 13)), WithBudget(24), WithWorkers(4),
		WithObserver(func(i int, _ Result) { iters = append(iters, i) }))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != len(results) {
		t.Fatalf("observer saw %d of %d tests", len(iters), len(results))
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("observer iterations out of order: %v", iters)
		}
	}
}

// TestEngineSingleUse: a second Run returns a closed channel without
// executing anything, and must not poison the completed first
// campaign's Err.
func TestEngineSingleUse(t *testing.T) {
	eng, err := NewEngine(newFakeTarget(), WithExplorer(newEngineController(t, 2)), WithBudget(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	again := eng.Run(context.Background())
	if _, open := <-again; open {
		t.Fatal("reused engine emitted a result")
	}
	if err := eng.Err(); err != nil {
		t.Fatalf("reuse poisoned the completed campaign's Err: %v", err)
	}
}

// TestEngineExhaustedExplorer: the stream ends cleanly when the explorer
// drains before the budget.
func TestEngineExhaustedExplorer(t *testing.T) {
	space := scenario.MustNewSpace(scenario.Dimension{Name: "x", Min: 0, Max: 9, Step: 1})
	eng, err := NewEngine(newFakeTarget(), WithExplorer(NewExhaustiveExplorer(space)), WithBudget(1000))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("exhaustive 10-point space yielded %d results", len(results))
	}
}
