package core

import (
	"context"
	"sync/atomic"

	"avd/internal/scenario"
	"testing"
)

// forkTarget is a Target that also implements WorkerSnapshotter,
// counting how each path executes and which slots run. Its forks return
// the same result as Run (the contract real targets enforce by test).
type forkTarget struct {
	Runner
	plugins []Plugin
	cold    atomic.Int64
	forked  atomic.Int64
	maxSlot atomic.Int64
}

func (t *forkTarget) Name() string      { return "forkfake" }
func (t *forkTarget) Plugins() []Plugin { return t.plugins }

func newForkTarget() *forkTarget {
	inner := pureRunner()
	t := &forkTarget{plugins: twoDimPlugins()}
	t.Runner = RunnerFunc(func(sc scenario.Scenario) Result {
		t.cold.Add(1)
		return inner.Run(sc)
	})
	return t
}

func (t *forkTarget) RunFork(sc scenario.Scenario) Result { return t.RunForkWorker(sc, 0) }

func (t *forkTarget) RunForkWorker(sc scenario.Scenario, worker int) Result {
	t.forked.Add(1)
	for {
		cur := t.maxSlot.Load()
		if int64(worker) <= cur || t.maxSlot.CompareAndSwap(cur, int64(worker)) {
			break
		}
	}
	return pureRunner().Run(sc)
}

// TestEngineUsesForkWhenAvailable: a WorkerSnapshotter target executes
// every live test through RunForkWorker — on slot 0 only when serial,
// on the batch slots in parallel — and the campaign result is identical
// to the cold campaign of the same seed and workers.
func TestEngineUsesForkWhenAvailable(t *testing.T) {
	for _, workers := range []int{1, 3} {
		target := newForkTarget()
		eng, err := NewEngine(target, WithExplorer(newEngineController(t, 9)), WithBudget(40), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		forkedResults, runErr := eng.RunAll(context.Background())
		if runErr != nil {
			t.Fatal(runErr)
		}
		if got := target.forked.Load(); got != 40 {
			t.Errorf("workers=%d: forked executions = %d, want 40", workers, got)
		}
		if got := target.cold.Load(); got != 0 {
			t.Errorf("workers=%d: cold executions = %d, want 0 (capability detected)", workers, got)
		}
		if got := target.maxSlot.Load(); got != int64(workers-1) {
			t.Errorf("workers=%d: highest slot used = %d, want %d", workers, got, workers-1)
		}

		coldResults := engineCampaign(t, newEngineController(t, 9), pureRunner(), 40, workers, nil)
		a, b := campaignFingerprint(forkedResults), campaignFingerprint(coldResults)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: forked campaign diverged from cold at %d: %s vs %s", workers, i, a[i], b[i])
			}
		}
	}
}

// TestEngineFallsBackToColdRuns: a target without the capability keeps
// the plain Run path untouched.
func TestEngineFallsBackToColdRuns(t *testing.T) {
	eng, err := NewEngine(newFakeTarget(), WithExplorer(newEngineController(t, 5)), WithBudget(20))
	if err != nil {
		t.Fatal(err)
	}
	results, runErr := eng.RunAll(context.Background())
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(results) != 20 {
		t.Fatalf("fallback campaign ran %d tests, want 20", len(results))
	}
}

// TestEngineRunAllSerialMatchesStreaming: the workers=1 inline fast path
// (no coordinator goroutine, no channel) is bit-for-bit the streaming
// path.
func TestEngineRunAllSerialMatchesStreaming(t *testing.T) {
	serialEng, err := NewEngine(newFakeTarget(), WithExplorer(newEngineController(t, 11)), WithBudget(50), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	serial, runErr := serialEng.RunAll(context.Background())
	if runErr != nil {
		t.Fatal(runErr)
	}

	streamEng, err := NewEngine(newFakeTarget(), WithExplorer(newEngineController(t, 11)), WithBudget(50), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Result
	for res := range streamEng.Run(context.Background()) {
		streamed = append(streamed, res)
	}
	if err := streamEng.Err(); err != nil {
		t.Fatal(err)
	}
	a, b := campaignFingerprint(serial), campaignFingerprint(streamed)
	if len(a) != len(b) {
		t.Fatalf("serial ran %d tests, streaming %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("serial fast path diverged from streaming at %d: %s vs %s", i, a[i], b[i])
		}
	}
	// A second RunAll on the same engine stays a no-op.
	again, _ := serialEng.RunAll(context.Background())
	if len(again) != 0 {
		t.Errorf("second RunAll re-ran the campaign: %d results", len(again))
	}
}
