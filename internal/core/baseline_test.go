package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"avd/internal/scenario"
)

// TestBaselineCacheSingleflight: one measurement per key, no matter how
// many goroutines race for it — asserted by counting measure calls, not
// by timing.
func TestBaselineCacheSingleflight(t *testing.T) {
	var cache BaselineCache
	var calls atomic.Int64
	measure := func(key int64) float64 {
		calls.Add(1)
		return float64(key * 100)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]float64, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = cache.Get(7, measure)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r != 700 {
			t.Fatalf("goroutine %d got %f, want 700", i, r)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("measure ran %d times for one key, want 1", n)
	}
	// A second key measures once more; the first stays cached.
	if got := cache.Get(9, measure); got != 900 {
		t.Fatalf("Get(9) = %f", got)
	}
	if got := cache.Get(7, measure); got != 700 {
		t.Fatalf("cached Get(7) = %f", got)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("measure ran %d times for two keys, want 2", n)
	}
}

// TestBaselineCacheWarm: warming a batch through the harness measures
// each distinct population once, and later baselines are pure cache
// hits.
func TestBaselineCacheWarm(t *testing.T) {
	world := &fakeWorld{}
	h := newFakeHarness(t, world)
	h.Warm([]scenario.Scenario{
		harnessScenario(t, 0, 1), harnessScenario(t, 1, 2), harnessScenario(t, 2, 2),
		harnessScenario(t, 3, 3), harnessScenario(t, 4, 1),
	})
	if n := world.baselines.Load(); n != 3 {
		t.Fatalf("warming 3 distinct populations measured %d times", n)
	}
	for _, p := range []int64{1, 2, 3} {
		if got := h.Baseline(p); got != float64(100*p) {
			t.Fatalf("Baseline(%d) = %f", p, got)
		}
	}
	h.Prepare(harnessScenario(t, 9, 3))
	if n := world.baselines.Load(); n != 3 {
		t.Fatalf("post-warm baselines re-measured: %d measurements", n)
	}
}
