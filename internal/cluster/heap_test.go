package cluster_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"avd/internal/campaign"
	"avd/internal/core"
)

// TestForkedCampaignHeapBound: a parked master holds only its warm
// prefix, and the window scratch of every test cycles through the chunk
// pools. After a forked 40-test fig2 campaign (the avd defaults, seed 1)
// the live heap, with the target and all its masters still reachable,
// stays under 200 MB; masters that kept their slabs' high-water marks
// held about 420 MB here.
func TestForkedCampaignHeapBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 40-test campaign")
	}
	setup, err := campaign.Build(campaign.Config{
		Target: "pbft", Strategy: "avd", Tests: 40, Seed: 1,
		Measure: 1500 * time.Millisecond, StepBudget: 2_000_000, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(setup.Target, core.WithExplorer(setup.Explorer), core.WithBudget(40), core.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil || len(results) != 40 {
		t.Fatalf("campaign ran %d tests, err %v", len(results), err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(setup.Target)
	const bound = 200 << 20
	if ms.HeapAlloc >= bound {
		t.Fatalf("live heap after the campaign: %d MB, want under %d MB", ms.HeapAlloc>>20, bound>>20)
	}
	t.Logf("live heap after the campaign: %d MB", ms.HeapAlloc>>20)
}
