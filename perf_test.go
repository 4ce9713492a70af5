// Micro-benchmarks for the campaign engine's hot paths: scenario
// identity (dedup keys), simulator timer churn, and the parallel
// campaign itself. cmd/bench runs a subset of these and records the
// numbers in BENCH_<pr>.json, the repo's performance trajectory.
package avd_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/oracle"
	"avd/internal/plugin"
	"avd/internal/scenario"
	"avd/internal/sim"
)

// dedupSpace is the paper's PBFT hyperspace shape (mask x clients x
// malicious), the space every campaign dedups over.
func dedupSpace(b *testing.B) (*scenario.Space, []scenario.Scenario) {
	b.Helper()
	s, err := core.Space(plugin.NewMACCorrupt(), plugin.NewClients())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	scs := make([]scenario.Scenario, 256)
	for i := range scs {
		scs[i] = s.Random(rng)
	}
	return s, scs
}

// BenchmarkScenarioKeyString is the old dedup identity: the formatted,
// sorted, joined string key (kept for reports).
func BenchmarkScenarioKeyString(b *testing.B) {
	_, scs := dedupSpace(b)
	seen := make(map[string]bool, len(scs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen[scs[i%len(scs)].Key()] = true
	}
}

// BenchmarkScenarioKeyCompact is the new dedup identity: packed axis
// indices, no allocation.
func BenchmarkScenarioKeyCompact(b *testing.B) {
	_, scs := dedupSpace(b)
	seen := make(map[scenario.CompactKey]bool, len(scs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen[scs[i%len(scs)].Compact()] = true
	}
}

// BenchmarkEngineSchedule measures steady-state timer churn: schedule
// plus fire, the pattern PBFT retransmission timers hammer.
func BenchmarkEngineSchedule(b *testing.B) {
	e := sim.New(1)
	fn := func() {}
	for i := 0; i < 1024; i++ { // warm the free list and heap
		e.Schedule(time.Duration(i), fn)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Microsecond, fn)
		e.Step()
	}
}

// snapshotScenario is the Big MAC point the snapshot/fork benchmarks
// execute (30 correct clients, heavy mask).
func snapshotScenario(b *testing.B) (*cluster.Target, scenario.Scenario) {
	b.Helper()
	w := cluster.DefaultWorkload()
	w.Measure = 500 * time.Millisecond
	r, err := cluster.NewTarget(w)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.Space(plugin.NewMACCorrupt(), plugin.NewClients())
	if err != nil {
		b.Fatal(err)
	}
	sc := s.New(map[string]int64{
		plugin.DimMACMask:          0x3B2, // Gray-decodes to the 0xEEE mask
		plugin.DimCorrectClients:   30,
		plugin.DimMaliciousClients: 1,
	})
	r.Baseline(30)
	return r, sc
}

// BenchmarkSnapshotForkTest: one test through the fork path (arm faults
// on a warm master, run the measurement window, park the master). The CI
// perf-smoke job runs every Snapshot* benchmark at -benchtime=1x.
func BenchmarkSnapshotForkTest(b *testing.B) {
	r, sc := snapshotScenario(b)
	r.RunFork(sc) // build + warm + capture the master
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RunFork(sc)
	}
}

// BenchmarkSnapshotColdTest: the same test cold-building the deployment
// every time — the before picture of the fork speedup.
func BenchmarkSnapshotColdTest(b *testing.B) {
	r, sc := snapshotScenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(sc)
	}
}

// BenchmarkSnapshotOracleObserve is the oracle hot-path alloc guard: in
// the steady state (slices grown to the run's high-water mark) observing
// a commit or leadership event must not allocate.
func BenchmarkSnapshotOracleObserve(b *testing.B) {
	set := oracle.NewSet(oracle.NewAgreement("raft"), oracle.NewElectionSafety("raft"), oracle.NewCoverage())
	for seq := uint64(1); seq <= 4096; seq++ {
		for node := 0; node < 5; node++ {
			set.Observe(oracle.Event{Kind: oracle.EventCommit, Node: node, Seq: seq, Digest: seq * 31})
		}
	}
	set.Observe(oracle.Event{Kind: oracle.EventLeader, Node: 1, Term: 64})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i%4096 + 1)
		set.Observe(oracle.Event{Kind: oracle.EventCommit, Node: i % 5, Seq: seq, Digest: seq * 31})
		set.Observe(oracle.Event{Kind: oracle.EventLeader, Node: i % 5, Term: uint64(i % 64)})
	}
}

// TestOracleObserveAllocFree is the hard assert behind the benchmark.
func TestOracleObserveAllocFree(t *testing.T) {
	set := oracle.NewSet(oracle.NewAgreement("pbft"), oracle.NewCoverage())
	for seq := uint64(1); seq <= 1024; seq++ {
		for node := 0; node < 4; node++ {
			set.Observe(oracle.Event{Kind: oracle.EventCommit, Node: node, Seq: seq, Digest: seq})
		}
	}
	seq := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		seq = seq%1024 + 1
		set.Observe(oracle.Event{Kind: oracle.EventCommit, Node: int(seq) % 4, Seq: seq, Digest: seq})
	})
	if allocs != 0 {
		t.Errorf("steady-state oracle Observe allocates %.1f objects per event, want 0", allocs)
	}
}

// BenchmarkFig2AVDParallel is BenchmarkFig2AVD executed by the Engine
// with all CPUs as workers — the campaign-throughput headline.
func BenchmarkFig2AVDParallel(b *testing.B) {
	runner := benchRunner(b, benchWorkload())
	plugins := []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients()}
	var best core.Result
	for i := 0; i < b.N; i++ {
		ctrl, err := core.NewController(core.ControllerConfig{Seed: int64(i + 1), SeedTests: 8}, plugins...)
		if err != nil {
			b.Fatal(err)
		}
		results := campaign(b, runner, ctrl, 40, runtime.NumCPU())
		best = core.BestSoFar(results)[len(results)-1]
	}
	b.ReportMetric(best.Impact, "impact")
	b.ReportMetric(float64(runtime.NumCPU()), "workers")
}
