// Command bench measures the repository's headline performance numbers
// and writes them to a JSON file, seeding the BENCH_*.json performance
// trajectory: each PR that claims a speedup appends a new snapshot, so
// regressions are visible as a time series rather than folklore.
//
// Measured:
//   - fig2_campaign: wall-clock tests/second of a Figure-2-style AVD
//     campaign against the PBFT target, serial (workers=1) vs parallel
//     (-workers), on fresh targets so both pay cold baselines. Campaigns
//     run through the protocol-agnostic core.Engine streaming path.
//   - raft_campaign: the same campaign shape against the Raft target
//     (election-storm hyperspace), proving the Target seam costs nothing.
//   - test_execution: ns/op and allocs/op of one full simulated PBFT
//     deployment (the Big MAC scenario, baselines pre-warmed).
//   - baseline_run: the same for an attack-free run (corruption mask 0).
//   - raft_test_execution: ns/op and allocs/op of one full simulated
//     Raft deployment under the leader-flap election storm.
//   - scenario_key: ns/op and allocs/op of the dedup identity, string
//     (legacy, kept for reports) vs compact (hot path).
//   - engine_schedule: steady-state ns/op and allocs/op of one
//     schedule+fire cycle in the discrete-event engine.
//   - snapshot_fork: one Big MAC test cold (build+warm+measure) vs
//     forked from the warm master snapshot, plus the fork-enabled
//     campaign rate.
//   - campaign_phases: the serial fig2 campaign's wall-clock decomposed
//     into master build+warmup, baseline measurement, fork (arm plus
//     the post-run park), measurement windows and impact scoring. Phases are
//     accumulated inside the harness, so overlapped work (parallel
//     workers) can make the sections sum past the campaign seconds.
//   - sharded_campaign: the crash-safe sharded runtime's overhead — a
//     K-shard PBFT campaign with durable checkpoints (journal fsync per
//     batch), then the cold-resume cost of reloading every shard's
//     durable state and the merge cost of combining the shards into one
//     exactly-once campaign with its fingerprint.
//
// Modes:
//
//	bench -o BENCH_6.json             full measurement run
//	bench -quick -o OUT.json          micro sections only (no campaigns)
//	bench -compare OLD.json -o NEW    diff two reports; exit 1 on
//	                                  regression (allocs strictly, time
//	                                  within -time-tolerance)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/graycode"
	"avd/internal/plugin"
	"avd/internal/raftsim"
	"avd/internal/scenario"
	"avd/internal/sim"
)

type opBench struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

type phaseBench = core.PhaseBreakdown

type campaignBench struct {
	Tests             int     `json:"tests"`
	MeasureWindowMS   int64   `json:"measure_window_ms"`
	SerialSeconds     float64 `json:"serial_seconds"`
	SerialTestsPerSec float64 `json:"serial_tests_per_sec"`
	Workers           int     `json:"workers"`
	// EffectiveGOMAXPROCS is the scheduler parallelism the parallel run
	// actually had (runtime.GOMAXPROCS at section time, not the machine's
	// top-level num_cpu): speedup is bounded by it, so a 1.0x speedup on a
	// 1-proc runner is the expected reading, not a regression.
	EffectiveGOMAXPROCS int     `json:"effective_gomaxprocs"`
	ParallelSeconds     float64 `json:"parallel_seconds"`
	ParallelTestsPerSec float64 `json:"parallel_tests_per_sec"`
	Speedup             float64 `json:"speedup"`
}

// matrixEntry is one cell of the worker-scaling matrix: the parallel
// fig2 campaign pinned to a GOMAXPROCS value with a matching worker
// count. On a single-proc container every row measures scheduling
// overhead, not scaling — EXPERIMENTS.md records the matrix as
// hardware-gated and the trajectory gate does not compare it.
type matrixEntry struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Workers     int     `json:"workers"`
	Tests       int     `json:"tests"`
	Seconds     float64 `json:"seconds"`
	TestsPerSec float64 `json:"tests_per_sec"`
}

type keyBench struct {
	String  opBench `json:"string"`
	Compact opBench `json:"compact"`
}

type snapshotForkBench struct {
	// Cold builds and warms a fresh deployment per test; Forked restores
	// the warm master snapshot. Identical results, enforced by test.
	Cold   opBench `json:"cold"`
	Forked opBench `json:"forked"`
	// CampaignTestsPerSec is the fig2 campaign rate with snapshot/fork
	// execution enabled (the engine default for capable targets).
	CampaignTestsPerSec float64 `json:"campaign_tests_per_sec"`
}

// defectSearch records tests-to-first-violation for each exploration
// strategy against one injected defect, per seed (0 = not found within
// the budget). The defect recipes are scenario-rare by construction —
// EXPERIMENTS.md §"Coverage-guided exploration" documents them — so the
// counts measure search quality, not the defect's base rate.
type defectSearch struct {
	Budget   int     `json:"budget"`
	Seeds    []int64 `json:"seeds"`
	AVD      []int   `json:"avd_tests_to_violation"`
	Random   []int   `json:"random_tests_to_violation"`
	Genetic  []int   `json:"genetic_tests_to_violation"`
	Coverage []int   `json:"coverage_tests_to_violation"`
}

// shardedBench measures the crash-safe sharded campaign runtime: the
// throughput cost of journaling every batch to a durable checkpoint,
// the cold-resume latency of reloading all shard state from disk, and
// the cost of the exactly-once merge across shards.
type shardedBench struct {
	Shards          int     `json:"shards"`
	Tests           int     `json:"tests"`
	CampaignSeconds float64 `json:"campaign_seconds"`
	TestsPerSec     float64 `json:"tests_per_sec"`
	CheckpointBytes int64   `json:"checkpoint_bytes"`
	ResumeSeconds   float64 `json:"resume_seconds"`
	ResumePerSec    float64 `json:"resume_results_per_sec"`
	MergeSeconds    float64 `json:"merge_seconds"`
	MergedResults   int     `json:"merged_results"`
	Fingerprint     string  `json:"fingerprint"`
}

type coverageBench struct {
	PBFTQuorum     defectSearch `json:"pbft_backup_quorum"`
	RaftDoubleVote defectSearch `json:"raft_double_vote"`
	RaftStorm      defectSearch `json:"raft_election_storm"`
	// Corpus shape from the last coverage campaign (pbft_backup_quorum,
	// last seed): retained entries and distinct behavior digests seen.
	CorpusEntries     int `json:"corpus_entries"`
	DistinctBehaviors int `json:"distinct_behaviors"`
}

type report struct {
	Schema         int               `json:"schema"`
	GeneratedAt    string            `json:"generated_at"`
	GoVersion      string            `json:"go_version"`
	NumCPU         int               `json:"num_cpu"`
	Campaign       campaignBench     `json:"fig2_campaign"`
	CampaignPhases phaseBench        `json:"campaign_phases"`
	RaftCampaign   campaignBench     `json:"raft_campaign"`
	WorkerMatrix   []matrixEntry     `json:"worker_matrix,omitempty"`
	TestExec       opBench           `json:"test_execution"`
	BaselineRun    opBench           `json:"baseline_run"`
	RaftTestExec   opBench           `json:"raft_test_execution"`
	ScenarioKey    keyBench          `json:"scenario_key"`
	EngineSched    opBench           `json:"engine_schedule"`
	SnapshotFork   snapshotForkBench `json:"snapshot_fork"`
	Coverage       coverageBench     `json:"coverage_explorer"`
	Sharded        shardedBench      `json:"sharded_campaign"`
}

func toOp(r testing.BenchmarkResult) opBench {
	return opBench{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func main() {
	var (
		out     = flag.String("o", "BENCH_7.json", "output JSON file (with -compare: the NEW report to read)")
		tests   = flag.Int("tests", 125, "campaign budget (Figure-2 size)")
		workers = flag.Int("workers", runtime.NumCPU(), "parallel campaign workers")
		measure = flag.Duration("measure", 1500*time.Millisecond, "virtual measurement window per test")
		quick   = flag.Bool("quick", false, "micro benchmarks only (skip campaigns); for CI smoke runs")
		reps    = flag.Int("reps", 2, "campaign repetitions per configuration; the fastest is reported (shared runners suffer multi-second steal spikes)")
		matrix  = flag.Bool("matrix", false, "also run the GOMAXPROCS x workers scaling matrix (hardware-gated: meaningful only on multi-proc runners)")
		compare = flag.String("compare", "", "compare the report in this file (OLD) against -o (NEW) and exit")
		timeTol = flag.Float64("time-tolerance", 0.10, "allowed fractional regression for time-based metrics in -compare")
	)
	flag.Parse()
	if *reps < 1 {
		*reps = 1
	}

	if *compare != "" {
		os.Exit(runCompare(*compare, *out, *timeTol))
	}

	w := cluster.DefaultWorkload()
	w.Measure = *measure
	// Baselines fork from warm attack-free masters (ISSUE 10) and a
	// steady-state baseline converges well inside 300ms of virtual time
	// (the cluster is already past its 300ms warmup when the window
	// opens), so the campaign's baseline phase prices 25 short windows
	// instead of 25 full attack windows.
	w.BaselineMeasure = 300 * time.Millisecond
	plugins := []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients()}
	newPBFT := func() *cluster.Target {
		t, err := cluster.NewTarget(w, plugins...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return t
	}
	rw := raftsim.DefaultWorkload()
	rw.Measure = *measure
	rw.BaselineMeasure = 300 * time.Millisecond
	newRaft := func() *raftsim.Target {
		t, err := raftsim.NewTarget(rw)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return t
	}

	rep := report{
		Schema:      7,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
	}

	// Campaign throughput through the Engine streaming path, serial vs
	// parallel, on cold targets (both pay cold baselines).
	runCampaign := func(t core.Target, workers int) time.Duration {
		eng, err := core.NewEngine(t,
			core.WithSeed(1), core.WithBudget(*tests), core.WithWorkers(workers))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		start := time.Now()
		if _, err := eng.RunAll(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return time.Since(start)
	}
	// Each configuration runs -reps times on a fresh target (identical
	// deterministic work) and the fastest wall-clock is reported: the
	// campaign is CPU-bound and noise on a shared runner is strictly
	// additive, so min-of-N estimates the machine's true rate.
	bestOf := func(mk func() core.Target, workers int) (time.Duration, core.Target) {
		var best time.Duration
		var bestTarget core.Target
		for i := 0; i < *reps; i++ {
			t := mk()
			el := runCampaign(t, workers)
			if bestTarget == nil || el < best {
				best, bestTarget = el, t
			}
		}
		return best, bestTarget
	}
	campaign := func(name string, mk func() core.Target) (campaignBench, core.Target) {
		fmt.Printf("%s campaign: %d tests serial...\n", name, *tests)
		serial, serialTarget := bestOf(mk, 1)
		fmt.Printf("%s campaign: %d tests with %d workers...\n", name, *tests, *workers)
		parallel, _ := bestOf(mk, *workers)
		return campaignBench{
			Tests:               *tests,
			MeasureWindowMS:     measure.Milliseconds(),
			SerialSeconds:       serial.Seconds(),
			SerialTestsPerSec:   float64(*tests) / serial.Seconds(),
			Workers:             *workers,
			EffectiveGOMAXPROCS: runtime.GOMAXPROCS(0),
			ParallelSeconds:     parallel.Seconds(),
			ParallelTestsPerSec: float64(*tests) / parallel.Seconds(),
			Speedup:             serial.Seconds() / parallel.Seconds(),
		}, serialTarget
	}
	if !*quick {
		var serialTarget core.Target
		rep.Campaign, serialTarget = campaign("pbft", func() core.Target { return newPBFT() })
		// The phase decomposition comes from the serial run, where the
		// sections sum to roughly the campaign wall-clock (no worker
		// overlap).
		rep.CampaignPhases = serialTarget.(*cluster.Target).Phases()
		rep.RaftCampaign, _ = campaign("raft", func() core.Target { return newRaft() })
		rep.SnapshotFork.CampaignTestsPerSec = rep.Campaign.SerialTestsPerSec
		if *matrix {
			// Worker-scaling matrix: the parallel fig2 campaign pinned to
			// each GOMAXPROCS level with workers to match. Each worker
			// forks its own slot's masters (core.WorkerSnapshotter), so
			// on real multi-proc hardware the rows should approach
			// linear; on a 1-proc container they measure only
			// oversubscription overhead (EXPERIMENTS.md, hardware-gated).
			prev := runtime.GOMAXPROCS(0)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				fmt.Printf("worker matrix: GOMAXPROCS=%d, %d workers...\n", procs, procs)
				el, _ := bestOf(func() core.Target { return newPBFT() }, procs)
				rep.WorkerMatrix = append(rep.WorkerMatrix, matrixEntry{
					GOMAXPROCS:  procs,
					Workers:     procs,
					Tests:       *tests,
					Seconds:     el.Seconds(),
					TestsPerSec: float64(*tests) / el.Seconds(),
				})
			}
			runtime.GOMAXPROCS(prev)
		}
		rep.Coverage = coverageSection()
		rep.Sharded = shardedSection(*tests, *measure)
	}

	// Single test execution (Big MAC) and attack-free baseline run.
	space, err := core.Space(plugins...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	runner := newPBFT()
	bigmac := space.New(map[string]int64{
		plugin.DimMACMask:          int64(graycode.Decode(0xEEE)),
		plugin.DimCorrectClients:   30,
		plugin.DimMaliciousClients: 1,
	})
	clean := space.New(map[string]int64{
		plugin.DimMACMask:          0,
		plugin.DimCorrectClients:   30,
		plugin.DimMaliciousClients: 1,
	})
	runner.Baseline(30) // warm so the per-op numbers measure one deployment
	// The baseline fork parked a warm master; drop it so the cold-run
	// loops below don't pay GC marking for a deployment they never fork
	// from (a retained master measurably doubles cold ns/op).
	runner.FlushMasters()
	// Micro sections use the same min-of-N estimator as the campaigns:
	// the measured work is deterministic and CPU-bound, steal noise on a
	// shared host is strictly additive, so the fastest of -reps passes
	// estimates the machine's true per-op cost. Alloc counts are
	// identical across passes (deterministic simulations allocate
	// deterministically), so min-of-N changes only the time estimate.
	bestOp := func(fn func(b *testing.B)) opBench {
		best := testing.Benchmark(fn)
		for i := 1; i < *reps; i++ {
			if r := testing.Benchmark(fn); r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		return toOp(best)
	}
	fmt.Println("test execution micro-benchmarks...")
	rep.TestExec = bestOp(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runner.Run(bigmac)
		}
	})
	rep.BaselineRun = bestOp(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runner.Run(clean)
		}
	})

	// Raft test execution: one full deployment under the election storm.
	raftTarget := newRaft()
	raftSpace, err := core.Space(raftTarget.Plugins()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	storm := raftSpace.New(map[string]int64{
		raftsim.DimClients:        10,
		raftsim.DimFlapIntervalMS: 300,
		raftsim.DimFlapDownMS:     200,
	})
	raftTarget.Baseline(10)
	raftTarget.FlushMasters() // same cold-run hygiene as the PBFT section
	fmt.Println("raft test execution micro-benchmark...")
	rep.RaftTestExec = bestOp(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			raftTarget.Run(storm)
		}
	})

	// Snapshot/fork execution: the same Big MAC test cold-built per run
	// vs forked from the warm master snapshot.
	fmt.Println("snapshot/fork micro-benchmarks...")
	rep.SnapshotFork.Cold = bestOp(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runner.Run(bigmac)
		}
	})
	runner.RunFork(bigmac) // build + warm + capture the master
	rep.SnapshotFork.Forked = bestOp(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runner.RunFork(bigmac)
		}
	})

	// Dedup identity.
	rng := rand.New(rand.NewSource(1))
	scs := make([]scenario.Scenario, 256)
	for i := range scs {
		scs[i] = space.Random(rng)
	}
	rep.ScenarioKey.String = bestOp(func(b *testing.B) {
		seen := make(map[string]bool, len(scs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seen[scs[i%len(scs)].Key()] = true
		}
	})
	rep.ScenarioKey.Compact = bestOp(func(b *testing.B) {
		seen := make(map[scenario.CompactKey]bool, len(scs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seen[scs[i%len(scs)].Compact()] = true
		}
	})

	// Engine timer churn.
	rep.EngineSched = bestOp(func(b *testing.B) {
		e := sim.New(1)
		fn := func() {}
		for i := 0; i < 1024; i++ {
			e.Schedule(time.Duration(i), fn)
		}
		e.Run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(time.Microsecond, fn)
			e.Step()
		}
	})

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	fmt.Printf("\npbft campaign: serial %.1fs (%.2f tests/s), %d workers on %d procs %.1fs (%.2f tests/s), speedup %.2fx\n",
		rep.Campaign.SerialSeconds, rep.Campaign.SerialTestsPerSec,
		rep.Campaign.Workers, rep.Campaign.EffectiveGOMAXPROCS,
		rep.Campaign.ParallelSeconds, rep.Campaign.ParallelTestsPerSec,
		rep.Campaign.Speedup)
	for _, m := range rep.WorkerMatrix {
		fmt.Printf("worker matrix: GOMAXPROCS=%d workers=%d: %.1fs (%.2f tests/s)\n",
			m.GOMAXPROCS, m.Workers, m.Seconds, m.TestsPerSec)
	}
	fmt.Printf("raft campaign: serial %.1fs (%.2f tests/s), %d workers %.1fs (%.2f tests/s), speedup %.2fx\n",
		rep.RaftCampaign.SerialSeconds, rep.RaftCampaign.SerialTestsPerSec,
		rep.RaftCampaign.Workers, rep.RaftCampaign.ParallelSeconds, rep.RaftCampaign.ParallelTestsPerSec,
		rep.RaftCampaign.Speedup)
	if ph := rep.CampaignPhases; ph.RunSeconds > 0 {
		fmt.Printf("campaign phases: warmup %.2fs, baseline %.2fs, fork %.2fs, run %.2fs, analyze %.2fs\n",
			ph.WarmupSeconds, ph.BaselineSeconds, ph.ForkSeconds, ph.RunSeconds, ph.AnalyzeSeconds)
	}
	fmt.Printf("test execution: bigmac %.1fms/op, clean %.1fms/op, raft storm %.1fms/op\n",
		float64(rep.TestExec.NsPerOp)/1e6, float64(rep.BaselineRun.NsPerOp)/1e6,
		float64(rep.RaftTestExec.NsPerOp)/1e6)
	fmt.Printf("scenario key: string %dns/%d allocs, compact %dns/%d allocs\n",
		rep.ScenarioKey.String.NsPerOp, rep.ScenarioKey.String.AllocsPerOp,
		rep.ScenarioKey.Compact.NsPerOp, rep.ScenarioKey.Compact.AllocsPerOp)
	fmt.Printf("engine schedule: %dns/op, %d allocs/op\n",
		rep.EngineSched.NsPerOp, rep.EngineSched.AllocsPerOp)
	fmt.Printf("snapshot fork: cold %.1fms/op (%d allocs), forked %.1fms/op (%d allocs)\n",
		float64(rep.SnapshotFork.Cold.NsPerOp)/1e6, rep.SnapshotFork.Cold.AllocsPerOp,
		float64(rep.SnapshotFork.Forked.NsPerOp)/1e6, rep.SnapshotFork.Forked.AllocsPerOp)
	if rep.Sharded.MergedResults > 0 {
		fmt.Printf("sharded campaign: %d shards, %.1fs (%.2f tests/s durable), resume %.0f results/s, merge %.3fs, %d bytes on disk\n",
			rep.Sharded.Shards, rep.Sharded.CampaignSeconds, rep.Sharded.TestsPerSec,
			rep.Sharded.ResumePerSec, rep.Sharded.MergeSeconds, rep.Sharded.CheckpointBytes)
	}
	fmt.Printf("wrote %s\n", *out)
}

// --- Sharded crash-safe campaign measurement ---------------------------------

// shardedSection runs a K-way sharded PBFT campaign where every shard
// journals each batch to its own durable checkpoint, then measures the
// cold-resume path (reload all shard state from disk) and the
// exactly-once merge. The campaign itself prices the fsync-per-batch
// durability tax; resume and merge price the recovery path a supervisor
// pays after a crash.
func shardedSection(tests int, measure time.Duration) shardedBench {
	const shards = 4
	fmt.Printf("sharded campaign: %d tests across %d durable shards...\n", tests, shards)
	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	dir, err := os.MkdirTemp("", "avdbench-sharded")
	die(err)
	defer os.RemoveAll(dir)

	w := cluster.DefaultWorkload()
	w.Measure = measure
	plugins := []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients()}
	full, err := core.Space(plugins...)
	die(err)
	plan, err := core.PlanShards(full, shards)
	die(err)

	paths := make([]string, shards)
	perShard := tests / shards
	sb := shardedBench{Shards: shards, Tests: shards * perShard}

	start := time.Now()
	for k := 0; k < shards; k++ {
		wrapped, err := plan.WrapPlugins(plugins, k)
		die(err)
		target, err := cluster.NewTarget(w, wrapped...)
		die(err)
		sub, err := plan.Subspace(full, k)
		die(err)
		paths[k] = filepath.Join(dir, fmt.Sprintf("shard-%d.ckpt", k))
		d, _, err := core.OpenDurable(paths[k], sub)
		die(err)
		eng, err := core.NewEngine(target,
			core.WithSeed(1), core.WithBudget(perShard), core.WithWorkers(1),
			core.WithDurable(d))
		die(err)
		_, err = eng.RunAll(context.Background())
		die(err)
		die(d.Close())
	}
	sb.CampaignSeconds = time.Since(start).Seconds()
	sb.TestsPerSec = float64(shards*perShard) / sb.CampaignSeconds

	// Cold resume: reload every shard's durable state as a restarted
	// supervisor would before merging.
	start = time.Now()
	loaded := make([][]core.Result, shards)
	for k := 0; k < shards; k++ {
		sub, err := plan.Subspace(full, k)
		die(err)
		results, _, err := core.ReadDurableResults(paths[k], sub)
		die(err)
		loaded[k] = results
	}
	sb.ResumeSeconds = time.Since(start).Seconds()
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			sb.CheckpointBytes += fi.Size()
		}
		if fi, err := os.Stat(p + ".journal"); err == nil {
			sb.CheckpointBytes += fi.Size()
		}
	}

	start = time.Now()
	merged, err := core.MergeShards(full, plan, loaded)
	die(err)
	fp, err := core.FingerprintResults(merged)
	die(err)
	sb.MergeSeconds = time.Since(start).Seconds()
	sb.MergedResults = len(merged)
	sb.Fingerprint = fp
	if sb.ResumeSeconds > 0 {
		sb.ResumePerSec = float64(sb.MergedResults) / sb.ResumeSeconds
	}
	return sb
}

// --- Coverage-guided search measurement --------------------------------------

// covSeeds are the equal-seed comparison points of the strategy
// shootout: every strategy runs each defect once per seed with the same
// budget, so each table row is an apples-to-apples comparison.
var covSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// Shootout budgets, sized to each defect's base rate under uniform
// sampling (0.5-2%; see EXPERIMENTS.md): large enough to give a blind
// search a fair shot, small enough that a not-found run stays cheap.

// mkExplorer builds one shootout strategy over the target's plugins.
func mkExplorer(kind string, seed int64, t core.Target) core.Explorer {
	var ex core.Explorer
	var err error
	switch kind {
	case "avd":
		ex, err = core.NewController(core.ControllerConfig{Seed: seed, SeedTests: 10}, t.Plugins()...)
	case "random":
		var space *scenario.Space
		if space, err = core.Space(t.Plugins()...); err == nil {
			ex = core.NewRandomExplorer(space, seed)
		}
	case "genetic":
		ex, err = core.NewGenetic(core.GeneticConfig{Seed: seed}, t.Plugins()...)
	case "coverage":
		ex, err = core.NewCoverageExplorer(core.CoverageConfig{Seed: seed}, t.Plugins()...)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	return ex
}

// firstHit runs one serial campaign and returns the 1-based index of
// the first test satisfying found, or 0 if the budget ran out. The
// campaign stops at the first hit (context cancel), so cheap strategies
// pay only for the tests they needed.
func firstHit(t core.Target, ex core.Explorer, budget int, found func(core.Result) bool) int {
	hit := 0
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng, err := core.NewEngine(t,
		core.WithExplorer(ex), core.WithBudget(budget), core.WithWorkers(1),
		core.WithObserver(func(i int, res core.Result) {
			if hit == 0 && found(res) {
				hit = i
				cancel()
			}
		}))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	eng.RunAll(ctx) // a cancel-at-first-hit error is the expected exit
	return hit
}

// searchDefect runs the four-strategy shootout against one defect
// target. The target is shared across runs (forked == cold, so warm
// masters do not change any result), and the last coverage explorer is
// returned for corpus statistics.
func searchDefect(name string, t core.Target, budget int, found func(core.Result) bool) (defectSearch, *core.CoverageExplorer) {
	ds := defectSearch{Budget: budget, Seeds: covSeeds}
	var lastCov *core.CoverageExplorer
	for _, seed := range covSeeds {
		for _, kind := range []string{"avd", "random", "genetic", "coverage"} {
			ex := mkExplorer(kind, seed, t)
			hit := firstHit(t, ex, budget, found)
			switch kind {
			case "avd":
				ds.AVD = append(ds.AVD, hit)
			case "random":
				ds.Random = append(ds.Random, hit)
			case "genetic":
				ds.Genetic = append(ds.Genetic, hit)
			case "coverage":
				ds.Coverage = append(ds.Coverage, hit)
				lastCov = ex.(*core.CoverageExplorer)
			}
		}
		fmt.Printf("%s seed %d: avd=%d random=%d genetic=%d coverage=%d (0 = not found in %d)\n",
			name, seed, ds.AVD[len(ds.AVD)-1], ds.Random[len(ds.Random)-1],
			ds.Genetic[len(ds.Genetic)-1], ds.Coverage[len(ds.Coverage)-1], budget)
	}
	return ds, lastCov
}

// coverageSection measures tests-to-first-violation for the three
// scenario-rare defect recipes EXPERIMENTS.md documents: a Byzantine
// BACKUP with the quorum defect (the search must rotate primaryship
// onto it), Raft's double-vote defect, and a Raft election storm.
func coverageSection() coverageBench {
	fmt.Println("coverage-guided search shootout...")
	var cb coverageBench

	pw := cluster.DefaultWorkload()
	pw.Measure = 800 * time.Millisecond
	pw.PBFT.QuorumBug = true
	pw.Equivocate = true
	pw.ByzantineReplica = 2
	pbftTarget, err := cluster.NewTarget(pw,
		plugin.NewClients(), plugin.NewCrashRestart(),
		plugin.NewOneWay(4), plugin.NewNetFaults(4))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	var cov *core.CoverageExplorer
	cb.PBFTQuorum, cov = searchDefect("pbft_backup_quorum", pbftTarget, 200,
		func(r core.Result) bool { return r.Violated("pbft/agreement") })
	if cov != nil {
		cb.CorpusEntries = cov.Corpus().Len()
		cb.DistinctBehaviors = cov.Corpus().Behaviors()
	}

	dw := raftsim.DefaultWorkload()
	dw.Warmup = 300 * time.Millisecond
	dw.Measure = 600 * time.Millisecond
	dw.Raft.DoubleVoteBug = true
	dvTarget, err := raftsim.NewTarget(dw,
		raftsim.NewClientsPlugin(), raftsim.NewLeaderFlapPlugin(), raftsim.NewCrashRestartPlugin())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	cb.RaftDoubleVote, _ = searchDefect("raft_double_vote", dvTarget, 150,
		func(r core.Result) bool { return r.Violated("raft/election-safety") })

	stormTarget, err := raftsim.NewTarget(raftsim.DefaultWorkload())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	cb.RaftStorm, _ = searchDefect("raft_election_storm", stormTarget, 250,
		func(r core.Result) bool { return r.ViewChanges >= 10 })

	return cb
}

// --- Regression comparison --------------------------------------------------

// metric is one compared value: time-based metrics honor the loose
// tolerance, allocation counts are compared strictly (1%) because
// deterministic simulations allocate deterministically.
type metric struct {
	name         string
	old, new     float64
	higherBetter bool
	strict       bool
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(data, &rep)
}

// runCompare diffs NEW against OLD and returns the exit code: 1 when any
// present-in-both metric regressed beyond its tolerance.
func runCompare(oldPath, newPath string, timeTol float64) int {
	oldRep, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: compare:", err)
		return 2
	}
	newRep, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: compare:", err)
		return 2
	}

	var metrics []metric
	campaignMetrics := func(prefix string, o, n campaignBench) {
		metrics = append(metrics,
			metric{prefix + ".serial_tests_per_sec", o.SerialTestsPerSec, n.SerialTestsPerSec, true, false},
			metric{prefix + ".parallel_tests_per_sec", o.ParallelTestsPerSec, n.ParallelTestsPerSec, true, false},
		)
	}
	opMetrics := func(prefix string, o, n opBench) {
		if o.NsPerOp == 0 && n.NsPerOp != 0 {
			// A section the old report predates must not fail the gate:
			// warn and let the new numbers seed the trajectory.
			fmt.Printf("%-42s absent in %s; skipped (new section)\n", prefix, oldPath)
			return
		}
		if o.NsPerOp == 0 || n.NsPerOp == 0 {
			return // section absent in the new report (-quick run or schema drift)
		}
		metrics = append(metrics,
			metric{prefix + ".ns_per_op", float64(o.NsPerOp), float64(n.NsPerOp), false, false},
			metric{prefix + ".allocs_per_op", float64(o.AllocsPerOp), float64(n.AllocsPerOp), false, true},
		)
	}
	campaignMetrics("fig2_campaign", oldRep.Campaign, newRep.Campaign)
	campaignMetrics("raft_campaign", oldRep.RaftCampaign, newRep.RaftCampaign)
	opMetrics("test_execution", oldRep.TestExec, newRep.TestExec)
	opMetrics("baseline_run", oldRep.BaselineRun, newRep.BaselineRun)
	opMetrics("raft_test_execution", oldRep.RaftTestExec, newRep.RaftTestExec)
	opMetrics("scenario_key.compact", oldRep.ScenarioKey.Compact, newRep.ScenarioKey.Compact)
	opMetrics("engine_schedule", oldRep.EngineSched, newRep.EngineSched)
	opMetrics("snapshot_fork.cold", oldRep.SnapshotFork.Cold, newRep.SnapshotFork.Cold)
	opMetrics("snapshot_fork.forked", oldRep.SnapshotFork.Forked, newRep.SnapshotFork.Forked)
	metrics = append(metrics, metric{"snapshot_fork.campaign_tests_per_sec",
		oldRep.SnapshotFork.CampaignTestsPerSec, newRep.SnapshotFork.CampaignTestsPerSec, true, false})
	metrics = append(metrics,
		metric{"sharded_campaign.tests_per_sec",
			oldRep.Sharded.TestsPerSec, newRep.Sharded.TestsPerSec, true, false},
		metric{"sharded_campaign.resume_results_per_sec",
			oldRep.Sharded.ResumePerSec, newRep.Sharded.ResumePerSec, true, false})

	failed := false
	for _, m := range metrics {
		if m.higherBetter && (m.old == 0 || m.new == 0) {
			if m.old == 0 && m.new != 0 {
				fmt.Printf("%-42s absent in %s; skipped (new section)\n", m.name, oldPath)
			}
			continue // campaign section absent in one report
		}
		tol := timeTol
		if m.strict {
			tol = 0.01
		}
		var regressed bool
		var change float64
		if m.higherBetter {
			change = (m.new - m.old) / m.old
			regressed = m.new < m.old*(1-tol)
		} else {
			// Zero-alloc metrics are the headline optimizations; a present
			// section with old == 0 must stay at 0, so compare absolutely.
			if m.old == 0 {
				change = 0
				regressed = m.new > 0
			} else {
				change = (m.old - m.new) / m.old
				regressed = m.new > m.old*(1+tol)
			}
		}
		status := "ok"
		if regressed {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-42s %14.2f -> %14.2f  %+6.1f%%  %s\n", m.name, m.old, m.new, change*100, status)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "bench: regression against %s (alloc tolerance 1%%, time tolerance %.0f%%)\n", oldPath, timeTol*100)
		return 1
	}
	fmt.Printf("no regressions against %s\n", oldPath)
	return 0
}
