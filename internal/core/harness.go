package core

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"avd/internal/metrics"
	"avd/internal/oracle"
	"avd/internal/scenario"
)

// Deployment is one instantiated system under test bound to its own
// simulation engine: the part of a target that knows the protocol. A
// harness builds it fault-neutral and warms it (HarnessSpec.Build), and
// every scenario-specific tool arms at measurement start, which is what
// lets one warm deployment serve many tests (DESIGN.md §8). A deployment
// runs one test at a time and is not safe for concurrent use.
//
// A master's lifecycle is build → capture → (arm → measure → park)*: the
// harness calls Fork once right after Build to capture the post-warmup
// snapshot, and again after every measurement to park the master, so an
// idle master holds only its warm prefix and the window's scratch goes
// back to the chunk pools (package slab) for the next test to reuse.
type Deployment[R any] interface {
	// Fork captures the post-warmup snapshot on the first call; every
	// later call parks the deployment, rewinding it to that snapshot
	// and disarming whatever the last run armed.
	Fork()
	// Arm activates the scenario's faults (none when withFaults is
	// false, for baselines) and attaches the run's extra checkers.
	Arm(sc scenario.Scenario, withFaults bool, extra ...oracle.Checker)
	// Measure runs the measurement window and collects the outcome:
	// the impact summary (unscored) and the target's detailed report.
	Measure(sc scenario.Scenario, window time.Duration) (Result, R)
}

// HarnessSpec is what a target tells the shared harness about itself.
type HarnessSpec[K comparable, D any] struct {
	// Name identifies the system under test (Target.Name).
	Name string
	// Config is the target's workload; its %+v rendering is the
	// ConfigFingerprint, so it must be a tree of flat scalar structs.
	Config any
	// Plugins are the target's default testing-tool plugins.
	Plugins []Plugin
	// PopulationDim is the correct-client dimension. Baselines are
	// measured and cached per value of it (default 10).
	PopulationDim string
	// Key is a scenario's master key: everything that shapes the
	// warmup. Fault parameters arm later and must not be part of it.
	Key func(sc scenario.Scenario) K
	// Build constructs and warms a fault-neutral deployment for a key.
	Build func(key K) D
	// Measure is the measurement window of a test; BaselineMeasure, when
	// positive, the shorter window of attack-free baselines.
	Measure, BaselineMeasure time.Duration
	// LatencyRef scales the latency component of the impact score: at
	// LatencyRef average latency it is maxed. Zero disables it.
	LatencyRef time.Duration
	// ReferenceThroughput, when positive, replaces the per-population
	// baseline as the throughput reference of the impact score.
	ReferenceThroughput float64
}

// Harness is the deployment harness every target shares: build → warm →
// capture → (arm → measure → park → score)*, with attack-free baselines
// cached per population and per-slot master arenas for forked runs. A
// target supplies only its Deployment and a HarnessSpec. Harness
// implements Target, Warmer, Snapshotter, WorkerSnapshotter, Preparer
// and ConfigFingerprinter, and is safe for concurrent use.
//
// Forked runs execute on a worker slot: a lock plus a private arena of
// warm masters keyed by HarnessSpec.Key, built on first use and kept,
// parked, for the harness's lifetime. The engine runs slot k for the
// k-th test of a batch, so serial campaigns use slot 0 only. A baseline
// missing when a run is scored is measured on the slot that run holds,
// on the slot's attack-free master; the BaselineCache singleflight makes
// concurrent slots share one measurement.
type Harness[K comparable, D Deployment[R], R any] struct {
	spec      HarnessSpec[K, D]
	baselines BaselineCache
	phases    PhaseTimes

	mu    sync.Mutex
	slots []*harnessSlot[K, D]
}

// harnessSlot is one worker slot: its lock serializes the runs that use
// it, so its masters need no further synchronization.
type harnessSlot[K comparable, D any] struct {
	mu      sync.Mutex
	masters map[K]D
}

// NewHarness validates the spec and returns its harness.
func NewHarness[K comparable, D Deployment[R], R any](spec HarnessSpec[K, D]) (*Harness[K, D, R], error) {
	if spec.Measure <= 0 {
		return nil, fmt.Errorf("core: %s harness: measurement window must be positive", spec.Name)
	}
	if spec.BaselineMeasure < 0 {
		return nil, fmt.Errorf("core: %s harness: baseline measurement window must not be negative", spec.Name)
	}
	if spec.BaselineMeasure == 0 {
		spec.BaselineMeasure = spec.Measure
	}
	return &Harness[K, D, R]{spec: spec}, nil
}

var (
	_ Target              = (*Harness[int, Deployment[int], int])(nil)
	_ Warmer              = (*Harness[int, Deployment[int], int])(nil)
	_ WorkerSnapshotter   = (*Harness[int, Deployment[int], int])(nil)
	_ Preparer            = (*Harness[int, Deployment[int], int])(nil)
	_ ConfigFingerprinter = (*Harness[int, Deployment[int], int])(nil)
)

// Name implements Target.
func (h *Harness[K, D, R]) Name() string { return h.spec.Name }

// Plugins implements Target.
func (h *Harness[K, D, R]) Plugins() []Plugin {
	cp := make([]Plugin, len(h.spec.Plugins))
	copy(cp, h.spec.Plugins)
	return cp
}

// ConfigFingerprint implements ConfigFingerprinter: a durable campaign
// records it in its manifest so a resume with a drifted workload fails
// fast instead of replaying a different system.
func (h *Harness[K, D, R]) ConfigFingerprint() string {
	f := fnv.New64a()
	fmt.Fprintf(f, "%+v", h.spec.Config)
	return fmt.Sprintf("%016x", f.Sum64())
}

// Phases returns the accumulated campaign-phase breakdown (see
// PhaseTimes). The accumulators live for the harness's lifetime.
func (h *Harness[K, D, R]) Phases() PhaseBreakdown { return h.phases.Breakdown() }

// Run implements Runner: a cold run on a freshly built and warmed
// deployment, the reference semantics forked runs reproduce bit for bit.
func (h *Harness[K, D, R]) Run(sc scenario.Scenario) Result {
	res, _ := h.RunReport(sc)
	return res
}

// RunReport is Run with the target's detailed report.
func (h *Harness[K, D, R]) RunReport(sc scenario.Scenario) (Result, R) {
	return h.cold(sc)
}

// RunTraced is RunReport with the measurement window's oracle-event
// stream recorded.
func (h *Harness[K, D, R]) RunTraced(sc scenario.Scenario) (Result, R, []oracle.Event) {
	rec := oracle.NewRecorder()
	res, rep := h.cold(sc, rec)
	return res, rep, rec.Events()
}

// RunFork implements Snapshotter: the run forks slot 0's warm master.
// Like every harness method it is safe for concurrent use; concurrent
// calls take turns on slot 0.
func (h *Harness[K, D, R]) RunFork(sc scenario.Scenario) Result {
	return h.RunForkWorker(sc, 0)
}

// RunForkWorker implements WorkerSnapshotter: the run forks the given
// slot's warm master for the scenario's key.
func (h *Harness[K, D, R]) RunForkWorker(sc scenario.Scenario, worker int) Result {
	res, _ := h.forked(h.slot(worker), sc)
	return res
}

// RunTracedFork is RunTraced through the forked path on slot 0; the
// determinism tests compare its stream against RunTraced's.
func (h *Harness[K, D, R]) RunTracedFork(sc scenario.Scenario) (Result, R, []oracle.Event) {
	rec := oracle.NewRecorder()
	res, rep := h.forked(h.slot(0), sc, rec)
	return res, rep, rec.Events()
}

// Baseline returns the attack-free throughput of a population, measuring
// it on slot 0 on first use.
func (h *Harness[K, D, R]) Baseline(population int64) float64 {
	s := h.slot(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	return h.baseline(s, population)
}

// Warm implements Warmer by measuring the batch's baselines. The engine
// no longer calls it; runs measure missing baselines themselves.
func (h *Harness[K, D, R]) Warm(batch []scenario.Scenario) {
	for _, sc := range batch {
		h.Baseline(h.population(sc))
	}
}

// Prepare implements Preparer by measuring the scenario's baseline. The
// engine no longer calls it; runs measure missing baselines themselves.
func (h *Harness[K, D, R]) Prepare(sc scenario.Scenario) { h.Baseline(h.population(sc)) }

// FlushMasters drops every slot's warm masters; later forked runs
// rebuild them. Benchmarks call it before timing cold runs, which would
// otherwise pay GC marking for deployments they never fork from.
func (h *Harness[K, D, R]) FlushMasters() {
	h.mu.Lock()
	h.slots = nil
	h.mu.Unlock()
}

func (h *Harness[K, D, R]) population(sc scenario.Scenario) int64 {
	return sc.GetOr(h.spec.PopulationDim, 10)
}

// slot returns worker slot i, growing the slot table on first sight.
func (h *Harness[K, D, R]) slot(i int) *harnessSlot[K, D] {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.slots) <= i {
		h.slots = append(h.slots, &harnessSlot[K, D]{masters: make(map[K]D)})
	}
	return h.slots[i]
}

// cold builds, warms, arms and measures a fresh deployment.
func (h *Harness[K, D, R]) cold(sc scenario.Scenario, extra ...oracle.Checker) (Result, R) {
	d := h.spec.Build(h.spec.Key(sc))
	d.Arm(sc, true, extra...)
	res, rep := d.Measure(sc, h.spec.Measure)
	return h.score(res, h.Baseline(h.population(sc))), rep
}

// forked runs the scenario on a slot's master for its key, building,
// warming and capturing the master on first use. The master is parked
// before the result is scored: scoring may measure a baseline on the
// same master.
func (h *Harness[K, D, R]) forked(s *harnessSlot[K, D], sc scenario.Scenario, extra ...oracle.Checker) (Result, R) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := h.spec.Key(sc)
	d, ok := s.masters[key]
	if !ok {
		start := metrics.StartWatch()
		d = h.master(s, key)
		h.phases.AddWarmup(start.Elapsed())
	}
	res, rep := h.runParked(d, sc, extra...)
	return h.score(res, h.baseline(s, h.population(sc))), rep
}

// master builds, warms and captures slot s's master for key.
func (h *Harness[K, D, R]) master(s *harnessSlot[K, D], key K) D {
	d := h.spec.Build(key)
	d.Fork()
	s.masters[key] = d
	return d
}

// runParked arms and measures one run on a captured master and parks the
// master again, through a defer so that a run that panics leaves its
// master parked too. Arming and parking are fork time, the window is run
// time.
func (h *Harness[K, D, R]) runParked(d D, sc scenario.Scenario, extra ...oracle.Checker) (Result, R) {
	armStart := metrics.StartWatch()
	defer func() {
		parkStart := metrics.StartWatch()
		d.Fork()
		h.phases.AddFork(parkStart.Elapsed())
	}()
	d.Arm(sc, true, extra...)
	h.phases.AddFork(armStart.Elapsed())
	runStart := metrics.StartWatch()
	res, rep := d.Measure(sc, h.spec.Measure)
	h.phases.AddRun(runStart.Elapsed())
	return res, rep
}

// baseline returns a population's baseline, measuring it on slot s —
// which the caller holds — when no slot has yet.
func (h *Harness[K, D, R]) baseline(s *harnessSlot[K, D], population int64) float64 {
	return h.baselines.Get(population, func(population int64) float64 {
		return h.measureBaseline(s, population)
	})
}

// measureBaseline runs slot s's master for the population's attack-free
// scenario with nothing armed. Its whole cost, including a master build,
// is baseline time.
func (h *Harness[K, D, R]) measureBaseline(s *harnessSlot[K, D], population int64) float64 {
	start := metrics.StartWatch()
	defer func() { h.phases.AddBaseline(start.Elapsed()) }()
	empty := scenario.MustNewSpace(scenario.Dimension{
		Name: h.spec.PopulationDim, Min: population, Max: population, Step: 1,
	}).New(nil)
	key := h.spec.Key(empty)
	d, ok := s.masters[key]
	if !ok {
		d = h.master(s, key)
	}
	defer d.Fork() // park, before the deferred timing above
	d.Arm(empty, false)
	res, _ := d.Measure(empty, h.spec.BaselineMeasure)
	return res.Throughput
}

// score computes a measured result's impact against the baseline:
// 0.8 × throughput collapse + 0.2 × latency inflation (against
// LatencyRef), or the collapse alone when LatencyRef is zero.
func (h *Harness[K, D, R]) score(res Result, baseline float64) Result {
	analyzeStart := metrics.StartWatch()
	defer func() { h.phases.AddAnalyze(analyzeStart.Elapsed()) }()
	res.BaselineThroughput = baseline
	if baseline > 0 {
		ref := baseline
		if h.spec.ReferenceThroughput > 0 {
			ref = h.spec.ReferenceThroughput
		}
		tputImpact := 1 - res.Throughput/ref
		if tputImpact < 0 {
			tputImpact = 0
		}
		if tputImpact > 1 {
			tputImpact = 1
		}
		if h.spec.LatencyRef > 0 {
			latImpact := float64(res.AvgLatency) / float64(h.spec.LatencyRef)
			if latImpact > 1 {
				latImpact = 1
			}
			res.Impact = 0.8*tputImpact + 0.2*latImpact
		} else {
			res.Impact = tputImpact
		}
	}
	return res
}
