package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avd/internal/oracle"
	"avd/internal/scenario"
)

// fakeWorld is the shared state of a fake target's deployments: build
// and baseline counters plus an optional hook every baseline measurement
// runs first.
type fakeWorld struct {
	builds    atomic.Int64
	baselines atomic.Int64
	// dirtyArms counts arms of a captured master that the previous run
	// left unparked.
	dirtyArms atomic.Int64
	// onBaseline, when set, runs at the start of every baseline
	// measurement (an unarmed Measure).
	onBaseline func()
	// onAttack, when set, runs at the end of every armed Measure.
	onAttack func()
}

// fakeDeployment is a Deployment whose outcome is a pure function of its
// population and the scenario, so forked and cold runs agree. Its run
// counter is mutable state the harness must never touch concurrently.
type fakeDeployment struct {
	world      *fakeWorld
	population int64
	runs       int
	armed      bool
	forks      int  // Fork calls: the capture, then one park per run
	dirty      bool // armed since the last Fork
}

func (d *fakeDeployment) Fork() {
	d.forks++
	d.dirty = false
}

func (d *fakeDeployment) Arm(sc scenario.Scenario, withFaults bool, extra ...oracle.Checker) {
	if d.dirty {
		d.world.dirtyArms.Add(1)
	}
	d.dirty = true
	d.armed = withFaults
}

func (d *fakeDeployment) Measure(sc scenario.Scenario, window time.Duration) (Result, int) {
	d.runs++
	if !d.armed {
		d.world.baselines.Add(1)
		if d.world.onBaseline != nil {
			d.world.onBaseline()
		}
		return Result{Scenario: sc, Throughput: float64(100 * d.population)}, d.runs
	}
	x := sc.GetOr("x", 0)
	res := Result{Scenario: sc, Throughput: float64(100*d.population - x), AvgLatency: time.Duration(x) * time.Millisecond}
	if d.world.onAttack != nil {
		d.world.onAttack()
	}
	return res, d.runs
}

func newFakeHarness(t testing.TB, world *fakeWorld) *Harness[int64, *fakeDeployment, int] {
	t.Helper()
	h, err := NewHarness[int64, *fakeDeployment, int](HarnessSpec[int64, *fakeDeployment]{
		Name:          "fake",
		Config:        struct{ Seed int64 }{1},
		Plugins:       harnessPlugins(),
		PopulationDim: "clients",
		Key:           func(sc scenario.Scenario) int64 { return sc.GetOr("clients", 10) },
		Build: func(population int64) *fakeDeployment {
			world.builds.Add(1)
			return &fakeDeployment{world: world, population: population}
		},
		Measure:    time.Second,
		LatencyRef: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func harnessPlugins() []Plugin {
	return []Plugin{
		&gridPlugin{name: "x", dim: scenario.Dimension{Name: "x", Min: 0, Max: 99, Step: 1}},
		&gridPlugin{name: "clients", dim: scenario.Dimension{Name: "clients", Min: 1, Max: 4, Step: 1}},
	}
}

func harnessScenario(t testing.TB, x, clients int64) scenario.Scenario {
	t.Helper()
	space, err := Space(harnessPlugins()...)
	if err != nil {
		t.Fatal(err)
	}
	return space.New(map[string]int64{"x": x, "clients": clients})
}

// TestHarnessValidates: a non-positive measurement window or a negative
// baseline window is a construction error.
func TestHarnessValidates(t *testing.T) {
	for _, spec := range []HarnessSpec[int64, *fakeDeployment]{
		{Name: "fake"},
		{Name: "fake", Measure: time.Second, BaselineMeasure: -time.Second},
	} {
		if _, err := NewHarness[int64, *fakeDeployment, int](spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

// TestHarnessSlotReusesMasters: a slot builds one master per key and
// forks it for every later run, including the run's own baseline; other
// slots build their own; FlushMasters drops them all. Forked results
// equal cold ones.
func TestHarnessSlotReusesMasters(t *testing.T) {
	sc := harnessScenario(t, 30, 2)
	cold := newFakeHarness(t, &fakeWorld{}).Run(sc)
	world := &fakeWorld{}
	h := newFakeHarness(t, world)
	for run := 0; run < 3; run++ {
		if got := h.RunForkWorker(sc, 1); !reflect.DeepEqual(got, cold) {
			t.Fatalf("fork %d differs from cold:\ncold: %+v\nfork: %+v", run, cold, got)
		}
	}
	if n := world.builds.Load(); n != 1 {
		t.Errorf("slot 1 built %d masters for one key, want 1", n)
	}
	if got := h.RunFork(sc); !reflect.DeepEqual(got, cold) {
		t.Fatalf("slot 0 fork differs from cold")
	}
	if n := world.builds.Load(); n != 2 {
		t.Errorf("slot 0 shared slot 1's master: %d builds, want 2", n)
	}
	// Three attack windows and the baseline ran on slot 1's one master.
	_, runs := h.forked(h.slot(1), sc)
	if runs != 5 {
		t.Errorf("slot 1's master ran %d windows, want 5", runs)
	}
	h.FlushMasters()
	h.RunForkWorker(sc, 1)
	if n := world.builds.Load(); n != 3 {
		t.Errorf("after FlushMasters: %d builds, want 3", n)
	}
	if want := 0.8*0.15 + 0.2*0.03; math.Abs(cold.Impact-want) > 1e-12 || cold.BaselineThroughput != 200 {
		t.Errorf("cold score: impact %v baseline %v, want %v and 200", cold.Impact, cold.BaselineThroughput, want)
	}
}

// TestHarnessBaselineMeasuredOnce: two slots whose runs need the same
// unmeasured baseline at the same time measure it exactly once — the
// baseline measurement waits until both slots have finished their
// attack windows, so whichever slot measures it, the other one needs it
// while it is in flight.
func TestHarnessBaselineMeasuredOnce(t *testing.T) {
	world := &fakeWorld{}
	var attacks sync.WaitGroup
	attacks.Add(2)
	world.onAttack = attacks.Done
	world.onBaseline = attacks.Wait
	h := newFakeHarness(t, world)
	var wg sync.WaitGroup
	results := make([]Result, 2)
	for slot := 0; slot < 2; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			results[slot] = h.RunForkWorker(harnessScenario(t, int64(10*slot), 3), slot)
		}(slot)
	}
	wg.Wait()
	if n := world.baselines.Load(); n != 1 {
		t.Fatalf("baseline measured %d times by two slots, want 1", n)
	}
	for slot, res := range results {
		if res.BaselineThroughput != 300 {
			t.Errorf("slot %d scored against baseline %v, want 300", slot, res.BaselineThroughput)
		}
	}
}

// TestHarnessRunMeasuresOwnBaseline: a run whose score needs a missing
// baseline measures it on the slot it already holds, without deadlock,
// serially and under a serial Engine; the public Baseline then hits the
// cache.
func TestHarnessRunMeasuresOwnBaseline(t *testing.T) {
	world := &fakeWorld{}
	h := newFakeHarness(t, world)
	if res := h.RunFork(harnessScenario(t, 5, 4)); res.BaselineThroughput != 400 {
		t.Fatalf("baseline %v, want 400", res.BaselineThroughput)
	}
	if got := h.Baseline(4); got != 400 || world.baselines.Load() != 1 {
		t.Fatalf("Baseline(4) = %v after %d measurements, want 400 after 1", got, world.baselines.Load())
	}
	eng, err := NewEngine(h, WithSeed(3), WithBudget(12))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil || len(results) != 12 {
		t.Fatalf("engine ran %d tests, err %v", len(results), err)
	}
	if n := world.baselines.Load(); n > 4 {
		t.Errorf("%d baseline measurements for 4 populations", n)
	}
}

// TestHarnessPublicCallsDuringCampaign: public RunFork, Baseline, Warm
// and Prepare called while a parallel Engine runs slots 0 and 1 take
// their turn on slot 0 and return the cold results; run under -race this
// is the harness's race test.
func TestHarnessPublicCallsDuringCampaign(t *testing.T) {
	world := &fakeWorld{}
	h := newFakeHarness(t, world)
	eng, err := NewEngine(h, WithSeed(5), WithBudget(40), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []Result)
	go func() {
		results, err := eng.RunAll(context.Background())
		if err != nil {
			t.Error(err)
		}
		done <- results
	}()
	ref := newFakeHarness(t, &fakeWorld{})
	for i := int64(0); i < 20; i++ {
		sc := harnessScenario(t, 3*i, 1+i%4)
		if got, want := h.RunFork(sc), ref.Run(sc); !reflect.DeepEqual(got, want) {
			t.Errorf("RunFork during campaign: %+v, want %+v", got, want)
		}
		if got := h.Baseline(1 + i%4); got != float64(100*(1+i%4)) {
			t.Errorf("Baseline(%d) = %v", 1+i%4, got)
		}
		h.Warm([]scenario.Scenario{sc})
		h.Prepare(sc)
	}
	results := <-done
	for _, res := range results {
		if want := ref.Run(res.Scenario); res.Impact != want.Impact || res.Throughput != want.Throughput {
			t.Errorf("campaign result %s differs from cold", res.Scenario.Key())
		}
	}
	if n := world.baselines.Load(); n != 4 {
		t.Errorf("%d baseline measurements for 4 populations, want 4", n)
	}
}

// TestHarnessParksAfterEveryRun pins the master lifecycle build →
// capture → (arm → measure → park)*: a master is captured once right
// after its build and parked after every window — attack runs, the
// baseline its first run's score measures on it, and a run whose
// measurement panics — so no run arms a master the previous one left
// dirty.
func TestHarnessParksAfterEveryRun(t *testing.T) {
	world := &fakeWorld{}
	h := newFakeHarness(t, world)
	for x := int64(0); x < 3; x++ {
		h.RunFork(harnessScenario(t, x, 2))
	}
	d := h.slot(0).masters[2]
	// One capture, one park per attack window, one for the baseline.
	if d.forks != 5 || d.dirty {
		t.Fatalf("after 3 runs and a baseline: %d forks (dirty %v), want 5 and parked", d.forks, d.dirty)
	}
	world.onAttack = func() { panic("measurement panicked") }
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the run's panic did not propagate")
			}
		}()
		h.RunFork(harnessScenario(t, 7, 2))
	}()
	if d.forks != 6 || d.dirty {
		t.Fatalf("after a panicking run: %d forks (dirty %v), want 6 and parked", d.forks, d.dirty)
	}
	world.onAttack = nil
	sc := harnessScenario(t, 9, 2)
	if got, want := h.RunFork(sc), newFakeHarness(t, &fakeWorld{}).Run(sc); !reflect.DeepEqual(got, want) {
		t.Fatalf("run after a panic differs from cold:\nfork: %+v\ncold: %+v", got, want)
	}
	if n := world.dirtyArms.Load(); n != 0 {
		t.Fatalf("%d runs armed an unparked master", n)
	}
}
