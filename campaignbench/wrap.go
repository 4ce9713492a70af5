package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"avd/internal/core"
	"avd/internal/scenario"
)

// capabilities is the engine's view of a target: which optional
// interfaces it detects by type assertion. Each one selects an execution
// path (fork per test, per-worker master arenas, baseline warming,
// prefetch), so a timing wrapper that drops one measures a different
// campaign than the one it claims to.
type capabilities struct {
	Warmer, Snapshotter, WorkerSnapshotter, Preparer bool
}

func capabilitiesOf(t core.Target) capabilities {
	_, w := t.(core.Warmer)
	_, s := t.(core.Snapshotter)
	_, ws := t.(core.WorkerSnapshotter)
	_, p := t.(core.Preparer)
	return capabilities{Warmer: w, Snapshotter: s, WorkerSnapshotter: ws, Preparer: p}
}

// forkTarget is the capability set both shipped targets implement.
type forkTarget interface {
	core.Target
	core.Warmer
	core.WorkerSnapshotter
	core.Preparer
}

// timedTarget records a span around every call the engine makes into
// the target. It implements exactly forkTarget's capability set, so
// wrapTarget accepts only targets with that set.
type timedTarget struct {
	inner forkTarget
	rec   *recorder
	tests atomic.Int64
}

// wrapTarget wraps t in timing spans, refusing a target whose
// capability set the wrapper would change.
func wrapTarget(t core.Target, rec *recorder) (core.Target, error) {
	ft, ok := t.(forkTarget)
	if !ok {
		return nil, fmt.Errorf("campaignbench: target %s has capabilities %+v; the timing wrapper only preserves %+v",
			t.Name(), capabilitiesOf(t), capabilitiesOf(&timedTarget{}))
	}
	return &timedTarget{inner: ft, rec: rec}, nil
}

func (t *timedTarget) Name() string           { return t.inner.Name() }
func (t *timedTarget) Plugins() []core.Plugin { return t.inner.Plugins() }

// test numbers target calls in the order they start.
func (t *timedTarget) test() int { return int(t.tests.Add(1)) - 1 }

func (t *timedTarget) Run(sc scenario.Scenario) core.Result {
	id, start := t.test(), time.Now()
	defer t.rec.child("target.run", id, start)
	return t.inner.Run(sc)
}

func (t *timedTarget) RunFork(sc scenario.Scenario) core.Result {
	id, start := t.test(), time.Now()
	defer t.rec.child("target.run", id, start)
	return t.inner.RunFork(sc)
}

func (t *timedTarget) RunForkWorker(sc scenario.Scenario, worker int) core.Result {
	id, start := t.test(), time.Now()
	defer t.rec.child("target.run", id, start)
	return t.inner.RunForkWorker(sc, worker)
}

func (t *timedTarget) Warm(batch []scenario.Scenario) {
	defer t.rec.child("target.warm", -1, time.Now())
	t.inner.Warm(batch)
}

func (t *timedTarget) Prepare(sc scenario.Scenario) {
	defer t.rec.child("target.prepare", -1, time.Now())
	t.inner.Prepare(sc)
}

// timedExplorer records a span around every Next and Record. The engine
// calls both from its coordinator alone, so the counters need no lock.
type timedExplorer struct {
	inner         core.Explorer
	rec           *recorder
	next, records int
}

func (e *timedExplorer) Next() (scenario.Scenario, string, bool) {
	defer e.rec.child("explorer.next", e.next, time.Now())
	e.next++
	return e.inner.Next()
}

func (e *timedExplorer) Record(res core.Result) {
	defer e.rec.child("explorer.record", e.records, time.Now())
	e.records++
	e.inner.Record(res)
}

// timedSink records a span around every durable journal append.
func timedSink(rec *recorder, sink func([]core.Result) error) func([]core.Result) error {
	return func(batch []core.Result) error {
		defer rec.child("durable.append", -1, time.Now())
		return sink(batch)
	}
}
