package core

import "sync"

// BaselineCache memoizes attack-free baseline measurements keyed by an
// int64 deployment parameter (typically the correct-client count).
// Impact is relative to these baselines and parallel engine workers hit
// the cache concurrently, so Harness measures each key exactly once
// through it.
//
// The zero value is ready to use. BaselineCache is safe for concurrent
// use.
type BaselineCache struct {
	cells sync.Map // int64 -> *baselineCell
}

// baselineCell measures one key's baseline exactly once.
type baselineCell struct {
	once sync.Once
	val  float64
}

// Get returns the baseline for key, measuring it with measure on first
// use. Concurrent callers for the same key share one measurement;
// different keys measure in parallel.
func (c *BaselineCache) Get(key int64, measure func(key int64) float64) float64 {
	v, _ := c.cells.LoadOrStore(key, &baselineCell{})
	cell := v.(*baselineCell)
	cell.once.Do(func() { cell.val = measure(key) })
	return cell.val
}
