package metrics

import (
	"testing"
	"time"
)

// TestWindowCountsOnlyInside: completions outside Begin/End are ignored,
// censored waits join the mean and the tail but not the completion
// count, and Reset clears the counters for the next run.
func TestWindowCountsOnlyInside(t *testing.T) {
	var w Window
	w.Complete(1, time.Second) // before Begin
	w.Begin()
	w.Complete(2, 10*time.Millisecond)
	w.Complete(3, 30*time.Millisecond)
	w.End()
	w.Complete(4, time.Second) // after End
	w.Censor(50 * time.Millisecond)
	w.Censor(0)
	if got := w.Completed(); got != 2 {
		t.Errorf("Completed = %d, want 2", got)
	}
	if got := w.AvgLatency(); got != 30*time.Millisecond {
		t.Errorf("AvgLatency = %v, want 30ms", got)
	}
	if got := w.P99(); got != 50*time.Millisecond {
		t.Errorf("P99 = %v, want 50ms", got)
	}
	w.Reset()
	if w.Completed() != 0 || w.AvgLatency() != 0 {
		t.Errorf("after Reset: %d completions, mean %v", w.Completed(), w.AvgLatency())
	}
	w.Complete(5, time.Second) // Reset closes the window
	w.Begin()
	if w.Completed() != 0 || w.P99() != 0 {
		t.Errorf("Begin kept stale state: %d completions, p99 %v", w.Completed(), w.P99())
	}
}
