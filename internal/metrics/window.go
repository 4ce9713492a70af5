package metrics

import "time"

// Window is the measurement-window bookkeeping of one deployment:
// correct-client completions count only between Begin and End, and a
// request still outstanding when the window closes contributes its
// elapsed wait (Censor), so a collapsed system shows high latency instead
// of a rosy average over the few requests that did complete. Both
// harnesses (cluster and raftsim) measure through it. The zero value is
// ready to use.
type Window struct {
	measuring bool
	completed uint64
	latSum    time.Duration
	latN      uint64
	latTail   []time.Duration
}

// Complete records one completion; outside the window it is ignored.
// Its signature matches the clients' completion callbacks.
func (w *Window) Complete(seq uint64, latency time.Duration) {
	if !w.measuring {
		return
	}
	w.completed++
	w.latSum += latency
	w.latN++
	w.latTail = append(w.latTail, latency)
}

// Begin opens the window, reusing the latency-tail buffer.
func (w *Window) Begin() {
	w.latTail = w.latTail[:0]
	w.measuring = true
}

// End closes the window: later completions are ignored.
func (w *Window) End() { w.measuring = false }

// Censor counts a request still outstanding at window end that has
// waited the given time; non-positive waits are ignored.
func (w *Window) Censor(waited time.Duration) {
	if waited > 0 {
		w.latSum += waited
		w.latN++
		w.latTail = append(w.latTail, waited)
	}
}

// Completed returns the completions counted inside the window.
func (w *Window) Completed() uint64 { return w.completed }

// AvgLatency returns the mean latency over completions and censored
// waits, or 0 with neither.
func (w *Window) AvgLatency() time.Duration {
	if w.latN > 0 {
		return w.latSum / time.Duration(w.latN)
	}
	return 0
}

// P99 returns the 99th-percentile latency, sorting the tail in place.
func (w *Window) P99() time.Duration { return PercentileInPlace(w.latTail, 99) }

// Reset clears the counters for the next run (a snapshot restore): the
// window is closed and nothing is counted. The tail buffer is kept and
// cleared by Begin.
func (w *Window) Reset() {
	w.measuring = false
	w.completed = 0
	w.latSum, w.latN = 0, 0
}
