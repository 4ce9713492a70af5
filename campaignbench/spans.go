package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Times are Unix
// nanoseconds so spans recorded by shard worker processes line up with
// the supervisor's on one axis.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Test   int    `json:"test"`   // dispatch-order test id; the shard index on supervise.shard and durable.recover spans; else -1
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps a run's spans in memory; they are written out once,
// when the run ends. Span 0 is the root, the campaign itself. It is safe
// for concurrent use: parallel campaign workers record their target
// calls at the same time.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// newRecorder returns a recorder whose root span is named name; begin
// opens it.
func newRecorder(name string) *recorder {
	return &recorder{spans: []span{{Name: name, Parent: -1, Test: -1}}}
}

// begin starts the root span now.
func (r *recorder) begin() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[0].Start = time.Now().UnixNano()
}

// end ends the root span now.
func (r *recorder) end() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[0].End = time.Now().UnixNano()
}

// child records a span under the root that started at start and ends
// now.
func (r *recorder) child(name string, test int, start time.Time) {
	end := time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start.UnixNano(), End: end, Parent: 0, Test: test})
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durations returns the durations, in nanoseconds, of the named spans.
func durations(spans []span, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// covered returns how many nanoseconds of span i its child spans cover;
// overlapping children (parallel workers) count once. A span's self
// time is its duration minus this.
func covered(spans []span, i int) int64 {
	var kids [][2]int64
	for _, s := range spans {
		if s.Parent == i {
			kids = append(kids, [2]int64{max(s.Start, spans[i].Start), min(s.End, spans[i].End)})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
	var total int64
	reach := spans[i].Start
	for _, k := range kids {
		if k[1] <= reach {
			continue
		}
		total += k[1] - max(k[0], reach)
		reach = k[1]
	}
	return total
}

// writeSpans writes spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
