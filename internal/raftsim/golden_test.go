package raftsim

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"avd/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace fixtures")

// goldenWorkload is the fixed (workload, scenario) pair of the golden
// trace: small enough that the fixture stays reviewable, adversarial
// enough (a leader-flap storm over three clients) that the trace covers
// elections, leadership changes, and commits.
func goldenWorkload() (Workload, map[string]int64) {
	w := DefaultWorkload()
	w.Warmup = 200 * time.Millisecond
	w.Measure = 500 * time.Millisecond
	// A slow WAN link throttles the single closed-loop client, keeping
	// the commit stream reviewable: dozens of commits per leadership
	// epoch rather than thousands. The fast retry lets the client find
	// the successor leader inside the measurement window.
	w.Net.BaseLatency = 2 * time.Millisecond
	w.Client.Retry = 20 * time.Millisecond
	w.Client.RetryCap = 40 * time.Millisecond
	// One mid-run isolation of the leader: the trace spans two
	// leadership epochs with commits in both.
	return w, map[string]int64{
		DimClients:        1,
		DimFlapIntervalMS: 400,
		DimFlapDownMS:     200,
	}
}

// goldenSpace allows a single-client deployment, below the plugin
// space's 5-client floor.
func goldenSpace(t *testing.T) *scenario.Space {
	t.Helper()
	space, err := scenario.NewSpace(
		scenario.Dimension{Name: DimClients, Min: 1, Max: 50, Step: 1},
		scenario.Dimension{Name: DimFlapIntervalMS, Min: 0, Max: 1000, Step: 50},
		scenario.Dimension{Name: DimFlapDownMS, Min: 0, Max: 400, Step: 25},
	)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// TestGoldenTrace: the oracle-event trace of a fixed (seed, scenario)
// pair must match the committed fixture byte for byte. Any change to
// sim/simnet scheduling, raftsim protocol logic, or the harness's event
// wiring that perturbs determinism breaks this test loudly; if the
// change is intentional, regenerate with
//
//	go test ./internal/raftsim -run TestGoldenTrace -update
func TestGoldenTrace(t *testing.T) {
	w, point := goldenWorkload()
	r, err := NewTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	sc := goldenSpace(t).New(point)
	_, _, events := r.RunTraced(sc)
	if len(events) == 0 {
		t.Fatal("traced run produced no events")
	}
	var sb strings.Builder
	sb.WriteString("# golden oracle-event trace: raftsim seed=1 " + sc.Key() + "\n")
	for _, ev := range events {
		sb.WriteString(ev.String())
		sb.WriteByte('\n')
	}
	got := sb.String()

	path := filepath.Join("testdata", "golden_trace.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d events)", path, len(events))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update to create): %v", path, err)
	}
	if got == string(want) {
		return
	}
	// Locate the first diverging line for a useful failure message.
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("trace diverged from fixture at line %d:\n  got:  %s\n  want: %s\n(sim determinism broke; -update only if intentional)",
				i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("trace length changed: got %d lines, fixture %d lines (sim determinism broke; -update only if intentional)",
		len(gl), len(wl))
}

// TestGoldenTraceSelfConsistent: two traced runs of the golden pair are
// identical, independent of the fixture — the determinism property the
// fixture pins across code changes.
func TestGoldenTraceSelfConsistent(t *testing.T) {
	w, point := goldenWorkload()
	sc := goldenSpace(t).New(point)
	run := func() []string {
		r, err := NewTarget(w)
		if err != nil {
			t.Fatal(err)
		}
		_, _, events := r.RunTraced(sc)
		lines := make([]string, len(events))
		for i, ev := range events {
			lines[i] = ev.String()
		}
		return lines
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("traced runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traced runs diverge at event %d: %s vs %s", i, a[i], b[i])
		}
	}
}
