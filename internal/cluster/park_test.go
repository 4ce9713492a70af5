package cluster

import (
	"reflect"
	"testing"
	"time"

	"avd/internal/core"
	"avd/internal/graycode"
	"avd/internal/plugin"
	"avd/internal/scenario"
)

// parkSpace is the PBFT hyperspace with crash-restart on top of the
// paper's tools.
func parkSpace(t *testing.T) *scenario.Space {
	t.Helper()
	space, err := core.Space(plugin.NewMACCorrupt(), plugin.NewClients(), plugin.NewCrashRestart())
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// TestParkedResultsDoNotAliasScratch: a forked run's Result and Report
// must not point into the window scratch its park hands back to the
// chunk pools. Scenario A runs forked and its outcome is kept; runs on
// two other master keys in the same slot then carve their windows from
// the chunks A's master returned. A's kept values must still equal a
// cold run of A, violations, crash reasons and final views included.
func TestParkedResultsDoNotAliasScratch(t *testing.T) {
	w := fastWorkload()
	w.PBFT.QuorumBug = true // agreement violations for the Result to carry
	w.Equivocate = true
	r := newRunner(t, w)
	space := parkSpace(t)
	bigMAC := int64(graycode.Decode(0xEEE))
	a := space.New(map[string]int64{
		plugin.DimMACMask: bigMAC, plugin.DimCorrectClients: 20, plugin.DimMaliciousClients: 1,
		plugin.DimCrashIntervalMS: 100, plugin.DimCrashDownMS: 50, plugin.DimCrashLose: 1,
	})
	res, rep, _ := r.RunTracedFork(a)
	if len(res.Violations) == 0 || len(rep.CrashReasons) == 0 || len(rep.FinalViews) == 0 {
		t.Fatalf("scenario A exercises too little: violations %v, crash reasons %q, final views %v",
			res.Violations, rep.CrashReasons, rep.FinalViews)
	}
	for _, point := range []map[string]int64{
		{plugin.DimMACMask: bigMAC, plugin.DimCorrectClients: 30, plugin.DimMaliciousClients: 1},
		{plugin.DimMACMask: 0x0F0, plugin.DimCorrectClients: 10, plugin.DimMaliciousClients: 2,
			plugin.DimCrashIntervalMS: 150, plugin.DimCrashDownMS: 100},
	} {
		r.RunFork(space.New(point))
	}
	coldRes, coldRep := r.RunReport(a)
	if !reflect.DeepEqual(res, coldRes) {
		t.Errorf("kept forked Result differs from cold:\nforked: %+v\ncold:   %+v", res, coldRes)
	}
	if !reflect.DeepEqual(rep, coldRep) {
		t.Errorf("kept forked Report differs from cold:\nforked: %+v\ncold:   %+v", rep, coldRep)
	}
}

// TestSharedClientArenaForkedEqualsCold: every client of a deployment
// carves its requests from one shared arena, and every client's restore
// rewinds it. Over several run+park cycles of one master — MAC
// corruption makes the malicious client retransmit, so windows span many
// arena chunks — each forked run equals its cold run.
func TestSharedClientArenaForkedEqualsCold(t *testing.T) {
	w := fastWorkload()
	w.Measure = 600 * time.Millisecond
	r := newRunner(t, w)
	space := parkSpace(t)
	var scs []scenario.Scenario
	for _, mask := range []uint64{0xEEE, 0x00F, 0x0F0, 0} {
		scs = append(scs, space.New(map[string]int64{
			plugin.DimMACMask: int64(graycode.Decode(mask)), plugin.DimCorrectClients: 15, plugin.DimMaliciousClients: 2,
		}))
	}
	cold := make([]core.Result, len(scs))
	coldReps := make([]Report, len(scs))
	for i, sc := range scs {
		cold[i], coldReps[i] = r.RunReport(sc)
	}
	for cycle := 0; cycle < 3; cycle++ {
		for i, sc := range scs {
			res, rep, _ := r.RunTracedFork(sc)
			if !reflect.DeepEqual(res, cold[i]) || !reflect.DeepEqual(rep, coldReps[i]) {
				t.Fatalf("cycle %d, %s: forked differs from cold:\nforked: %+v %+v\ncold:   %+v %+v",
					cycle, sc.Key(), res, rep, cold[i], coldReps[i])
			}
		}
	}
}

// TestPBFTParkAllocFree is the PBFT twin of TestRaftRestoreAllocFree:
// once the slabs, the engine's lane buffers and the latency tail reach
// steady state, a measurement-window/park cycle allocates nothing. The
// window's requests, votes and replies come from slabs the park rewinds,
// and the chunks past each mark cycle through the free lists.
func TestPBFTParkAllocFree(t *testing.T) {
	w := DefaultWorkload()
	d := newDeployment(w, 10, 1)
	d.eng.RunFor(w.Warmup)
	d.Fork() // capture
	cycle := func() {
		d.eng.RunFor(100 * time.Millisecond)
		d.Fork() // park
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs > 0 {
		t.Fatalf("run+park cycle allocates %.1f objects per test; want 0", allocs)
	}
}
