// Command campaignbench runs one repetition of a campaign benchmark
// workload and prints what it measured as one JSON line. It drives the
// campaign through the entry points cmd/avd and cmd/avdd use —
// campaign.Build, core.NewEngine (with core.OpenDurable/core.WithDurable
// for durable workloads) and supervise.New(...).Run — and times each
// layer from outside, by wrapping the calls into it.
//
// run.py in this directory builds it, repeats it for the run's measuring
// time, checks every campaign's fingerprint and prints the benchmark's
// metrics; see README.md.
//
//	campaignbench -workload pbft-fig2 -seed 1 -state DIR [-trace]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"avd/internal/core"
)

// throwawaySetups is how many set-ups each campaign process times before
// the measured one: set-up takes microseconds, so one sample per process
// would mostly measure the noise of a fresh process.
const throwawaySetups = 63

// repResult is one repetition's report, printed as the last line of
// standard output.
type repResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Tests    int    `json:"tests"`
	// Degraded counts results the campaign recorded as errored or hung:
	// findings about the system under test, not failures of the run.
	Degraded    int       `json:"degraded"`
	WallS       float64   `json:"wall_s"`
	SetupS      []float64 `json:"setup_s"`
	Fingerprint string    `json:"fingerprint"`
	// Layers holds the per-layer metrics of a traced repetition.
	Layers map[string]float64 `json:"layers,omitempty"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (see workloads.go)")
		seed     = flag.Int64("seed", 1, "campaign seed")
		stateDir = flag.String("state", "", "empty directory for this repetition's durable state and spans (required)")
		worker   = flag.String("worker", "", "cmd/avd binary the sharded workload supervises in untraced runs")
		traced   = flag.Bool("trace", false, "wrap the layer boundaries in timing spans and report per-layer metrics")
		shard    = flag.String("shard", "", "run as shard k/K of the sharded workload (the traced supervisor launches these)")
	)
	flag.Parse()
	w, err := lookup(*name)
	if err != nil {
		fatal(err)
	}
	if *stateDir == "" {
		fatal(errors.New("campaignbench: -state is required"))
	}
	if *shard != "" {
		if err := runShardWorker(w, *seed, *stateDir, *shard); err != nil {
			fatal(err)
		}
		return
	}
	var res repResult
	if w.Shards > 1 {
		res, err = runSharded(w, *seed, *stateDir, *worker, *traced)
	} else {
		res, err = runInProcess(w, *seed, *stateDir, *traced)
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// fingerprint is core.FingerprintResults over the results with each
// Error cut to its first line. A panicked test's error ends in the
// goroutine's stack, whose frames and offsets change with every build
// and with the timing wrappers; the first line still names the scenario
// and the panic.
func fingerprint(results []core.Result) (string, error) {
	norm := append([]core.Result(nil), results...)
	for i := range norm {
		if j := strings.IndexByte(norm[i].Error, '\n'); j >= 0 {
			norm[i].Error = norm[i].Error[:j]
		}
	}
	return core.FingerprintResults(norm)
}

// degraded counts errored or hung results.
func degraded(results []core.Result) int {
	n := 0
	for _, r := range results {
		if r.Errored() {
			n++
		}
	}
	return n
}
