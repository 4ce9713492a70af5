package main

import (
	"fmt"
	"time"

	"avd/internal/campaign"
)

// workload is one CLI configuration the benchmark drives. Why each one
// exists, and which layers it exercises, is recorded in README.md.
type workload struct {
	Name    string
	Config  campaign.Config // Seed, Shard and Shards are set per run
	Durable bool            // journal every batch to a state directory (-state)
	Shards  int             // > 1: supervise that many worker processes (avdd -shards)
}

// cli returns the cmd/avd flag defaults for a target.
func cli(target string) campaign.Config {
	return campaign.Config{
		Target:     target,
		Strategy:   "avd",
		Tests:      125,
		Measure:    1500 * time.Millisecond,
		StepBudget: 2_000_000,
		Workers:    1,
	}
}

var workloads = func() []workload {
	w2 := cli("pbft")
	w2.Workers = 2

	raft := cli("raft")
	raft.Faults = "crash,skew,oneway,corrupt,dup"
	raft.StepBudget = 300_000
	raft.Tests = 10

	// avdd's -tests is a per-shard budget: two shards of 63 make the
	// Figure-2 campaign size.
	sharded := cli("pbft")
	sharded.Tests = 63

	return []workload{
		{Name: "pbft-fig2", Config: cli("pbft")},
		{Name: "pbft-fig2-w2-durable", Config: w2, Durable: true},
		{Name: "raft-linkfaults", Config: raft},
		{Name: "pbft-sharded", Config: sharded, Durable: true, Shards: 2},
	}
}()

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("campaignbench: unknown workload %q", name)
}
