package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"

	"avd/internal/campaign"
	"avd/internal/core"
	"avd/internal/supervise"
)

// fleet is the supervisor's side of one sharded campaign: the Command
// hook and Log writer handed to supervise record when each worker was
// launched and when the supervisor saw it finish.
type fleet struct {
	mu       sync.Mutex
	launched map[int]time.Time
	done     map[int]time.Time
	cmds     map[int]*exec.Cmd
	first    time.Time // first launch: set-up ends here
}

func newFleet() *fleet {
	return &fleet{launched: map[int]time.Time{}, done: map[int]time.Time{}, cmds: map[int]*exec.Cmd{}}
}

// command wraps a supervise Command hook.
func (f *fleet) command(build func(k int) *exec.Cmd) func(int) *exec.Cmd {
	return func(k int) *exec.Cmd {
		now := time.Now()
		cmd := build(k)
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.first.IsZero() {
			f.first = now
		}
		f.launched[k], f.cmds[k] = now, cmd
		return cmd
	}
}

// Write receives the supervisor's log and passes it on to standard
// error. supervise logs "shard K done" right after the worker's exit is
// reaped, which ends the shard's span.
func (f *fleet) Write(p []byte) (int, error) {
	now := time.Now()
	os.Stderr.Write(p)
	var k, starts int
	if n, _ := fmt.Sscanf(string(p), "avdd: shard %d done (%d starts)", &k, &starts); n == 2 {
		f.mu.Lock()
		f.done[k] = now
		f.mu.Unlock()
	}
	return len(p), nil
}

// supervisor builds the Supervisor cmd/avdd would for the workload,
// launching bin with cmd/avdd's worker arguments. A traced campaign
// launches this binary as a shard worker instead.
func supervisor(w workload, cfg campaign.Config, stateDir, bin string, traced bool, f *fleet) (*supervise.Supervisor, error) {
	return supervise.New(supervise.Config{
		Shards: w.Shards,
		Command: f.command(func(k int) *exec.Cmd {
			shard := fmt.Sprintf("%d/%d", k, w.Shards)
			var cmd *exec.Cmd
			if traced {
				cmd = exec.Command(bin, "-workload", w.Name, "-seed", strconv.FormatInt(cfg.Seed, 10),
					"-state", stateDir, "-shard", shard)
			} else {
				// -quiet silences per-test lines.
				cmd = exec.Command(bin,
					"-target", cfg.Target,
					"-strategy", cfg.Strategy,
					"-tests", strconv.Itoa(cfg.Tests),
					"-seed", strconv.FormatInt(cfg.Seed, 10),
					"-measure", cfg.Measure.String(),
					"-stepbudget", strconv.FormatUint(cfg.StepBudget, 10),
					"-workers", strconv.Itoa(cfg.Workers),
					"-state", stateDir,
					"-quiet",
					"-shard", shard)
			}
			// Standard output stays discarded: this process's own
			// standard output carries its report.
			cmd.Stderr = os.Stderr
			return cmd
		}),
		Heartbeat:  func(k int) string { return campaign.PathsFor(stateDir, k, w.Shards).Heartbeat },
		HungAfter:  2 * time.Minute,
		Retries:    5,
		BackoffMin: 250 * time.Millisecond,
		BackoffMax: 10 * time.Second,
		Log:        f,
	})
}

// runSharded runs one repetition of the sharded workload: plan, launch
// and supervise the shard workers, then read, merge and fingerprint
// their checkpoints, as cmd/avdd does.
func runSharded(w workload, seed int64, dir, workerBin string, traced bool) (repResult, error) {
	cfg := w.Config
	cfg.Seed, cfg.Shards = seed, w.Shards
	bin := workerBin
	if traced {
		self, err := os.Executable()
		if err != nil {
			return repResult{}, err
		}
		bin = self
	}
	if bin == "" {
		return repResult{}, fmt.Errorf("campaignbench: %s needs -worker", w.Name)
	}
	var setupS []float64
	for i := 0; i < throwawaySetups; i++ {
		start := time.Now()
		if _, err := campaign.Build(cfg); err != nil {
			return repResult{}, err
		}
		if _, err := supervisor(w, cfg, dir, bin, traced, newFleet()); err != nil {
			return repResult{}, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	stateDir := filepath.Join(dir, "state")
	f := newFleet()
	rec := newRecorder("campaign")
	start := time.Now()
	setup, err := campaign.Build(cfg)
	if err != nil {
		return repResult{}, err
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return repResult{}, err
	}
	sup, err := supervisor(w, cfg, stateDir, bin, traced, f)
	if err != nil {
		return repResult{}, err
	}
	rec.begin()
	reports, err := sup.Run(context.Background())
	if err != nil {
		return repResult{}, err
	}
	setupS = append(setupS, f.first.Sub(start).Seconds())

	var recoverNS int64
	perShard := make([][]core.Result, w.Shards)
	for k := range perShard {
		sub, err := setup.Plan.Subspace(setup.FullSpace, k)
		if err != nil {
			return repResult{}, err
		}
		t := time.Now()
		if perShard[k], _, err = core.ReadDurableResults(campaign.PathsFor(stateDir, k, w.Shards).Checkpoint, sub); err != nil {
			return repResult{}, fmt.Errorf("shard %d: %w", k, err)
		}
		rec.child("durable.recover", k, t)
		recoverNS += time.Since(t).Nanoseconds()
	}
	t := time.Now()
	merged, err := core.MergeShards(setup.FullSpace, setup.Plan, perShard)
	if err != nil {
		return repResult{}, err
	}
	rec.child("merge", -1, t)
	mergeNS := time.Since(t).Nanoseconds()
	fp, err := fingerprint(merged)
	if err != nil {
		return repResult{}, err
	}
	rec.end()
	wall := time.Since(time.Unix(0, rec.snapshot()[0].Start))

	res := repResult{
		Workload:    w.Name,
		Seed:        seed,
		Tests:       len(merged),
		Degraded:    degraded(merged),
		WallS:       wall.Seconds(),
		SetupS:      setupS,
		Fingerprint: fp,
	}
	if !traced {
		return res, nil
	}

	tail := tailStats{WallS: wall.Seconds(), RecoverNS: recoverNS, MergeNS: mergeNS}
	var stats procStats
	spans := rec.snapshot()
	for _, r := range reports {
		k := r.Shard
		tail.Starts += r.Starts
		tail.ShardWallS = append(tail.ShardWallS, f.done[k].Sub(f.launched[k]).Seconds())
		if ru, ok := f.cmds[k].ProcessState.SysUsage().(*syscall.Rusage); ok {
			tail.ShardCPUS += time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		}
		data, err := os.ReadFile(shardReportPath(stateDir, k, w.Shards))
		if err != nil {
			return repResult{}, err
		}
		var sr shardReport
		if err := json.Unmarshal(data, &sr); err != nil {
			return repResult{}, fmt.Errorf("shard %d report: %w", k, err)
		}
		stats.add(sr.Stats)
		spans = append(spans, span{Name: "supervise.shard", Start: f.launched[k].UnixNano(), End: f.done[k].UnixNano(), Parent: 0, Test: k})
		spans = graft(spans, sr.Spans, len(spans)-1)
	}
	tail.Coverage = float64(covered(spans, 0)) / float64(spans[0].dur())
	runtime.GC()
	debug.FreeOSMemory()
	if res.Layers, err = traceLayers(cfg, merged, fp, stats, tail); err != nil {
		return repResult{}, err
	}
	return res, writeSpans(filepath.Join(dir, "spans.jsonl"), spans)
}

// graft appends another process's spans under parent, renumbering their
// parent indices.
func graft(spans, sub []span, parent int) []span {
	base := len(spans)
	for _, s := range sub {
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		spans = append(spans, s)
	}
	return spans
}
