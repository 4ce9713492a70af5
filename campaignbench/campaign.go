package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"avd/internal/campaign"
	"avd/internal/core"
)

// prepared is a campaign ready to dispatch its first test.
type prepared struct {
	setup   *campaign.Setup
	engine  *core.Engine
	durable *core.DurableCheckpoint // nil for in-memory campaigns
}

// prepare assembles a campaign exactly as cmd/avd does: Build, then for
// a durable campaign (stateDir != "") the manifest, the durable
// checkpoint and the per-test heartbeat, then NewEngine. With a recorder
// the target, the explorer and the journal sink are wrapped in timing
// spans.
func prepare(cfg campaign.Config, stateDir string, rec *recorder) (*prepared, error) {
	setup, err := campaign.Build(cfg)
	if err != nil {
		return nil, err
	}
	target, explorer := setup.Target, setup.Explorer
	if rec != nil {
		if target, err = wrapTarget(target, rec); err != nil {
			return nil, err
		}
		explorer = &timedExplorer{inner: explorer, rec: rec}
	}
	opts := []core.EngineOption{
		core.WithExplorer(explorer),
		core.WithBudget(cfg.Tests),
		core.WithWorkers(cfg.Workers),
	}
	p := &prepared{setup: setup}
	if stateDir != "" {
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return nil, err
		}
		paths := campaign.PathsFor(stateDir, cfg.Shard, cfg.Shards)
		saved, err := core.LoadManifest(paths.Manifest)
		switch {
		case err == nil:
			if err := setup.Manifest.Validate(saved); err != nil {
				return nil, err
			}
		case errors.Is(err, os.ErrNotExist):
			if err := core.WriteManifest(paths.Manifest, setup.Manifest); err != nil {
				return nil, err
			}
		default:
			return nil, err
		}
		d, info, err := core.OpenDurable(paths.Checkpoint, setup.Space)
		if err != nil {
			return nil, err
		}
		if info.Resumed() > 0 {
			d.Close()
			return nil, fmt.Errorf("campaignbench: %s is not fresh: %s", stateDir, info)
		}
		p.durable = d
		opts = append(opts, core.WithDurable(d))
		if rec != nil {
			opts = append(opts, core.WithCheckpointSink(timedSink(rec, d.Append)))
		}
		opts = append(opts, core.WithObserver(func(i int, _ core.Result) {
			// Best effort, as in cmd/avd: the supervisor only watches the mtime.
			_ = os.WriteFile(paths.Heartbeat, []byte(fmt.Sprintf("%d\n", i)), 0o644)
		}))
	}
	if p.engine, err = core.NewEngine(target, opts...); err != nil {
		if p.durable != nil {
			p.durable.Close()
		}
		return nil, err
	}
	return p, nil
}

// timeSetups times n throwaway set-ups, each in its own state directory
// when durable, and removes what they leave.
func timeSetups(cfg campaign.Config, durable bool, dir string, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		stateDir := ""
		if durable {
			stateDir = filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		}
		start := time.Now()
		p, err := prepare(cfg, stateDir, nil)
		out = append(out, time.Since(start).Seconds())
		if err != nil {
			return nil, err
		}
		if p.durable != nil {
			if err := p.durable.Close(); err != nil {
				return nil, err
			}
		}
		if stateDir != "" {
			if err := os.RemoveAll(stateDir); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// procStats is what one campaign process measured of its own layers.
// The sharded workload adds up its shard processes' stats.
type procStats struct {
	Tests        int                 `json:"tests"`
	WallNS       int64               `json:"wall_ns"`
	SlotNS       int64               `json:"slot_ns"` // workers × wall: the time target calls could fill
	CoveredNS    int64               `json:"covered_ns"`
	RunNS        []int64             `json:"run_ns"`
	WarmNS       []int64             `json:"warm_ns"`
	NextNS       []int64             `json:"next_ns"`
	RecordNS     []int64             `json:"record_ns"`
	AppendNS     []int64             `json:"append_ns"`
	JournalBytes int64               `json:"journal_bytes"`
	Phases       core.PhaseBreakdown `json:"phases"`
	Mallocs      uint64              `json:"mallocs"`
	AllocBytes   uint64              `json:"alloc_bytes"`
	HeapSys      uint64              `json:"heap_sys"`
}

func (s *procStats) add(o procStats) {
	s.Tests += o.Tests
	s.WallNS += o.WallNS
	s.SlotNS += o.SlotNS
	s.CoveredNS += o.CoveredNS
	s.RunNS = append(s.RunNS, o.RunNS...)
	s.WarmNS = append(s.WarmNS, o.WarmNS...)
	s.NextNS = append(s.NextNS, o.NextNS...)
	s.RecordNS = append(s.RecordNS, o.RecordNS...)
	s.AppendNS = append(s.AppendNS, o.AppendNS...)
	s.JournalBytes += o.JournalBytes
	s.Phases.WarmupSeconds += o.Phases.WarmupSeconds
	s.Phases.BaselineSeconds += o.Phases.BaselineSeconds
	s.Phases.ForkSeconds += o.Phases.ForkSeconds
	s.Phases.RunSeconds += o.Phases.RunSeconds
	s.Phases.AnalyzeSeconds += o.Phases.AnalyzeSeconds
	s.Mallocs += o.Mallocs
	s.AllocBytes += o.AllocBytes
	s.HeapSys = max(s.HeapSys, o.HeapSys)
}

// phaser is the harnesses' public phase breakdown.
type phaser interface{ Phases() core.PhaseBreakdown }

// measured is one executed campaign.
type measured struct {
	results []core.Result
	wall    time.Duration
	stats   procStats // filled when traced
}

// execute runs a prepared campaign to completion. With a recorder it
// also collects the process's layer stats, including the journal's size
// before Close folds it into the snapshot.
func execute(p *prepared, cfg campaign.Config, rec *recorder) (*measured, error) {
	var before runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&before)
		rec.begin()
	}
	start := time.Now()
	results, err := p.engine.RunAll(context.Background())
	wall := time.Since(start)
	if rec != nil {
		rec.end()
	}
	if err != nil {
		if p.durable != nil {
			p.durable.Close()
		}
		return nil, err
	}
	m := &measured{results: results, wall: wall}
	if rec != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		spans := rec.snapshot()
		m.stats = procStats{
			Tests:      len(results),
			WallNS:     spans[0].dur(),
			SlotNS:     int64(cfg.Workers) * spans[0].dur(),
			CoveredNS:  covered(spans, 0),
			RunNS:      durations(spans, "target.run"),
			WarmNS:     durations(spans, "target.warm"),
			NextNS:     durations(spans, "explorer.next"),
			RecordNS:   durations(spans, "explorer.record"),
			AppendNS:   durations(spans, "durable.append"),
			Phases:     p.setup.Target.(phaser).Phases(),
			Mallocs:    after.Mallocs - before.Mallocs,
			AllocBytes: after.TotalAlloc - before.TotalAlloc,
			HeapSys:    after.HeapSys,
		}
		if p.durable != nil {
			st, err := os.Stat(p.durable.Path() + ".journal")
			if err != nil {
				p.durable.Close()
				return nil, err
			}
			m.stats.JournalBytes = st.Size()
		}
	}
	if p.durable != nil {
		if err := p.durable.Close(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// runInProcess runs one repetition of an unsharded workload.
func runInProcess(w workload, seed int64, dir string, traced bool) (repResult, error) {
	cfg := w.Config
	cfg.Seed = seed
	setupS, err := timeSetups(cfg, w.Durable, dir, throwawaySetups)
	if err != nil {
		return repResult{}, err
	}
	var rec *recorder
	if traced {
		rec = newRecorder("campaign")
	}
	stateDir := ""
	if w.Durable {
		stateDir = filepath.Join(dir, "state")
	}
	start := time.Now()
	p, err := prepare(cfg, stateDir, rec)
	if err != nil {
		return repResult{}, err
	}
	setupS = append(setupS, time.Since(start).Seconds())
	m, err := execute(p, cfg, rec)
	if err != nil {
		return repResult{}, err
	}
	fp, err := fingerprint(m.results)
	if err != nil {
		return repResult{}, err
	}
	res := repResult{
		Workload:    w.Name,
		Seed:        seed,
		Tests:       len(m.results),
		Degraded:    degraded(m.results),
		WallS:       m.wall.Seconds(),
		SetupS:      setupS,
		Fingerprint: fp,
	}
	if !traced {
		return res, nil
	}

	var tail tailStats
	if p.durable != nil {
		start := time.Now()
		recovered, _, err := core.ReadDurableResults(p.durable.Path(), p.setup.Space)
		tail.RecoverNS = time.Since(start).Nanoseconds()
		if err != nil {
			return repResult{}, err
		}
		if err := sameFingerprint("durable recovery", recovered, fp); err != nil {
			return repResult{}, err
		}
	}
	results, stats := m.results, m.stats
	tail.WallS = m.wall.Seconds()
	tail.Coverage = float64(stats.CoveredNS) / float64(stats.WallNS)
	// Free the campaign's masters before the replay builds its own: the
	// Raft workload's heap would otherwise double.
	p = nil
	runtime.GC()
	debug.FreeOSMemory()
	if res.Layers, err = traceLayers(cfg, results, fp, stats, tail); err != nil {
		return repResult{}, err
	}
	return res, writeSpans(filepath.Join(dir, "spans.jsonl"), rec.snapshot())
}

// sameFingerprint checks that results reproduce a campaign's
// fingerprint.
func sameFingerprint(what string, results []core.Result, want string) error {
	got, err := fingerprint(results)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("campaignbench: %s fingerprint %s, campaign %s", what, got, want)
	}
	return nil
}

// shardReport is what a traced shard worker leaves for its supervisor.
type shardReport struct {
	Stats procStats `json:"stats"`
	Spans []span    `json:"spans"`
}

func shardReportPath(stateDir string, k, shards int) string {
	return campaign.PathsFor(stateDir, k, shards).Checkpoint + ".trace.json"
}

// runShardWorker is cmd/avd -shard k/K -state DIR with the layer
// boundaries wrapped in timing spans: the traced sharded run supervises
// it in place of cmd/avd, and its merged fingerprint must equal the
// untraced run's.
func runShardWorker(w workload, seed int64, stateDir, spec string) error {
	shard, shards, err := campaign.ParseShard(spec)
	if err != nil {
		return err
	}
	cfg := w.Config
	cfg.Seed, cfg.Shard, cfg.Shards = seed, shard, shards
	rec := newRecorder("shard.campaign")
	p, err := prepare(cfg, stateDir, rec)
	if err != nil {
		return err
	}
	m, err := execute(p, cfg, rec)
	if err != nil {
		return err
	}
	out, err := json.Marshal(shardReport{Stats: m.stats, Spans: rec.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(shardReportPath(stateDir, shard, shards), out, 0o644)
}
