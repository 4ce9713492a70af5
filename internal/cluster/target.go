package cluster

import (
	"fmt"

	"avd/internal/core"
	"avd/internal/plugin"
)

// Target is the PBFT system under test: the shared core.Harness over PBFT
// deployments, so it executes scenarios cold or forked, caches
// attack-free baselines per correct-client count, and declares the
// fault-injection hooks an Engine explores by default (the paper's
// MAC-corruption and deployment-shape tools). Target is safe for
// concurrent use.
type Target struct {
	*core.Harness[masterKey, *deployment, Report]
	w Workload
}

var (
	_ core.Target            = (*Target)(nil)
	_ core.WorkerSnapshotter = (*Target)(nil)
)

// NewTarget builds the PBFT system under test for a workload. With no
// explicit plugins it exposes the paper's PBFT hyperspace — the 12-bit
// Gray-coded MAC-corruption mask composed with the client-population
// dimensions; pass plugins to widen or narrow the attack surface (e.g.
// adding Reorder or SlowPrimary).
func NewTarget(w Workload, plugins ...core.Plugin) (*Target, error) {
	if err := w.PBFT.Validate(); err != nil {
		return nil, err
	}
	if w.MaskBits == 0 || w.MaskBits > 32 {
		return nil, fmt.Errorf("cluster: mask bits %d out of range [1,32]", w.MaskBits)
	}
	if len(plugins) == 0 {
		plugins = []core.Plugin{plugin.NewMACCorrupt(), plugin.NewClients()}
	}
	h, err := core.NewHarness[masterKey, *deployment, Report](core.HarnessSpec[masterKey, *deployment]{
		Name:          "pbft",
		Config:        w,
		Plugins:       plugins,
		PopulationDim: plugin.DimCorrectClients,
		Key:           keyOf,
		Build: func(k masterKey) *deployment {
			d := newDeployment(w, k.correct, k.malicious)
			d.eng.RunFor(w.Warmup)
			return d
		},
		Measure:             w.Measure,
		BaselineMeasure:     w.BaselineMeasure,
		LatencyRef:          w.LatencyRef,
		ReferenceThroughput: w.ReferenceThroughput,
	})
	if err != nil {
		return nil, err
	}
	return &Target{Harness: h, w: w}, nil
}

// Workload returns the target's workload.
func (t *Target) Workload() Workload { return t.w }
