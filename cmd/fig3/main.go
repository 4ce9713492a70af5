// Command fig3 regenerates Figure 3 of the paper: an exhaustively
// explored subset of the PBFT MAC-corruption hyperspace, plotted as a
// heat map with x = the MAC corruption bitmask coordinate (in Gray code)
// and y = the number of correct clients. Dark points are scenarios where
// PBFT's throughput drops below 500 requests/second, exposing the
// vertical-line structure that makes the space suitable for
// hill-climbing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"avd/internal/cluster"
	"avd/internal/core"
	"avd/internal/plugin"
	"avd/internal/scenario"
	"avd/internal/trace"
)

func main() {
	var (
		maskMin   = flag.Int64("maskmin", 0, "sweep mask coordinates starting here")
		maskMax   = flag.Int64("maskmax", 1024, "sweep mask coordinates [maskmin, maskmax); the default window matches the paper's Figure 3 x-axis")
		maskStep  = flag.Int64("maskstep", 1, "coordinate stride (1 = full resolution, as in the paper)")
		clientsCS = flag.String("clients", "20,40,60,80,100", "comma-separated correct-client counts (the y axis)")
		workers   = flag.Int("workers", runtime.NumCPU(), "parallel test workers")
		measure   = flag.Duration("measure", 1500*time.Millisecond, "virtual measurement window per test")
		dark      = flag.Float64("dark", 500, "dark-point throughput threshold (req/s)")
		csvPath   = flag.String("csv", "", "write raw cells to this CSV file")
		cols      = flag.Int("cols", 128, "heat map width in character columns")
	)
	flag.Parse()

	clientCounts, err := parseInts(*clientsCS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig3:", err)
		os.Exit(1)
	}
	w := cluster.DefaultWorkload()
	w.Measure = *measure
	target, err := cluster.NewTarget(w, plugin.NewMACCorrupt(), plugin.NewClients())
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig3:", err)
		os.Exit(1)
	}
	space, err := core.Space(target.Plugins()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig3:", err)
		os.Exit(1)
	}

	var scs []scenario.Scenario
	coords := 0
	for coord := *maskMin; coord < *maskMax; coord += *maskStep {
		coords++
		for _, cc := range clientCounts {
			scs = append(scs, space.New(map[string]int64{
				plugin.DimMACMask:          coord,
				plugin.DimCorrectClients:   cc,
				plugin.DimMaliciousClients: 1,
			}))
		}
	}
	fmt.Printf("exhaustively exploring %d scenarios (%d mask coords x %d client counts) on %d workers\n",
		len(scs), coords, len(clientCounts), *workers)
	start := time.Now()
	eng, err := core.NewEngine(target, core.WithExplorer(core.NewExhaustiveExplorerOf(scs)),
		core.WithBudget(len(scs)), core.WithWorkers(*workers))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig3:", err)
		os.Exit(1)
	}
	results, err := eng.RunAll(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig3:", err)
		os.Exit(1)
	}
	fmt.Printf("swept in %v (wall)\n\n", time.Since(start).Round(time.Second))

	cells := make([]trace.HeatCell, len(results))
	for i, res := range results {
		cells[i] = trace.HeatCell{
			X:      res.Scenario.GetOr(plugin.DimMACMask, 0),
			Y:      res.Scenario.GetOr(plugin.DimCorrectClients, 0),
			Result: res,
		}
	}
	hm := trace.NewHeatMap(cells)
	fmt.Printf("Figure 3: PBFT MAC fault-injection subspace (y = correct clients, x = Gray-coded mask)\n")
	hm.Render(os.Stdout, *dark, *cols)
	total := len(results)
	darkN := hm.DarkCount(*dark)
	fmt.Printf("\ndark points: %d / %d (%.1f%%)\n", darkN, total, 100*float64(darkN)/float64(total))
	darkCols := hm.DarkColumns(*dark, 0.99)
	fmt.Printf("fully-dark columns (vertical lines): %d\n", len(darkCols))
	if len(darkCols) > 0 {
		fmt.Printf("  at coordinates: %s\n", summarizeRuns(darkCols, *maskStep))
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig3:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.WriteHeatCSV(f, cells); err != nil {
			fmt.Fprintln(os.Stderr, "fig3:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
}

func parseInts(cs string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(cs, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad client count %q: %v", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no client counts given")
	}
	return out, nil
}

// summarizeRuns renders sorted coordinates as compact ranges.
func summarizeRuns(coords []int64, step int64) string {
	var parts []string
	for i := 0; i < len(coords); {
		j := i
		for j+1 < len(coords) && coords[j+1] == coords[j]+step {
			j++
		}
		if i == j {
			parts = append(parts, strconv.FormatInt(coords[i], 10))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", coords[i], coords[j]))
		}
		i = j + 1
	}
	return strings.Join(parts, ", ")
}
