package experiments

import (
	"fmt"
	"io"
	"sort"

	"inframe/internal/fleet"
)

// fleetPoolCap bounds the shared frame pool's per-size free lists during a
// fleet run: the population samples several capture geometries, each with
// its own free list, which a cap of four keeps to at most four frames per
// W×H (see fleet.Config.PoolCap).
const fleetPoolCap = 4

// Fleet runs the broadcast-fleet experiment: the standard scaled link
// rendered once, decoded by an n-receiver population drawn from
// fleet.DefaultPopulation around the setup's capture geometry. The
// transmission lasts ThroughputSeconds; the worker budget is the setup's
// Workers value, threaded through the nested fan-out so total concurrency
// stays inside one resolved pool.
func Fleet(s Setup, n int) (*fleet.Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("experiments: fleet size must be positive, got %d", n)
	}
	l, err := s.layout()
	if err != nil {
		return nil, err
	}
	capW, capH := s.CaptureSize()
	cfg := fleet.DefaultConfig(l, capW, capH, n, s.Seed)
	cfg.Seconds = s.ThroughputSeconds
	cfg.Workers = s.Workers
	cfg.PoolCap = fleetPoolCap
	return fleet.Run(cfg)
}

// WriteFleet prints the fleet-distribution table: availability, confident-bit
// BER and time-to-first-decode across the population (exact p50/p95/p99 order
// statistics), the cohort breakdown by impairment profile, and the shared
// pool's accounting.
func WriteFleet(w io.Writer, res *fleet.Result) {
	fmt.Fprintf(w, "receivers=%d  data-frames=%d  display-frames=%d  never-decoded=%d\n",
		res.N, res.DataFrames, res.DisplayFrames, res.NeverDecoded)
	fmt.Fprintf(w, "%-12s %8s %8s %8s %8s\n", "metric", "mean", "p50", "p95", "p99")
	row := func(name string, d fleet.Dist) {
		fmt.Fprintf(w, "%-12s %8.4f %8.4f %8.4f %8.4f\n", name, d.Mean, d.P50, d.P95, d.P99)
	}
	row("avail", res.Avail)
	row("ber", res.BER)
	row("ttfd(s)", res.TTFD)

	// Cohorts: count and mean availability per impairment profile, in
	// sorted-name order (map iteration only collects keys; the ordered
	// output comes from the sort).
	counts := make(map[string]int)
	avail := make(map[string]float64)
	for _, rr := range res.Receivers {
		counts[rr.Profile]++
		avail[rr.Profile] += rr.Avail
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-32s %4s %10s\n", "cohort", "n", "mean-avail")
	for _, name := range names {
		fmt.Fprintf(w, "%-32s %4d %10.4f\n", name, counts[name], avail[name]/float64(counts[name]))
	}

	fmt.Fprintf(w, "%s\n", res.Degrade.String())
	fmt.Fprintf(w, "pool: gets=%d hits=%d misses=%d evicted=%d high-water=%d frames (%d px)\n",
		res.Pool.Gets, res.Pool.Hits, res.Pool.Misses, res.Pool.Evicted,
		res.PoolHighWater.Frames, res.PoolHighWater.Pixels)
	fmt.Fprintf(w, "render: blocks=%d skipped=%d (skip-rate %.3f) headroom-skipped=%d/%d video-skipped=%d/%d\n",
		res.Render.Blocks, res.Render.BlocksSkipped, res.Render.SkipRate(),
		res.Render.HeadroomSkipped, res.Render.HeadroomBlocks+res.Render.HeadroomSkipped,
		res.Render.VideoSkipped, res.Render.VideoRefreshes+res.Render.VideoSkipped)
	if res.NeverDecoded > 0 {
		fmt.Fprintf(w, "note: ttfd covers the %d receivers that decoded\n", res.N-res.NeverDecoded)
	}
}
