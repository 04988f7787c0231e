// Package benchcmp owns the benchmark-baseline schema shared by
// cmd/inframe-bench (which writes BENCH_*.json seed points) and
// cmd/inframe-benchdiff (which gates changes against them): the baseline
// type, its JSON round-trip, fresh measurement of the pipeline stages, and
// the tolerance comparison that turns two baselines into a verdict.
package benchcmp

import (
	"encoding/json"
	"fmt"
	"os"
)

// Schema identifies the baseline file format. Readers reject anything else
// so a stale or foreign JSON file fails loudly instead of comparing apples
// to nonsense. v2 added allocs_per_op and bytes_per_op so the gate catches
// allocation regressions (a pooled pipeline that starts allocating frames
// again) even when ns/op happens to stay inside tolerance.
const Schema = "inframe-bench-baseline/v2"

// Baseline is one measured seed point: the environment it was taken in and
// the ns/op and allocs/op of each pipeline stage benchmark.
//
// Link names the timed pipeline's channel configuration (see the Link
// constant); empty in baselines recorded before it was named.
//
// CalibNsPerOp is the ns/op of the fixed calibration kernel (Calibrate)
// measured alongside the benchmarks. Shared containers drift between speed
// states minutes apart (CPU steal, frequency scaling), so two runs of
// identical code can differ by ±20% in raw ns; the calibration reference
// captures the machine's speed at measurement time, letting Compare gate on
// speed-normalized ratios instead. Optional: baselines written before the
// field existed compare raw, as before.
type Baseline struct {
	Schema       string  `json:"schema"`
	GoVersion    string  `json:"go_version"`
	GoOS         string  `json:"goos"`
	GoArch       string  `json:"goarch"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	Scale        int     `json:"scale"`
	Link         string  `json:"link,omitempty"`
	CalibNsPerOp int64   `json:"calib_ns_per_op,omitempty"`
	Benchmarks   []Entry `json:"benchmarks"`
}

// Entry is one benchmark result.
type Entry struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// Load reads and validates a baseline file.
func Load(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchcmp: parsing %s: %w", path, err)
	}
	if b.Schema != Schema {
		return nil, fmt.Errorf("benchcmp: %s has schema %q, want %q", path, b.Schema, Schema)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchcmp: %s contains no benchmarks", path)
	}
	return &b, nil
}

// Write marshals the baseline to path with a trailing newline.
func (b *Baseline) Write(path string) error {
	if b.Schema != Schema {
		return fmt.Errorf("benchcmp: refusing to write schema %q", b.Schema)
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
