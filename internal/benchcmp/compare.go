package benchcmp

import (
	"fmt"
	"io"
)

// Status classifies one benchmark's movement between two baselines.
type Status string

const (
	// StatusOK: within tolerance of the baseline.
	StatusOK Status = "ok"
	// StatusRegression: slower than baseline by more than the tolerance.
	StatusRegression Status = "regression"
	// StatusImproved: faster than baseline by more than the tolerance.
	StatusImproved Status = "improved"
	// StatusMissing: present in the baseline, absent from the current run
	// (a warning, not a failure — worker-count entries vary with the
	// machine's core count).
	StatusMissing Status = "missing"
	// StatusNew: absent from the baseline, present in the current run.
	StatusNew Status = "new"
)

// allocSlack is the absolute allocs/op headroom granted on top of the
// fractional tolerance: counting semantics (one-time lazy init amortized
// across few iterations, testing harness bookkeeping) wobble by an
// allocation or two, and a zero-alloc baseline would otherwise turn any
// nonzero count into a regression regardless of tolerance.
const allocSlack = 2

// Row is one benchmark's comparison.
type Row struct {
	Name       string  `json:"name"`
	BaseNs     int64   `json:"base_ns_per_op"`
	CurNs      int64   `json:"current_ns_per_op"`
	Delta      float64 `json:"delta"` // fractional ns change, (cur-base)/base
	BaseAllocs int64   `json:"base_allocs_per_op"`
	CurAllocs  int64   `json:"current_allocs_per_op"`
	Status     Status  `json:"status"`
}

// Report is the full verdict of a baseline comparison. SpeedRatio is the
// machine-speed factor current/baseline measured by the calibration kernel
// (>1 means the current run saw a slower machine); 0 when either side lacks
// calibration, in which case deltas are raw.
type Report struct {
	Tolerance  float64  `json:"tolerance"`
	SpeedRatio float64  `json:"speed_ratio,omitempty"`
	Rows       []Row    `json:"rows"`
	Warnings   []string `json:"warnings,omitempty"`
}

// Compare evaluates cur against base with the given fractional tolerance:
// a benchmark regresses when its ns/op exceeds base*(1+tol) strictly, or
// when its allocs/op exceeds both base*(1+tol) and base+allocSlack — the
// absolute slack keeps one-allocation jitter on near-zero baselines from
// tripping the gate while still catching a pooled loop that starts
// allocating frames. It counts as improved below base*(1-tol) ns/op
// without an alloc regression. When both baselines carry a calibration
// reference, each benchmark is additionally judged after dividing its
// current ns/op by the machine-speed ratio cur.Calib/base.Calib, and the
// verdict uses whichever reading is more favorable: a shared container
// drifts between speed states minutes apart, so a slowdown only fails the
// gate when it survives both the raw and the speed-normalized
// interpretation. This is strictly more lenient than the raw gate — never
// stricter — so calibration can only remove machine-drift flakes, not
// manufacture regressions. Rows follow the baseline's order,
// then any new benchmarks in the current run's order — no map iteration, so
// the report is deterministic.
func Compare(base, cur *Baseline, tol float64) *Report {
	r := &Report{Tolerance: tol}
	speed := 0.0
	if base.CalibNsPerOp > 0 && cur.CalibNsPerOp > 0 {
		speed = float64(cur.CalibNsPerOp) / float64(base.CalibNsPerOp)
		r.SpeedRatio = speed
	}
	if base.GoVersion != cur.GoVersion {
		r.Warnings = append(r.Warnings, fmt.Sprintf("go version differs: baseline %s, current %s", base.GoVersion, cur.GoVersion))
	}
	if base.GoMaxProcs != cur.GoMaxProcs {
		r.Warnings = append(r.Warnings, fmt.Sprintf("GOMAXPROCS differs: baseline %d, current %d", base.GoMaxProcs, cur.GoMaxProcs))
	}
	if base.Scale != cur.Scale {
		r.Warnings = append(r.Warnings, fmt.Sprintf("geometry scale differs: baseline 1/%d, current 1/%d — deltas are not meaningful", base.Scale, cur.Scale))
	}
	if base.Link != cur.Link {
		r.Warnings = append(r.Warnings, fmt.Sprintf("link differs: baseline %s, current %s — deltas are not meaningful", linkName(base.Link), linkName(cur.Link)))
	}
	curByName := make(map[string]Entry, len(cur.Benchmarks))
	for _, e := range cur.Benchmarks {
		curByName[e.Name] = e
	}
	inBase := make(map[string]bool, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		inBase[b.Name] = true
		c, ok := curByName[b.Name]
		if !ok {
			r.Rows = append(r.Rows, Row{Name: b.Name, BaseNs: b.NsPerOp, BaseAllocs: b.AllocsPerOp, Status: StatusMissing})
			r.Warnings = append(r.Warnings, fmt.Sprintf("benchmark %s missing from current run", b.Name))
			continue
		}
		r.Rows = append(r.Rows, compareEntry(b, c, tol, speed))
	}
	for _, c := range cur.Benchmarks {
		if !inBase[c.Name] {
			r.Rows = append(r.Rows, Row{Name: c.Name, CurNs: c.NsPerOp, CurAllocs: c.AllocsPerOp, Status: StatusNew})
		}
	}
	return r
}

// compareEntry scores one benchmark present in both baselines. speed > 0 is
// the calibration ratio; Delta and the verdict then use the more favorable
// of the raw and speed-normalized readings, while the raw ns land in the
// row's columns untouched.
func compareEntry(b, c Entry, tol, speed float64) Row {
	row := Row{
		Name:   b.Name,
		BaseNs: b.NsPerOp, CurNs: c.NsPerOp,
		BaseAllocs: b.AllocsPerOp, CurAllocs: c.AllocsPerOp,
		Status: StatusOK,
	}
	if b.NsPerOp > 0 {
		base := float64(b.NsPerOp)
		curNs := float64(c.NsPerOp)
		row.Delta = (curNs - base) / base
		if speed > 0 {
			if norm := (curNs/speed - base) / base; norm < row.Delta {
				row.Delta = norm
			}
		}
		switch {
		case row.Delta > tol:
			row.Status = StatusRegression
		case row.Delta < -tol:
			row.Status = StatusImproved
		}
	}
	// An alloc regression overrides a time verdict: the pipeline's
	// zero-frame-alloc steady state is an invariant, not a speed knob.
	if allocRegressed(b.AllocsPerOp, c.AllocsPerOp, tol) {
		row.Status = StatusRegression
	}
	return row
}

// allocRegressed applies the dual threshold: the current count must exceed
// the baseline by more than the fractional tolerance AND by more than the
// absolute slack.
func allocRegressed(base, cur int64, tol float64) bool {
	return float64(cur) > float64(base)*(1+tol) && cur-base > allocSlack
}

// Regressions counts the rows that exceeded tolerance.
func (r *Report) Regressions() int {
	n := 0
	for _, row := range r.Rows {
		if row.Status == StatusRegression {
			n++
		}
	}
	return n
}

// WriteText renders the report as an aligned table with warnings below.
func (r *Report) WriteText(w io.Writer) {
	if r.SpeedRatio > 0 {
		fmt.Fprintf(w, "calibration: current machine ran the reference kernel at %.2f× baseline ns — deltas are speed-normalized\n", r.SpeedRatio)
	}
	fmt.Fprintf(w, "%-28s %14s %14s %8s %12s %12s  %s\n",
		"benchmark", "base ns/op", "current ns/op", "delta", "base allocs", "cur allocs", "status")
	for _, row := range r.Rows {
		switch row.Status {
		case StatusMissing:
			fmt.Fprintf(w, "%-28s %14d %14s %8s %12d %12s  %s\n",
				row.Name, row.BaseNs, "-", "-", row.BaseAllocs, "-", row.Status)
		case StatusNew:
			fmt.Fprintf(w, "%-28s %14s %14d %8s %12s %12d  %s\n",
				row.Name, "-", row.CurNs, "-", "-", row.CurAllocs, row.Status)
		default:
			fmt.Fprintf(w, "%-28s %14d %14d %+7.1f%% %12d %12d  %s\n",
				row.Name, row.BaseNs, row.CurNs, row.Delta*100, row.BaseAllocs, row.CurAllocs, row.Status)
		}
	}
	for _, warn := range r.Warnings {
		fmt.Fprintf(w, "warning: %s\n", warn)
	}
}
