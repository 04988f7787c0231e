package benchcmp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mkBaseline(entries ...Entry) *Baseline {
	return &Baseline{
		Schema:     Schema,
		GoVersion:  "go1.24.0",
		GoOS:       "linux",
		GoArch:     "amd64",
		GoMaxProcs: 1,
		Scale:      2,
		Benchmarks: entries,
	}
}

// TestCompareTolerance pins the gate math: strictly above base*(1+tol) is a
// regression, the boundary itself is not, and improvements are labeled.
func TestCompareTolerance(t *testing.T) {
	base := mkBaseline(Entry{Name: "EndToEnd/workers=1", Iterations: 2, NsPerOp: 1000})
	cases := []struct {
		name   string
		curNs  int64
		tol    float64
		status Status
	}{
		{"regression at +50%", 1500, 0.15, StatusRegression},
		{"ok at +10%", 1100, 0.15, StatusOK},
		{"ok exactly at the boundary", 1150, 0.15, StatusOK},
		{"regression just past the boundary", 1151, 0.15, StatusRegression},
		{"improved at -30%", 700, 0.15, StatusImproved},
		{"ok at -10%", 900, 0.15, StatusOK},
		{"zero tolerance flags +1", 1001, 0, StatusRegression},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cur := mkBaseline(Entry{Name: "EndToEnd/workers=1", Iterations: 2, NsPerOp: c.curNs})
			r := Compare(base, cur, c.tol)
			if len(r.Rows) != 1 {
				t.Fatalf("got %d rows, want 1", len(r.Rows))
			}
			if r.Rows[0].Status != c.status {
				t.Errorf("cur=%d tol=%v: status %s, want %s", c.curNs, c.tol, r.Rows[0].Status, c.status)
			}
			wantRegs := 0
			if c.status == StatusRegression {
				wantRegs = 1
			}
			if r.Regressions() != wantRegs {
				t.Errorf("Regressions() = %d, want %d", r.Regressions(), wantRegs)
			}
		})
	}
}

// TestCompareAllocGate pins the v2 alloc gating: allocs/op regress only when
// the count exceeds both the fractional tolerance and the absolute slack,
// and an alloc regression overrides a clean (or even improved) time verdict.
func TestCompareAllocGate(t *testing.T) {
	cases := []struct {
		name                  string
		baseAllocs, curAllocs int64
		curNs                 int64
		status                Status
	}{
		{"steady zero-alloc stays ok", 0, 0, 1000, StatusOK},
		{"slack absorbs harness jitter", 0, 2, 1000, StatusOK},
		{"zero baseline catches a real leak", 0, 3, 1000, StatusRegression},
		{"within fractional tolerance", 100, 110, 1000, StatusOK},
		{"alloc jump past tolerance", 100, 120, 1000, StatusRegression},
		{"alloc regression overrides faster time", 100, 200, 500, StatusRegression},
		{"fewer allocs alone is not improved", 100, 10, 1000, StatusOK},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := mkBaseline(Entry{Name: "EndToEnd/workers=1", NsPerOp: 1000, AllocsPerOp: c.baseAllocs})
			cur := mkBaseline(Entry{Name: "EndToEnd/workers=1", NsPerOp: c.curNs, AllocsPerOp: c.curAllocs})
			r := Compare(base, cur, 0.15)
			if got := r.Rows[0].Status; got != c.status {
				t.Errorf("allocs %d->%d ns %d: status %s, want %s", c.baseAllocs, c.curAllocs, c.curNs, got, c.status)
			}
		})
	}
}

// TestCompareMissingAndNew pins that machine-shape differences (a baseline
// taken on more cores than the current machine, or vice versa) warn instead
// of failing the gate.
func TestCompareMissingAndNew(t *testing.T) {
	base := mkBaseline(
		Entry{Name: "EndToEnd/workers=1", NsPerOp: 1000},
		Entry{Name: "EndToEnd/workers=8", NsPerOp: 300},
	)
	cur := mkBaseline(
		Entry{Name: "EndToEnd/workers=1", NsPerOp: 1000},
		Entry{Name: "DecodeCaptures/workers=1", NsPerOp: 50},
	)
	r := Compare(base, cur, 0.15)
	if r.Regressions() != 0 {
		t.Fatalf("missing/new entries must not count as regressions, got %d", r.Regressions())
	}
	byName := make(map[string]Status, len(r.Rows))
	for _, row := range r.Rows {
		byName[row.Name] = row.Status
	}
	if byName["EndToEnd/workers=8"] != StatusMissing {
		t.Errorf("workers=8 status = %s, want missing", byName["EndToEnd/workers=8"])
	}
	if byName["DecodeCaptures/workers=1"] != StatusNew {
		t.Errorf("DecodeCaptures status = %s, want new", byName["DecodeCaptures/workers=1"])
	}
	var warned bool
	for _, w := range r.Warnings {
		if strings.Contains(w, "workers=8") {
			warned = true
		}
	}
	if !warned {
		t.Error("missing benchmark did not produce a warning")
	}
}

// TestCompareEnvironmentWarnings pins the environment-mismatch warnings.
func TestCompareEnvironmentWarnings(t *testing.T) {
	base := mkBaseline(Entry{Name: "EndToEnd/workers=1", NsPerOp: 1000})
	cur := mkBaseline(Entry{Name: "EndToEnd/workers=1", NsPerOp: 1000})
	cur.GoVersion = "go1.25.0"
	cur.GoMaxProcs = 8
	cur.Scale = 4
	cur.Link = Link
	r := Compare(base, cur, 0.15)
	joined := strings.Join(r.Warnings, "\n")
	for _, want := range []string{"go version", "GOMAXPROCS", "scale", "link differs: baseline unrecorded, current " + Link} {
		if !strings.Contains(joined, want) {
			t.Errorf("warnings missing %q mismatch: %q", want, joined)
		}
	}
}

// TestRoundTrip pins the schema round-trip: Write then Load restores the
// baseline exactly.
func TestRoundTrip(t *testing.T) {
	b := mkBaseline(
		Entry{Name: "EndToEnd/workers=1", Iterations: 2, NsPerOp: 775382860, AllocsPerOp: 412, BytesPerOp: 1 << 20},
		Entry{Name: "DecodeCaptures/workers=1", Iterations: 74, NsPerOp: 15323870, AllocsPerOp: 9, BytesPerOp: 2048},
	)
	b.Link = Link
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := b.Write(path); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Schema != Schema || got.GoVersion != b.GoVersion || got.Scale != b.Scale || got.Link != b.Link {
		t.Errorf("header mismatch: %+v vs %+v", got, b)
	}
	if len(got.Benchmarks) != len(b.Benchmarks) {
		t.Fatalf("got %d benchmarks, want %d", len(got.Benchmarks), len(b.Benchmarks))
	}
	for i, e := range got.Benchmarks {
		if e != b.Benchmarks[i] {
			t.Errorf("entry %d = %+v, want %+v", i, e, b.Benchmarks[i])
		}
	}
}

// TestLoadRejectsBadSchema pins the loud-failure contract on both sides of
// the round-trip.
func TestLoadRejectsBadSchema(t *testing.T) {
	bad := mkBaseline(Entry{Name: "EndToEnd/workers=1", NsPerOp: 1})
	bad.Schema = "inframe-bench-baseline/v1"
	if err := bad.Write(filepath.Join(t.TempDir(), "refused.json")); err == nil {
		t.Error("Write accepted a foreign schema")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"inframe-bench-baseline/v0","benchmarks":[{"name":"x","iterations":1,"ns_per_op":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("Load accepted a foreign schema")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"schema":"inframe-bench-baseline/v2","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(empty); err == nil {
		t.Error("Load accepted a baseline with no benchmarks")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("Load of a missing file did not fail")
	}
}

// TestCompareCalibration pins the speed-normalized gate: when both baselines
// carry a calibration reference, a slowdown fails only if it survives both
// the raw and the speed-normalized reading — a container that drifted into
// a slower speed state does not read as a code regression, and the gate is
// never stricter than the raw comparison.
func TestCompareCalibration(t *testing.T) {
	entry := func(ns int64) Entry { return Entry{Name: "Fleet/workers=1", Iterations: 3, NsPerOp: ns} }
	cases := []struct {
		name       string
		baseCalib  int64
		curCalib   int64
		curNs      int64
		status     Status
		speedRatio float64
	}{
		// Machine 30% slower, benchmark 30% slower: normalized flat.
		{"slow machine excused", 100, 130, 1300, StatusOK, 1.3},
		// Machine 30% slower but benchmark 80% slower: still a regression.
		{"real regression on slow machine", 100, 130, 1800, StatusRegression, 1.3},
		// Machine faster and raw ns flat: OK even though the normalized
		// reading alone would cross the threshold — the gate takes the more
		// favorable interpretation, never the stricter one.
		{"fast machine does not manufacture regression", 130, 100, 920, StatusOK, 100.0 / 130},
		// Calibration missing on either side: raw comparison, ratio unset.
		{"no baseline calib", 0, 130, 1100, StatusOK, 0},
		{"no current calib", 100, 0, 1100, StatusOK, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := mkBaseline(entry(1000))
			base.CalibNsPerOp = c.baseCalib
			cur := mkBaseline(entry(c.curNs))
			cur.CalibNsPerOp = c.curCalib
			r := Compare(base, cur, 0.15)
			if len(r.Rows) != 1 {
				t.Fatalf("got %d rows, want 1", len(r.Rows))
			}
			if r.Rows[0].Status != c.status {
				t.Errorf("status %s, want %s (delta %.3f)", r.Rows[0].Status, c.status, r.Rows[0].Delta)
			}
			if diff := r.SpeedRatio - c.speedRatio; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("SpeedRatio = %v, want %v", r.SpeedRatio, c.speedRatio)
			}
			// Raw ns always land in the columns untouched.
			if r.Rows[0].CurNs != c.curNs {
				t.Errorf("CurNs = %d, want raw %d", r.Rows[0].CurNs, c.curNs)
			}
		})
	}
}

// TestCalibrationRoundTrip: the optional calib field survives the JSON
// round-trip and old files without it load as calib-less baselines.
func TestCalibrationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_x.json")
	b := mkBaseline(Entry{Name: "EndToEnd/workers=1", Iterations: 1, NsPerOp: 10})
	b.CalibNsPerOp = 12345
	if err := b.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.CalibNsPerOp != 12345 {
		t.Fatalf("CalibNsPerOp = %d, want 12345", got.CalibNsPerOp)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "calib_ns_per_op") {
		t.Fatal("calib field missing from JSON")
	}
}
