package metrics

import (
	"math"
	"strings"
	"testing"

	"inframe/internal/core"
)

func testLayout() core.Layout {
	return core.Layout{
		FrameW: 48, FrameH: 32,
		PixelSize: 2, BlockSize: 4, GOBSize: 2,
		BlocksX: 6, BlocksY: 4,
	}
}

// fakeDecode builds a FrameDecode with the given number of available GOBs,
// of which errs fail parity, against an all-zero transmission. The first
// Block of each unavailable GOB is undecided (low confidence); the first
// Block of each erroneous GOB is a confident wrong 1.
func fakeDecode(t *testing.T, l core.Layout, avail, errs int) (*core.FrameDecode, *core.DataFrame) {
	t.Helper()
	sent := core.NewDataFrame(l) // all zero: parity holds trivially
	fd := &core.FrameDecode{
		Captures:    1,
		Bits:        core.NewDataFrame(l),
		Decided:     make([]bool, l.NumBlocks()),
		BlockCauses: make([]core.ErasureCause, l.NumBlocks()),
	}
	for i := range fd.Decided {
		fd.Decided[i] = true
	}
	g := 0
	for gy := 0; gy < l.GOBsY(); gy++ {
		for gx := 0; gx < l.GOBsX(); gx++ {
			blk := l.GOBBlocks(gx, gy)[0]
			idx := blk[1]*l.BlocksX + blk[0]
			res := core.GOBResult{GX: gx, GY: gy, Available: true, ParityOK: true}
			switch {
			case g >= avail:
				fd.Decided[idx] = false
				fd.BlockCauses[idx] = core.CauseLowConfidence
				res = core.GOBResult{GX: gx, GY: gy, Cause: core.CauseLowConfidence}
			case g < errs:
				fd.Bits.Bits[idx] = true
				res.ParityOK = false
				res.Cause = core.CauseParity
			}
			if res.Available && res.ParityOK != fd.Bits.ParityOK(gx, gy) {
				t.Fatalf("GOB (%d,%d): parity flag disagrees with the bits", gx, gy)
			}
			fd.GOBs = append(fd.GOBs, res)
			g++
		}
	}
	return fd, sent
}

func TestGOBStatsCounts(t *testing.T) {
	l := testLayout() // 6 GOBs
	fd, sent := fakeDecode(t, l, 4, 1)
	var s GOBStats
	s.AddWithOracle(fd, sent)
	if s.Frames != 1 || s.Total != 6 {
		t.Fatalf("frames=%d total=%d", s.Frames, s.Total)
	}
	if s.Available != 4 {
		t.Fatalf("available=%d, want 4", s.Available)
	}
	if s.Erroneous != 1 {
		t.Fatalf("erroneous=%d, want 1", s.Erroneous)
	}
	// 3 available clean GOBs decode all-zero = transmitted.
	if s.OracleCorrect != 3 {
		t.Fatalf("oracleCorrect=%d, want 3", s.OracleCorrect)
	}
	if math.Abs(s.AvailableRatio()-4.0/6) > 1e-12 {
		t.Fatalf("availableRatio=%v", s.AvailableRatio())
	}
	if math.Abs(s.ErrorRate()-0.25) > 1e-12 {
		t.Fatalf("errorRate=%v", s.ErrorRate())
	}
}

func TestGOBStatsEmpty(t *testing.T) {
	var s GOBStats
	if s.AvailableRatio() != 0 || s.ErrorRate() != 0 {
		t.Fatal("empty stats should report zero ratios")
	}
}

func TestComputePaperAccounting(t *testing.T) {
	// The paper's headline: 1125 bits/frame at τ=10 on a 120 Hz display is
	// 13.5 kbps raw; at 95.2% availability and 1.5% error that lands near
	// the reported 12.6-12.8 kbps.
	l := core.PaperLayout()
	s := &GOBStats{Frames: 100, Total: 37500, Available: 35700, Erroneous: 536}
	r := Compute(s, l, 10, 120)
	if math.Abs(r.RawBps-13500) > 1e-9 {
		t.Fatalf("raw = %v, want 13500", r.RawBps)
	}
	if r.ThroughputBps < 12300 || r.ThroughputBps > 12900 {
		t.Fatalf("throughput = %v, want ≈12.6k", r.ThroughputBps)
	}
	if r.GoodputBps != 0 {
		t.Fatalf("goodput without oracle = %v, want 0", r.GoodputBps)
	}
}

func TestComputeGoodput(t *testing.T) {
	l := testLayout()
	fd, sent := fakeDecode(t, l, 6, 0)
	var s GOBStats
	s.AddWithOracle(fd, sent)
	r := Compute(&s, l, 8, 120)
	if r.GoodputBps <= 0 {
		t.Fatal("goodput should be positive with oracle data")
	}
	if r.GoodputBps > r.RawBps+1e-9 {
		t.Fatal("goodput exceeds raw rate")
	}
	if math.Abs(r.GoodputBps-r.RawBps) > 1e-9 {
		t.Fatalf("all-correct goodput %v != raw %v", r.GoodputBps, r.RawBps)
	}
}

func TestReportString(t *testing.T) {
	r := Report{ThroughputBps: 12600, AvailableRatio: 0.952, ErrorRate: 0.015, RawBps: 13500}
	s := r.String()
	for _, want := range []string{"12.6", "95.2", "1.5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Std() != 0 || s.CI95() != 0 || s.N() != 0 {
		t.Fatal("empty series should be all zero")
	}
	for _, x := range []float64{1, 1, 3, 3} {
		s.Add(x)
	}
	if s.N() != 4 || s.Mean() != 2 || s.Std() != 1 {
		t.Fatalf("N=%d mean=%v std=%v", s.N(), s.Mean(), s.Std())
	}
	ci := s.CI95()
	want := 1.96 * math.Sqrt(4.0/3) / 2
	if math.Abs(ci-want) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", ci, want)
	}
}

func TestDegradationStats(t *testing.T) {
	l := testLayout() // 6 GOBs
	fd, _ := fakeDecode(t, l, 4, 1)
	rep := &core.DecodeReport{
		Frames: []*core.FrameDecode{fd},
		Quality: []core.CaptureQuality{
			{Index: 0, Quality: 0.9, Scored: true, Used: true},
			{Index: 1, Quality: 0.1, Scored: true, Excluded: true},
			{Index: 2}, // unscored: must not enter the quality series
		},
		GapFrames:        2,
		Resyncs:          1,
		ExcludedCaptures: 1,
	}
	var d DegradationStats
	d.AddReport(rep)
	d.AddReport(rep)
	if d.Runs != 2 || d.TotalGOBs() != 12 {
		t.Fatalf("runs=%d total=%d", d.Runs, d.TotalGOBs())
	}
	// Per report: 4 available GOBs of which 1 fails parity → 3 delivered,
	// 1 parity, 2 low-confidence (the undecided-score erasures).
	if d.Causes[core.CauseNone] != 6 || d.Causes[core.CauseParity] != 2 || d.Causes[core.CauseLowConfidence] != 4 {
		t.Fatalf("causes = %v", d.Causes)
	}
	if math.Abs(d.DeliveredRatio()-0.5) > 1e-12 {
		t.Fatalf("delivered ratio %v, want 0.5", d.DeliveredRatio())
	}
	if d.GapFrames != 4 || d.Resyncs != 2 || d.ExcludedCaptures != 2 {
		t.Fatalf("gaps=%d resyncs=%d excluded=%d", d.GapFrames, d.Resyncs, d.ExcludedCaptures)
	}
	if d.Quality.N() != 4 || math.Abs(float64(d.Quality.Mean())-0.5) > 1e-12 {
		t.Fatalf("quality N=%d mean=%v", d.Quality.N(), d.Quality.Mean())
	}
	s := d.String()
	for _, want := range []string{"delivered=50.0%", "parity=16.7%", "low-confidence=33.3%", "gaps=4", "resyncs=2", "excluded=2", "quality=0.50"} {
		if !strings.Contains(s, want) {
			t.Fatalf("degradation %q missing %q", s, want)
		}
	}
}

func TestDegradationStatsEmpty(t *testing.T) {
	var d DegradationStats
	if d.DeliveredRatio() != 0 || d.TotalGOBs() != 0 {
		t.Fatal("empty stats should be zero")
	}
	if !strings.Contains(d.String(), "no GOBs") {
		t.Fatalf("empty string = %q", d.String())
	}
}

// TestDegradationStatsNilReport pins the cross-receiver merge guard: a nil
// report (a receiver that produced nothing) is a no-op, not a panic and not
// a counted run.
func TestDegradationStatsNilReport(t *testing.T) {
	var d DegradationStats
	d.AddReport(nil)
	if d.Runs != 0 || d.TotalGOBs() != 0 {
		t.Fatalf("nil report counted: runs=%d total=%d", d.Runs, d.TotalGOBs())
	}
}

// TestDegradationStatsMerge drives the cross-receiver aggregation table:
// merging per-receiver stats must equal accumulating the same reports into
// one stats object in the same order, empty and nil merges must be no-ops,
// and the rendered string must be identical (ordering determinism).
func TestDegradationStatsMerge(t *testing.T) {
	l := testLayout()
	fdA, _ := fakeDecode(t, l, 4, 1)
	fdB, _ := fakeDecode(t, l, 6, 0)
	repA := &core.DecodeReport{
		Frames:    []*core.FrameDecode{fdA},
		Quality:   []core.CaptureQuality{{Index: 0, Quality: 0.8, Scored: true, Used: true}},
		GapFrames: 3, Resyncs: 1, ExcludedCaptures: 2,
	}
	repB := &core.DecodeReport{
		Frames:  []*core.FrameDecode{fdB},
		Quality: []core.CaptureQuality{{Index: 0, Quality: 0.4, Scored: true, Used: true}},
	}
	cases := []struct {
		name    string
		batches [][]*core.DecodeReport // one DegradationStats per batch, merged in order
	}{
		{name: "two-receivers", batches: [][]*core.DecodeReport{{repA}, {repB}}},
		{name: "empty-middle", batches: [][]*core.DecodeReport{{repA}, {}, {repB}}},
		{name: "nil-report-inside", batches: [][]*core.DecodeReport{{repA, nil}, {repB}}},
		{name: "all-in-one", batches: [][]*core.DecodeReport{{repA, repB}}},
	}
	var want DegradationStats
	want.AddReport(repA)
	want.AddReport(repB)
	for _, tc := range cases {
		var merged DegradationStats
		for _, batch := range tc.batches {
			var per DegradationStats
			for _, rep := range batch {
				per.AddReport(rep)
			}
			merged.Merge(&per)
		}
		merged.Merge(nil) // must be a no-op
		if merged.Runs != want.Runs || merged.Causes != want.Causes ||
			merged.GapFrames != want.GapFrames || merged.Resyncs != want.Resyncs ||
			merged.ExcludedCaptures != want.ExcludedCaptures {
			t.Errorf("%s: merged counters = %+v, want %+v", tc.name, merged, want)
		}
		if merged.Quality.N() != want.Quality.N() {
			t.Errorf("%s: quality N=%d, want %d", tc.name, merged.Quality.N(), want.Quality.N())
		}
		if got := merged.String(); got != want.String() {
			t.Errorf("%s: merged string %q != accumulated %q", tc.name, got, want.String())
		}
	}
}

// TestSeriesPercentile pins the sort-then-index quantiles, including the
// empty, single-observation, unsorted-input and out-of-range cases.
func TestSeriesPercentile(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{name: "empty", xs: nil, p: 0.5, want: 0},
		{name: "single", xs: []float64{7}, p: 0.99, want: 7},
		{name: "median-even", xs: []float64{4, 1, 3, 2}, p: 0.5, want: 2},
		{name: "median-odd", xs: []float64{5, 1, 3}, p: 0.5, want: 3},
		{name: "p0-is-min", xs: []float64{9, 2, 5}, p: 0, want: 2},
		{name: "p1-is-max", xs: []float64{9, 2, 5}, p: 1, want: 9},
		{name: "p95-of-100", xs: seq100(), p: 0.95, want: 94},
		{name: "p99-of-100", xs: seq100(), p: 0.99, want: 98},
		{name: "inf-tail", xs: []float64{1, 2, math.Inf(1)}, p: 1, want: math.Inf(1)},
	}
	for _, tc := range cases {
		var s Series
		for _, x := range tc.xs {
			s.Add(x)
		}
		got := s.Percentile(tc.p)
		// Percentile returns an exact element of the input, so the comparison is exact.
		if got != tc.want {
			t.Errorf("%s: Percentile(%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
	// Percentile must not mutate the series (it sorts a copy).
	var s Series
	s.Add(3)
	s.Add(1)
	s.Percentile(0.5)
	if s.xs[0] != 3 {
		t.Fatal("Percentile sorted the series in place")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range percentile did not panic")
		}
	}()
	s.Percentile(1.5)
}

// seq100 returns 0..99 in scrambled (deterministic) order.
func seq100() []float64 {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64((i*37 + 11) % 100)
	}
	return xs
}

// TestSeriesAddSeries pins concatenation order: AddSeries appends other's
// observations after the receiver's, preserving both orders.
func TestSeriesAddSeries(t *testing.T) {
	var a, b Series
	a.Add(1)
	a.Add(2)
	b.Add(3)
	a.AddSeries(&b)
	a.AddSeries(nil)
	if a.N() != 3 || a.xs[0] != 1 || a.xs[1] != 2 || a.xs[2] != 3 {
		t.Fatalf("AddSeries order = %v", a.xs)
	}
}
