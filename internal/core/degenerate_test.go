package core

import (
	"math"
	"testing"
)

// degenerateReceiver builds a receiver with the confidence floors zeroed, so
// the only thing standing between an all-equal energy series and a
// zero-width "confident" threshold is the !(gap > 0) guard under test.
func degenerateReceiver(t *testing.T) *Receiver {
	t.Helper()
	p := DefaultParams(smallLayout())
	cfg := DefaultReceiverConfig(p, 48, 32)
	cfg.MinGap = 0
	cfg.MinConfidence = 0
	r, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// constAccs returns frames accumulators whose every Block holds the energy
// v from one full-quality capture.
func constAccs(r *Receiver, frames int, v float64) []*frameAcc {
	n := r.Config().Layout.NumBlocks()
	scores := make([]float64, n)
	quality := make([]float64, n)
	for j := range scores {
		scores[j] = v
		quality[j] = 1
	}
	accs := make([]*frameAcc, frames)
	for d := range accs {
		accs[d] = newFrameAcc(n)
		accs[d].add(scores, quality)
	}
	return accs
}

// degenerateSeries are energy series with no usable swing, one energy per
// frame shared by every Block: all-equal, all-zero, all-NaN, all ±Inf, and
// ±Inf mixed with a constant.
var degenerateSeries = []struct {
	name string
	vals []float64
}{
	{"empty", nil},
	{"all-equal", []float64{1.5, 1.5, 1.5, 1.5}},
	{"all-zero", []float64{0, 0, 0}},
	{"all-NaN", []float64{math.NaN(), math.NaN()}},
	{"all-+Inf", []float64{math.Inf(1), math.Inf(1), math.Inf(1)}},
	{"all--Inf", []float64{math.Inf(-1), math.Inf(-1)}},
	{"mixed-Inf", []float64{math.Inf(1), 1, 1, math.Inf(-1), math.NaN()}},
}

// seriesAccs returns one single-capture accumulator per value of vals.
func seriesAccs(r *Receiver, vals []float64) []*frameAcc {
	accs := make([]*frameAcc, 0, len(vals))
	for _, v := range vals {
		accs = append(accs, constAccs(r, 1, v)...)
	}
	return accs
}

// TestCluster2DegenerateInputs covers the level-estimation stage
// (calibrateLevels, which took over from the two-cluster estimator cluster2):
// no degenerate series may calibrate a finite positive bit-0/bit-1 gap.
func TestCluster2DegenerateInputs(t *testing.T) {
	r := degenerateReceiver(t)
	for _, tc := range degenerateSeries {
		lo, hi := r.calibrateLevels(seriesAccs(r, tc.vals), 1)
		if len(lo) != r.Config().Layout.NumBlocks() || len(hi) != len(lo) {
			t.Fatalf("%s: calibrated %d/%d levels, want %d", tc.name, len(lo), len(hi), r.Config().Layout.NumBlocks())
		}
		for j := range lo {
			if gap := hi[j] - lo[j]; gap > 0 && !math.IsInf(gap, 0) {
				t.Fatalf("%s: Block %d calibrated a finite positive gap %v", tc.name, j, gap)
			}
		}
	}
}

// TestDecodeScoresDegenerate feeds the decision stage (decideFrame against
// the calibrateLevels levels) the degenerate series. Every Block must come
// back undecided and every GOB unavailable — never "confidently" decoded
// against a NaN or zero-width threshold.
func TestDecodeScoresDegenerate(t *testing.T) {
	r := degenerateReceiver(t)
	for _, tc := range degenerateSeries {
		accs := seriesAccs(r, tc.vals)
		lo, hi := r.calibrateLevels(accs, 1)
		for d, a := range accs {
			fd := r.decideFrame(d, a, lo, hi)
			for j, dec := range fd.Decided {
				if dec {
					t.Fatalf("%s: frame %d Block %d decided (lo %v hi %v)", tc.name, d, j, lo[j], hi[j])
				}
			}
			if got := fd.AvailableGOBs(); got != 0 {
				t.Fatalf("%s: frame %d: %d GOBs available, want 0", tc.name, d, got)
			}
		}
	}
}

// TestDecodePerBlockDegenerate covers the batch calibration path: a run
// whose every frame shows the identical energy in every Block (e.g. black
// video whose δ the clipping adjustment crushed to nothing) has no swing to
// calibrate from, so every frame must decode all-unavailable.
func TestDecodePerBlockDegenerate(t *testing.T) {
	r := degenerateReceiver(t)
	for _, fd := range r.decodePerBlock(constAccs(r, 3, 0.7)) {
		for i, dec := range fd.Decided {
			if dec {
				t.Fatalf("frame %d block %d decided from all-equal series", fd.Index, i)
			}
		}
		if got := fd.AvailableGOBs(); got != 0 {
			t.Fatalf("frame %d: %d GOBs available, want 0", fd.Index, got)
		}
	}
}
