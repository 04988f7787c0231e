package core

import (
	"math"
	"reflect"
	"testing"

	"inframe/internal/frame"
	"inframe/internal/video"
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

// hostileCaptures are frames no receiver of w×h captures can measure: a nil
// capture, the zero-size frame, a frame of the wrong size, and one whose
// pixel buffer does not match its dimensions.
func hostileCaptures(w, h int) []*frame.Frame {
	return []*frame.Frame{nil, {}, frame.New(w/2, h), {W: w, H: h, Pix: make([]float32, w)}}
}

// TestDecodeDriversScoreHostileCaptures: both decode drivers score a
// capture that is not a frame of the receiver's capture size as nothing.
// Each hostile capture sits at the exposure start of a good, selected one,
// so it reaches the shared observe step. The batch decode equals the decode
// without it, and its report marks it unscored. The streaming decode equals
// the good captures' too, and a hostile capture pushed at a finite time
// still emits every frame whose window has passed.
func TestDecodeDriversScoreHostileCaptures(t *testing.T) {
	p := smallParams()
	p.Tau = 8
	l := p.Layout
	const nData = 6
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), NewRandomStream(l, 11))
	caps, times, exp := idealCaptures(m, nData*p.Tau)
	hostile := hostileCaptures(l.FrameW, l.FrameH)
	var mixCaps []*frame.Frame
	var mixTimes []float64
	var bad []int
	for i := range caps {
		mixCaps = append(mixCaps, caps[i])
		bad = append(bad, len(mixCaps))
		mixCaps = append(mixCaps, hostile[i%len(hostile)])
		mixTimes = append(mixTimes, times[i], times[i])
	}

	r := smallReceiver(t, p)
	want, wantRep := r.DecodeCapturesReport(caps, times, exp, nData)
	if wantRep.GapFrames != 0 {
		t.Fatalf("the good captures leave %d gap frames; the test needs every frame observed", wantRep.GapFrames)
	}
	got, rep := r.DecodeCapturesReport(mixCaps, mixTimes, exp, nData)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("hostile captures changed the batch decode")
	}
	if !reflect.DeepEqual(r.DecodeCaptures(mixCaps, mixTimes, exp, nData), want) {
		t.Fatal("hostile captures changed DecodeCaptures")
	}
	selected := 0
	for _, k := range bad {
		if q := rep.Quality[k]; q.Scored || q.Used || q.Excluded || q.Quality != 0 {
			t.Fatalf("hostile capture %d reported %+v, want unscored", k, q)
		}
		if rep.Quality[k-1].Scored {
			selected++ // its good twin at the same time was selected and measured
		}
	}
	if selected < len(hostile) {
		t.Fatalf("only %d hostile captures sat at a selected time; every kind must reach observe", selected)
	}

	cfg := DefaultReceiverConfig(p, l.FrameW, l.FrameH)
	mixed, err := NewStreamingReceiver(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := NewStreamingReceiver(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	var gotStream, wantStream []*FrameDecode
	for i := range mixCaps {
		gotStream = append(gotStream, mixed.Push(mixCaps[i], mixTimes[i], exp)...)
	}
	for i := range caps {
		wantStream = append(wantStream, clean.Push(caps[i], times[i], exp)...)
	}
	// A mid-exposure three quarters into a data frame lies in no steady
	// window, so a good capture there feeds nothing and only advances.
	period := r.DataFramePeriod()
	tEnd := float64((nData+0.75)*period) - float64(exp/2)
	for _, h := range hostile {
		probe, err := NewStreamingReceiver(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewStreamingReceiver(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range caps {
			probe.Push(caps[i], times[i], exp)
			twin.Push(caps[i], times[i], exp)
		}
		tail, wantTail := probe.Push(h, tEnd, exp), twin.Push(caps[0], tEnd, exp)
		if len(tail) == 0 || !reflect.DeepEqual(tail, wantTail) {
			t.Fatalf("a hostile capture at t=%v emitted %d frames, a capture feeding nothing %d", tEnd, len(tail), len(wantTail))
		}
	}
	if len(wantStream) == 0 || !reflect.DeepEqual(gotStream, wantStream) {
		t.Fatalf("hostile captures changed the streaming decode (%d frames vs %d)", len(gotStream), len(wantStream))
	}
}
