package inframe

import (
	"math"
	"reflect"
	"testing"
)

// robustnessPipeline runs the compact facade pipeline through an impaired
// channel: gray video on the 24×16-Block test layout, τ=8, a fixed payload
// seed, decoded with the graceful-degradation receiver (report entry point).
// Every knob is pinned so the matrix below can assert numeric bounds.
func robustnessPipeline(t *testing.T, workers int, imp *ImpairConfig) (*ChannelResult, []*FrameDecode, *DecodeReport, *RandomStreamOracle) {
	t.Helper()
	res, decoded, rep, oracle, _ := posePipeline(t, workers, imp, false)
	return res, decoded, rep, oracle
}

// posePipeline is robustnessPipeline with an optional registration step:
// when registered is true the receiver first solves the projective
// display→capture homography blindly from the captures (exactly what a real
// receiver would do) and decodes through the rectifying warp. The receiver
// configuration it decoded with, solved pose included, comes back last.
func posePipeline(t *testing.T, workers int, imp *ImpairConfig, registered bool) (*ChannelResult, []*FrameDecode, *DecodeReport, *RandomStreamOracle, ReceiverConfig) {
	t.Helper()
	l := testLayout()
	p := DefaultParams(l)
	p.Tau = 8
	p.Workers = workers
	stream := NewRandomStream(l, 3)
	m, err := NewMultiplexer(p, GrayVideo(l.FrameW, l.FrameH), stream)
	if err != nil {
		t.Fatal(err)
	}
	const nDisplay = 240 // 2 s → 30 data frames at τ=8
	cfg := quietChannel(l.FrameW, l.FrameH)
	cfg.Workers = workers
	cfg.Camera.Workers = workers
	cfg.Camera.Seed = 7
	cfg.Impair = imp
	res, err := Simulate(m, nDisplay, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := DefaultReceiverConfig(p, l.FrameW, l.FrameH)
	rcfg.Exposure = cfg.Camera.Exposure
	rcfg.ReadoutTime = cfg.Camera.ReadoutTime
	rcfg.Workers = workers
	rcfg.MinCaptureQuality = 0.1
	if registered {
		n := len(res.Captures)
		if n > 10 {
			n = 10
		}
		pose, err := CalibrateProjective(l, res.Captures[:n])
		if err != nil {
			t.Fatal(err)
		}
		rcfg.Pose = &pose
	}
	rx, err := NewReceiver(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	decoded, rep := rx.DecodeCapturesReport(res.Captures, res.Times, res.Exposure, nDisplay/p.Tau)
	return res, decoded, rep, &RandomStreamOracle{stream: stream}, rcfg
}

// RandomStreamOracle scores decoded frames against the transmitted payload.
type RandomStreamOracle struct{ stream Stream }

// Score tallies availability over all frames (gap frames count as
// unavailable) and the confident-bit error rate over decided Blocks.
func (o *RandomStreamOracle) Score(decoded []*FrameDecode) (avail, ber float64) {
	availGOBs, totalGOBs := 0, 0
	wrong, decided := 0, 0
	for d, fd := range decoded {
		l := fd.Bits.Layout
		totalGOBs += l.NumGOBs()
		availGOBs += fd.AvailableGOBs()
		want := o.stream.DataFrame(d)
		for j, dec := range fd.Decided {
			if !dec {
				continue
			}
			decided++
			if fd.Bits.Bits[j] != want.Bits[j] {
				wrong++
			}
		}
	}
	avail = float64(availGOBs) / float64(totalGOBs)
	if decided > 0 {
		ber = float64(wrong) / float64(decided)
	}
	return avail, ber
}

// robustnessMatrix pins, per impairment scenario at fixed seeds, the
// GOB-availability window and the confident-bit error ceiling the receiver
// must hold. The bounds are measured envelopes with margin, not aspirations:
// a regression that degrades decoding under any fault family trips the
// matching row, and an "improvement" that silently disables an impairment
// trips the scenario's upper availability bound.
var robustnessMatrix = []struct {
	name               string
	imp                *ImpairConfig
	registered         bool // solve projective registration before decoding
	minAvail, maxAvail float64
	maxBER             float64
	wantGaps           bool
	wantResyncs        bool
}{
	{name: "clean", imp: nil, minAvail: 0.97, maxAvail: 1.0, maxBER: 0.001},
	{name: "clock-drift", imp: &ImpairConfig{Seed: 11, ClockDriftPPM: 500}, minAvail: 0.9, maxAvail: 1.0, maxBER: 0.001},
	// Jitter shoves boundary captures out of their data frame's steady
	// window — at τ=8 each frame has roughly one usable capture, so the
	// lost ones become gaps the receiver must resync from.
	{name: "start-jitter", imp: &ImpairConfig{Seed: 11, StartJitter: 3e-4}, minAvail: 0.5, maxAvail: 0.9, maxBER: 0.005, wantGaps: true, wantResyncs: true},
	{name: "capture-drop", imp: &ImpairConfig{Seed: 11, DropRate: 0.25}, minAvail: 0.55, maxAvail: 0.95, maxBER: 0.005, wantGaps: true, wantResyncs: true},
	// Duplicates echo one exposure a camera period later, polluting the
	// neighbouring frame's aggregation with stale content.
	{name: "capture-dup", imp: &ImpairConfig{Seed: 11, DupRate: 0.25}, minAvail: 0.75, maxAvail: 0.95, maxBER: 0.005},
	{name: "ambient-ramp", imp: &ImpairConfig{Seed: 11, AmbientRamp: 12}, minAvail: 0.9, maxAvail: 1.0, maxBER: 0.001},
	{name: "mains-flicker", imp: &ImpairConfig{Seed: 11, FlickerAmp: 5, FlickerHz: 100}, minAvail: 0.85, maxAvail: 1.0, maxBER: 0.005},
	{name: "gain-drift", imp: &ImpairConfig{Seed: 11, GainAmp: 0.05, GainHz: 0.7}, minAvail: 0.85, maxAvail: 1.0, maxBER: 0.005},
	{name: "noise-burst", imp: &ImpairConfig{Seed: 11, BurstRate: 0.1, BurstSigma: 6}, minAvail: 0.5, maxAvail: 0.98, maxBER: 0.02},
	{name: "occlusion", imp: &ImpairConfig{Seed: 11, OccludeX: 0.1, OccludeY: 0.1, OccludeW: 0.25, OccludeH: 0.25, OccludeLevel: 30}, minAvail: 0.6, maxAvail: 0.97, maxBER: 0.005},
	{name: "kitchen-sink", imp: &ImpairConfig{
		Seed: 11, ClockDriftPPM: 300, StartJitter: 1e-4, DropRate: 0.1,
		DupRate: 0.1, AmbientRamp: 6, FlickerAmp: 3, FlickerHz: 100,
		GainAmp: 0.02, GainHz: 0.7, BurstRate: 0.05, BurstSigma: 5,
	}, minAvail: 0.5, maxAvail: 0.95, maxBER: 0.02, wantGaps: false, wantResyncs: false},
	// Camera-pose rows: the impair stack keystones every capture through a
	// seeded pinhole pose; the registered receiver solves the homography
	// blindly from the captures and decodes through the rectifying warp.
	// Bounds are measured envelopes like every other row — the lower bound
	// trips a registration regression, the upper bound trips a silently
	// disabled pose.
	{name: "pose-mild-tilt", imp: &ImpairConfig{Seed: 11, TiltDeg: 10}, registered: true,
		minAvail: 0.9, maxAvail: 1.0, maxBER: 0.005},
	{name: "pose-strong-tilt", imp: &ImpairConfig{Seed: 11, TiltDeg: 25, RotateDeg: 5, Distance: 1.3}, registered: true,
		minAvail: 0.4, maxAvail: 0.95, maxBER: 0.05},
	{name: "pose-rotate-distance", imp: &ImpairConfig{Seed: 11, RotateDeg: 8, Distance: 1.5}, registered: true,
		minAvail: 0.4, maxAvail: 0.95, maxBER: 0.05},
	// Graceful degradation, not decode quality: at a 60° grazing tilt the
	// blind calibration cannot recover cell phase and confident bits are at
	// chance. The row pins that the pipeline still completes, reports a
	// bounded availability instead of claiming full coverage, and never
	// crashes or hangs under concurrency.
	{name: "pose-grazing", imp: &ImpairConfig{Seed: 11, TiltDeg: 60, Distance: 0.8}, registered: true,
		minAvail: 0.0, maxAvail: 0.7, maxBER: 0.55},
}

// TestRobustnessMatrix is the deterministic fault-injection gate: every
// impairment scenario must land inside its pinned availability window and
// error ceiling, and the decode must be bit-identical at 1, 2 and 8 workers.
func TestRobustnessMatrix(t *testing.T) {
	for _, tc := range robustnessMatrix {
		t.Run(tc.name, func(t *testing.T) {
			res1, dec1, rep1, oracle, _ := posePipeline(t, 1, tc.imp, tc.registered)
			avail, ber := oracle.Score(dec1)
			t.Logf("%s: avail=%.3f ber=%.4f gaps=%d resyncs=%d excluded=%d",
				tc.name, avail, ber, rep1.GapFrames, rep1.Resyncs, rep1.ExcludedCaptures)
			if avail < tc.minAvail || avail > tc.maxAvail {
				t.Errorf("availability %.3f outside [%.2f, %.2f]", avail, tc.minAvail, tc.maxAvail)
			}
			if ber > tc.maxBER {
				t.Errorf("confident-bit error rate %.4f above %.4f", ber, tc.maxBER)
			}
			if tc.wantGaps && rep1.GapFrames == 0 {
				t.Error("expected gap frames, saw none")
			}
			if tc.wantResyncs && rep1.Resyncs == 0 {
				t.Error("expected resyncs, saw none")
			}
			for _, w := range []int{2, 8} {
				resW, decW, repW, _, _ := posePipeline(t, w, tc.imp, tc.registered)
				if !reflect.DeepEqual(resW.Times, res1.Times) {
					t.Fatalf("workers=%d: capture times diverge", w)
				}
				if len(resW.Captures) != len(res1.Captures) {
					t.Fatalf("workers=%d: %d captures, want %d", w, len(resW.Captures), len(res1.Captures))
				}
				for i, c := range resW.Captures {
					if !c.Equal(res1.Captures[i]) {
						t.Fatalf("workers=%d: capture %d not bit-identical", w, i)
					}
				}
				if !reflect.DeepEqual(decW, dec1) {
					t.Fatalf("workers=%d: decoded frames diverge", w)
				}
				if !reflect.DeepEqual(repW, rep1) {
					t.Fatalf("workers=%d: decode reports diverge", w)
				}
			}
		})
	}
}

// TestZeroImpairConfigIsCleanPath locks the clean-channel contract: a
// non-nil but all-zero impairment config routes through exactly the same
// code as a nil one, producing bit-identical captures, times and decodes.
func TestZeroImpairConfigIsCleanPath(t *testing.T) {
	resNil, decNil, repNil, _ := robustnessPipeline(t, 2, nil)
	resZero, decZero, repZero, _ := robustnessPipeline(t, 2, &ImpairConfig{})
	if !reflect.DeepEqual(resZero.Times, resNil.Times) {
		t.Fatal("zero impair config changes capture times")
	}
	for i, c := range resZero.Captures {
		if !c.Equal(resNil.Captures[i]) {
			t.Fatalf("zero impair config changes capture %d", i)
		}
	}
	if !reflect.DeepEqual(decZero, decNil) || !reflect.DeepEqual(repZero, repNil) {
		t.Fatal("zero impair config changes the decode")
	}
}

// TestFrontalPoseIsCleanPath locks the frontal fast path: on a clean
// channel the blind projective calibration must collapse to the exactly
// axis-aligned full-frame hypothesis, and decoding with that pose must be
// bit-identical to the pre-homography receiver — the registration layer adds
// no silent resampling when the camera is head-on.
func TestFrontalPoseIsCleanPath(t *testing.T) {
	resNil, decNil, repNil, _, _ := posePipeline(t, 2, nil, false)
	resReg, decReg, repReg, _, _ := posePipeline(t, 2, nil, true)
	for i, c := range resReg.Captures {
		if !c.Equal(resNil.Captures[i]) {
			t.Fatalf("registration changed capture %d", i)
		}
	}
	if !reflect.DeepEqual(decReg, decNil) {
		t.Fatal("frontal pose decode is not bit-identical to the rigid decode")
	}
	// The reports must agree except for the Registration diagnostics, which
	// exist precisely to record that a pose was configured.
	reg := repReg.Registration
	repReg.Registration = repNil.Registration
	if !reflect.DeepEqual(repReg, repNil) {
		t.Fatal("frontal pose changes the decode report beyond Registration")
	}
	if reg.Projective {
		t.Error("axis-aligned pose took the projective rectification path")
	}
	if reg.Pose == ([9]float64{}) {
		t.Error("Registration.Pose not recorded for a configured pose")
	}
	if reg.MaxCornerOffsetPx != 0 {
		t.Errorf("frontal pose reports corner offset %v, want exactly 0", reg.MaxCornerOffsetPx)
	}
}

// TestImpairedDegradationAccounting spot-checks that the decode report's
// erasure-cause tally is self-consistent with the decoded frames under a
// heavy-drop channel.
func TestImpairedDegradationAccounting(t *testing.T) {
	_, decoded, rep, _ := robustnessPipeline(t, 1, &ImpairConfig{Seed: 11, DropRate: 0.25})
	var deg DegradationStats
	deg.AddReport(rep)
	counts := rep.CauseCounts()
	totalGOBs := 0
	availGOBs := 0
	for _, fd := range decoded {
		totalGOBs += len(fd.GOBs)
		availGOBs += fd.AvailableGOBs()
	}
	if deg.TotalGOBs() != totalGOBs {
		t.Fatalf("tally covers %d GOBs, decode has %d", deg.TotalGOBs(), totalGOBs)
	}
	delivered := 0
	for _, fd := range decoded {
		for _, g := range fd.GOBs {
			if g.Available && g.ParityOK {
				delivered++
			}
		}
	}
	if counts[CauseNone] != delivered {
		t.Fatalf("CauseNone=%d, delivered=%d", counts[CauseNone], delivered)
	}
	if counts[CauseNoCapture] == 0 {
		t.Fatal("heavy drop produced no no-capture erasures")
	}
	if math.Abs(deg.DeliveredRatio()-float64(delivered)/float64(totalGOBs)) > 1e-12 {
		t.Fatalf("delivered ratio %.4f inconsistent", deg.DeliveredRatio())
	}
}
