package core

import (
	"testing"

	"inframe/internal/frame"
	"inframe/internal/video"
)

// TestEstimatePhaseRecoversOffset: render a multiplexed stream, present the
// display frames as captures with a time base shifted by a known phase, and
// check the estimator finds it.
func TestEstimatePhaseRecoversOffset(t *testing.T) {
	p := smallParams()
	p.Tau = 8
	l := p.Layout
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), NewRandomStream(l, 21))
	period := float64(p.Tau) / 120

	nData := 12
	frames := m.Render(nData * p.Tau)
	truePhase := float64(0.375 * period)
	// Captures at ~31 FPS (sampling many phases), shifted by truePhase.
	var caps []*frame.Frame
	var times []float64
	for t0 := 0.0; t0 < float64(float64(nData)*period)-0.02; t0 += 1.0 / 31 {
		k := int((t0) * 120)
		if k >= len(frames) {
			break
		}
		caps = append(caps, frames[k])
		times = append(times, t0+truePhase)
	}
	est := EstimatePhase(caps, times, 1.0/120, period, 64)
	if err := PhaseError(est, truePhase, period); err > 0.1*period {
		t.Fatalf("phase error %.4f (%.1f%% of period), estimated %.4f want %.4f",
			err, 100*err/period, est, truePhase)
	}
}

func TestEstimatePhaseDegenerateInputs(t *testing.T) {
	if p := EstimatePhase(nil, nil, 0.01, 0.1, 16); p != 0 {
		t.Fatalf("empty input phase = %v", p)
	}
	f := frame.NewFilled(8, 8, 1)
	if p := EstimatePhase([]*frame.Frame{f}, []float64{0}, 0.01, 0.1, 0); p != 0 {
		t.Fatalf("zero grid phase = %v", p)
	}
	if p := EstimatePhase([]*frame.Frame{f}, []float64{0, 1}, 0.01, 0.1, 8); p != 0 {
		t.Fatalf("mismatched lengths phase = %v", p)
	}
}

func TestPhaseError(t *testing.T) {
	if e := PhaseError(0.1, 0.9, 1.0); e > 0.2000001 || e < 0.1999999 {
		t.Fatalf("circular phase error = %v, want 0.2", e)
	}
	if e := PhaseError(0.3, 0.3, 1.0); e != 0 {
		t.Fatalf("identical phases error = %v", e)
	}
}
