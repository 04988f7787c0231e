package benchcmp

import (
	"testing"

	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/metrics"
)

// TestPipelineDecodes checks that the gated link carries data: a timed
// iteration (four data frames) recovers 59.5% of its GOBs, the first
// frames going to the receiver's level calibration, and ten data frames
// recover 94.4%, about what the clean-gray benchmark workload reads
// (0.93). The link the gate timed before (BlurRadius 1) recovered none.
func TestPipelineDecodes(t *testing.T) {
	l, err := core.ScaledPaperLayout(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		frames int
		min    float64
	}{
		{4, 0.5},
		{10, 0.9},
	} {
		m, cfg, rcv, nDisplay, _, err := Pipeline(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		tau := rcv.Config().Tau
		if nDisplay != 4*tau {
			t.Fatalf("an iteration transmits %d display frames, want 4·τ = %d", nDisplay, 4*tau)
		}
		nDisplay = tc.frames * tau
		res, err := channel.Simulate(m, nDisplay, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stream := core.NewRandomStream(l, 1)
		var stats metrics.GOBStats
		for d, fd := range rcv.DecodeCaptures(res.Captures, res.Times, res.Exposure, tc.frames) {
			if fd.Captures > 0 {
				stats.AddWithOracle(fd, stream.DataFrame(d))
			}
		}
		if got := stats.AvailableRatio(); !(got >= tc.min) {
			t.Errorf("%d data frames: %.4f of %d GOBs available, want at least %.2f", tc.frames, got, stats.Total, tc.min)
		}
	}
}
