package experiments

import (
	"testing"

	"inframe/internal/core"
)

// TestEpisodeDecodesWithSetupWorkers checks that an episode's receiver runs
// on the setup's worker budget and its link's timing: each decode
// experiment used to build its own receiver, and most left Workers at
// GOMAXPROCS whatever the setup said.
func TestEpisodeDecodesWithSetupWorkers(t *testing.T) {
	s := DefaultSetup()
	s.ThroughputSeconds = 0.5
	s.Workers = 3
	cfg := s.ChannelConfig(s.CaptureSize())
	cfg.Camera.Exposure = 0.0009
	e, err := s.transmit(ThroughputSetting{VideoGray, 20, 12}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got core.ReceiverConfig
	d, err := e.decode(func(rc *core.ReceiverConfig) { got = *rc })
	if err != nil {
		t.Fatal(err)
	}
	if got.Workers != s.Workers {
		t.Errorf("decode ran on %d workers, want the setup's %d", got.Workers, s.Workers)
	}
	if got.Exposure != cfg.Camera.Exposure || got.CaptureW != cfg.Camera.W || got.CaptureH != cfg.Camera.H {
		t.Errorf("receiver %dx%d exposure %v, want the link's %dx%d exposure %v",
			got.CaptureW, got.CaptureH, got.Exposure, cfg.Camera.W, cfg.Camera.H, cfg.Camera.Exposure)
	}
	if d.stats.Frames == 0 || d.perf.AvailableRatio < 0.5 {
		t.Errorf("episode decoded %d frames at %.3f availability", d.stats.Frames, d.perf.AvailableRatio)
	}
}
