package experiments

import (
	"fmt"
	"io"
)

// ResponseRow is one display-panel variant in the pixel-response ablation.
type ResponseRow struct {
	Name           string
	AvailableRatio float64
	ThroughputBps  float64
}

// ResponseAblation quantifies why the channel default models the FG2421's
// effectively-instant pixels: an un-strobed LCD's gray-to-gray response
// smears each complementary frame into the next, eroding the captured
// chessboard in proportion to the time constant. (The display simulator
// also models black-frame-insertion strobing, which hides the response from
// the *viewer*; filming a strobed panel with a short rolling-shutter
// exposure instead produces banding, so the camera-facing fix is fast
// pixels, not strobing.) Runs are capped at one second, the length the
// EXPERIMENTS.md A12 table was measured at; Simulate retires response
// states with their frames, so the cap is not a memory limit.
func ResponseAblation(s Setup) ([]ResponseRow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	small := s
	if small.ThroughputSeconds > 1.0 {
		small.ThroughputSeconds = 1.0
	}
	variants := []struct {
		name     string
		response float64
	}{
		{"instant pixels (default)", 0},
		{"1ms gray-to-gray", 0.001},
		{"2ms gray-to-gray", 0.002},
		{"4ms gray-to-gray", 0.004},
	}
	var out []ResponseRow
	for _, v := range variants {
		cfg := small.ChannelConfig(small.CaptureSize())
		cfg.Display.ResponseTime = v.response
		e, err := small.transmit(ThroughputSetting{VideoGray, 20, 12}, cfg)
		if err != nil {
			return nil, err
		}
		d, err := e.decode(nil)
		if err != nil {
			return nil, err
		}
		out = append(out, ResponseRow{
			Name:           v.name,
			AvailableRatio: d.perf.AvailableRatio,
			ThroughputBps:  d.perf.ThroughputBps,
		})
	}
	return out, nil
}

// WriteResponse prints the panel-response ablation.
func WriteResponse(w io.Writer, rows []ResponseRow) {
	fmt.Fprintf(w, "%-36s | %9s %11s\n", "panel", "available", "throughput")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s | %8.1f%% %8.2fkbps\n", r.Name, 100*r.AvailableRatio, r.ThroughputBps/1000)
	}
}
