package experiments

import (
	"fmt"
	"io"

	"inframe/internal/core"
	"inframe/internal/metrics"
	"inframe/internal/video"
)

// VideoKind names the paper's three test inputs.
type VideoKind string

const (
	// VideoGray is the pure light-gray input (RGB 180).
	VideoGray VideoKind = "Gray"
	// VideoDarkGray is the pure dark-gray input (RGB 127).
	VideoDarkGray VideoKind = "Dark-Gray"
	// VideoClip is the sun-rising clip.
	VideoClip VideoKind = "Video"
)

// VideoKinds lists the Fig. 7 inputs in the paper's order.
func VideoKinds() []VideoKind { return []VideoKind{VideoGray, VideoDarkGray, VideoClip} }

// source instantiates the named video at the layout's panel size.
func (v VideoKind) source(l core.Layout, seed int64) video.Source {
	switch v {
	case VideoGray:
		return video.Gray(l.FrameW, l.FrameH)
	case VideoDarkGray:
		return video.DarkGray(l.FrameW, l.FrameH)
	case VideoClip:
		return video.NewSunRise(l.FrameW, l.FrameH, seed)
	default:
		panic(fmt.Sprintf("experiments: unknown video %q", v))
	}
}

// ThroughputSetting is one Fig. 7 bar: a (video, δ, τ) combination.
type ThroughputSetting struct {
	Video VideoKind
	Delta float64
	Tau   int
}

// Fig7Settings returns the paper's twelve bars: three videos × four
// parameter settings (δ=20 with τ∈{10,12,14}, and δ=30 with τ=12).
func Fig7Settings() []ThroughputSetting {
	var out []ThroughputSetting
	for _, v := range VideoKinds() {
		for _, pt := range []struct {
			delta float64
			tau   int
		}{{20, 10}, {20, 12}, {20, 14}, {30, 12}} {
			out = append(out, ThroughputSetting{Video: v, Delta: pt.delta, Tau: pt.tau})
		}
	}
	return out
}

// ThroughputRow is one measured Fig. 7 bar.
type ThroughputRow struct {
	Setting ThroughputSetting
	Report  metrics.Report
	// Frames is the number of decoded data frames behind the numbers.
	Frames int
}

// RunSetting simulates one (video, δ, τ) bar end to end: multiplex, display,
// capture with the rolling-shutter camera, demultiplex, and account GOBs
// against the transmitted oracle.
func RunSetting(s Setup, setting ThroughputSetting) (ThroughputRow, error) {
	if err := s.Validate(); err != nil {
		return ThroughputRow{}, err
	}
	e, err := s.transmit(setting, s.ChannelConfig(s.CaptureSize()))
	if err != nil {
		return ThroughputRow{}, err
	}
	d, err := e.decode(nil)
	if err != nil {
		return ThroughputRow{}, err
	}
	return ThroughputRow{Setting: setting, Report: d.perf, Frames: d.stats.Frames}, nil
}

// Throughput reproduces Fig. 7: every bar of the paper's throughput chart.
func Throughput(s Setup) ([]ThroughputRow, error) {
	settings := Fig7Settings()
	rows := make([]ThroughputRow, 0, len(settings))
	for _, st := range settings {
		row, err := RunSetting(s, st)
		if err != nil {
			return nil, fmt.Errorf("experiments: %v δ=%v τ=%d: %w", st.Video, st.Delta, st.Tau, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteThroughput prints the Fig. 7 table: one row per bar with the paper's
// three reported quantities.
func WriteThroughput(w io.Writer, rows []ThroughputRow) {
	fmt.Fprintf(w, "%-10s %5s %4s | %11s %9s %8s | %9s %7s\n",
		"video", "delta", "tau", "throughput", "available", "err-rate", "raw", "frames")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %5.0f %4d | %9.2fkbps %8.1f%% %7.2f%% | %6.2fkbps %7d\n",
			r.Setting.Video, r.Setting.Delta, r.Setting.Tau,
			r.Report.ThroughputBps/1000, 100*r.Report.AvailableRatio,
			100*r.Report.ErrorRate, r.Report.RawBps/1000, r.Frames)
	}
}
