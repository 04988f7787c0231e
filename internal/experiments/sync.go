package experiments

import (
	"fmt"
	"io"

	"inframe/internal/barcode"
	"inframe/internal/core"
)

// SyncRow is one frame-synchronization accuracy point: how well the
// blind phase estimator recovers the data-frame boundary from captures
// alone, as a function of observation length.
type SyncRow struct {
	Captures int
	// PhaseErrorFrac is the circular phase error as a fraction of the
	// data frame period.
	PhaseErrorFrac float64
}

// SyncAccuracy runs the blind phase estimator against a known camera start
// offset on the gray video, for increasing observation windows.
func SyncAccuracy(s Setup) ([]SyncRow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	setting := ThroughputSetting{VideoGray, 20, 12}
	cfg := s.ChannelConfig(s.CaptureSize())
	// A camera locked at exactly 30 FPS samples only 3 distinct phases of
	// a τ=12 data period, limiting any blind estimator to ±1/6 period.
	// Real camera clocks free-run; a 0.3% skew sweeps the phase space.
	cfg.Camera.FPS = 29.9
	period := float64(setting.Tau) / cfg.Display.RefreshHz
	truePhase := 0.37 * period
	cfg.CameraStart = truePhase
	e, err := s.transmit(setting, cfg)
	if err != nil {
		return nil, err
	}
	res := e.res
	var out []SyncRow
	for _, n := range []int{8, 16, 32, len(res.Captures)} {
		if n > len(res.Captures) {
			n = len(res.Captures)
		}
		est := core.EstimatePhase(res.Captures[:n], res.Times[:n], res.Exposure, period, 96)
		// The estimator reports where steady windows begin on the capture
		// clock; the transmitter's frames start at -truePhase on it.
		errFrac := core.PhaseError(est, 0, period) / period
		out = append(out, SyncRow{Captures: n, PhaseErrorFrac: errFrac})
	}
	return out, nil
}

// WriteSync prints the synchronization accuracy table.
func WriteSync(w io.Writer, rows []SyncRow) {
	fmt.Fprintf(w, "%8s | %12s\n", "captures", "phase-error")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d | %10.1f%%\n", r.Captures, 100*r.PhaseErrorFrac)
	}
}

// BaselineRow compares InFrame against the conventional dynamic barcode on
// the two axes the introduction argues about: data rate and how much of the
// screen the viewer loses.
type BaselineRow struct {
	System        string
	ThroughputBps float64
	// ScreenLoss is the fraction of display area unusable for video.
	ScreenLoss float64
	// Perceptible notes whether the data channel is visible to the viewer.
	Perceptible bool
}

// BarcodeComparison quantifies the §1 contention argument: a corner barcode
// achieves comparable raw rate only by surrendering screen area and showing
// a fully visible code, while InFrame rides invisibly on the full frame.
func BarcodeComparison(s Setup) ([]BaselineRow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// InFrame at the paper's sweet spot on the real video content.
	e, err := s.transmit(ThroughputSetting{VideoClip, 20, 12}, s.ChannelConfig(s.CaptureSize()))
	if err != nil {
		return nil, err
	}
	d, err := e.decode(nil)
	if err != nil {
		return nil, err
	}
	l := e.p.Layout
	bc := barcode.DefaultConfig(l.FrameW, l.FrameH)
	if err := bc.Validate(); err != nil {
		return nil, err
	}
	return []BaselineRow{
		{
			System:        "InFrame (full frame)",
			ThroughputBps: d.perf.ThroughputBps,
			ScreenLoss:    0,
			Perceptible:   false,
		},
		{
			System:        "corner barcode",
			ThroughputBps: bc.RawBps(120),
			ScreenLoss:    bc.AreaFraction(l.FrameW, l.FrameH),
			Perceptible:   true,
		},
	}, nil
}

// WriteBaseline prints the barcode comparison.
func WriteBaseline(w io.Writer, rows []BaselineRow) {
	fmt.Fprintf(w, "%-22s | %11s %11s %12s\n", "system", "throughput", "screen-loss", "perceptible")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s | %8.2fkbps %10.1f%% %12v\n",
			r.System, r.ThroughputBps/1000, 100*r.ScreenLoss, r.Perceptible)
	}
}
