package experiments

import (
	"fmt"
	"io"

	"inframe/internal/camera"
	"inframe/internal/core"
	"inframe/internal/frame"
	"inframe/internal/metrics"
	"inframe/internal/register"
)

// RegistrationRow compares decoding under camera misregistration with and
// without the blind calibration pass (extension experiment: the paper's
// "how to multiplex on any display" practical-issues question, receiver
// side).
type RegistrationRow struct {
	Name string
	// NaiveCorrect / CalibCorrect are oracle-verified GOB ratios without
	// and with the energy-based registration.
	NaiveCorrect float64
	CalibCorrect float64
}

// Registration runs the gray-video pipeline through cameras that frame the
// display exactly, offset, and zoomed-in, decoding each capture set with
// and without blind calibration.
func Registration(s Setup) ([]RegistrationRow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	l, err := s.layout()
	if err != nil {
		return nil, err
	}

	// The misregistered variants overscan: the camera films the whole
	// monitor plus dark surroundings, centered or shifted — the realistic
	// hand-held misalignments blind calibration can solve. (A camera that
	// crops the data grid partially offscreen loses those Blocks for good;
	// the receiver tolerates it but no calibration can recover them.)
	variants := []struct {
		name string
		crop func(*camera.Config)
	}{
		{"aligned", nil},
		{"overscan 115%", func(c *camera.Config) {
			mx, my := l.FrameW*3/40, l.FrameH*3/40
			c.CropX0, c.CropY0 = -mx, -my
			c.CropW, c.CropH = l.FrameW+2*mx, l.FrameH+2*my
		}},
		{"shifted overscan", func(c *camera.Config) {
			c.CropX0, c.CropY0 = -l.FrameW/8, -l.FrameH/30
			c.CropW, c.CropH = l.FrameW+l.FrameW/6, l.FrameH+l.FrameH/10
		}},
	}
	var out []RegistrationRow
	for _, v := range variants {
		cfg := s.ChannelConfig(s.CaptureSize())
		if v.crop != nil {
			v.crop(&cfg.Camera)
		}
		e, err := s.transmit(ThroughputSetting{VideoGray, 20, 12}, cfg)
		if err != nil {
			return nil, err
		}
		correct := func(pose *frame.Homography) (float64, error) {
			d, err := e.decode(func(rc *core.ReceiverConfig) { rc.Pose = pose })
			if err != nil || d.stats.Total == 0 {
				return 0, err
			}
			return float64(d.stats.OracleCorrect) / float64(d.stats.Total), nil
		}
		naive, err := correct(nil)
		if err != nil {
			return nil, err
		}
		calib, err := register.Calibrate(l, e.res.Captures[:min(6, len(e.res.Captures))])
		calibCorrect := 0.0
		if err == nil {
			h := core.AxisAlignedHomography(calib)
			calibCorrect, err = correct(&h)
			if err != nil {
				return nil, err
			}
		}
		out = append(out, RegistrationRow{Name: v.name, NaiveCorrect: naive, CalibCorrect: calibCorrect})
	}
	return out, nil
}

// WriteRegistration prints the registration comparison.
func WriteRegistration(w io.Writer, rows []RegistrationRow) {
	width := len("camera")
	for _, r := range rows {
		width = max(width, len(r.Name))
	}
	fmt.Fprintf(w, "%-*s | %14s %14s\n", width, "camera", "naive-correct", "calib-correct")
	for _, r := range rows {
		fmt.Fprintf(w, "%-*s | %13.1f%% %13.1f%%\n", width, r.Name, 100*r.NaiveCorrect, 100*r.CalibCorrect)
	}
}

// StreamingRow compares the batch (whole-run calibration) and streaming
// (trailing-window) receivers on the same capture set.
type StreamingRow struct {
	Receiver       string
	AvailableRatio float64
	ErrorRate      float64
}

// Streaming runs the sun-rise pipeline once and decodes it with both
// receiver disciplines. The streaming numbers exclude the warm-up window.
func Streaming(s Setup) ([]StreamingRow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e, err := s.transmit(ThroughputSetting{VideoClip, 20, 12}, s.ChannelConfig(s.CaptureSize()))
	if err != nil {
		return nil, err
	}
	const warmup = 12

	// Batch.
	d, err := e.decode(nil)
	if err != nil {
		return nil, err
	}
	var batch metrics.GOBStats
	for _, fd := range d.frames {
		if fd.Index >= warmup {
			batch.AddWithOracle(fd, e.stream.DataFrame(fd.Index))
		}
	}

	// Streaming.
	sr, err := core.NewStreamingReceiver(e.link.Receiver(e.p), warmup)
	if err != nil {
		return nil, err
	}
	var online metrics.GOBStats
	for i, f := range e.res.Captures {
		for _, fd := range sr.Push(f, e.res.Times[i], e.res.Exposure) {
			if fd.Captures == 0 || fd.Index < warmup {
				continue
			}
			online.AddWithOracle(fd, e.stream.DataFrame(fd.Index))
		}
	}
	return []StreamingRow{
		{Receiver: "batch (whole run)", AvailableRatio: batch.AvailableRatio(), ErrorRate: batch.ErrorRate()},
		{Receiver: "streaming (window)", AvailableRatio: online.AvailableRatio(), ErrorRate: online.ErrorRate()},
	}, nil
}

// WriteStreaming prints the receiver-discipline comparison.
func WriteStreaming(w io.Writer, rows []StreamingRow) {
	fmt.Fprintf(w, "%-20s | %9s %8s\n", "receiver", "available", "err-rate")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s | %8.1f%% %7.2f%%\n", r.Receiver, 100*r.AvailableRatio, 100*r.ErrorRate)
	}
}
