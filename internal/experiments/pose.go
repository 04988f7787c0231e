package experiments

import (
	"fmt"
	"io"

	"inframe/internal/core"
	"inframe/internal/frame"
	"inframe/internal/impair"
	"inframe/internal/metrics"
	"inframe/internal/register"
)

// PoseTilts is the camera-pose sweep: frontal through grazing, bracketing
// the tilt where the rigid receiver collapses so the table shows both the
// cliff and how far the projective registration pushes it out.
var PoseTilts = []float64{0, 5, 10, 15, 20, 30, 45, 60}

// PoseRow is one tilt setting of the sweep, decoded by both receivers over
// the identical capture set.
type PoseRow struct {
	TiltDeg float64
	// Rigid is the axis-aligned receiver: full-frame mapping, no
	// perspective model — the pre-homography decoder.
	Rigid metrics.Report
	// Registered is the receiver handed the blindly calibrated homography
	// (register.CalibrateProjective over the leading captures).
	Registered metrics.Report
	// Calibrated is false when the blind solve itself failed and the
	// registered decode fell back to the rigid path.
	Calibrated bool
	// Projective reports whether the registered decode actually rectified
	// (false at low tilt, where calibration collapses to the frontal
	// fast path on purpose).
	Projective bool
	// MaxCornerOffsetPx is the decode report's pose diagnostic: how far the
	// solved pose displaces the grid corners from the frontal mapping.
	MaxCornerOffsetPx float64
}

// RunPose measures one tilt: gray video through the camera-pose impairment,
// then two decodes of the same captures — rigid and blindly registered —
// scored against the transmitted oracle.
func RunPose(s Setup, tiltDeg float64) (PoseRow, error) {
	if err := s.Validate(); err != nil {
		return PoseRow{}, err
	}
	// The pose sweep captures at the paper's native sensor resolution: the
	// perspective experiment must not be confounded by the sub-Nyquist cell
	// pitch the spatial downscale would otherwise introduce.
	cfg := s.ChannelConfig(s.poseCaptureSize())
	if tiltDeg > 0 {
		cfg.Impair = &impair.Config{Seed: s.Seed, TiltDeg: tiltDeg}
	}
	e, err := s.transmit(ThroughputSetting{VideoGray, 20, 12}, cfg)
	if err != nil {
		return PoseRow{}, err
	}
	decode := func(pose *frame.Homography) (*decoding, error) {
		return e.decode(func(rc *core.ReceiverConfig) {
			rc.MinCaptureQuality = 0.1
			rc.Pose = pose
		})
	}
	rigid, err := decode(nil)
	if err != nil {
		return PoseRow{}, err
	}
	row := PoseRow{TiltDeg: tiltDeg, Rigid: rigid.perf}
	pose, err := register.CalibrateProjective(e.p.Layout, e.res.Captures[:min(10, len(e.res.Captures))])
	if err != nil {
		// Blind calibration found no usable grid (e.g. grazing tilt): the
		// registered column degrades to the rigid decode rather than
		// failing the sweep.
		row.Registered = rigid.perf
		return row, nil
	}
	row.Calibrated = true
	reg, err := decode(&pose)
	if err != nil {
		return PoseRow{}, err
	}
	row.Registered = reg.perf
	row.Projective = reg.report.Registration.Projective
	row.MaxCornerOffsetPx = reg.report.Registration.MaxCornerOffsetPx
	return row, nil
}

// Pose runs the camera-pose sweep over PoseTilts.
func Pose(s Setup) ([]PoseRow, error) {
	rows := make([]PoseRow, 0, len(PoseTilts))
	for _, tilt := range PoseTilts {
		row, err := RunPose(s, tilt)
		if err != nil {
			return nil, fmt.Errorf("experiments: pose tilt %g: %w", tilt, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WritePose prints the pose sweep: availability and confident-bit error rate
// for the rigid and registered receivers side by side, plus the registration
// diagnostics (path taken, solved corner displacement).
func WritePose(w io.Writer, rows []PoseRow) {
	fmt.Fprintf(w, "%8s | %9s %8s | %9s %8s | %-10s %7s\n",
		"tilt", "available", "err-rate", "available", "err-rate", "path", "corners")
	fmt.Fprintf(w, "%8s | %18s | %18s | %18s\n", "", "rigid", "registered", "registration")
	for _, r := range rows {
		path := "rigid"
		if r.Calibrated {
			path = "frontal"
			if r.Projective {
				path = "projective"
			}
		}
		fmt.Fprintf(w, "%7g° | %8.1f%% %7.2f%% | %8.1f%% %7.2f%% | %-10s %6.1fpx\n",
			r.TiltDeg, 100*r.Rigid.AvailableRatio, 100*r.Rigid.ErrorRate,
			100*r.Registered.AvailableRatio, 100*r.Registered.ErrorRate,
			path, r.MaxCornerOffsetPx)
	}
}
