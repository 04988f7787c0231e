// Package experiments reproduces every figure and table of the paper's
// evaluation (§4) on the simulated substrate, plus the ablations DESIGN.md
// calls out. Each experiment returns typed rows and has a matching writer
// that prints the same series the paper reports.
package experiments

import (
	"fmt"

	"inframe/internal/camera"
	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/display"
)

// Setup fixes the global simulation scale. Defaults run the full pipeline
// at half the paper's spatial scale (960×540 display, 640×360 capture),
// which preserves the Block/GOB geometry and Pixel pitch ratios exactly
// while keeping runtimes workable.
type Setup struct {
	// Seed drives all randomness (payloads, noise, panel, ratings).
	Seed int64
	// ScaleDiv divides the paper's 1920×1080/1280×720 geometry (2 → half).
	ScaleDiv int
	// ThroughputSeconds is the simulated duration per Fig. 7 setting.
	ThroughputSeconds float64
	// FlickerSeconds is the simulated duration per Fig. 6 rating.
	FlickerSeconds float64
	// PanelSize is the number of simulated study participants (paper: 8).
	PanelSize int
	// Workers bounds the render's, the channel simulation's and every
	// decode's worker pools (0 = GOMAXPROCS, 1 = sequential). Results are
	// bit-identical at any value.
	Workers int
}

// DefaultSetup returns the standard configuration.
func DefaultSetup() Setup {
	return Setup{
		Seed:              1,
		ScaleDiv:          2,
		ThroughputSeconds: 2.0,
		FlickerSeconds:    1.0,
		PanelSize:         8,
	}
}

// Validate reports whether the setup is usable.
func (s Setup) Validate() error {
	if s.ScaleDiv <= 0 {
		return fmt.Errorf("experiments: ScaleDiv must be positive")
	}
	if s.ThroughputSeconds <= 0 || s.FlickerSeconds <= 0 {
		return fmt.Errorf("experiments: durations must be positive")
	}
	if s.PanelSize <= 0 {
		return fmt.Errorf("experiments: PanelSize must be positive")
	}
	if s.Workers < 0 {
		return fmt.Errorf("experiments: Workers must be non-negative")
	}
	return nil
}

// layout returns the paper geometry at the setup's scale.
func (s Setup) layout() (core.Layout, error) {
	return core.ScaledPaperLayout(s.ScaleDiv)
}

// CaptureSize returns the Lumia-equivalent capture resolution at scale.
func (s Setup) CaptureSize() (int, int) {
	return 1280 / s.ScaleDiv, 720 / s.ScaleDiv
}

// poseCaptureSize returns the capture resolution for the camera-pose sweep:
// the paper's native 1280×720 regardless of ScaleDiv. The spatial downscale
// preserves the display/capture *ratio*, but it also halves the absolute
// Pixel-cell pitch on the sensor to 4/3 capture px — below Nyquist — so a
// scaled capture adds moiré aliasing the paper's hardware never sees (at
// the paper's scale each cell spans 8/3 capture px). FrameW/PixelSize is
// scale-invariant, so the native capture restores the paper's per-cell
// sampling rate at every ScaleDiv.
func (s Setup) poseCaptureSize() (int, int) { return 1280, 720 }

// ChannelConfig returns the standard simulated link at a capW×capH
// capture: 120 Hz display, 30 FPS rolling-shutter camera at the paper's
// office-distance quality, seeded and bounded by the setup. Optical blur is
// left at 0 because at ScaleDiv ≥ 2 one display pixel already aggregates
// 2×2 paper pixels — the blur is baked into the scale. Its Receiver is the
// decoder every experiment starts from.
func (s Setup) ChannelConfig(capW, capH int) channel.Config {
	dcfg := display.DefaultConfig()
	// Instant pixels: the FG2421 is a fast-GtG panel, and an un-strobed
	// response smears each complementary pair into the next (A12).
	dcfg.ResponseTime = 0
	ccfg := camera.DefaultConfig(capW, capH)
	ccfg.BlurRadius = 0
	ccfg.Seed = s.Seed
	ccfg.Workers = s.Workers
	return channel.Config{Display: dcfg, Camera: ccfg, Workers: s.Workers}
}

// flickerLayout is a compact panel for the Fig. 6 perception stimuli: the
// content is uniform, so a small Block grid at the correct Pixel pitch
// produces identical waveforms to the full panel at a fraction of the cost.
func (s Setup) flickerLayout() core.Layout {
	p := 4 / s.ScaleDiv
	if p < 1 {
		p = 1
	}
	bs := 4
	bp := p * bs
	return core.Layout{
		FrameW: 12 * bp, FrameH: 8 * bp,
		PixelSize: p, BlockSize: bs, GOBSize: 2,
		BlocksX: 12, BlocksY: 8,
	}
}

// fullScalePitch converts the scaled Pixel pitch back to paper-equivalent
// screen pixels for the HVS geometry (PixelsPerDegree assumes 1080p).
func (s Setup) fullScalePitch(l core.Layout) float64 {
	return float64(l.PixelSize * s.ScaleDiv)
}
