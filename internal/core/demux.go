package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"inframe/internal/fixed"
	"inframe/internal/frame"
	"inframe/internal/parallel"
)

// Detector selects the per-Block bit detector.
type Detector int

const (
	// DetectorEnergy is the paper's method (§3.3): smooth the Block,
	// subtract, sum absolute residual, remove the frame-wide mean.
	DetectorEnergy Detector = iota
	// DetectorMatched is an extension: correlate the Block residual with
	// the known chessboard phase (a matched filter). More robust on
	// textured content; used in ablations.
	DetectorMatched
)

// String implements fmt.Stringer.
func (d Detector) String() string {
	switch d {
	case DetectorEnergy:
		return "energy"
	case DetectorMatched:
		return "matched"
	default:
		return fmt.Sprintf("Detector(%d)", int(d))
	}
}

// Normalize selects the texture-normalization strategy of the receiver.
type Normalize int

const (
	// NormalizeBlockBaseline (default) removes a per-Block temporal
	// baseline: the minimum aggregated energy the Block showed across the
	// decoded data frames. Static video texture contributes the same
	// energy whether the Block carries a 0 or a 1, while the chessboard
	// toggles with the payload, so the minimum estimates the texture
	// floor — background subtraction for the §3.3 "high-texture areas"
	// workaround. Requires payloads that vary across frames (the paper
	// uses pseudo-random data).
	NormalizeBlockBaseline Normalize = iota
	// NormalizeFrameMean removes only the frame-wide mean energy — the
	// most literal reading of the paper's "remove the mean absolute
	// difference". Kept for the ablation; it confuses strongly textured
	// content with data.
	NormalizeFrameMean
)

// String implements fmt.Stringer.
func (n Normalize) String() string {
	switch n {
	case NormalizeBlockBaseline:
		return "block-baseline"
	case NormalizeFrameMean:
		return "frame-mean"
	default:
		return fmt.Sprintf("Normalize(%d)", int(n))
	}
}

// ReceiverConfig describes the InFrame receiver.
type ReceiverConfig struct {
	// Layout is the transmitter's data frame geometry in display pixels.
	Layout Layout
	// CaptureW, CaptureH are the camera frame dimensions; Block
	// rectangles are scaled from display to capture coordinates (the
	// paper's fixed 50 cm setup implies known registration).
	CaptureW, CaptureH int
	// Tau and RefreshHz recover the data frame timing.
	Tau       int
	RefreshHz float64
	// Threshold is T: a Block reads 1 when its normalized noise score
	// exceeds it (scores are frame-mean-removed, so T is near 0).
	Threshold float64
	// MinConfidence is the absolute hysteresis half-width (in energy
	// units): Blocks whose score lies within ±MinConfidence of the
	// threshold are "undecoded", making their GOB unavailable. Under the
	// adaptive stage it acts as the floor of the relative band, which is
	// what makes larger amplitudes decode more Blocks.
	MinConfidence float64
	// Adaptive switches the decision stage to per-Block temporal
	// self-calibration: across the decoded run, each Block's bit-0 and
	// bit-1 energy levels are estimated as its own minimum and maximum
	// aggregated energy, and the threshold sits midway between them. The
	// scheme is invariant to static texture, vignetting and per-region
	// attenuation, and Blocks that never show a usable swing (saturated
	// areas, constant payload bits) come back undecided rather than
	// wrong. Threshold is ignored when set; MinConfidence becomes the
	// absolute band floor. Requires payloads that vary across frames
	// (the paper uses pseudo-random data).
	Adaptive bool
	// AdaptiveBand is the hysteresis half-width as a fraction of the
	// cluster gap (used when Adaptive is set).
	AdaptiveBand float64
	// MinGap is the smallest per-Block bit-0/bit-1 level separation (in
	// energy units) the adaptive stage accepts as a live signal; Blocks
	// below it are undecodable (saturated areas where the clipping
	// adjustment crushed the chessboard, or captures whose exposure
	// integrated a full complementary pair).
	MinGap float64
	// Normalize selects how raw per-Block noise energies are normalized
	// before the decision stage (§3.3's high-texture workaround).
	Normalize Normalize
	// Exposure and ReadoutTime describe the camera's per-row timing (in
	// seconds). When both are known (> 0 exposure), the receiver applies
	// the §3.3 rolling-shutter counter-measure: rows whose exposure is
	// known to straddle a complementary sign flip are compensated by the
	// predicted attenuation, or skipped when mostly cancelled. Zero
	// disables the row-timing model.
	Exposure    float64
	ReadoutTime float64
	// SmoothRadius is the box-blur radius of the §3.3 smoothing step.
	SmoothRadius int
	// Detector selects the bit detector.
	Detector Detector
	// Pose is the display→capture geometry, the receiver's only one. Nil
	// means the capture frames the display exactly (the paper's fixed
	// tripod setup). An exactly axis-aligned Pose — an offset or zoomed
	// camera, as register.Calibrate solves it and AxisAlignedHomography
	// lifts it — collapses to a CaptureMapping and takes the rigid decode
	// path bit-identically. Any other Pose is the projective map of an
	// off-axis camera (tilt, rotation, distance), as solved by
	// register.CalibrateProjective: every measurement rectifies its capture
	// through the pose's inverse warp (pool-borrowed plane) and decodes the
	// rectified view with spatially aggregated, center-weighted Block
	// statistics.
	Pose *frame.Homography
	// Workers bounds the decode worker pool: per-capture energy
	// measurement, per-Block calibration and per-frame decision stages fan
	// out across this many goroutines. 0 means GOMAXPROCS; 1 forces the
	// sequential path. Decodes are bit-identical at any worker count (work
	// is partitioned by capture/Block/frame index and merged by position).
	Workers int
	// Pool supplies the receiver's per-capture scratch frames (the
	// smoothing plane of the §3.3 detector and its blur scratch); each is
	// Put back before the measurement returns, so steady-state decoding
	// allocates no frame buffers. Nil means a private pool. Share one pool
	// with the camera to reuse the same buffers across the whole pipeline.
	Pool *frame.Pool
	// MinCaptureQuality gates individual captures out of the decode: a
	// scored capture whose link quality (block coverage × shutter quality
	// × unclipped fraction, see DecodeReport's quality timeline) falls
	// below this threshold is excluded from aggregation — one garbage
	// capture (occluded, saturated, glitched) then degrades only itself,
	// not every data frame it overlaps. 0 disables the gate; captures are
	// still scored when a report is requested.
	MinCaptureQuality float64
	// RecalibrateEvery splits the adaptive per-Block level calibration
	// into windows of this many data frames, recalibrated independently:
	// slow ambient ramps and auto-exposure gain drift then re-centre each
	// window's thresholds instead of smearing one global level estimate.
	// 0 (the default) calibrates once over the whole run — bit-identical
	// to the pre-windowed decoder. The trailing remainder joins the final
	// window, so no window is ever shorter than the configured length.
	// Windows shorter than ~8 frames starve the percentile estimates.
	RecalibrateEvery int
}

// CaptureMapping is an axis-aligned affine map from display pixel
// coordinates to capture pixel coordinates:
//
//	capX = OffX + dispX·ScaleX,  capY = OffY + dispY·ScaleY.
//
// Rotation is out of scope: the registration experiments cover the
// translation/zoom misalignments a hand-held capture of a full screen
// produces, not arbitrary perspective.
type CaptureMapping struct {
	ScaleX, ScaleY float64
	OffX, OffY     float64
}

// FullFrame returns the identity framing for the given sizes.
func FullFrame(l Layout, capW, capH int) CaptureMapping {
	return CaptureMapping{
		ScaleX: float64(capW) / float64(l.FrameW),
		ScaleY: float64(capH) / float64(l.FrameH),
	}
}

// Apply maps a display coordinate to capture coordinates.
func (m CaptureMapping) Apply(x, y float64) (float64, float64) {
	return m.OffX + x*m.ScaleX, m.OffY + y*m.ScaleY
}

// AxisAlignedHomography lifts a CaptureMapping into homography form.
func AxisAlignedHomography(m CaptureMapping) frame.Homography {
	return frame.AxisAlignedHomography(m.ScaleX, m.ScaleY, m.OffX, m.OffY)
}

// Validate reports whether the mapping is usable.
func (m CaptureMapping) Validate() error {
	if m.ScaleX <= 0 || m.ScaleY <= 0 {
		return fmt.Errorf("core: mapping scales must be positive, got %v, %v", m.ScaleX, m.ScaleY)
	}
	return nil
}

// DefaultReceiverConfig returns a receiver matched to transmitter params and
// a capture size, with detection constants calibrated for the simulated
// channel.
func DefaultReceiverConfig(p Params, capW, capH int) ReceiverConfig {
	return ReceiverConfig{
		Layout:        p.Layout,
		CaptureW:      capW,
		CaptureH:      capH,
		Tau:           p.Tau,
		RefreshHz:     120,
		Threshold:     0,
		MinConfidence: 0.3,
		Adaptive:      true,
		AdaptiveBand:  0.1,
		MinGap:        0.6,
		SmoothRadius:  1,
		Detector:      DetectorEnergy,
	}
}

// Validate reports whether the configuration is usable.
func (c ReceiverConfig) Validate() error {
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	if c.CaptureW <= 0 || c.CaptureH <= 0 {
		return fmt.Errorf("core: invalid capture size %dx%d", c.CaptureW, c.CaptureH)
	}
	if c.Tau < 2 || c.Tau%2 != 0 {
		return fmt.Errorf("core: Tau must be even and >= 2, got %d", c.Tau)
	}
	if c.RefreshHz <= 0 {
		return fmt.Errorf("core: RefreshHz must be positive")
	}
	if c.MinConfidence < 0 {
		return fmt.Errorf("core: MinConfidence must be non-negative")
	}
	if c.Adaptive && (c.AdaptiveBand <= 0 || c.AdaptiveBand >= 0.5) {
		return fmt.Errorf("core: AdaptiveBand must be in (0,0.5), got %v", c.AdaptiveBand)
	}
	if c.MinGap < 0 {
		return fmt.Errorf("core: MinGap must be non-negative")
	}
	if c.SmoothRadius < 1 {
		return fmt.Errorf("core: SmoothRadius must be >= 1")
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be non-negative, got %d", c.Workers)
	}
	if c.MinCaptureQuality < 0 || c.MinCaptureQuality > 1 {
		return fmt.Errorf("core: MinCaptureQuality must be in [0,1], got %v", c.MinCaptureQuality)
	}
	if c.RecalibrateEvery < 0 {
		return fmt.Errorf("core: RecalibrateEvery must be non-negative, got %d", c.RecalibrateEvery)
	}
	return nil
}

// Receiver demultiplexes captured frames back into data frames.
type Receiver struct {
	cfg  ReceiverConfig
	pool *frame.Pool
	// calib is the effective axis-aligned display→capture mapping: the
	// full frame, or the collapsed form of an axis-aligned Pose. In
	// projective mode it maps display coordinates into the *rectified*
	// plane instead, which is the same coordinate system by construction.
	calib CaptureMapping
	// rectify, when non-nil, is the rectified→capture homography
	// Pose ∘ calib⁻¹: every measurement inverse-warps its capture through
	// it into a pool-borrowed frontal plane before the Block scan.
	rectify *frame.Homography
	// rectW, rectH are the dimensions of the plane the Block scan runs on:
	// the capture itself on the rigid path, the display-resolution
	// rectified plane in projective mode.
	rectW, rectH int
	// minGap, minConf are the effective decision floors: the configured
	// MinGap/MinConfidence on the rigid path, scaled by the predicted
	// resample attenuation (warpAttenuation) in projective mode, where the
	// camera sampling plus the rectifying warp shrink the whole energy
	// scale that the absolute floors were calibrated for.
	minGap, minConf float64
	// per-block capture rectangles, precomputed; zero rects mark Blocks
	// outside the camera's view
	rects   []capRect
	visible int
	// intScratch recycles the integer-kernel window-sum buffers across
	// measurements. MeasureCaptureAt runs concurrently across captures
	// (DecodeCaptures fans out per capture on one receiver), so the scratch
	// is a sync.Pool rather than a plain field.
	intScratch sync.Pool
}

type capRect struct{ x0, y0, w, h int }

// intBufs is one measurement's integer scratch: the full-plane window sums
// and the column-pass scratch of fixed.WindowSums.
type intBufs struct {
	sums, col []int32
}

// getIntBufs draws (or grows) the integer scratch for an nPix-pixel,
// h-row capture.
func (r *Receiver) getIntBufs(nPix, h int) *intBufs {
	b, _ := r.intScratch.Get().(*intBufs)
	if b == nil || len(b.sums) < nPix || len(b.col) < h {
		b = &intBufs{sums: make([]int32, nPix), col: make([]int32, h)}
	}
	return b
}

// NewReceiver builds a receiver and precomputes Block→capture geometry.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := cfg.Layout
	calib := FullFrame(l, cfg.CaptureW, cfg.CaptureH)
	var rectify *frame.Homography
	if cfg.Pose != nil {
		if err := cfg.Pose.Validate(); err != nil {
			return nil, err
		}
		if sx, sy, ox, oy, ok := cfg.Pose.AxisAligned(); ok {
			// Frontal fast path: an axis-aligned pose IS a CaptureMapping,
			// and routing it through the rigid decoder keeps clean captures
			// bit-identical to the pre-homography receiver — no silent
			// resampling.
			calib = CaptureMapping{ScaleX: sx, ScaleY: sy, OffX: ox, OffY: oy}
			if err := calib.Validate(); err != nil {
				return nil, err
			}
		} else {
			// Projective mode: decode a rectified view at native display
			// resolution — "what the display showed", frontal. The identity
			// calib makes display coordinates the rectified coordinates, so
			// the warp that *reads* the real capture from the rectified
			// plane is the pose itself. Rectifying at display resolution
			// (not capture resolution) matters when the camera undersamples
			// the panel: a scaled-down rectified plane would shrink the
			// Pixel-cell chessboard toward the resampling Nyquist limit and
			// erase the modulation before the Block scan ever sees it.
			calib = CaptureMapping{ScaleX: 1, ScaleY: 1}
			hr := *cfg.Pose
			rectify = &hr
		}
	}
	pool := cfg.Pool
	if pool == nil {
		pool = frame.NewPool()
	}
	rectW, rectH := cfg.CaptureW, cfg.CaptureH
	minGap, minConf := cfg.MinGap, cfg.MinConfidence
	if rectify != nil {
		rectW, rectH = l.FrameW, l.FrameH
		att := warpAttenuation(l, cfg.CaptureW, cfg.CaptureH, *cfg.Pose, cfg.SmoothRadius, pool)
		minGap *= att
		minConf *= att
	}
	r := &Receiver{cfg: cfg, pool: pool, calib: calib, rectify: rectify,
		rectW: rectW, rectH: rectH, minGap: minGap, minConf: minConf,
		rects: make([]capRect, l.NumBlocks())}
	for by := 0; by < l.BlocksY; by++ {
		for bx := 0; bx < l.BlocksX; bx++ {
			x0, y0, w, h := l.BlockRect(bx, by)
			fx0, fy0 := calib.Apply(float64(x0), float64(y0))
			fx1, fy1 := calib.Apply(float64(x0+w), float64(y0+h))
			//lint:ignore hotalloc rect-corner rounding runs once per Block at receiver construction, not per pixel
			cx0 := int(math.Round(fx0))
			cy0 := int(math.Round(fy0)) //lint:ignore hotalloc same construction-time rounding
			cx1 := int(math.Round(fx1)) //lint:ignore hotalloc same construction-time rounding
			cy1 := int(math.Round(fy1))
			// Inset to keep resample/blur bleed from neighbouring Blocks
			// out of the measurement.
			if cx1-cx0 > 6 {
				cx0++
				cx1--
			}
			if cy1-cy0 > 6 {
				cy0++
				cy1--
			}
			if cx0 < 0 {
				cx0 = 0
			}
			if cy0 < 0 {
				cy0 = 0
			}
			if cx1 > rectW {
				cx1 = rectW
			}
			if cy1 > rectH {
				cy1 = rectH
			}
			if cx1-cx0 < 2 || cy1-cy0 < 2 {
				// Block outside (or nearly outside) the camera's view:
				// it stays permanently undecodable rather than failing
				// the whole receiver — a zoomed-in capture legitimately
				// misses border Blocks.
				r.rects[by*l.BlocksX+bx] = capRect{}
				continue
			}
			r.rects[by*l.BlocksX+bx] = capRect{x0: cx0, y0: cy0, w: cx1 - cx0, h: cy1 - cy0}
			r.visible++
		}
	}
	if r.visible == 0 {
		return nil, fmt.Errorf("core: no block maps into the capture")
	}
	return r, nil
}

// warpAttenuation predicts how much chessboard residual energy survives the
// projective receiver's resampling chain — the camera's capture-resolution
// sampling followed by the rectifying inverse warp — relative to reading the
// displayed pattern directly. The probe is pure arithmetic on the
// configuration: a synthetic full-amplitude chessboard is warped from the
// display plane into the capture and back into the rectified plane, and the
// §3.3 blur-subtract residual of the round trip is compared against the
// pristine pattern's. The ratio rescales the receiver's absolute decision
// floors (MinGap, MinConfidence), which are calibrated against unattenuated
// cells: an undersampling camera at a steep pose can shrink the whole energy
// scale several-fold without losing the signal, and unscaled floors would
// reject every Block as dead. Clamped to [0.02, 1] so a degenerate probe can
// neither zero the floors nor inflate them.
func warpAttenuation(l Layout, capW, capH int, pose frame.Homography, smoothRadius int, pool *frame.Pool) float64 {
	inv, err := pose.Invert()
	if err != nil {
		return 1 // Validate already vouched for the pose; stay neutral
	}
	probe := pool.Get(l.FrameW, l.FrameH)
	defer pool.Put(probe)
	p := l.PixelSize
	for y := 0; y < l.FrameH; y++ {
		for x := 0; x < l.FrameW; x++ {
			if ChessOn(x/p, y/p) {
				probe.Pix[y*l.FrameW+x] = 200
			} else {
				probe.Pix[y*l.FrameW+x] = 55
			}
		}
	}
	cap_ := pool.Get(capW, capH)
	defer pool.Put(cap_)
	frame.WarpInto(probe, cap_, inv)
	rect := pool.Get(l.FrameW, l.FrameH)
	defer pool.Put(rect)
	frame.WarpInto(cap_, rect, pose)
	ideal := blurResidual(probe, smoothRadius, pool)
	if !(ideal > 0) {
		return 1
	}
	att := blurResidual(rect, smoothRadius, pool) / ideal
	if att < 0.02 {
		return 0.02
	}
	if att > 1 {
		return 1
	}
	return att
}

// blurResidual is the frame-mean §3.3 detector statistic: mean |pix − blur|.
func blurResidual(f *frame.Frame, radius int, pool *frame.Pool) float64 {
	sm := pool.Get(f.W, f.H)
	defer pool.Put(sm)
	frame.BoxBlurInto(f, sm, radius, pool)
	var acc float64
	for i, v := range f.Pix {
		acc += math.Abs(float64(v - sm.Pix[i]))
	}
	return acc / float64(len(f.Pix))
}

// Config returns the receiver configuration.
func (r *Receiver) Config() ReceiverConfig { return r.cfg }

// DataFramePeriod returns the duration of one data frame in seconds.
func (r *Receiver) DataFramePeriod() float64 {
	return float64(r.cfg.Tau) / r.cfg.RefreshHz
}

// rowAttenuationFloor is the predicted complementary-cancellation factor
// below which a sensor row is dropped outright; rows above it enter the
// block estimate with SNR weighting (weight ∝ attenuation), which keeps
// mildly straddled rows useful without amplifying the noise energy of
// nearly-cancelled ones. The weighting bias is constant across data frames
// (row timing repeats), so the per-Block baseline normalization removes it.
const rowAttenuationFloor = 0.15

// rowWeights returns, for each capture row, the predicted chessboard
// attenuation caused by the row's exposure straddling a complementary sign
// flip (1 = clean, 0 = dropped). t0 is the first row's exposure start; rows
// read out uniformly over ReadoutTime. Returns nil when the timing model is
// disabled or the capture time is unknown (NaN).
func (r *Receiver) rowWeights(t0 float64) []float64 {
	if r.cfg.Exposure <= 0 || math.IsNaN(t0) {
		return nil
	}
	T := 1 / r.cfg.RefreshHz
	rowDt := 0.0
	if r.cfg.CaptureH > 1 {
		rowDt = r.cfg.ReadoutTime / float64(r.cfg.CaptureH)
	}
	ws := make([]float64, r.cfg.CaptureH)
	for y := range ws {
		start := t0 + float64(y)*rowDt
		// Exact range reduction: start may sit thousands of refresh periods
		// into the run, where a Trunc(start/T)*T rewrite loses the low bits
		// that decide which side of a sign flip the row landed on.
		//lint:ignore hotalloc one Mod per sensor row per measurement, not per pixel, and exact reduction is load-bearing
		phase := math.Mod(start, T)
		if phase < 0 {
			phase += T
		}
		remain := T - phase
		if remain >= r.cfg.Exposure {
			ws[y] = 1
			continue
		}
		// Fraction w of the exposure before the sign flip: residual
		// chessboard amplitude is |2w−1| of the steady value.
		w := remain / r.cfg.Exposure
		att := math.Abs(2*w - 1)
		if att < rowAttenuationFloor {
			ws[y] = 0
		} else {
			ws[y] = att
		}
	}
	return ws
}

// MeasureCapture computes the raw per-Block noise energy of one captured
// frame (§3.3: smooth, subtract, sum absolute residual) without row-timing
// information. Energies are indexed by·BlocksX+bx.
func (r *Receiver) MeasureCapture(f *frame.Frame) []float64 {
	scores, _ := r.MeasureCaptureAt(f, math.NaN())
	return scores
}

// MeasureCaptureAt is MeasureCapture with the capture's exposure start time,
// enabling the rolling-shutter row compensation when the receiver's timing
// model is configured. Blocks whose every row was dropped yield NaN. The
// second result is a per-Block measurement quality in (0,1]: the fraction of
// the block's row-weight mass that survived the shutter model — low quality
// means a noisier estimate.
func (r *Receiver) MeasureCaptureAt(f *frame.Frame, t0 float64) ([]float64, []float64) {
	if f.W != r.cfg.CaptureW || f.H != r.cfg.CaptureH {
		panic(fmt.Sprintf("core: capture %dx%d does not match receiver %dx%d",
			f.W, f.H, r.cfg.CaptureW, r.cfg.CaptureH))
	}
	// Projective mode: rectify the capture into a pool-borrowed frontal
	// plane first, then run the unchanged Block scan on it — the warp, not
	// the scan, absorbs the pose. The plane is scratch (returned before this
	// measurement ends), and the warp depends only on (capture, homography),
	// so pose-mode decodes stay bit-identical at any worker count.
	if r.rectify != nil {
		rectified := r.pool.Get(r.rectW, r.rectH)
		frame.WarpInto(f, rectified, *r.rectify)
		scores, quality := r.measureOn(rectified, t0, true)
		r.pool.Put(rectified)
		return scores, quality
	}
	return r.measureOn(f, t0, false)
}

// measureOn runs the §3.3 Block scan over one plane — the capture itself on
// the rigid path, the pool-borrowed rectified plane in projective mode
// (warped = true, which adds the spatial-aggregation tent weighting).
func (r *Receiver) measureOn(f *frame.Frame, t0 float64, warped bool) ([]float64, []float64) {
	scores := make([]float64, len(r.rects))
	quality := make([]float64, len(r.rects))
	// Integer fast path (DESIGN.md §5j): an 8-bit-quantized capture under
	// the energy detector measures through exact integer window sums
	// instead of the float box blur — Σ|pix·(2r+1)² − windowsum| / (2r+1)²
	// is the blur-subtract residual without the float rounding of the
	// two-pass blur. Matched-detector and non-integral (e.g. analog-gain
	// impaired) captures keep the float path. The radius bounds restate
	// ReceiverConfig.Validate so the fixed.WindowSums //range contract is
	// provable at this call site.
	sr := r.cfg.SmoothRadius
	var (
		sm    *frame.Frame
		bufs  *intBufs
		scale int32 = 1
	)
	if r.cfg.Detector == DetectorEnergy && sr >= 1 && sr <= 128 && fixed.IsIntegral8(f.Pix) {
		bufs = r.getIntBufs(len(f.Pix), f.H)
		fixed.WindowSums(f.Pix, f.W, f.H, sr, bufs.sums, bufs.col)
		side := int32(2*sr + 1)
		scale = side * side
	} else {
		// The smoothing plane is pure scratch: borrowed from the pool for
		// the scan below and returned before this measurement ends.
		sm = r.pool.Get(f.W, f.H)
		frame.BoxBlurInto(f, sm, r.cfg.SmoothRadius, r.pool)
	}
	weights := r.rowWeights(t0)
	l := r.cfg.Layout
	// Chessboard phase in capture coordinates, for the matched detector:
	// display Pixel (x/p, y/p) found by inverting the calibration map (in
	// projective mode the scan runs on the rectified plane, where the
	// axis-aligned calib is the correct map by construction).
	calib := r.calib
	sxInv := 1 / calib.ScaleX
	syInv := 1 / calib.ScaleY
	offX, offY := calib.OffX, calib.OffY
	for i, rect := range r.rects {
		if rect.w == 0 || rect.h == 0 {
			scores[i] = math.NaN()
			continue
		}
		var acc float64
		var n float64
		// Shutter weights are indexed by *sensor* row. On the rigid path the
		// scan plane is the sensor; in projective mode each rectified row
		// images from the sensor row the pose maps it to (taken at the
		// Block's center column — row-timing varies slowly across a Block).
		cxMid := float64(rect.x0) + float64(rect.w)/2
		for y := rect.y0; y < rect.y0+rect.h; y++ {
			rowW := 1.0
			if weights != nil {
				wy := y
				if warped {
					_, fy, ok := r.rectify.Apply(cxMid, float64(y)+0.5)
					if !ok {
						continue
					}
					wy = int(fy)
					if wy < 0 || wy >= len(weights) {
						// The row reads only overscan zeros; skip it.
						continue
					}
				}
				rowW = weights[wy]
				//lint:ignore floateq rowWeights assigns the exact sentinel 0 below the attenuation floor; this tests that sentinel
				if rowW == 0 {
					continue
				}
			}
			if warped {
				// Spatial-aggregation weighting for residual warp: a tent
				// over the Block's rows, [0.5, 1] with the peak at the
				// center. Registration errors displace a Block's edges
				// first, so edge rows carry the neighbour-mixing risk;
				// down-weighting them degrades the estimate smoothly with
				// residual warp instead of cliffing, and the SNR-style
				// Σw·m / Σw² estimator below stays unbiased for clean rows.
				fr := float64(2*(y-rect.y0)+1)/float64(rect.h) - 1
				rowW *= 1 - 0.5*math.Abs(fr)
			}
			base := y * f.W
			var rowAcc float64
			if bufs != nil {
				rs := base + rect.x0
				rowAcc = float64(fixed.RowAbsEnergy(f.Pix[rs:rs+rect.w], bufs.sums[rs:rs+rect.w], scale)) / float64(scale)
			} else {
				for x := rect.x0; x < rect.x0+rect.w; x++ {
					d := float64(f.Pix[base+x] - sm.Pix[base+x])
					switch r.cfg.Detector {
					case DetectorMatched:
						dx := int((float64(x)-offX)*sxInv) / l.PixelSize
						dy := int((float64(y)-offY)*syInv) / l.PixelSize
						if ChessOn(dx, dy) {
							rowAcc += d
						} else {
							rowAcc -= d
						}
					default:
						rowAcc += math.Abs(d)
					}
				}
			}
			// SNR weighting: estimate = Σ w·m / Σ w², which reduces to the
			// plain mean when every row is clean (w = 1).
			acc += rowAcc * rowW
			n += float64(rect.w) * rowW * rowW
		}
		// n sums strictly positive terms (rect.w · rowW², rowW ≥ the
		// attenuation floor), so it is exactly zero iff every row was
		// skipped — the division guard needs the exact test.
		//lint:ignore floateq divide-by-zero guard on a sum of strictly positive terms
		if n == 0 {
			scores[i] = math.NaN()
			quality[i] = 0
			continue
		}
		s := acc / n
		if r.cfg.Detector == DetectorMatched {
			s = math.Abs(s)
		}
		scores[i] = s
		quality[i] = n / float64(rect.w*rect.h)
	}
	if bufs != nil {
		r.intScratch.Put(bufs)
	}
	r.pool.Put(sm) // nil on the integer path: a no-op by the Put contract
	return scores, quality
}

// BlockDecision is the tri-state outcome of a Block detector.
type BlockDecision int8

const (
	// BlockUndecided means the score fell inside the hysteresis band.
	BlockUndecided BlockDecision = iota
	// BlockZero is a confidently decoded 0.
	BlockZero
	// BlockOne is a confidently decoded 1.
	BlockOne
)

// GOBResult summarizes one Group of Blocks of one decoded data frame.
type GOBResult struct {
	GX, GY int
	// Available: every component Block was confidently decoded (§4's
	// "available GOB").
	Available bool
	// ParityOK: for available GOBs, whether the XOR parity held.
	ParityOK bool
	// Cause classifies the erasure: CauseNone for delivered GOBs, else
	// the worst failure among the GOB's Blocks (or CauseParity when every
	// Block decoded but the parity failed).
	Cause ErasureCause
}

// FrameDecode is the decoded form of one data frame.
type FrameDecode struct {
	// Index is the data frame index.
	Index int
	// Captures is how many captured frames contributed.
	Captures int
	// Bits holds the per-Block decisions (threshold sign), defined even
	// for undecided Blocks.
	Bits *DataFrame
	// Decided flags which Blocks cleared the confidence band.
	Decided []bool
	// BlockCauses records, per Block, why it stayed undecided (CauseNone
	// for decided Blocks).
	BlockCauses []ErasureCause
	// GOBs holds per-GOB availability, parity and erasure-cause outcomes.
	GOBs []GOBResult
}

// AvailableGOBs counts available GOBs.
func (fd *FrameDecode) AvailableGOBs() int {
	n := 0
	for _, g := range fd.GOBs {
		if g.Available {
			n++
		}
	}
	return n
}

// ErroneousGOBs counts available GOBs that failed parity.
func (fd *FrameDecode) ErroneousGOBs() int {
	n := 0
	for _, g := range fd.GOBs {
		if g.Available && !g.ParityOK {
			n++
		}
	}
	return n
}

// cluster2 estimates the bit-0 and bit-1 score levels robustly as the 20th
// and 80th percentiles of the finite score distribution. With roughly
// balanced random payloads the percentiles land inside the two clusters,
// and — unlike k-means — the estimate is immune to a minority tail of
// strongly textured outlier blocks. Degenerate inputs (no finite scores,
// all-equal scores) return equal levels; callers must treat a non-positive
// gap as "nothing decodable", never as a usable threshold.
func cluster2(scores []float64) (c0, c1 float64) {
	clean := make([]float64, 0, len(scores))
	for _, s := range scores {
		if !math.IsNaN(s) && !math.IsInf(s, 0) {
			clean = append(clean, s)
		}
	}
	if len(clean) == 0 {
		return 0, 0
	}
	sort.Float64s(clean)
	pct := func(q float64) float64 {
		return clean[int(q*float64(len(clean)-1))]
	}
	return pct(0.20), pct(0.80)
}

// DecodeScores converts accumulated per-Block scores into a FrameDecode,
// applying the decision stage (fixed threshold+hysteresis, or adaptive
// cluster-relative decision) and per-GOB parity.
// DecodeScores converts per-Block scores into a FrameDecode. quality may be
// nil (all blocks at full quality); low-quality blocks get a proportionally
// wider hysteresis band, since their estimates carry more noise.
func (r *Receiver) DecodeScores(index int, scores []float64, quality []float64, captures int) *FrameDecode {
	l := r.cfg.Layout
	fd := &FrameDecode{
		Index:       index,
		Captures:    captures,
		Bits:        NewDataFrame(l),
		Decided:     make([]bool, l.NumBlocks()),
		BlockCauses: make([]ErasureCause, l.NumBlocks()),
	}
	threshold := r.cfg.Threshold
	band := r.minConf
	if r.cfg.Adaptive && len(scores) > 1 {
		c0, c1 := cluster2(scores)
		gap := c1 - c0
		threshold = (c0 + c1) / 2
		band = r.cfg.AdaptiveBand * gap
		if band < r.minConf {
			band = r.minConf
		}
		// !(gap > 0) also catches NaN: a degenerate frame (all-equal or
		// all-unusable scores — e.g. a black video whose δ the clipping
		// adjustment crushed to nothing) must come back all-unavailable,
		// not as a zero-width threshold that "confidently" decodes noise.
		if !(gap > 0) || gap < r.minGap {
			band = math.Inf(1) // degenerate frame: nothing decodable
		}
		if math.IsNaN(threshold) {
			threshold = 0
			band = math.Inf(1)
		}
	}
	for i, s := range scores {
		if math.IsNaN(s) {
			fd.Bits.Bits[i] = false
			fd.Decided[i] = false
			fd.BlockCauses[i] = CauseNoSignal
			continue
		}
		blockBand := band
		if quality != nil && quality[i] > 0 && quality[i] < 1 {
			blockBand = band / math.Sqrt(quality[i])
		}
		fd.Bits.Bits[i] = s > threshold
		fd.Decided[i] = math.Abs(s-threshold) >= blockBand
		if !fd.Decided[i] {
			if math.IsInf(blockBand, 1) {
				// The degenerate-frame sentinel: no usable swing anywhere.
				fd.BlockCauses[i] = CauseNoSwing
			} else {
				fd.BlockCauses[i] = CauseLowConfidence
			}
		}
	}
	buildGOBs(fd, l)
	return fd
}

// buildGOBs derives the per-GOB availability, parity and erasure-cause
// summary from a frame's Block decisions — the single GOB aggregation every
// decode path (batch, adaptive, streaming, empty) runs through. An erased
// GOB reports the worst cause among its undecided Blocks; an available GOB
// failing parity reports CauseParity.
func buildGOBs(fd *FrameDecode, l Layout) {
	gobsX, gobsY := l.GOBsX(), l.GOBsY()
	gobs := make([]GOBResult, 0, gobsX*gobsY)
	for gy := 0; gy < gobsY; gy++ {
		for gx := 0; gx < gobsX; gx++ {
			res := GOBResult{GX: gx, GY: gy, Available: true}
			for _, blk := range l.GOBBlocks(gx, gy) {
				j := blk[1]*l.BlocksX + blk[0]
				if fd.Decided[j] {
					continue
				}
				res.Available = false
				if fd.BlockCauses != nil && fd.BlockCauses[j] > res.Cause {
					res.Cause = fd.BlockCauses[j]
				} else if fd.BlockCauses == nil && res.Cause < CauseLowConfidence {
					res.Cause = CauseLowConfidence
				}
			}
			if res.Available {
				res.ParityOK = fd.Bits.ParityOK(gx, gy)
				if !res.ParityOK {
					res.Cause = CauseParity
				}
			}
			gobs = append(gobs, res)
		}
	}
	fd.GOBs = gobs
}

// steadyWindow returns the span of mid-exposure times for which a capture
// of exposure e sees data frame d at full amplitude: the envelope is steady
// over [0, τ/2) of the period (the previous transition completes exactly at
// the boundary, §3.2), so a capture fits when its whole exposure lies
// inside [0, P/2]. If the exposure is too long for any fully-steady
// placement, the window degrades gracefully to the center of the first
// half.
func (r *Receiver) steadyWindow(d int, exposure float64) (t0, t1 float64) {
	period := r.DataFramePeriod()
	start := float64(d) * period
	lo := exposure / 2
	hi := period/2 - exposure/2
	if hi < lo {
		mid := period / 4
		return start + mid, start + mid
	}
	return start + lo, start + hi
}

// DecodeCaptures demultiplexes a captured sequence (frames plus exposure
// start times) into data frames 0..nFrames-1, using the receiver's timing
// model to select the captures whose mid-exposure falls in each data
// frame's steady window. Data frames observed by no capture yield a
// FrameDecode with zero captures and no available GOBs.
//
// Decoding is two-pass: raw per-Block energies are first aggregated per
// data frame, then normalized across frames (per-Block temporal baseline or
// frame mean, per the configuration) before the per-frame decision stage.
//
// The expensive stages fan out across the configured workers — energy
// measurement per capture, then decision per data frame — with every
// intermediate merged by index, so the result is bit-identical to a
// sequential decode.
func (r *Receiver) DecodeCaptures(caps []*frame.Frame, times []float64, exposure float64, nFrames int) []*FrameDecode {
	dec, _ := r.decodeCaptures(caps, times, exposure, nFrames, false)
	return dec
}

// DecodeCapturesReport is DecodeCaptures plus the graceful-degradation
// companion report: the per-capture link-quality timeline, gap and resync
// accounting, and (through the frames' GOB causes) the erasure breakdown.
// The decoded frames are identical to DecodeCaptures' — the report is an
// observation layer, not a different decoder — except where the
// MinCaptureQuality gate excludes captures, which applies to both entry
// points equally.
func (r *Receiver) DecodeCapturesReport(caps []*frame.Frame, times []float64, exposure float64, nFrames int) ([]*FrameDecode, *DecodeReport) {
	return r.decodeCaptures(caps, times, exposure, nFrames, true)
}

func (r *Receiver) decodeCaptures(caps []*frame.Frame, times []float64, exposure float64, nFrames int, wantReport bool) ([]*FrameDecode, *DecodeReport) {
	if len(caps) != len(times) {
		panic("core: captures and times length mismatch")
	}
	nBlocks := r.cfg.Layout.NumBlocks()
	// Selection pass (cheap, pure timing): which captures contribute to
	// which data frame.
	selected := make([][]int, nFrames)
	neededSet := make([]bool, len(caps))
	for d := 0; d < nFrames; d++ {
		t0, t1 := r.steadyWindow(d, exposure)
		for i, t := range times {
			mid := t + exposure/2
			if mid < t0 || mid > t1 {
				continue
			}
			selected[d] = append(selected[d], i)
			neededSet[i] = true
		}
	}
	needed := make([]int, 0, len(caps))
	for i, n := range neededSet {
		if n {
			needed = append(needed, i)
		}
	}
	// Measurement pass: per-capture Block energy scans are independent, so
	// they fan out; each worker writes only its capture's slot. Link
	// quality rides along when the gate or a report needs it — a pure
	// observation, so the clean path's decode is untouched by it.
	measured := make([][]float64, len(caps))
	qualities := make([][]float64, len(caps))
	gating := r.cfg.MinCaptureQuality > 0
	var capQuality []float64
	if wantReport || gating {
		capQuality = make([]float64, len(caps))
	}
	parallel.For(r.cfg.Workers, len(needed), func(j int) {
		i := needed[j]
		measured[i], qualities[i] = r.MeasureCaptureAt(caps[i], times[i])
		if capQuality != nil {
			capQuality[i] = r.linkQuality(caps[i], measured[i], qualities[i])
		}
	})
	var excluded []bool
	if gating {
		excluded = make([]bool, len(caps))
		for _, i := range needed {
			excluded[i] = capQuality[i] < r.cfg.MinCaptureQuality
		}
	}
	// Aggregation pass: same capture order per frame as the sequential
	// code, so float accumulation is bit-identical.
	agg := make([][]float64, nFrames)
	qual := make([][]float64, nFrames)
	counts := make([]int, nFrames)
	blockN := make([]float64, nBlocks)
	for d := 0; d < nFrames; d++ {
		var acc []float64
		for j := range blockN {
			blockN[j] = 0
		}
		for _, i := range selected[d] {
			if excluded != nil && excluded[i] {
				continue
			}
			if acc == nil {
				acc = make([]float64, nBlocks)
				qual[d] = make([]float64, nBlocks)
			}
			for j, s := range measured[i] {
				if math.IsNaN(s) {
					continue // block fully inside a dropped row band
				}
				acc[j] += s
				qual[d][j] += qualities[i][j]
				blockN[j]++
			}
			counts[d]++
		}
		if acc != nil {
			for j := range acc {
				if blockN[j] > 0 {
					acc[j] /= blockN[j]
					qual[d][j] /= blockN[j]
				} else {
					acc[j] = math.NaN()
				}
			}
		}
		agg[d] = acc
	}

	var out []*FrameDecode
	if r.cfg.Adaptive {
		out = r.decodePerBlock(agg, qual, counts)
	} else {
		r.normalize(agg)
		out = make([]*FrameDecode, nFrames)
		parallel.For(r.cfg.Workers, nFrames, func(d int) {
			if counts[d] == 0 {
				out[d] = r.emptyDecode(d)
				return
			}
			out[d] = r.DecodeScores(d, agg[d], qual[d], counts[d])
		})
	}
	if !wantReport {
		return out, nil
	}
	rep := &DecodeReport{Frames: out, Quality: make([]CaptureQuality, len(caps)), Registration: r.registration()}
	for i := range caps {
		q := CaptureQuality{Index: i, Time: times[i]}
		if neededSet[i] {
			q.Scored = true
			q.Quality = capQuality[i]
			if excluded != nil && excluded[i] {
				q.Excluded = true
				rep.ExcludedCaptures++
			} else {
				q.Used = true
			}
		}
		rep.Quality[i] = q
	}
	prevGap := false
	for d, fd := range out {
		gap := fd.Captures == 0
		if gap {
			rep.GapFrames++
		} else if prevGap && d > 0 {
			// A frame decoded again after a gap: the receiver resynced.
			rep.Resyncs++
		}
		prevGap = gap
	}
	return out, rep
}

// registration derives the decode report's geometric diagnostics from the
// receiver's construction-time state: pure arithmetic on the configuration,
// identical at every worker count.
func (r *Receiver) registration() Registration {
	reg := Registration{Projective: r.rectify != nil}
	if r.cfg.Pose == nil {
		return reg
	}
	reg.Pose = r.cfg.Pose.M
	l := r.cfg.Layout
	x1 := float64(l.MarginX() + l.BlocksX*l.BlockPx())
	y1 := float64(l.MarginY() + l.BlocksY*l.BlockPx())
	var worst float64
	for _, c := range [4][2]float64{
		{float64(l.MarginX()), float64(l.MarginY())},
		{x1, float64(l.MarginY())},
		{x1, y1},
		{float64(l.MarginX()), y1},
	} {
		px, py, ok := r.cfg.Pose.Apply(c[0], c[1])
		if !ok {
			continue
		}
		ax, ay := r.calib.Apply(c[0], c[1])
		// Compare squared distances in the loop; one Sqrt at the end.
		if d := (px-ax)*(px-ax) + (py-ay)*(py-ay); d > worst {
			worst = d
		}
	}
	reg.MaxCornerOffsetPx = math.Sqrt(worst)
	return reg
}

// linkQuality scores one measured capture in [0, 1]: the product of Block
// coverage (finite measurements over visible Blocks), mean shutter quality
// (how much row-weight mass survived the rolling-shutter model) and the
// fraction of unclipped pixels (clipped pixels carry no chessboard energy —
// saturation, occlusion, a glitched readout). The pixel scan subsamples with
// a stride coprime to typical widths; quality feeds the MinCaptureQuality
// gate and the decode report's timeline, never the clean decode itself.
func (r *Receiver) linkQuality(f *frame.Frame, scores, quality []float64) float64 {
	finite := 0
	var shutterSum float64
	shutterN := 0
	for i, s := range scores {
		if !math.IsNaN(s) && !math.IsInf(s, 0) {
			finite++
		}
		if quality[i] > 0 {
			shutterSum += quality[i]
			shutterN++
		}
	}
	cover := float64(finite) / float64(r.visible)
	shutter := 0.0
	if shutterN > 0 {
		shutter = shutterSum / float64(shutterN)
		if shutter > 1 {
			shutter = 1
		}
	}
	clipped, n := 0, 0
	for i := 0; i < len(f.Pix); i += 7 {
		v := f.Pix[i]
		if v <= 0.5 || v >= 254.5 {
			clipped++
		}
		n++
	}
	q := cover * shutter * (1 - float64(clipped)/float64(n))
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// emptyDecode builds the all-undecided FrameDecode of a data frame no
// capture observed: a timing gap, every Block and GOB marked CauseNoCapture.
func (r *Receiver) emptyDecode(d int) *FrameDecode {
	l := r.cfg.Layout
	fd := &FrameDecode{
		Index:       d,
		Bits:        NewDataFrame(l),
		Decided:     make([]bool, l.NumBlocks()),
		BlockCauses: make([]ErasureCause, l.NumBlocks()),
	}
	for j := range fd.BlockCauses {
		fd.BlockCauses[j] = CauseNoCapture
	}
	buildGOBs(fd, l)
	return fd
}

// calibrateLevels estimates each Block's bit-0 and bit-1 energy levels over
// the given aggregated frames: the 10th/90th percentiles of the Block's own
// finite energy time series. Percentiles rather than extremes keep a single
// texture spike from inflating the Block's band forever, while still letting
// genuine content fluctuations produce the (realistic) occasional confident
// error. Blocks with no finite samples come back (+Inf, −Inf). The per-Block
// work is independent and each slot written exactly once, so the fan-out
// merges by index.
func (r *Receiver) calibrateLevels(rows [][]float64) (lo, hi []float64) {
	nBlocks := r.cfg.Layout.NumBlocks()
	series := make([][]float64, nBlocks)
	for _, row := range rows {
		if row == nil {
			continue
		}
		for j, s := range row {
			if !math.IsNaN(s) {
				series[j] = append(series[j], s)
			}
		}
	}
	lo = make([]float64, nBlocks)
	hi = make([]float64, nBlocks)
	parallel.ForChunked(r.cfg.Workers, nBlocks, func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			sv := series[j]
			if len(sv) == 0 {
				lo[j] = math.Inf(1)
				hi[j] = math.Inf(-1)
				continue
			}
			sort.Float64s(sv)
			lo[j], hi[j] = levelPercentiles(sv)
		}
	})
	return lo, hi
}

// levelPercentiles picks a Block's bit-0 and bit-1 levels from its sorted,
// non-empty energy series: the 10th and 90th percentiles.
func levelPercentiles(sorted []float64) (lo, hi float64) {
	n := float64(len(sorted) - 1)
	return sorted[int(0.1*n)], sorted[int(math.Ceil(0.9*n))]
}

// decodePerBlock implements the adaptive per-Block decision stage: each
// Block's bit levels are its own percentiles across the calibration span
// (calibrateLevels), and every frame is decided against them by
// decideFrame. With RecalibrateEvery set, the run is calibrated in
// independent windows so the thresholds track slow lighting and gain drift.
func (r *Receiver) decodePerBlock(agg, qual [][]float64, counts []int) []*FrameDecode {
	if len(agg) == 0 {
		return make([]*FrameDecode, 0)
	}
	win := r.cfg.RecalibrateEvery
	if win <= 0 || win > len(agg) {
		win = len(agg)
	}
	type levels struct{ lo, hi []float64 }
	// The trailing remainder joins the final window: a runt window of a few
	// frames starves the percentile estimates far worse than a slightly
	// longer final window smears them.
	nWins := len(agg) / win
	if nWins == 0 {
		nWins = 1
	}
	wins := make([]levels, 0, nWins)
	for w := 0; w < nWins; w++ {
		w0 := w * win
		w1 := w0 + win
		if w == nWins-1 {
			w1 = len(agg)
		}
		lo, hi := r.calibrateLevels(agg[w0:w1])
		wins = append(wins, levels{lo: lo, hi: hi})
	}
	out := make([]*FrameDecode, len(agg))
	parallel.For(r.cfg.Workers, len(agg), func(d int) {
		row := agg[d]
		if counts[d] == 0 || row == nil {
			out[d] = r.emptyDecode(d)
			return
		}
		wi := d / win
		if wi >= len(wins) {
			wi = len(wins) - 1
		}
		out[d] = r.decideFrame(d, counts[d], row, qual[d], wins[wi].lo, wins[wi].hi)
	})
	return out
}

// decideFrame is the adaptive per-Block decision of data frame d, shared by
// the batch and the streaming decoder so both apply the same effective
// (pose-attenuated) floors. Each Block's threshold is the midpoint of its
// calibrated levels lo, hi and its hysteresis band the larger of the
// relative band and the confidence floor, widened by 1/√q for a
// shutter-degraded measurement of link quality q; quality may be nil
// (no widening). A Block without a finite score or levels, or whose level
// gap falls below the swing floor, is an erasure.
func (r *Receiver) decideFrame(d, captures int, scores, quality, lo, hi []float64) *FrameDecode {
	l := r.cfg.Layout
	nBlocks := l.NumBlocks()
	fd := &FrameDecode{
		Index:       d,
		Captures:    captures,
		Bits:        NewDataFrame(l),
		Decided:     make([]bool, nBlocks),
		BlockCauses: make([]ErasureCause, nBlocks),
	}
	for j, s := range scores {
		if math.IsNaN(s) || math.IsInf(lo[j], 1) {
			fd.BlockCauses[j] = CauseNoSignal
			continue
		}
		gap := hi[j] - lo[j]
		// !(gap > 0) also catches NaN levels: an all-equal or unusable
		// series means no swing, never a zero-width "confident" band.
		if !(gap > 0) || gap < r.minGap {
			fd.BlockCauses[j] = CauseNoSwing
			continue // no usable swing: saturated or constant payload
		}
		thr := (lo[j] + hi[j]) / 2
		band := r.cfg.AdaptiveBand * gap
		if band < r.minConf {
			band = r.minConf
		}
		if quality != nil && quality[j] > 0 && quality[j] < 1 {
			band /= math.Sqrt(quality[j])
		}
		fd.Bits.Bits[j] = s > thr
		fd.Decided[j] = math.Abs(s-thr) >= band
		if !fd.Decided[j] {
			fd.BlockCauses[j] = CauseLowConfidence
		}
	}
	buildGOBs(fd, l)
	return fd
}

// normalize converts aggregated raw energies into decision scores in place,
// per the configured strategy. Frames without captures (nil rows) are
// skipped.
func (r *Receiver) normalize(agg [][]float64) {
	switch r.cfg.Normalize {
	case NormalizeFrameMean:
		for _, row := range agg {
			if row == nil {
				continue
			}
			var mean float64
			var n int
			for _, s := range row {
				if math.IsNaN(s) {
					continue
				}
				mean += s
				n++
			}
			if n == 0 {
				continue
			}
			mean /= float64(n)
			for j := range row {
				row[j] -= mean
			}
		}
	case NormalizeBlockBaseline:
		nBlocks := r.cfg.Layout.NumBlocks()
		baseline := make([]float64, nBlocks)
		for j := range baseline {
			baseline[j] = math.Inf(1)
		}
		seen := false
		for _, row := range agg {
			if row == nil {
				continue
			}
			seen = true
			for j, s := range row {
				if !math.IsNaN(s) && s < baseline[j] {
					baseline[j] = s
				}
			}
		}
		if !seen {
			return
		}
		for _, row := range agg {
			if row == nil {
				continue
			}
			for j := range row {
				if math.IsInf(baseline[j], 1) {
					row[j] = math.NaN()
					continue
				}
				row[j] -= baseline[j]
			}
		}
	default:
		panic(fmt.Sprintf("core: unknown normalization %v", r.cfg.Normalize))
	}
}
