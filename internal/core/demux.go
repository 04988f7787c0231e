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
	// MinConfidence is the absolute floor (in energy units) of each Block's
	// hysteresis half-width: a Block whose score lies within the band of
	// its threshold is "undecoded", making its GOB unavailable. The band is
	// the larger of this floor and the relative AdaptiveBand, which is what
	// makes larger amplitudes decode more Blocks.
	MinConfidence float64
	// AdaptiveBand is the relative hysteresis half-width, as a fraction of
	// each Block's calibrated bit-0/bit-1 level gap. The decision stage is
	// per-Block temporal self-calibration: across the calibration span,
	// each Block's bit-0 and bit-1 energy levels are estimated from its own
	// aggregated energy series, and its threshold sits midway between them.
	// The scheme is invariant to static texture, vignetting and per-region
	// attenuation, and Blocks that never show a usable swing (saturated
	// areas, constant payload bits) come back undecided rather than wrong.
	// It requires payloads that vary across frames (the paper uses
	// pseudo-random data).
	AdaptiveBand float64
	// MinGap is the smallest per-Block bit-0/bit-1 level separation (in
	// energy units) the decision stage accepts as a live signal; Blocks
	// below it are undecodable (saturated areas where the clipping
	// adjustment crushed the chessboard, or captures whose exposure
	// integrated a full complementary pair).
	MinGap float64
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
	// register.CalibrateProjective: NewReceiver builds the pose's warp
	// plan once (frame.WarpPlan, 8 bytes per display pixel, read-only and
	// shared by concurrent measurements), every measurement rectifies its
	// capture through it into a pool-borrowed display-resolution plane —
	// bit for bit frame.WarpInto through the pose — and decodes the
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
		MinConfidence: 0.3,
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
	if c.AdaptiveBand <= 0 || c.AdaptiveBand >= 0.5 {
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
	// rectify, when non-nil, is the warp plan of the rectified→capture
	// homography Pose ∘ calib⁻¹, built once here: every measurement
	// gathers its capture through it into a pool-borrowed frontal plane
	// before the Block scan. The plan is read-only, so concurrent
	// measurements share it without a lock.
	rectify *frame.WarpPlan
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
}

type capRect struct{ x0, y0, w, h int }

// intBufs is one measurement's integer scratch: the full-plane window sums
// and the column-pass scratch of fixed.WindowSums.
type intBufs struct {
	sums, col []int32
}

// intScratch recycles the integer-kernel window-sum buffers across the
// measurements of every receiver in the process. Measurements run
// concurrently (DecodeCaptures fans out per capture; a fleet measures each
// member's captures on one shared pool), so the scratch is a sync.Pool, and
// one pool for all receivers keeps a fleet of N receivers from missing N
// times as often. Scratch only: contents never survive a measurement, so
// scheduling-dependent reuse cannot change an output.
var intScratch sync.Pool

// getIntBufs draws (or grows) the integer scratch for a w×h capture
// smoothed at radius r: the full-plane sums and WindowSums' column-pass
// scratch.
func getIntBufs(w, h, r int) *intBufs {
	b, _ := intScratch.Get().(*intBufs)
	if nCol := fixed.WindowScratch(w, h, r); b == nil || len(b.sums) < w*h || len(b.col) < nCol {
		b = &intBufs{sums: make([]int32, w*h), col: make([]int32, nCol)}
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
	var rectify *frame.WarpPlan
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
			rectify = frame.NewWarpPlan(*cfg.Pose, cfg.CaptureW, cfg.CaptureH, l.FrameW, l.FrameH)
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
// means a noisier estimate. It panics on a capture whose size is not the
// receiver's capture size, a plumbing bug in a direct caller; the decode
// drivers score such a capture as nothing instead (see observe).
func (r *Receiver) MeasureCaptureAt(f *frame.Frame, t0 float64) ([]float64, []float64) {
	if f.W != r.cfg.CaptureW || f.H != r.cfg.CaptureH {
		panic(fmt.Sprintf("core: capture %dx%d does not match receiver %dx%d",
			f.W, f.H, r.cfg.CaptureW, r.cfg.CaptureH))
	}
	// Projective mode: rectify the capture into a pool-borrowed frontal
	// plane first, then run the unchanged Block scan on it — the warp, not
	// the scan, absorbs the pose. The plane is scratch (returned before this
	// measurement ends), and the plan's gather is WarpInto through the pose
	// bit for bit and depends only on (capture, homography), so pose-mode
	// decodes stay bit-identical at any worker count.
	if r.rectify != nil {
		rectified := r.pool.Get(r.rectW, r.rectH)
		r.rectify.Into(f, rectified)
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
		bufs = getIntBufs(f.W, f.H, sr)
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
	var pose frame.Homography
	if warped {
		pose = r.rectify.Homography()
	}
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
					_, fy, ok := pose.Apply(cxMid, float64(y)+0.5)
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
		intScratch.Put(bufs)
	}
	r.pool.Put(sm) // nil on the integer path: a no-op by the Put contract
	return scores, quality
}

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

// buildGOBs derives the per-GOB availability, parity and erasure-cause
// summary from a frame's Block decisions — the single GOB aggregation every
// decode path (decided or empty, batch or streaming) runs through. An erased
// GOB reports the worst cause among its undecided Blocks; an available GOB
// failing parity reports CauseParity.
func buildGOBs(fd *FrameDecode, l Layout) {
	gobsX, gobsY := l.GOBsX(), l.GOBsY()
	per := l.BlocksPerGOB()
	gobs := make([]GOBResult, 0, gobsX*gobsY)
	for gy := 0; gy < gobsY; gy++ {
		for gx := 0; gx < gobsX; gx++ {
			res := GOBResult{GX: gx, GY: gy, Available: true}
			for i := 0; i < per; i++ {
				j := l.gobBlock(gx, gy, i)
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

// frameOf returns the data frame whose steady window holds the
// mid-exposure of a capture started at t — the one capture selection rule of
// both decode drivers. The window test is inclusive and written with
// positive comparisons, so non-finite timing never passes it; a non-finite
// start time and a non-finite or negative exposure (whose windows would
// overlap) are rejected outright. The candidate frame ⌊mid/period⌋ is
// checked together with its successor, because the division can round just
// below an integer for a capture that sits on a window's opening edge.
func (r *Receiver) frameOf(t, exposure float64) (d int, ok bool) {
	if math.IsNaN(t) || math.IsInf(t, 0) || !(exposure >= 0) || math.IsInf(exposure, 1) {
		return 0, false
	}
	mid := t + exposure/2
	q := math.Floor(mid / r.DataFramePeriod())
	// math.MaxInt32 keeps int(q)+1 representable on every platform.
	if !(q >= -1 && q < math.MaxInt32) {
		return 0, false
	}
	for d = max(int(q), 0); d <= int(q)+1; d++ {
		if t0, t1 := r.steadyWindow(d, exposure); mid >= t0 && mid <= t1 {
			return d, true
		}
	}
	return 0, false
}

// observation is one scheduled capture as the decode drivers see it: the
// data frame it was selected for, its per-Block energies and shutter
// qualities, its link quality (scored only when the gate or a report needs
// it), and the gate's verdict. The zero value is a capture that was not
// scored.
type observation struct {
	frame            int
	scores, quality  []float64
	link             float64
	scored, excluded bool
}

// observe measures one scheduled capture taken at t and applies the
// MinCaptureQuality gate — the one measurement-and-gate step of both decode
// drivers. Link quality is a pure observation, computed only when the gate
// is on or wantQuality asks for it, so the ungated decode is untouched. A
// capture that is not a frame of the receiver's capture size (nil, empty,
// the wrong dimensions, or a pixel buffer that does not match them) is
// hostile input, not a plumbing bug, so it is scored as nothing rather than
// reaching MeasureCaptureAt's size panic.
func (r *Receiver) observe(f *frame.Frame, t float64, wantQuality bool) observation {
	if f == nil || f.W != r.cfg.CaptureW || f.H != r.cfg.CaptureH || len(f.Pix) != f.W*f.H {
		return observation{}
	}
	o := observation{scored: true}
	o.scores, o.quality = r.MeasureCaptureAt(f, t)
	gating := r.cfg.MinCaptureQuality > 0
	if gating || wantQuality {
		o.link = r.linkQuality(f, o.scores, o.quality)
	}
	o.excluded = gating && o.link < r.cfg.MinCaptureQuality
	return o
}

// DecodeCaptures demultiplexes a captured sequence (frames plus exposure
// start times) into data frames 0..nFrames-1, using the receiver's timing
// model to select the captures whose mid-exposure falls in each data
// frame's steady window. Data frames observed by no capture yield a
// FrameDecode with zero captures and no available GOBs. Captures with a
// non-finite start time, and every capture under a non-finite or negative
// exposure, fall in no window; a nil capture, or one whose size is not the
// receiver's capture size, is not scored.
//
// Decoding is two-pass: raw per-Block energies are first aggregated per
// data frame, then each Block's bit levels are calibrated from its own
// aggregated series (per RecalibrateEvery window) before the per-frame
// decision stage.
//
// The expensive stages fan out across the configured workers — energy
// measurement per capture, level calibration per Block, then decision per
// data frame — with every intermediate merged by index, so the result is
// bit-identical to a sequential decode.
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

// decodeCaptures is both batch entry points: observe every capture into
// its slot, fanned out across the configured workers, then decode.
func (r *Receiver) decodeCaptures(caps []*frame.Frame, times []float64, exposure float64, nFrames int, wantReport bool) ([]*FrameDecode, *DecodeReport) {
	if len(caps) != len(times) {
		panic("core: captures and times length mismatch")
	}
	b := r.newBatch(len(caps), exposure, nFrames, wantReport)
	parallel.For(r.cfg.Workers, len(caps), func(i int) {
		b.Observe(i, caps[i], times[i])
	})
	return b.Decode()
}

// Batch is one capture sequence on its way through the batch decoder, for
// a caller that holds its captures one at a time: Observe measures each
// capture into its index-addressed slot the moment it exists, and Decode
// runs DecodeCapturesReport's remaining stages over the slots. Observing
// capture k of a sequence and decoding gives exactly what
// DecodeCapturesReport returns for the whole sequence, so a producer can
// hand each frame back to its pool as soon as Observe returns.
type Batch struct {
	r          *Receiver
	exposure   float64
	nFrames    int
	wantReport bool
	times      []float64
	obs        []observation
}

// NewBatch returns the slots of an n-capture sequence taken under the
// given exposure and decoded into data frames 0..nFrames-1.
func (r *Receiver) NewBatch(n int, exposure float64, nFrames int) *Batch {
	return r.newBatch(n, exposure, nFrames, true)
}

func (r *Receiver) newBatch(n int, exposure float64, nFrames int, wantReport bool) *Batch {
	return &Batch{
		r:          r,
		exposure:   exposure,
		nFrames:    nFrames,
		wantReport: wantReport,
		times:      make([]float64, n),
		obs:        make([]observation, n),
	}
}

// Observe records capture k of the sequence, whose exposure started at t:
// the capture selection (frameOf) picks its data frame, and a selected
// capture is measured and gated (observe). The frame is only read during
// the call. Calls for distinct k may run concurrently; every slot must be
// observed once before Decode.
func (b *Batch) Observe(k int, f *frame.Frame, t float64) {
	b.times[k] = t
	if d, ok := b.r.frameOf(t, b.exposure); ok && d < b.nFrames {
		o := b.r.observe(f, t, b.wantReport)
		o.frame = d
		b.obs[k] = o
	}
}

// Decode aggregates the observed captures per data frame in ascending
// capture index — so each frame's float accumulation order is fixed
// however the observations were scheduled — then calibrates, decides and
// reports. The report is nil for a batch DecodeCaptures drives.
func (b *Batch) Decode() ([]*FrameDecode, *DecodeReport) {
	nBlocks := b.r.cfg.Layout.NumBlocks()
	accs := make([]*frameAcc, b.nFrames)
	for i := range b.obs {
		o := &b.obs[i]
		if !o.scored || o.excluded {
			continue
		}
		if accs[o.frame] == nil {
			accs[o.frame] = newFrameAcc(nBlocks)
		}
		accs[o.frame].add(o.scores, o.quality)
	}
	out := b.r.decodePerBlock(accs)
	if !b.wantReport {
		return out, nil
	}
	rep := &DecodeReport{Frames: out, Quality: make([]CaptureQuality, len(b.obs)), Registration: b.r.registration()}
	for i := range b.obs {
		o := &b.obs[i]
		q := CaptureQuality{Index: i, Time: b.times[i], Scored: o.scored}
		if o.scored {
			q.Quality = o.link
			q.Excluded = o.excluded
			q.Used = !q.Excluded
			if q.Excluded {
				rep.ExcludedCaptures++
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

// frameAcc accumulates one data frame's per-Block energies and shutter
// qualities over the captures selected for it — the one aggregation of both
// decode drivers. n counts contributing captures per Block as an integer,
// so the no-contribution test stays exact (no float equality).
type frameAcc struct {
	sum, qual []float64
	n         []int
	captures  int
}

func newFrameAcc(nBlocks int) *frameAcc {
	return &frameAcc{sum: make([]float64, nBlocks), qual: make([]float64, nBlocks), n: make([]int, nBlocks)}
}

// add folds one capture's measurement into the frame. Blocks the capture
// could not measure (NaN: fully inside a dropped row band, or out of view)
// contribute nothing; the capture still counts toward the frame.
func (a *frameAcc) add(scores, quality []float64) {
	for j, s := range scores {
		if math.IsNaN(s) {
			continue
		}
		a.sum[j] += s
		a.qual[j] += quality[j]
		a.n[j]++
	}
	a.captures++
}

// mean returns Block j's aggregated energy and shutter quality: the means
// over the captures that measured it, or (NaN, 0) when none did.
func (a *frameAcc) mean(j int) (score, quality float64) {
	if a.n[j] == 0 {
		return math.NaN(), 0
	}
	n := float64(a.n[j])
	return a.sum[j] / n, a.qual[j] / n
}

// calibrateLevels estimates each Block's bit-0 and bit-1 energy levels over
// the given frames (nil for frames no capture reached): the 10th/90th
// percentiles of the Block's own finite aggregated-energy series.
// Percentiles rather than extremes keep a single texture spike from
// inflating the Block's band forever, while still letting genuine content
// fluctuations produce the (realistic) occasional confident error. Blocks
// with no finite samples come back (+Inf, −Inf). The per-Block work fans out
// across workers in chunks, each reusing one series scratch, and every slot
// is written exactly once, so the result merges by index.
func (r *Receiver) calibrateLevels(accs []*frameAcc, workers int) (lo, hi []float64) {
	nBlocks := r.cfg.Layout.NumBlocks()
	lo = make([]float64, nBlocks)
	hi = make([]float64, nBlocks)
	parallel.ForChunked(workers, nBlocks, func(jlo, jhi int) {
		series := make([]float64, 0, len(accs))
		for j := jlo; j < jhi; j++ {
			series = series[:0]
			for _, a := range accs {
				if a == nil {
					continue
				}
				if s, _ := a.mean(j); !math.IsNaN(s) {
					series = append(series, s)
				}
			}
			if len(series) == 0 {
				lo[j] = math.Inf(1)
				hi[j] = math.Inf(-1)
				continue
			}
			sort.Float64s(series)
			lo[j], hi[j] = levelPercentiles(series)
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

// decodePerBlock is the batch decision stage: each Block's bit levels are
// its own percentiles across the calibration span (calibrateLevels), and
// every frame is decided against them by decideFrame. With RecalibrateEvery
// set, the run is calibrated in independent windows so the thresholds track
// slow lighting and gain drift.
func (r *Receiver) decodePerBlock(accs []*frameAcc) []*FrameDecode {
	if len(accs) == 0 {
		return make([]*FrameDecode, 0)
	}
	win := r.cfg.RecalibrateEvery
	if win <= 0 || win > len(accs) {
		win = len(accs)
	}
	type levels struct{ lo, hi []float64 }
	// The trailing remainder joins the final window: a runt window of a few
	// frames starves the percentile estimates far worse than a slightly
	// longer final window smears them.
	nWins := len(accs) / win
	wins := make([]levels, 0, nWins)
	for w := 0; w < nWins; w++ {
		w0 := w * win
		w1 := w0 + win
		if w == nWins-1 {
			w1 = len(accs)
		}
		lo, hi := r.calibrateLevels(accs[w0:w1], r.cfg.Workers)
		wins = append(wins, levels{lo: lo, hi: hi})
	}
	out := make([]*FrameDecode, len(accs))
	parallel.For(r.cfg.Workers, len(accs), func(d int) {
		wi := min(d/win, len(wins)-1)
		out[d] = r.decideFrame(d, accs[d], wins[wi].lo, wins[wi].hi)
	})
	return out
}

// decideFrame is the per-Block decision of data frame d from its
// accumulator a, shared by the batch and the streaming driver so both apply
// the same effective (pose-attenuated) floors. A frame no capture reached
// (nil a) is a timing gap. Each Block's threshold is the midpoint of its
// calibrated levels lo, hi and its hysteresis band the larger of the
// relative band and the confidence floor, widened by 1/√q for a
// shutter-degraded measurement of quality q. A Block without a finite score
// or levels, or whose level gap falls below the swing floor, is an erasure.
func (r *Receiver) decideFrame(d int, a *frameAcc, lo, hi []float64) *FrameDecode {
	if a == nil {
		return r.emptyDecode(d)
	}
	l := r.cfg.Layout
	nBlocks := l.NumBlocks()
	fd := &FrameDecode{
		Index:       d,
		Captures:    a.captures,
		Bits:        NewDataFrame(l),
		Decided:     make([]bool, nBlocks),
		BlockCauses: make([]ErasureCause, nBlocks),
	}
	for j := 0; j < nBlocks; j++ {
		s, q := a.mean(j)
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
		if q > 0 && q < 1 {
			band /= math.Sqrt(q)
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
