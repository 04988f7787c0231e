// Package impair injects deterministic channel faults into the simulated
// screen→camera link. The clean simulator (display + camera) models a
// well-behaved lab setup — the paper's fixed tripod at 50 cm — while real
// deployments suffer free-running clock drift, dropped and duplicated
// captures, ambient-light ramps, 50/60 Hz mains flicker, auto-exposure gain
// hunting, sensor-noise bursts, motion blur and partial occlusion.
//
// Every impairment is an independent stage keyed by (Seed, stage, capture
// index): enabling or disabling one stage never shifts another stage's
// random stream, and nothing depends on worker identity or wall-clock time,
// so an impaired simulation is bit-identical at any worker count and across
// runs. Stages apply in a fixed canonical order (see Stack.ApplyFrame and
// Stack.ApplySequence).
//
// The pixel-domain stages corrupt the camera's finished 8-bit output — a
// post-ISP fault model. That keeps the stack composable with any camera
// configuration: it never needs to reach inside the exposure integral.
package impair

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"inframe/internal/detrng"
	"inframe/internal/frame"
)

// Config enables and parameterizes the impairment stages. The zero value
// disables everything; a nil *Config behaves the same wherever one is
// accepted.
type Config struct {
	// Seed drives every stage's random stream. Two runs with equal Config
	// produce identical impairments.
	Seed int64

	// ClockDriftPPM skews the camera's frame period by the given parts per
	// million (positive = slow camera clock, longer period). Real phone
	// oscillators drift tens of ppm against the display's. |ClockDriftPPM|
	// ≤ MaxClockDriftPPM: the skewed period stays within 1% of nominal, so
	// the capture schedule's count stays bounded and its period positive.
	ClockDriftPPM float64
	// StartJitter is the half-width (seconds) of a uniform per-capture
	// exposure-start jitter, modelling scheduling noise in the capture
	// pipeline. Each capture's jitter is independent.
	StartJitter float64

	// DropRate is the probability that a capture is lost in the delivery
	// pipeline (buffer overrun, USB stall). Dropped captures are returned
	// to the frame pool; the receiver sees a timing gap.
	DropRate float64
	// DupRate is the probability that a capture is delivered twice: the
	// duplicate carries the original's pixels but the next period's
	// timestamp — a stale repeat, exactly what a stalled camera HAL emits.
	DupRate float64

	// AmbientRamp adds a linear ambient-light ramp of the given 8-bit
	// levels per second (positive = brightening room) to every pixel.
	AmbientRamp float64
	// FlickerAmp and FlickerHz add mains-powered lighting flicker: a
	// sinusoid of the given 8-bit amplitude, integrated over the exposure
	// window (lamps flicker at twice the mains frequency — pass 100 or
	// 120, not 50 or 60). FlickerAmp > 0 requires FlickerHz > 0.
	FlickerAmp float64
	FlickerHz  float64

	// GainAmp and GainHz model auto-exposure gain hunting: a slow
	// multiplicative oscillation 1 + GainAmp·sin(2π·GainHz·t) applied to
	// every pixel. GainAmp must stay below 1; GainAmp > 0 requires
	// GainHz > 0.
	GainAmp float64
	GainHz  float64

	// BurstRate is the per-capture probability of a sensor-noise burst
	// (read-out glitch, compression artifact): additive Gaussian noise of
	// BurstSigma 8-bit levels across the whole capture.
	BurstRate  float64
	BurstSigma float64

	// MotionBlurLen smears each capture horizontally with a box kernel of
	// radius MotionBlurLen pixels (camera shake). 0 disables.
	MotionBlurLen int

	// OccludeX, OccludeY, OccludeW, OccludeH place a static occluding
	// rectangle (a hand, a passer-by) as fractions of the capture size;
	// occluded pixels read OccludeLevel. Width and height must be set
	// together; both zero disables.
	OccludeX, OccludeY float64
	OccludeW, OccludeH float64
	// OccludeLevel is the 8-bit value occluded pixels read (0 = black).
	OccludeLevel float64

	// TiltDeg tips the camera off the display normal (rotation about the
	// horizontal axis, degrees): the frontal rectangle becomes a keystone
	// trapezoid, exactly the handheld-phone geometry the projective
	// receiver registration exists for. |TiltDeg| ≤ 70.
	TiltDeg float64
	// RotateDeg rolls the camera about its optical axis (degrees,
	// |RotateDeg| ≤ 180).
	RotateDeg float64
	// Distance scales the viewing distance relative to the calibrated
	// frontal setup: 1 reproduces the nominal framing, 2 halves the screen's
	// apparent size, 0.5 doubles it. 0 means unset (treated as 1); non-zero
	// values must lie in [0.5, 4] — the bound, together with the tilt bound,
	// keeps every projected point strictly in front of the pinhole (see
	// PoseHomography).
	Distance float64
	// PoseJitterDeg adds an independent uniform per-capture jitter of up to
	// the given degrees to tilt and roll — handheld shake in the pose
	// domain, keyed by the frozen ImpairPose stage. [0, 5]. A jittered pose
	// is a new map per capture, so it warps each capture directly; a fixed
	// pose (0) warps through one plan the Stack builds on its first posed
	// capture.
	PoseJitterDeg float64
}

// MaxClockDriftPPM bounds |Config.ClockDriftPPM|: 10⁴ ppm is a 1% period
// skew, two orders of magnitude past a real oscillator's and far past
// the 100–500 ppm the robustness scenarios use.
const MaxClockDriftPPM = 1e4

// poseEnabled reports whether the camera-pose stage is active.
func (c *Config) poseEnabled() bool {
	if c == nil {
		return false
	}
	return math.Abs(c.TiltDeg) > 0 || math.Abs(c.RotateDeg) > 0 ||
		//lint:ignore floateq Distance == 1 is the exact frontal sentinel; approximate values must take the warp path
		(c.Distance > 0 && c.Distance != 1) || c.PoseJitterDeg > 0
}

// Enabled reports whether any stage is active. A nil config is disabled.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return math.Abs(c.ClockDriftPPM) > 0 ||
		c.StartJitter > 0 ||
		c.DropRate > 0 ||
		c.DupRate > 0 ||
		math.Abs(c.AmbientRamp) > 0 ||
		c.FlickerAmp > 0 ||
		c.GainAmp > 0 ||
		c.BurstRate > 0 ||
		c.MotionBlurLen > 0 ||
		(c.OccludeW > 0 && c.OccludeH > 0) ||
		c.poseEnabled()
}

// Validate reports whether the configuration is usable. A nil config is
// valid (everything disabled).
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	// Every range check below is a comparison, and a comparison with NaN is
	// false, so non-finite values are rejected first, field by field.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"ClockDriftPPM", c.ClockDriftPPM}, {"StartJitter", c.StartJitter},
		{"DropRate", c.DropRate}, {"DupRate", c.DupRate},
		{"AmbientRamp", c.AmbientRamp},
		{"FlickerAmp", c.FlickerAmp}, {"FlickerHz", c.FlickerHz},
		{"GainAmp", c.GainAmp}, {"GainHz", c.GainHz},
		{"BurstRate", c.BurstRate}, {"BurstSigma", c.BurstSigma},
		{"OccludeX", c.OccludeX}, {"OccludeY", c.OccludeY},
		{"OccludeW", c.OccludeW}, {"OccludeH", c.OccludeH},
		{"OccludeLevel", c.OccludeLevel},
		{"TiltDeg", c.TiltDeg}, {"RotateDeg", c.RotateDeg},
		{"Distance", c.Distance}, {"PoseJitterDeg", c.PoseJitterDeg},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("impair: %s must be finite, got %v", f.name, f.v)
		}
	}
	if math.Abs(c.ClockDriftPPM) > MaxClockDriftPPM {
		return fmt.Errorf("impair: ClockDriftPPM must be in [-%g,%g], got %v", MaxClockDriftPPM, MaxClockDriftPPM, c.ClockDriftPPM)
	}
	if c.StartJitter < 0 {
		return fmt.Errorf("impair: StartJitter must be non-negative, got %v", c.StartJitter)
	}
	if c.DropRate < 0 || c.DropRate >= 1 {
		return fmt.Errorf("impair: DropRate must be in [0,1), got %v", c.DropRate)
	}
	if c.DupRate < 0 || c.DupRate >= 1 {
		return fmt.Errorf("impair: DupRate must be in [0,1), got %v", c.DupRate)
	}
	if c.FlickerAmp < 0 {
		return fmt.Errorf("impair: FlickerAmp must be non-negative, got %v", c.FlickerAmp)
	}
	if c.FlickerAmp > 0 && c.FlickerHz <= 0 {
		return fmt.Errorf("impair: FlickerAmp needs FlickerHz > 0, got %v", c.FlickerHz)
	}
	if c.GainAmp < 0 || c.GainAmp >= 1 {
		return fmt.Errorf("impair: GainAmp must be in [0,1), got %v", c.GainAmp)
	}
	if c.GainAmp > 0 && c.GainHz <= 0 {
		return fmt.Errorf("impair: GainAmp needs GainHz > 0, got %v", c.GainHz)
	}
	if c.BurstRate < 0 || c.BurstRate >= 1 {
		return fmt.Errorf("impair: BurstRate must be in [0,1), got %v", c.BurstRate)
	}
	if c.BurstRate > 0 && c.BurstSigma <= 0 {
		return fmt.Errorf("impair: BurstRate needs BurstSigma > 0, got %v", c.BurstSigma)
	}
	if c.BurstSigma < 0 {
		return fmt.Errorf("impair: BurstSigma must be non-negative, got %v", c.BurstSigma)
	}
	if c.MotionBlurLen < 0 {
		return fmt.Errorf("impair: MotionBlurLen must be non-negative, got %d", c.MotionBlurLen)
	}
	if (c.OccludeW > 0) != (c.OccludeH > 0) {
		return fmt.Errorf("impair: occlusion needs both OccludeW and OccludeH, got %v x %v", c.OccludeW, c.OccludeH)
	}
	if c.OccludeX < 0 || c.OccludeY < 0 || c.OccludeW < 0 || c.OccludeH < 0 ||
		c.OccludeX > 1 || c.OccludeY > 1 || c.OccludeW > 1 || c.OccludeH > 1 {
		return fmt.Errorf("impair: occlusion rectangle must use fractions in [0,1]")
	}
	if c.OccludeLevel < 0 || c.OccludeLevel > 255 {
		return fmt.Errorf("impair: OccludeLevel must be in [0,255], got %v", c.OccludeLevel)
	}
	if math.Abs(c.TiltDeg) > 70 {
		return fmt.Errorf("impair: TiltDeg must be in [-70,70], got %v", c.TiltDeg)
	}
	if math.Abs(c.RotateDeg) > 180 {
		return fmt.Errorf("impair: RotateDeg must be in [-180,180], got %v", c.RotateDeg)
	}
	if c.Distance < 0 || (c.Distance > 0 && (c.Distance < 0.5 || c.Distance > 4)) {
		return fmt.Errorf("impair: Distance must be 0 (unset) or in [0.5,4], got %v", c.Distance)
	}
	if c.PoseJitterDeg < 0 || c.PoseJitterDeg > 5 {
		return fmt.Errorf("impair: PoseJitterDeg must be in [0,5], got %v", c.PoseJitterDeg)
	}
	return nil
}

// Stage identifiers key the per-stage random streams; they live in the
// frozen registry (internal/detrng, impair domain) because they are part
// of the determinism contract: reordering them changes every seeded
// outcome, and the stagekey analyzer rejects stream derivations that do
// not key off a registry constant.

// Stack is an instantiated impairment pipeline.
type Stack struct {
	cfg Config
	// posePlan is the camera-pose stage's warp plan for a fixed pose, built
	// on the first posed capture for that capture's size (posePlanFor) and
	// read-only afterwards; poseMu guards the pointer. A jittered pose warps
	// each capture directly and never builds one.
	poseMu   sync.Mutex
	posePlan *frame.WarpPlan
}

// New builds a stack. The configuration must have passed Validate.
func New(cfg Config) *Stack { return &Stack{cfg: cfg} }

// Config returns the stack configuration.
func (s *Stack) Config() Config { return s.cfg }

// Names lists the active stages in canonical application order — the order
// ApplyFrame and ApplySequence use. Timing stages (drift, jitter) come
// first because they decide when each capture happens, then the
// pixel-domain stages, then the sequence stages.
func (s *Stack) Names() []string {
	var out []string
	if math.Abs(s.cfg.ClockDriftPPM) > 0 {
		out = append(out, "clock-drift")
	}
	if s.cfg.StartJitter > 0 {
		out = append(out, "start-jitter")
	}
	if s.cfg.poseEnabled() {
		out = append(out, "camera-pose")
	}
	if s.cfg.MotionBlurLen > 0 {
		out = append(out, "motion-blur")
	}
	if s.cfg.OccludeW > 0 && s.cfg.OccludeH > 0 {
		out = append(out, "occlusion")
	}
	if s.cfg.GainAmp > 0 {
		out = append(out, "gain-drift")
	}
	if math.Abs(s.cfg.AmbientRamp) > 0 {
		out = append(out, "ambient-ramp")
	}
	if s.cfg.FlickerAmp > 0 {
		out = append(out, "flicker")
	}
	if s.cfg.BurstRate > 0 {
		out = append(out, "noise-burst")
	}
	if s.cfg.DropRate > 0 {
		out = append(out, "capture-drop")
	}
	if s.cfg.DupRate > 0 {
		out = append(out, "capture-dup")
	}
	return out
}

// rng returns the random stream of one (stage, capture index) cell via
// the shared splitmix64 finalizer (detrng.Mix), so adjacent indices land
// far apart in seed space; keying by index — never worker identity — is
// what keeps impaired runs bit-identical at any worker count.
func (s *Stack) rng(stage detrng.Stage, index int) *rand.Rand {
	return detrng.Rand(s.cfg.Seed, stage, index)
}

// Period returns the impaired camera frame period: the nominal period skewed
// by the configured clock drift.
func (s *Stack) Period(base float64) float64 {
	return base * (1 + s.cfg.ClockDriftPPM*1e-6)
}

// CaptureTime returns capture i's exposure start: the drift-skewed schedule
// plus this capture's independent uniform start jitter.
func (s *Stack) CaptureTime(i int, start, period float64) float64 {
	t := start + float64(i)*period
	if s.cfg.StartJitter > 0 {
		t += (2*s.rng(detrng.ImpairJitter, i).Float64() - 1) * s.cfg.StartJitter
	}
	return t
}

// ApplyFrame corrupts one finished capture in place. index is the capture's
// position in the sequence (keys the random streams), t its exposure start
// and exposure the per-row integration time (used by the flicker integral).
// Stages apply in canonical order: camera pose (geometry happens at the
// lens, before any sensor-domain fault), then motion blur, occlusion, gain
// drift, ambient ramp + flicker, noise burst; if any stage fired, the frame
// is re-quantized to 8 bits (the corruption happens in the camera's integer
// output domain).
func (s *Stack) ApplyFrame(f *frame.Frame, index int, t, exposure float64) {
	touched := false
	if s.cfg.poseEnabled() {
		s.applyPose(f, index)
		touched = true
	}
	if s.cfg.MotionBlurLen > 0 {
		motionBlur(f, s.cfg.MotionBlurLen)
		touched = true
	}
	if s.cfg.OccludeW > 0 && s.cfg.OccludeH > 0 {
		s.occlude(f)
		touched = true
	}
	if s.cfg.GainAmp > 0 {
		g := 1 + s.cfg.GainAmp*math.Sin(2*math.Pi*s.cfg.GainHz*t)
		scale := float32(g)
		for i := range f.Pix {
			f.Pix[i] *= scale
		}
		touched = true
	}
	offset := 0.0
	if math.Abs(s.cfg.AmbientRamp) > 0 {
		offset += s.cfg.AmbientRamp * t
	}
	if s.cfg.FlickerAmp > 0 {
		offset += s.flickerLevel(t, exposure)
	}
	if math.Abs(offset) > 0 {
		add := float32(offset)
		for i := range f.Pix {
			f.Pix[i] += add
		}
		touched = true
	}
	if s.cfg.BurstRate > 0 {
		rng := s.rng(detrng.ImpairBurst, index)
		if rng.Float64() < s.cfg.BurstRate {
			sigma := s.cfg.BurstSigma
			for i := range f.Pix {
				f.Pix[i] += float32(rng.NormFloat64() * sigma)
			}
			touched = true
		}
	}
	if touched {
		f.Quantize()
	}
}

// flickerLevel is the mean flicker contribution over the exposure window
// [t, t+e]: the integral of amp·sin(ωt′) divided by e, which correctly
// attenuates flicker when the exposure spans whole flicker cycles. A
// non-positive exposure degrades to the instantaneous value.
func (s *Stack) flickerLevel(t, e float64) float64 {
	omega := 2 * math.Pi * s.cfg.FlickerHz
	if e <= 0 {
		return s.cfg.FlickerAmp * math.Sin(omega*t)
	}
	return s.cfg.FlickerAmp * (math.Cos(omega*t) - math.Cos(omega*(t+e))) / (omega * e)
}

// occlude paints the configured rectangle with OccludeLevel.
func (s *Stack) occlude(f *frame.Frame) {
	x0 := int(s.cfg.OccludeX * float64(f.W))
	y0 := int(s.cfg.OccludeY * float64(f.H))
	x1 := x0 + int(s.cfg.OccludeW*float64(f.W))
	y1 := y0 + int(s.cfg.OccludeH*float64(f.H))
	if x1 > f.W {
		x1 = f.W
	}
	if y1 > f.H {
		y1 = f.H
	}
	level := float32(s.cfg.OccludeLevel)
	for y := y0; y < y1; y++ {
		row := f.Row(y)
		for x := x0; x < x1; x++ {
			row[x] = level
		}
	}
}

// motionBlur smears each row with a horizontal box filter of radius r
// (replicate padding), the separable half of a camera-shake kernel.
func motionBlur(f *frame.Frame, r int) {
	w := f.W
	src := make([]float32, w)
	inv := 1 / float32(2*r+1)
	for y := 0; y < f.H; y++ {
		row := f.Row(y)
		copy(src, row)
		var sum float32
		for i := -r; i <= r; i++ {
			sum += src[clampIdx(i, w)]
		}
		for x := 0; x < w; x++ {
			row[x] = sum * inv
			sum += src[clampIdx(x+r+1, w)] - src[clampIdx(x-r, w)]
		}
	}
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Copies is the delivery pipeline's decision for capture i: 0 when the
// capture is dropped, 2 when it is also delivered a second time one period
// later with stale pixels, else 1. The draws are keyed by the capture's
// original index, so whether capture i survives never depends on what
// happened to captures before it — ApplySequence and a consumer streaming
// captures as they finish read the same decisions.
func (s *Stack) Copies(i int) int {
	if s.cfg.DropRate > 0 && s.rng(detrng.ImpairDrop, i).Float64() < s.cfg.DropRate {
		return 0
	}
	if s.cfg.DupRate > 0 && s.rng(detrng.ImpairDup, i).Float64() < s.cfg.DupRate {
		return 2
	}
	return 1
}

// ApplySequence runs the delivery-pipeline stages over a finished capture
// sequence by Copies: a dropped frame goes back to the pool, and a
// duplicated one is followed by a pool-drawn clone delivered one period
// later. The returned slices are freshly built; the inputs must not be
// reused.
func (s *Stack) ApplySequence(caps []*frame.Frame, times []float64, period float64, p *frame.Pool) ([]*frame.Frame, []float64) {
	if s.cfg.DropRate <= 0 && s.cfg.DupRate <= 0 {
		return caps, times
	}
	outCaps := make([]*frame.Frame, 0, len(caps))
	outTimes := make([]float64, 0, len(times))
	for i, f := range caps {
		n := s.Copies(i)
		if n == 0 {
			p.Put(f)
			continue
		}
		outCaps = append(outCaps, f)
		outTimes = append(outTimes, times[i])
		if n == 2 {
			dup := p.Get(f.W, f.H)
			f.CloneInto(dup)
			outCaps = append(outCaps, dup)
			outTimes = append(outTimes, times[i]+period)
		}
	}
	return outCaps, outTimes
}
