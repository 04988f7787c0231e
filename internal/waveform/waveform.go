// Package waveform implements the temporal amplitude shaping of InFrame's
// data-block smoothing (§3.2): the envelope a data Pixel's amplitude follows
// when a bit switches between consecutive data frames, plus the electronic
// low-pass filter the paper uses to verify the smoothed waveform ("we
// verified the design by passing the waveform to an electronic low-pass
// filter and observed stable output waveform", Fig. 5).
package waveform

import (
	"fmt"
	"math"
)

// Shape selects the transition envelope family. The paper adopts half of a
// square-root raised-cosine waveform "after comparing with linear and stair
// function forms"; all three are implemented so the comparison can be
// reproduced (ablation A1).
type Shape int

const (
	// SqrtRaisedCosine is half a square-root raised-cosine: the paper's
	// chosen envelope.
	SqrtRaisedCosine Shape = iota
	// Linear ramps the amplitude linearly.
	Linear
	// Stair switches abruptly at the midpoint of the transition window,
	// i.e. no smoothing beyond the complementary alternation itself.
	Stair
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case SqrtRaisedCosine:
		return "sqrt-raised-cosine"
	case Linear:
		return "linear"
	case Stair:
		return "stair"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// Down evaluates the 1→0 envelope Ω10 at normalized time u ∈ [0,1]:
// Down(0)=1, Down(1)=0, monotonically non-increasing.
func (s Shape) Down(u float64) float64 {
	u = clamp01(u)
	switch s {
	case SqrtRaisedCosine:
		return math.Cos(math.Pi / 2 * u)
	case Linear:
		return 1 - u
	case Stair:
		if u < 0.5 {
			return 1
		}
		return 0
	default:
		panic("waveform: unknown shape")
	}
}

// Up evaluates the 0→1 envelope Ω01 at normalized time u ∈ [0,1]:
// Up(0)=0, Up(1)=1, monotonically non-decreasing. Up and Down are
// complementary in power for the raised-cosine family.
func (s Shape) Up(u float64) float64 {
	u = clamp01(u)
	switch s {
	case SqrtRaisedCosine:
		return math.Sin(math.Pi / 2 * u)
	case Linear:
		return u
	case Stair:
		if u < 0.5 {
			return 0
		}
		return 1
	default:
		panic("waveform: unknown shape")
	}
}

// Between interpolates an amplitude moving from a0 to a1 at normalized
// transition time u, using the shape's envelope pair.
func (s Shape) Between(a0, a1, u float64) float64 {
	//lint:ignore floateq fast path only: both branches agree in the a0→a1 limit, so a near-miss is still correct
	if a0 == a1 {
		return a0
	}
	if a1 > a0 {
		return a0 + float64((a1-a0)*s.Up(u))
	}
	return a1 + float64((a0-a1)*s.Down(u))
}

func clamp01(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Envelope produces the per-display-frame amplitude sequence of one data
// Pixel across a sequence of data frame periods (§3.2's temporal smoothing):
//
//   - each data frame occupies tau display frames (one "iteration" per
//     displayed frame);
//   - during the first tau/2 frames of a period the amplitude is steady at
//     the current bit's level;
//   - during the remaining tau/2 frames, if the *next* period's bit differs,
//     the amplitude follows the shape's envelope toward the next level.
//
// levels[i] is the target amplitude of period i (e.g. 0 or δ). The returned
// slice has len(levels)*tau entries. tau must be even and >= 2.
func Envelope(shape Shape, levels []float64, tau int) []float64 {
	if tau < 2 || tau%2 != 0 {
		panic(fmt.Sprintf("waveform.Envelope: tau must be even and >= 2, got %d", tau))
	}
	out := make([]float64, 0, len(levels)*tau)
	half := tau / 2
	for i, lv := range levels {
		next := lv
		if i+1 < len(levels) {
			next = levels[i+1]
		}
		for j := 0; j < tau; j++ {
			//lint:ignore floateq fast path only: Between(lv, next, u) returns lv exactly when the levels coincide
			if j < half || next == lv {
				out = append(out, lv)
				continue
			}
			u := float64(j-half+1) / float64(half)
			out = append(out, shape.Between(lv, next, u))
		}
	}
	return out
}

// Modulate converts an amplitude envelope into the displayed luminance
// deviation sequence: the amplitude alternates sign on every display frame
// (the complementary-frame alternation at half the refresh rate). base is
// added to every sample so the output can be fed straight to the low-pass
// verification.
func Modulate(envelope []float64, base float64) []float64 {
	out := make([]float64, len(envelope))
	for i, a := range envelope {
		if i%2 == 0 {
			out[i] = base + a
		} else {
			out[i] = base - a
		}
	}
	return out
}

// LowPass is a first-order (single-pole) discrete-time low-pass filter,
// the "electronic low-pass filter" of Fig. 5.
type LowPass struct {
	alpha float64
	y     float64
	prime bool
}

// NewLowPass returns a single-pole low-pass with cutoff frequency fc (Hz)
// sampled at rate fs (Hz). It panics if the parameters are non-physical.
func NewLowPass(fc, fs float64) *LowPass {
	if fc <= 0 || fs <= 0 || fc >= fs/2 {
		panic(fmt.Sprintf("waveform.NewLowPass: invalid fc=%v fs=%v", fc, fs))
	}
	dt := 1 / fs
	rc := 1 / (2 * math.Pi * fc)
	return &LowPass{alpha: dt / (rc + dt)}
}

// Step feeds one sample and returns the filtered output.
func (lp *LowPass) Step(x float64) float64 {
	if !lp.prime {
		lp.y = x
		lp.prime = true
		return lp.y
	}
	lp.y += float64(lp.alpha * (x - lp.y))
	return lp.y
}

// Filter applies the filter to a whole sequence, resetting state first.
func (lp *LowPass) Filter(xs []float64) []float64 {
	lp.Reset()
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = lp.Step(x)
	}
	return out
}

// Reset clears the filter state.
func (lp *LowPass) Reset() { lp.y = 0; lp.prime = false }

// Cascade is an n-th order low-pass built from identical first-order
// sections, used to approximate steeper electronic filters.
type Cascade struct{ stages []*LowPass }

// NewCascade builds an order-n cascade with per-stage cutoff fc at sample
// rate fs.
func NewCascade(n int, fc, fs float64) *Cascade {
	if n <= 0 {
		panic("waveform.NewCascade: order must be positive")
	}
	c := &Cascade{stages: make([]*LowPass, n)}
	for i := range c.stages {
		c.stages[i] = NewLowPass(fc, fs)
	}
	return c
}

// Step feeds one sample through all stages.
func (c *Cascade) Step(x float64) float64 {
	for _, s := range c.stages {
		x = s.Step(x)
	}
	return x
}

// Filter applies the cascade to a whole sequence, resetting state first.
func (c *Cascade) Filter(xs []float64) []float64 {
	for _, s := range c.stages {
		s.Reset()
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = c.Step(x)
	}
	return out
}

// Ripple measures the peak-to-peak excursion of the tail of a sequence,
// skipping the first skip samples of transient: the "stable output waveform"
// criterion used to validate smoothing in Fig. 5.
func Ripple(xs []float64, skip int) float64 {
	if skip >= len(xs) {
		return 0
	}
	tail := xs[skip:]
	min, max := tail[0], tail[0]
	for _, v := range tail[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max - min
}
