// Package hvs models the human visual system as the paper's §2 describes
// it: a linear temporal low-pass filter whose cutoff — the critical flicker
// frequency (CFF) — rises with luminance (the Ferry–Porter law), plus the
// phantom-array sensitivity to abrupt spatio-temporal transitions.
//
// The package replaces the paper's 8-participant user study (Fig. 6) with a
// panel of simulated observers. Each observer converts a pixel's luminance
// waveform into a flicker-perception score on the paper's 0–4 scale:
//
//	0 "no difference at all"        1 "almost unnoticeable"
//	2 "merely noticeable"           3 "evident flicker"
//	4 "strong flicker or artifact"
//
// The model follows the classical account the paper cites: above the CFF,
// time-variant fluctuations fuse to their mean; near and below the CFF the
// residual modulation that survives the eye's low-pass determines perceived
// flicker. In the Ferry–Porter regime visibility tracks the *absolute*
// luminance modulation amplitude, so brighter content flickers more for a
// fixed drive-level amplitude — exactly the trend in Fig. 6 (left).
package hvs

import (
	"fmt"
	"math"
	"math/rand"
)

// Observer is one simulated study participant.
type Observer struct {
	// CFFBase and CFFSlope define the Ferry–Porter law
	// CFF = CFFBase + CFFSlope·log10(L) with L in cd/m².
	// Typical human values give a CFF of 40–50 Hz at office luminances.
	CFFBase  float64
	CFFSlope float64
	// PeakLuminance is the display's luminance in cd/m² at drive 255
	// (Eizo FG2421 class panels: ~300).
	PeakLuminance float64
	// Threshold is the filtered luminance-modulation amplitude (on the
	// 0..255 linear-light scale) that registers as score 1
	// ("almost unnoticeable").
	Threshold float64
	// Sensitivity scales perceived flicker; panel members vary around 1.
	Sensitivity float64
	// PhantomSensitivity scales the phantom-array term.
	PhantomSensitivity float64
	// PixelsPerDegree converts screen pixels to visual angle at the
	// paper's viewing distance (1.2× screen diagonal → ≈46 px/deg for a
	// 24" 1080p panel).
	PixelsPerDegree float64
	// OptimalPitchDeg is the data-Pixel pitch in degrees at which the
	// phantom-array effect is least visible (§3.3: p approximating eye
	// resolution minimizes it).
	OptimalPitchDeg float64
}

// DefaultObserver returns the nominal observer used for single-viewer
// evaluations and as the panel mean.
func DefaultObserver() Observer {
	return Observer{
		CFFBase:            32,
		CFFSlope:           11,
		PeakLuminance:      300,
		Threshold:          6.0,
		Sensitivity:        1,
		PhantomSensitivity: 1,
		PixelsPerDegree:    46,
		OptimalPitchDeg:    4.0 / 46, // p=4 at the paper's geometry
	}
}

// Validate reports whether the observer parameters are usable.
func (o Observer) Validate() error {
	if o.CFFBase <= 0 || o.CFFSlope < 0 {
		return fmt.Errorf("hvs: invalid Ferry-Porter coefficients %v, %v", o.CFFBase, o.CFFSlope)
	}
	if o.PeakLuminance <= 0 {
		return fmt.Errorf("hvs: PeakLuminance must be positive")
	}
	if o.Threshold <= 0 {
		return fmt.Errorf("hvs: Threshold must be positive")
	}
	if o.Sensitivity <= 0 {
		return fmt.Errorf("hvs: Sensitivity must be positive")
	}
	if o.PixelsPerDegree <= 0 {
		return fmt.Errorf("hvs: PixelsPerDegree must be positive")
	}
	return nil
}

// CFF returns the critical flicker frequency in Hz at luminance lcd (cd/m²),
// floored at a scotopic minimum of 10 Hz.
func (o Observer) CFF(lcd float64) float64 {
	if lcd < 1e-3 {
		lcd = 1e-3
	}
	cff := o.CFFBase + float64(o.CFFSlope*math.Log10(lcd))
	if cff < 10 {
		cff = 10
	}
	return cff
}

// luminanceCd converts a 0..255 linear-light value to cd/m².
func (o Observer) luminanceCd(l float64) float64 {
	return l / 255 * o.PeakLuminance
}

// flickerBandFloor is the lowest temporal frequency (Hz) treated as flicker;
// slower modulation is legitimate video content the eye tracks.
const flickerBandFloor = 10.0

// FlickerAmplitude returns the perceived modulation amplitude (0..255
// linear-light scale) of a pixel waveform after the eye's temporal
// filtering. samples must be linear-light values sampled uniformly at fs Hz.
//
// The waveform's Hann-windowed amplitude spectrum is weighted by a Gaussian
// eye attenuation centered on DC whose width tracks the Ferry–Porter CFF:
//
//	H(f) = exp(−ln2 · (f / (0.52·CFF))²)
//
// so components well above the CFF fuse (H(60 Hz) ≈ 0.05–0.08 for CFF in
// the 47–57 Hz range) while components at half the rate — the naive designs
// of Fig. 3 — survive with ~0.5 gain. Sub-10 Hz content is excluded as
// video, not flicker. The returned value is the root-sum-square of the
// weighted in-band amplitudes.
func (o Observer) FlickerAmplitude(samples []float64, fs float64) float64 {
	n := len(samples)
	if n < 8 {
		return 0
	}
	var mean float64
	for _, s := range samples {
		mean += s
	}
	mean /= float64(n)
	cff := o.CFF(o.luminanceCd(mean))
	fh := 0.52 * cff

	// Hann window; its coherent gain normalizes bin magnitudes back to
	// tone amplitudes.
	win := make([]float64, n)
	var wsum float64
	for i := range win {
		win[i] = float64(0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1))))
		wsum += win[i]
	}
	windowed := make([]float64, n)
	for i, s := range samples {
		windowed[i] = (s - mean) * win[i]
	}

	var energy float64
	for k := 1; k <= n/2; k++ {
		f := float64(k) * fs / float64(n)
		if f < flickerBandFloor {
			continue
		}
		h := math.Exp(-math.Ln2 * (f / fh) * (f / fh))
		if h < 1e-4 {
			break // bins only get higher in f from here
		}
		// Goertzel-style direct DFT bin.
		var re, im float64
		w := 2 * math.Pi * float64(k) / float64(n)
		for i, v := range windowed {
			// Direct per-bin evaluation keeps the flicker pins bit-stable;
			// a rotation recurrence would drift the Fig. 3/6 means. n is
			// temporal samples (hundreds), far off the per-pixel path.
			re += float64(v * math.Cos(w*float64(i)))
			im -= float64(v * math.Sin(w*float64(i)))
		}
		amp := 2 * math.Hypot(re, im) / wsum
		wa := amp * h
		energy += float64(wa * wa)
	}
	// The Hann window spreads each tone across a 1.5-bin equivalent noise
	// bandwidth; dividing the summed energy by it makes the measure exact
	// for isolated tones and unbiased for noise-like spectra.
	return math.Sqrt(energy / 1.5)
}

// PhantomAmplitude returns the phantom-array contribution for a pixel
// waveform: sensitivity to *abrupt changes in the alternation envelope*
// (un-smoothed data transitions) rather than the steady alternation itself,
// scaled by how far the data-Pixel pitch sits from the least-visible pitch.
//
// refreshHz is the display refresh rate, used to locate the complementary
// alternation inside a possibly oversampled waveform; pitchPx is the data
// Pixel pitch in screen pixels. The detector measures the envelope's
// curvature (second difference per display frame): a raised-cosine ramp has
// small curvature everywhere, a stair transition concentrates the full
// amplitude step into one frame — the saccade-visible event of §2.
func (o Observer) PhantomAmplitude(samples []float64, fs, refreshHz, pitchPx float64) float64 {
	stride := int(math.Round(fs / refreshHz))
	if stride < 1 {
		stride = 1
	}
	if len(samples) < 4*stride+1 {
		return 0
	}
	// Alternation amplitude per display frame tracks the smoothing
	// envelope; its maximum curvature is the phantom "jerk".
	n := (len(samples) - stride) / stride
	amp := make([]float64, n)
	for i := 0; i < n; i++ {
		amp[i] = math.Abs(samples[(i+1)*stride] - samples[i*stride])
	}
	var jerk float64
	for i := 0; i+2 < n; i++ {
		s0 := amp[i+1] - amp[i]
		s1 := amp[i+2] - amp[i+1]
		if d := math.Abs(s1 - s0); d > jerk {
			jerk = d
		}
	}
	pitchDeg := pitchPx / o.PixelsPerDegree
	if pitchDeg <= 0 {
		return 0
	}
	// Visibility is minimal at the optimal pitch and grows (slowly) as the
	// pitch departs from it in either direction — the §3.3 user-study
	// finding. Phenomenological but monotone in |ln(pitch/optimal)|.
	mis := math.Abs(math.Log(pitchDeg / o.OptimalPitchDeg))
	factor := 0.15 * math.Exp(0.6*mis)
	return o.PhantomSensitivity * jerk * factor
}

// Score converts a combined filtered modulation amplitude into the paper's
// continuous 0–4 flicker scale. The mapping is calibrated so that amplitude
// at Threshold reads 1 ("almost unnoticeable") and saturates at 4.
func (o Observer) Score(amplitude float64) float64 {
	v := o.Sensitivity * amplitude / o.Threshold
	if v <= 0 {
		return 0
	}
	s := 4 * v / (v + 3)
	if s > 4 {
		s = 4
	}
	return s
}

// ScoreWaveform runs the full per-pixel pipeline: flicker band amplitude +
// phantom-array term → 0–4 score.
func (o Observer) ScoreWaveform(samples []float64, fs, refreshHz, pitchPx float64) float64 {
	amp := o.FlickerAmplitude(samples, fs)
	amp += o.PhantomAmplitude(samples, fs, refreshHz, pitchPx)
	return o.Score(amp)
}

// ArtifactAmplitude measures the *static* artifact a multiplexing scheme
// leaves after flicker fusion: the difference between the time-fused
// luminance of the shown pixel and of the reference (unmultiplexed) pixel.
// Complementary frames cancel exactly, so InFrame scores 0 here; the naive
// V+D insertions of Fig. 3 shift the fused mean by half the data amplitude
// and are caught ("the average of sequential data frames did not match that
// of original video frames", §3.1).
func (o Observer) ArtifactAmplitude(samples, reference []float64) float64 {
	if len(samples) == 0 || len(reference) == 0 {
		return 0
	}
	var a, b float64
	for _, s := range samples {
		a += s
	}
	a /= float64(len(samples))
	for _, s := range reference {
		b += s
	}
	b /= float64(len(reference))
	// A caller whose lengths are constant may turn the divisions into
	// products; the conversions keep either from fusing with the
	// subtraction.
	return math.Abs(float64(a) - float64(b))
}

// ScoreWaveformRef scores a pixel waveform against the reference
// (unmultiplexed) waveform of the same pixel: temporal flicker + phantom
// array + static fused-artifact, matching the paper's side-by-side rating
// protocol ("we showed original and multiplexed videos side by side").
func (o Observer) ScoreWaveformRef(samples, reference []float64, fs, refreshHz, pitchPx float64) float64 {
	amp := o.FlickerAmplitude(samples, fs)
	amp += o.PhantomAmplitude(samples, fs, refreshHz, pitchPx)
	amp += o.ArtifactAmplitude(samples, reference)
	return o.Score(amp)
}

// Panel returns n observers varying deterministically around the default:
// per-subject sensitivity spread (the paper's designer and video expert are
// "more sensitive to video quality") and CFF offsets.
func Panel(n int, seed int64) []Observer {
	// Deterministic by construction (detrand-audited): the generator is
	// seeded from the caller-supplied seed alone, and the panel is drawn in
	// a fixed single-threaded order, so the same seed reproduces the same
	// panel on every run and at every worker count.
	rng := rand.New(rand.NewSource(seed))
	panel := make([]Observer, n)
	for i := range panel {
		o := DefaultObserver()
		o.Sensitivity = math.Exp(rng.NormFloat64() * 0.25)
		o.CFFBase += rng.NormFloat64() * 2
		o.PhantomSensitivity = math.Exp(rng.NormFloat64() * 0.3)
		panel[i] = o
	}
	return panel
}

// RateWaveform collects one integer 0–4 rating per panel member for the
// same stimulus, adding per-subject reporting noise, and returns the
// ratings — the raw material of a Fig. 6 data point.
func RateWaveform(panel []Observer, samples []float64, fs, refreshHz, pitchPx float64, seed int64) []int {
	ratings := make([]int, len(panel))
	for i, o := range panel {
		s := o.ScoreWaveform(samples, fs, refreshHz, pitchPx)
		ratings[i] = jitterRating(s, seed+int64(i))
	}
	return ratings
}

// jitterRating adds per-subject reporting noise and rounds to the 0–4 scale.
func jitterRating(score float64, seed int64) int {
	// Deterministic by construction (detrand-audited): one throwaway
	// generator per rating, keyed by subject index, so ratings do not
	// depend on evaluation order and stay bit-identical under the
	// parallel experiment sweeps.
	rng := rand.New(rand.NewSource(seed))
	r := int(math.Round(score + float64(rng.NormFloat64()*0.3)))
	if r < 0 {
		r = 0
	} else if r > 4 {
		r = 4
	}
	return r
}

// MeanStd summarizes a set of integer ratings as mean and (population)
// standard deviation, the form Fig. 6 plots.
func MeanStd(ratings []int) (mean, std float64) {
	if len(ratings) == 0 {
		return 0, 0
	}
	for _, r := range ratings {
		mean += float64(r)
	}
	mean /= float64(len(ratings))
	for _, r := range ratings {
		// As in ArtifactAmplitude: a constant length may make mean a
		// product, which the conversion keeps from fusing.
		d := float64(r) - float64(mean)
		std += float64(d * d)
	}
	std = math.Sqrt(std / float64(len(ratings)))
	return mean, std
}
