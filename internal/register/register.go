// Package register performs blind geometric calibration of the
// screen→camera link: it locates the data-bearing region inside captured
// frames from the chessboard's own high-spatial-frequency energy and solves
// the display→capture coordinate mapping the receiver needs.
//
// The paper's experiments fix the camera on a desk at 50 cm, implying known
// registration; this package removes that assumption. Calibrate solves
// translation and zoom (a hand-held camera roughly facing the screen) as an
// axis-aligned core.CaptureMapping; CalibrateProjective solves the full
// display→capture homography of a tilted and rolled camera (perspective
// and rotation) from the captures alone.
package register

import (
	"errors"
	"fmt"
	"sort"

	"inframe/internal/core"
	"inframe/internal/frame"
)

// Rect is a pixel-aligned rectangle in capture coordinates.
type Rect struct{ X0, Y0, W, H int }

// ErrNoRegion is returned when no chessboard-bearing region stands out.
var ErrNoRegion = errors.New("register: no data region detected")

// EnergyMap computes a per-pixel high-spatial-frequency energy image of a
// capture: |f − blur(f)|, then aggregated with a second blur so isolated
// noise pixels do not register.
func EnergyMap(f *frame.Frame, radius int) *frame.Frame {
	sm := frame.BoxBlur(f, radius)
	e := frame.New(f.W, f.H)
	for i, v := range f.Pix {
		d := v - sm.Pix[i]
		if d < 0 {
			d = -d
		}
		e.Pix[i] = d
	}
	return frame.BoxBlur(e, 2*radius+1)
}

// TemporalEnergy computes, per pixel, the variance across captures of the
// high-spatial-frequency residual (f − blur(f)). Chessboard pixels flip
// their residual's sign from capture to capture (the complementary
// alternation sampled at varying phases), so their variance carries the
// squared modulation amplitude on top of the noise floor; static content
// and sensor noise contribute only the floor. The result is blurred for
// spatial support.
func TemporalEnergy(caps []*frame.Frame) (*frame.Frame, error) {
	if len(caps) < 2 {
		return nil, ErrNoRegion
	}
	w, h := caps[0].W, caps[0].H
	sum := frame.New(w, h)
	sum2 := frame.New(w, h)
	for _, c := range caps {
		if c.W != w || c.H != h {
			return nil, fmt.Errorf("register: %w", frame.ErrSizeMismatch)
		}
		sm := frame.BoxBlur(c, 1)
		for i, v := range c.Pix {
			r := v - sm.Pix[i]
			sum.Pix[i] += r
			sum2.Pix[i] += r * r
		}
	}
	n := float32(len(caps))
	out := frame.New(w, h)
	for i := range out.Pix {
		mean := sum.Pix[i] / n
		out.Pix[i] = sum2.Pix[i]/n - mean*mean
	}
	return frame.BoxBlur(out, 3), nil
}

// DetectRegion locates the chessboard-bearing region across several
// captures using the temporal-variance map, row/column profiles and
// longest-plateau spans.
func DetectRegion(caps []*frame.Frame) (Rect, error) {
	acc, err := TemporalEnergy(caps)
	if err != nil {
		return Rect{}, err
	}

	// Column and row energy profiles: averaging a whole line suppresses
	// per-pixel noise outliers that would inflate a raw bounding box.
	colProfile := make([]float64, acc.W)
	rowProfile := make([]float64, acc.H)
	for y := 0; y < acc.H; y++ {
		for x := 0; x < acc.W; x++ {
			e := float64(acc.Pix[y*acc.W+x])
			colProfile[x] += e
			rowProfile[y] += e
		}
	}
	for x := range colProfile {
		colProfile[x] /= float64(acc.H)
	}
	for y := range rowProfile {
		rowProfile[y] /= float64(acc.W)
	}

	x0, x1, ok := profileSpan(colProfile)
	if !ok {
		return Rect{}, ErrNoRegion
	}
	y0, y1, ok := profileSpan(rowProfile)
	if !ok {
		return Rect{}, ErrNoRegion
	}
	if x1-x0 < 8 || y1-y0 < 8 {
		return Rect{}, ErrNoRegion
	}
	return Rect{X0: x0, Y0: y0, W: x1 - x0 + 1, H: y1 - y0 + 1}, nil
}

// profileSpan finds the active span of a 1-D energy profile: indices above
// the midpoint of the profile's low/high percentile levels. The span is the
// first and last above-threshold index; the profile must show real contrast
// and the span must be mostly active.
func profileSpan(profile []float64) (lo, hi int, ok bool) {
	sorted := append([]float64(nil), profile...)
	sort.Float64s(sorted)
	// The data grid may cover most of the capture, so the background level
	// must come from the extreme low tail; the foreground from the median
	// region, which is inside the grid whenever a grid is present at all.
	bg := sorted[len(sorted)/50]
	fg := sorted[len(sorted)*3/5]
	if fg-bg < 0.3 {
		return 0, 0, false
	}
	thr := bg + 0.7*(fg-bg)
	// The data grid is a wide plateau above threshold; thin spikes (the
	// display's own border against a dark room, content edges) are short
	// runs. Take the longest run, bridging gaps of up to 3 samples.
	bestLo, bestHi := -1, -1
	runLo := -1
	gap := 0
	for i := 0; i <= len(profile); i++ {
		above := i < len(profile) && profile[i] >= thr
		switch {
		case above && runLo < 0:
			runLo = i
			gap = 0
		case above:
			gap = 0
		case runLo >= 0:
			gap++
			if gap > 3 || i == len(profile) {
				hi := i - gap
				if hi-runLo > bestHi-bestLo {
					bestLo, bestHi = runLo, hi
				}
				runLo = -1
			}
		}
	}
	if bestLo < 0 || bestHi-bestLo < 8 {
		return 0, 0, false
	}
	return bestLo, bestHi, true
}

// Solve derives the display→capture mapping from a detected region: the
// region is assumed to frame the layout's Block grid (margins carry no
// energy and fall outside it).
func Solve(l core.Layout, region Rect) (core.CaptureMapping, error) {
	bp := l.BlockPx()
	gridW := float64(l.BlocksX * bp)
	gridH := float64(l.BlocksY * bp)
	if region.W <= 0 || region.H <= 0 {
		return core.CaptureMapping{}, ErrNoRegion
	}
	m := core.CaptureMapping{
		ScaleX: float64(region.W) / gridW,
		ScaleY: float64(region.H) / gridH,
	}
	// Region origin corresponds to the grid origin (MarginX, MarginY).
	m.OffX = float64(region.X0) - float64(l.MarginX())*m.ScaleX
	m.OffY = float64(region.Y0) - float64(l.MarginY())*m.ScaleY
	if err := m.Validate(); err != nil {
		return core.CaptureMapping{}, err
	}
	return m, nil
}

// Calibrate is the one-call path: detect the region over the captures,
// solve the coarse mapping, and refine the better of {coarse, full-frame}
// to sub-block accuracy. Including the full-frame hypothesis keeps an
// already-aligned camera from being dragged off by a noisy region estimate.
func Calibrate(l core.Layout, caps []*frame.Frame) (core.CaptureMapping, error) {
	if len(caps) == 0 {
		return core.CaptureMapping{}, ErrNoRegion
	}
	candidates := []core.CaptureMapping{core.FullFrame(l, caps[0].W, caps[0].H)}
	if region, err := DetectRegion(caps); err == nil {
		if coarse, err := Solve(l, region); err == nil {
			candidates = append(candidates, coarse)
		}
	}
	// Consider each hypothesis both as-is and refined: refinement explores
	// a neighbourhood whose parity score can tie within noise, and an
	// already-perfect mapping should not be dragged off by a tie.
	pool := make([]core.CaptureMapping, 0, 2*len(candidates))
	for _, cand := range candidates {
		pool = append(pool, cand, Refine(l, caps, cand, 5))
	}
	scores := make([]float64, len(pool))
	bestScore := 0.0
	for i, cand := range pool {
		scores[i] = scoreMapping(l, caps, cand)
		if i == 0 || scores[i] > bestScore {
			bestScore = scores[i]
		}
	}
	// Among near-tied scores (the parity metric saturates once alignment is
	// within a fraction of a Block), prefer the mapping closest to the
	// full-frame hypothesis: ties otherwise wander within the search
	// neighbourhood.
	full := pool[0]
	best := pool[0]
	bestDist := 0.0
	first := true
	for i, cand := range pool {
		if scores[i] < bestScore-0.02 {
			continue
		}
		d := distance(l, cand, full)
		if first || d < bestDist {
			best = cand
			bestDist = d
			first = false
		}
	}
	return best, nil
}

// scoreMapping evaluates a mapping's parity-decode quality on the captures.
func scoreMapping(l core.Layout, caps []*frame.Frame, m core.CaptureMapping) float64 {
	n := len(caps)
	if n > 3 {
		n = 3
	}
	iis := make([]*integralImage, n)
	for i := 0; i < n; i++ {
		iis[i] = newIntegral(EnergyMap(caps[i], 1))
	}
	return alignScore(l, iis, m)
}
