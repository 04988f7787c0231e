package register

import (
	"math"

	"inframe/internal/core"
	"inframe/internal/frame"
)

// integralImage holds summed-area energies for O(1) rectangle sums.
type integralImage struct {
	w, h int
	sum  []float64 // (w+1)×(h+1), sum[y][x] = Σ energy over [0,x)×[0,y)
}

func newIntegral(e *frame.Frame) *integralImage {
	ii := &integralImage{w: e.W, h: e.H, sum: make([]float64, (e.W+1)*(e.H+1))}
	stride := e.W + 1
	for y := 0; y < e.H; y++ {
		var rowSum float64
		for x := 0; x < e.W; x++ {
			rowSum += float64(e.Pix[y*e.W+x])
			ii.sum[(y+1)*stride+x+1] = ii.sum[y*stride+x+1] + rowSum
		}
	}
	return ii
}

// rectMean returns the mean energy over [x0,x1)×[y0,y1), clipped; zero for
// empty intersections.
func (ii *integralImage) rectMean(x0, y0, x1, y1 int) float64 {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > ii.w {
		x1 = ii.w
	}
	if y1 > ii.h {
		y1 = ii.h
	}
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	stride := ii.w + 1
	s := ii.sum[y1*stride+x1] - ii.sum[y0*stride+x1] - ii.sum[y1*stride+x0] + ii.sum[y0*stride+x0]
	return s / float64((x1-x0)*(y1-y0))
}

// sumAt evaluates the summed-area table at fractional coordinates by
// bilinear interpolation of the four surrounding nodes — the continuous
// extension S(x, y) = ∫∫ energy over [0,x)×[0,y).
func (ii *integralImage) sumAt(x, y float64) float64 {
	if x < 0 {
		x = 0
	} else if x > float64(ii.w) {
		x = float64(ii.w)
	}
	if y < 0 {
		y = 0
	} else if y > float64(ii.h) {
		y = float64(ii.h)
	}
	x0, y0 := int(x), int(y)
	if x0 >= ii.w {
		x0 = ii.w - 1
	}
	if y0 >= ii.h {
		y0 = ii.h - 1
	}
	fx, fy := x-float64(x0), y-float64(y0)
	stride := ii.w + 1
	s00 := ii.sum[y0*stride+x0]
	s01 := ii.sum[y0*stride+x0+1]
	s10 := ii.sum[(y0+1)*stride+x0]
	s11 := ii.sum[(y0+1)*stride+x0+1]
	top := s00 + float64((s01-s00)*fx)
	bot := s10 + float64((s11-s10)*fx)
	return top + float64((bot-top)*fy)
}

// rectMeanFrac returns the mean over the fractional rectangle
// [x0,x1)×[y0,y1), clipped to the plane; zero for empty intersections. The
// sub-pixel box boundary is resolved by bilinear interpolation of the
// summed-area table, so the mean varies smoothly as the box slides — the
// property the projective polish needs from its objective.
func (ii *integralImage) rectMeanFrac(x0, y0, x1, y1 float64) float64 {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > float64(ii.w) {
		x1 = float64(ii.w)
	}
	if y1 > float64(ii.h) {
		y1 = float64(ii.h)
	}
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	s := ii.sumAt(x1, y1) - ii.sumAt(x0, y1) - ii.sumAt(x1, y0) + ii.sumAt(x0, y0)
	return s / ((x1 - x0) * (y1 - y0))
}

// alignScore measures how well a candidate mapping lines up with the Block
// grid by decoding it: per-Block mean energies are thresholded at their
// median (the element sort.Float64s would leave at n/2, found by selection)
// into bits, and the score is the fraction of GOBs whose XOR parity
// holds. A correctly aligned grid scores near the channel's availability;
// any misalignment beyond a fraction of a Block mixes neighbours and decays
// toward the 50% random-parity floor. (A shift by exactly one GOB pitch
// also satisfies parity, but the coarse region detection is always well
// inside one pitch.)
func alignScore(l core.Layout, iis []*integralImage, m core.CaptureMapping) float64 {
	nBlocks := l.NumBlocks()
	energies := make([]float64, nBlocks)
	sel := make([]float64, nBlocks)
	bits := make([]bool, nBlocks)
	var total float64
	for _, ii := range iis {
		for by := 0; by < l.BlocksY; by++ {
			for bx := 0; bx < l.BlocksX; bx++ {
				x0, y0, w, h := l.BlockRect(bx, by)
				fx0, fy0 := m.Apply(float64(x0), float64(y0))
				fx1, fy1 := m.Apply(float64(x0+w), float64(y0+h))
				dx := float64((fx1 - fx0) / 4)
				dy := float64((fy1 - fy0) / 4)
				energies[by*l.BlocksX+bx] = ii.rectMean(int(fx0+dx), int(fy0+dy), int(fx1-dx), int(fy1-dy))
			}
		}
		copy(sel, energies)
		// thr is only compared with >, so whichever zero or NaN the
		// selection returns sets the same bits.
		thr := nthFloat64(sel, nBlocks/2)
		for i, e := range energies {
			bits[i] = e > thr
		}
		pass := 0
		for gy := 0; gy < l.GOBsY(); gy++ {
			for gx := 0; gx < l.GOBsX(); gx++ {
				// The GOB's Blocks in GOBBlocks order, by row-major index.
				parity := false
				for j := 0; j < l.GOBSize; j++ {
					row := (gy*l.GOBSize+j)*l.BlocksX + gx*l.GOBSize
					for _, b := range bits[row : row+l.GOBSize] {
						parity = parity != b
					}
				}
				if !parity {
					pass++
				}
			}
		}
		total += float64(pass) / float64(l.NumGOBs())
	}
	return total / float64(len(iis))
}

// floatLess is sort.Float64s' order: ascending, with NaN before every
// number; ±0 are equal, and so are any two NaNs.
func floatLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// nthFloat64 returns the element sort.Float64s would leave at a[k],
// 0 ≤ k < len(a), by quickselect in expected linear time: Hoare partitions
// around the middle element, reordering a in place. Elements equal under
// floatLess are interchangeable, so the result can be another zero or
// another NaN than the sort's a[k], never a different number.
func nthFloat64(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for floatLess(a[i], p) {
				i++
			}
			for floatLess(p, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo:j+1] ≤ p ≤ a[i:hi+1], and everything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

// Refine polishes a coarse mapping by two-stage local search over offsets
// (±radius capture pixels) and scales (±3%), maximizing the parity-decode
// alignment score over the given captures.
func Refine(l core.Layout, caps []*frame.Frame, m core.CaptureMapping, radius float64) core.CaptureMapping {
	if len(caps) == 0 {
		return m
	}
	n := len(caps)
	if n > 3 {
		n = 3
	}
	iis := make([]*integralImage, n)
	for i := 0; i < n; i++ {
		iis[i] = newIntegral(EnergyMap(caps[i], 1))
	}
	search := func(base core.CaptureMapping, scaleSpan, scaleStep, offSpan, offStep float64) core.CaptureMapping {
		best := base
		bestScore := alignScore(l, iis, base)
		for sy := 1 - scaleSpan; sy <= 1+scaleSpan+1e-9; sy += scaleStep {
			for sx := 1 - scaleSpan; sx <= 1+scaleSpan+1e-9; sx += scaleStep {
				for dy := -offSpan; dy <= offSpan+1e-9; dy += offStep {
					for dx := -offSpan; dx <= offSpan+1e-9; dx += offStep {
						cand := core.CaptureMapping{
							ScaleX: base.ScaleX * sx,
							ScaleY: base.ScaleY * sy,
							OffX:   base.OffX + dx,
							OffY:   base.OffY + dy,
						}
						if s := alignScore(l, iis, cand); s > bestScore {
							bestScore = s
							best = cand
						}
					}
				}
			}
		}
		return best
	}
	coarse := search(m, 0.03, 0.01, radius, 2)
	return search(coarse, 0.0075, 0.0025, 1.5, 0.5)
}

// distance returns the max corner displacement between two mappings over the
// layout's grid, in capture pixels — a convergence diagnostic.
func distance(l core.Layout, a, b core.CaptureMapping) float64 {
	var worst float64
	for _, pt := range [][2]float64{
		{float64(l.MarginX()), float64(l.MarginY())},
		{float64(l.MarginX() + l.BlocksX*l.BlockPx()), float64(l.MarginY() + l.BlocksY*l.BlockPx())},
	} {
		ax, ay := a.Apply(pt[0], pt[1])
		bx, by := b.Apply(pt[0], pt[1])
		if d := math.Hypot(ax-bx, ay-by); d > worst {
			worst = d
		}
	}
	return worst
}
