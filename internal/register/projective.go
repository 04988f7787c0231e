package register

import (
	"math"

	"inframe/internal/core"
	"inframe/internal/frame"
	"inframe/internal/parallel"
)

// Quad is the four detected grid corners in capture coordinates, ordered
// top-left, top-right, bottom-right, bottom-left. The ordering convention
// assumes the camera roll stays below 45° — past that the extremal-corner
// labels rotate — which covers every pose the impair stack admits as
// handheld viewing.
type Quad [4][2]float64

// GridCorners returns the display-space corners of the layout's Block grid
// (the region that carries chessboard energy; margins are static), in Quad
// order. These are the source correspondences of the projective solve.
func GridCorners(l core.Layout) Quad {
	x0 := float64(l.MarginX())
	y0 := float64(l.MarginY())
	x1 := float64(l.MarginX() + l.BlocksX*l.BlockPx())
	y1 := float64(l.MarginY() + l.BlocksY*l.BlockPx())
	return Quad{{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}}
}

// DetectQuad locates the four corners of the chessboard-bearing region in
// capture coordinates from the temporal-variance map. The scan is two
// allocation-free passes over the pooled energy plane: the first finds the
// peak energy, the second classifies every pixel above a fixed fraction of
// the peak by the four extremal corner scores x+y (top-left minimum,
// bottom-right maximum) and x−y (top-right maximum, bottom-left minimum).
// The blur inside TemporalEnergy both suppresses isolated noise maxima and
// pushes the detected corners a few pixels outward; CalibrateProjective's
// polish step pulls them back onto the grid.
func DetectQuad(caps []*frame.Frame) (Quad, error) {
	acc, err := TemporalEnergy(caps)
	if err != nil {
		return Quad{}, err
	}
	return detectQuad(acc, temporalMean(caps))
}

// temporalMean is the per-pixel mean of the captures, summed in capture
// order. Callers validate the capture sizes first (TemporalEnergy does).
func temporalMean(caps []*frame.Frame) *frame.Frame {
	mean := frame.New(caps[0].W, caps[0].H)
	inv := 1 / float32(len(caps))
	for _, c := range caps {
		for i, v := range c.Pix {
			mean.Pix[i] += v * inv
		}
	}
	return mean
}

// detectQuad is DetectQuad on a precomputed energy plane acc and temporal
// mean. It gates acc in place, and the per-edge refinement reuses the gated
// plane.
func detectQuad(acc, mean *frame.Frame) (Quad, error) {
	// Gate the energy map by lit level: a posed capture is surrounded by
	// black overscan where the camera's gamma curve amplifies sensor noise
	// into temporal variance comparable to the modulation's. The data grid
	// can only live on the lit screen, so dark pixels are masked out before
	// any thresholding.
	const minLitLevel = 24
	for i, v := range mean.Pix {
		if v < minLitLevel {
			acc.Pix[i] = 0
		}
	}
	var peak float32
	for _, v := range acc.Pix {
		if v > peak {
			peak = v
		}
	}
	if !(peak > 0.3) {
		// No modulation anywhere: the same "no real contrast" floor
		// profileSpan applies to its 1-D profiles.
		return Quad{}, ErrNoRegion
	}
	thr := 0.18 * peak
	var (
		minSum, maxSum   int // x+y extremes: top-left, bottom-right
		minDiff, maxDiff int // x−y extremes: bottom-left, top-right
		q                Quad
		count            int
	)
	for y := 0; y < acc.H; y++ {
		row := acc.Pix[y*acc.W : (y+1)*acc.W]
		for x, v := range row {
			if v < thr {
				continue
			}
			s := x + y
			d := x - y
			if count == 0 || s < minSum {
				minSum = s
				q[0] = [2]float64{float64(x), float64(y)}
			}
			if count == 0 || d > maxDiff {
				maxDiff = d
				q[1] = [2]float64{float64(x), float64(y)}
			}
			if count == 0 || s > maxSum {
				maxSum = s
				q[2] = [2]float64{float64(x), float64(y)}
			}
			if count == 0 || d < minDiff {
				minDiff = d
				q[3] = [2]float64{float64(x), float64(y)}
			}
			count++
		}
	}
	if count < 64 || maxSum-minSum < 16 || maxDiff-minDiff < 16 {
		return Quad{}, ErrNoRegion
	}
	return q, nil
}

// refineQuad relocates each edge of a detected quad on the energy plane and
// re-derives corners as edge intersections. The detection threshold is one
// fixed fraction of the global peak, so it lands differently on every edge:
// on a dim side it crosses inside the true boundary and the quad shrinks;
// where the lit margin's noise floor clears it, the quad bulges out to the
// panel edge.
//
// The energy profile along an edge's outward normal is not a clean step.
// When the camera undersamples the chessboard, the cell pattern beats
// against the sensor grid and the interior energy oscillates in moiré bands
// — between band peaks the modulation aliases to nearly nothing, and a band
// valley is indistinguishable by level or gradient from the lit margin
// between the grid and the panel edge. What is distinctive about the
// interior is that a band *peak* is never farther than one band period
// away. Each station therefore dilates its profile with a 1-D max filter
// wider than the band period, which flattens the oscillating interior into
// one high plateau while leaving margin and overscan low; the grid edge is
// the innermost mid-level crossing of the dilated profile, pulled back
// inward by the filter radius (a max filter shifts a falling edge outward
// by exactly its radius).
//
// Per edge, a total-least-squares line is fitted through the station
// crossings with one outlier-rejection pass, and adjacent lines intersect
// into corners. Stations without usable contrast are skipped; an edge with
// fewer than half its stations, or a corner that would move farther than
// maxTravel, keeps its detected geometry. The result is coarse — good to a
// few pixels, the residual being the edge-to-nearest-band-peak distance —
// and is handed to the scan stage to bridge into the matched filter's
// phase-lock basin.
func refineQuad(acc *frame.Frame, q Quad) Quad {
	const (
		stations = 15 // profile stations per edge
		// The profile reaches deep both ways because the detected corner can
		// sit far off the true edge in either direction: inward when the
		// border rows alias away, outward (past the whole lit margin) when
		// the margin's noise floor clears the detection threshold — the
		// interior reference is only valid if the profile's deep end clears
		// the worst detection overshoot.
		inDepth   = 30.0
		outDepth  = 30.0
		marchStep = 0.5
		boxHalf   = 1.5 // profile sample box half-size, px
		// dilR is the 1-D max-filter radius, in px: it must exceed half the
		// moiré band period so the dilated interior never drops into a band
		// valley. A max filter shifts a falling edge outward by exactly its
		// radius, so the crossing found on the dilated profile is pulled back
		// by dilR; the residual error is the distance from the edge back to
		// the nearest band peak, at most half a band period.
		dilR       = 9.0
		maxTravel  = 30.0
		minStation = stations / 2
	)
	ii := newIntegral(acc)
	sample := func(x, y float64) float64 {
		return ii.rectMeanFrac(x-boxHalf, y-boxHalf, x+boxHalf, y+boxHalf)
	}
	type line struct {
		px, py, dx, dy float64 // point + unit direction
		ok             bool
	}
	fitLine := func(pts [][2]float64) line {
		fit := func(pts [][2]float64) line {
			var mx, my float64
			for _, p := range pts {
				mx += p[0]
				my += p[1]
			}
			n := float64(len(pts))
			mx /= n
			my /= n
			var sxx, sxy, syy float64
			for _, p := range pts {
				ux, uy := p[0]-mx, p[1]-my
				sxx += ux * ux
				sxy += ux * uy
				syy += uy * uy
			}
			th := 0.5 * math.Atan2(2*sxy, sxx-syy)
			return line{px: mx, py: my, dx: math.Cos(th), dy: math.Sin(th), ok: true}
		}
		l := fit(pts)
		// One rejection pass: drop crossings more than 2px off the first
		// fit (corner blur, a noisy profile) and refit from the rest.
		kept := pts[:0]
		for _, p := range pts {
			if math.Abs((p[0]-l.px)*l.dy-(p[1]-l.py)*l.dx) <= 2 {
				kept = append(kept, p)
			}
		}
		if len(kept) >= minStation && len(kept) < len(pts) {
			l = fit(kept)
		}
		return l
	}
	var lines [4]line
	for k := 0; k < 4; k++ {
		p0, p1 := q[k], q[(k+1)%4]
		ex, ey := p1[0]-p0[0], p1[1]-p0[1]
		elen := math.Hypot(ex, ey)
		if elen < 1 {
			continue
		}
		// Quad order is clockwise in image coordinates (y down), so the
		// outward normal of p0→p1 is (dy, −dx).
		nx, ny := ey/elen, -ex/elen
		var crossings [][2]float64
		for s := 0; s < stations; s++ {
			f := 0.15 + 0.7*float64(s)/float64(stations-1)
			bx, by := p0[0]+f*ex, p0[1]+f*ey
			// Profile along the outward normal, deep interior to past the
			// panel edge. Index i holds t = (i−nIn)·marchStep.
			const (
				nIn  = int(inDepth / marchStep)
				nOut = int(outDepth / marchStep)
				dilK = int(dilR / marchStep)
			)
			var prof, dil [nIn + nOut + 1]float64
			for i := range prof {
				t := float64(i-nIn) * marchStep
				prof[i] = sample(bx+nx*t, by+ny*t)
			}
			// Flatten the moiré bands: dilate with a max filter wider than a
			// band period so the interior reads as one high plateau.
			for i := range dil {
				lo, hi := i-dilK, i+dilK
				if lo < 0 {
					lo = 0
				}
				if hi > len(prof)-1 {
					hi = len(prof) - 1
				}
				m := prof[lo]
				for j := lo + 1; j <= hi; j++ {
					if prof[j] > m {
						m = prof[j]
					}
				}
				dil[i] = m
			}
			// Interior and exterior references on the dilated profile, over
			// the range where the filter window is complete.
			innerRef := dil[dilK]
			outerRef := innerRef
			for i := dilK; i <= len(dil)-1-dilK; i++ {
				if dil[i] < outerRef {
					outerRef = dil[i]
				}
			}
			if innerRef <= 1e-6 || outerRef > 0.7*innerRef {
				continue // no usable contrast at this station
			}
			// Innermost downward crossing of the mid level. The dilated
			// profile starts at the interior plateau (above the level by
			// construction) and steps down once per real boundary; the first
			// crossing is the grid edge, shifted outward by dilR.
			level := outerRef + 0.5*(innerRef-outerRef)
			pick := -1
			for i := dilK; i < len(dil)-1-dilK; i++ {
				if dil[i] >= level && dil[i+1] < level {
					pick = i
					break
				}
			}
			if pick < 0 {
				continue
			}
			frac := (dil[pick] - level) / (dil[pick] - dil[pick+1])
			tc := (float64(pick-nIn)+frac)*marchStep - dilR
			crossings = append(crossings, [2]float64{bx + nx*tc, by + ny*tc})
		}
		if len(crossings) >= minStation {
			lines[k] = fitLine(crossings)
		}
	}
	// Fallback for an edge with no usable fit: the detected edge itself.
	for k := 0; k < 4; k++ {
		if !lines[k].ok {
			p0, p1 := q[k], q[(k+1)%4]
			ex, ey := p1[0]-p0[0], p1[1]-p0[1]
			n := math.Hypot(ex, ey)
			if n < 1 {
				n = 1
			}
			lines[k] = line{px: p0[0], py: p0[1], dx: ex / n, dy: ey / n, ok: true}
		}
	}
	out := q
	for k := 0; k < 4; k++ {
		// Corner k is where edge k−1 meets edge k.
		a, b := lines[(k+3)%4], lines[k]
		den := a.dx*b.dy - a.dy*b.dx
		if math.Abs(den) < 1e-9 {
			continue
		}
		t := ((b.px-a.px)*b.dy - (b.py-a.py)*b.dx) / den
		cx, cy := a.px+t*a.dx, a.py+t*a.dy
		if math.Hypot(cx-q[k][0], cy-q[k][1]) <= maxTravel {
			out[k] = [2]float64{cx, cy}
		}
	}
	return out
}

// mfPlanes caps the capture planes the matched filter sums.
const mfPlanes = 6

// mfTable is the matched filter's input: one interleaved summed-area table
// over the mean-subtracted planes of the first n ≤ mfPlanes captures. Entry
// (y·(w+1)+x)·n+i is plane i's sum over [0,x)×[0,y), so the four nodes a
// bilinear lookup reads hold every plane side by side and one resolved box
// corner serves all planes.
type mfTable struct {
	w, h, n int
	sum     []float64
}

// diffIntegrals prepares the matched filter's inputs: the signed integral
// table of each capture's deviation from the temporal mean. Averaging over
// captures cancels the static video and the margins; what remains on
// chessboard-on Pixel cells is the signed modulation amplitude (one global
// sign per capture), zero on off cells, plus noise. The mean spans every
// capture; the table holds the first mfPlanes. Each plane accumulates
// exactly as a standalone integralImage would, so every node is bit-equal
// to the per-plane table's.
func diffIntegrals(caps []*frame.Frame, mean *frame.Frame) *mfTable {
	w, h := mean.W, mean.H
	n := min(len(caps), mfPlanes)
	t := &mfTable{w: w, h: h, n: n, sum: make([]float64, (w+1)*(h+1)*n)}
	rs := (w + 1) * n
	for y := 0; y < h; y++ {
		above := t.sum[y*rs : (y+1)*rs]
		row := t.sum[(y+1)*rs : (y+2)*rs]
		m := mean.Pix[y*w : (y+1)*w]
		var rowSum [mfPlanes]float64
		for x, mv := range m {
			k := (x + 1) * n
			for i := 0; i < n; i++ {
				rowSum[i] += float64(caps[i].Pix[y*w+x] - mv)
				row[k+i] = above[k+i] + rowSum[i]
			}
		}
	}
	return t
}

// mfScore is the projective alignment objective: a chessboard matched
// filter aggregated over every Block's warped footprint. For each capture's
// mean-subtracted plane, every Pixel cell's warped mean is accumulated with
// the transmitted chessboard sign (core.ChessOn); the per-capture statistic
// is |Σ|, since the modulation carries one global pair sign per capture and
// non-negative per-Block amplitudes. Alignment within a fraction of a cell
// maximizes the coherent sum; any residual warp makes cell footprints
// straddle on/off cells and the filter output decays smoothly toward the
// noise floor. Unlike a parity-pass score, the matched filter cannot be
// gamed by spatially smooth energy fields, which is what a misaligned
// frontal hypothesis produces on real camera captures.
func mfScore(l core.Layout, t *mfTable, h frame.Homography) float64 {
	return mfScoreStride(l, t, h, 1)
}

// warpedPt is one display point mapped through a homography; ok is false
// on the horizon line.
type warpedPt struct {
	x, y float64
	ok   bool
}

// mfScoreStride is mfScore sampled on every stride-th Block in each axis — a
// proportionally cheaper estimate used to rank candidate alignments before
// the full-resolution score decides.
//
// Each cell's footprint is the bounding box of its four warped corners,
// averaged at sub-pixel resolution (the rectMeanFrac arithmetic): cells are
// only a couple of pixels across, so integer boxes would quantize the
// polish objective into a staircase, while the fractional mean keeps it
// smooth in sub-pixel corner moves. A Block's cell corners are warped once
// as one lattice, since neighbouring cells share corners at the same
// integer display coordinates. Per cell, each box corner's node and
// fraction are resolved once and every plane is read from the same table
// rows. A cell with a corner on the horizon line (impossible for validated
// poses, reachable for fuzzed homographies) contributes nothing, and so
// does a box that clips to nothing.
//
//hot:the blind pose solve spends nearly all its time in this objective
func mfScoreStride(l core.Layout, t *mfTable, h frame.Homography, stride int) float64 {
	ps := l.PixelSize
	n, sum := t.n, t.sum
	fw, fh := float64(t.w), float64(t.h)
	rs := (t.w + 1) * n // table stride between node rows
	nc := l.BlockSize   // cells per Block side
	lat := make([]warpedPt, (nc+1)*(nc+1))
	var accs [mfPlanes]float64
	for by := 0; by < l.BlocksY; by += stride {
		for bx := 0; bx < l.BlocksX; bx += stride {
			x0, y0, _, _ := l.BlockRect(bx, by)
			for cj := 0; cj <= nc; cj++ {
				cy := float64(y0 + cj*ps)
				row := lat[cj*(nc+1) : (cj+1)*(nc+1)]
				for ci := range row {
					fx, fy, ok := h.Apply(float64(x0+ci*ps), cy)
					row[ci] = warpedPt{fx, fy, ok}
				}
			}
			pi0, pj0 := x0/ps, y0/ps
			for cj := 0; cj < nc; cj++ {
				top := lat[cj*(nc+1) : (cj+1)*(nc+1)]
				bot := lat[(cj+1)*(nc+1) : (cj+2)*(nc+1)]
				for ci := 0; ci < nc; ci++ {
					// The cell's corners in display order (x0,y0), (x1,y0),
					// (x1,y1), (x0,y1).
					p0, p1, p2, p3 := &top[ci], &top[ci+1], &bot[ci+1], &bot[ci]
					if !p0.ok || !p1.ok || !p2.ok || !p3.ok {
						continue
					}
					minX, maxX := span4(p0.x, p1.x, p2.x, p3.x)
					minY, maxY := span4(p0.y, p1.y, p2.y, p3.y)
					if minX < 0 {
						minX = 0
					}
					if minY < 0 {
						minY = 0
					}
					if maxX > fw {
						maxX = fw
					}
					if maxY > fh {
						maxY = fh
					}
					if maxX <= minX || maxY <= minY {
						continue
					}
					ix0, fx0 := nodeFrac(minX, t.w)
					ix1, fx1 := nodeFrac(maxX, t.w)
					iy0, fy0 := nodeFrac(minY, t.h)
					iy1, fy1 := nodeFrac(maxY, t.h)
					// Node offsets of the four box corners S(x1,y1), S(x0,y1),
					// S(x1,y0), S(x0,y0), combined as a − b − c + d.
					pa := iy1*rs + ix1*n
					pb := iy1*rs + ix0*n
					pc := iy0*rs + ix1*n
					pd := iy0*rs + ix0*n
					area := (maxX - minX) * (maxY - minY)
					on := core.ChessOn(pi0+ci, pj0+cj)
					for i := 0; i < n; i++ {
						a := bilerp(sum, pa+i, n, rs, fx1, fy1)
						b := bilerp(sum, pb+i, n, rs, fx0, fy1)
						c := bilerp(sum, pc+i, n, rs, fx1, fy0)
						d := bilerp(sum, pd+i, n, rs, fx0, fy0)
						s := a - b - c + d
						if on {
							accs[i] += s / area
						} else {
							accs[i] -= s / area
						}
					}
				}
			}
		}
	}
	var total float64
	for i := 0; i < n; i++ {
		total += math.Abs(accs[i])
	}
	return total / float64(n)
}

// span4 returns the least and greatest of a, b, c, d, compared in that
// order.
func span4(a, b, c, d float64) (lo, hi float64) {
	lo, hi = a, a
	if b < lo {
		lo = b
	}
	if b > hi {
		hi = b
	}
	if c < lo {
		lo = c
	}
	if c > hi {
		hi = c
	}
	if d < lo {
		lo = d
	}
	if d > hi {
		hi = d
	}
	return lo, hi
}

// nodeFrac splits a coordinate v ∈ [0, size] into the summed-area node at
// or left of it (the last cell's node at the far edge) and the fraction
// past that node, as integralImage.sumAt does.
func nodeFrac(v float64, size int) (int, float64) {
	i := int(v)
	if i >= size {
		i = size - 1
	}
	return i, v - float64(i)
}

// bilerp interpolates one plane of an interleaved table at node offset p,
// fraction (fx, fy) toward the next node in x (n entries on) and the next
// node row (rs entries on) in y: integralImage.sumAt's arithmetic in the
// same order.
func bilerp(sum []float64, p, n, rs int, fx, fy float64) float64 {
	s00 := sum[p]
	s01 := sum[p+n]
	s10 := sum[p+rs]
	s11 := sum[p+rs+n]
	top := s00 + (s01-s00)*fx
	bot := s10 + (s11-s10)*fx
	return top + (bot-top)*fy
}

// polishSteps is the corner polish's search schedule in units of the
// *capture-space* Pixel-cell pitch: every calibration runs the same number
// of solve+score evaluations regardless of the data, so the projective path
// stays free of data-dependent convergence loops. Total per-corner travel is
// capped at 2.25 cell pitches on purpose: the chessboard matched filter is
// near-periodic in the cell pitch, and a longer leash lets the descent slip
// onto an anti-phase comb tooth that scores well but decodes inverted.
// Expressing the schedule in pitches keeps that leash meaningful whether the
// camera oversamples the panel (pitch > PixelSize) or undersamples it
// (pitch < PixelSize, e.g. the half-scale paper capture).
var polishSteps = [4]float64{1, 0.5, 0.5, 0.25}

// descendQuad runs fixed-iteration coordinate descent over the four capture
// corners of start, maximizing the matched-filter score of the solved
// homography: for each round, each corner axis tries ± the round's step (in
// capture pixels, pre-scaled by the cell pitch); an improved solve is adopted
// immediately. The iteration count is fixed (rounds × corners × axes × 2
// candidate offsets), never data-dependent. Returns the descended quad, its
// homography and score; ok is false when no corner configuration solved.
func descendQuad(l core.Layout, t *mfTable, src, start Quad, pitch float64, steps []float64, stride int) (Quad, frame.Homography, float64, bool) {
	h, err := frame.SolveHomography(src, start)
	if err != nil {
		return start, frame.Homography{}, 0, false
	}
	score := mfScoreStride(l, t, h, stride)
	for _, step := range steps {
		for c := 0; c < 4; c++ {
			for axis := 0; axis < 2; axis++ {
				for _, d := range [2]float64{-step * pitch, step * pitch} {
					cand := start
					cand[c][axis] += d
					hc, err := frame.SolveHomography(src, cand)
					if err != nil {
						continue
					}
					if s := mfScoreStride(l, t, hc, stride); s > score {
						score = s
						h = hc
						start = cand
					}
				}
			}
		}
	}
	return start, h, score, true
}

// scanEdges bridges a coarse quad into the matched filter's phase-lock
// basin. The filter is near-periodic in the cell pitch, so plain descent
// from a start more than half a pitch off locks onto the wrong comb tooth —
// and the edge refinement's residual error is a per-edge *offset* along the
// normal (its line directions are accurate, its levels biased inward by up
// to half a moiré band). The scan therefore translates one whole edge at a
// time along its outward normal over a ±spanPx window at sub-pitch steps:
// both corners move coherently, so every cell in the edge's band shifts in
// lockstep and the true tooth is guaranteed to be sampled. Coordinate-wise
// per-corner moves cannot find these offsets — moving one corner alone
// tilts the edge and gains almost nothing. Two rounds over the four edges,
// argmax on the stride-2 score; the evaluation count is fixed by the window
// and step, never data-dependent.
func scanEdges(l core.Layout, t *mfTable, src, start Quad, pitch, spanPx float64) (Quad, float64, bool) {
	q := start
	h, err := frame.SolveHomography(src, q)
	if err != nil {
		return q, 0, false
	}
	best := mfScoreStride(l, t, h, 2)
	step := pitch / 3
	span := int(math.Ceil(spanPx / step))
	for round := 0; round < 2; round++ {
		for k := 0; k < 4; k++ {
			j := (k + 1) % 4
			ex, ey := q[j][0]-q[k][0], q[j][1]-q[k][1]
			elen := math.Hypot(ex, ey)
			if elen < 1 {
				continue
			}
			nx, ny := ey/elen, -ex/elen
			bestOff := 0.0
			for o := -span; o <= span; o++ {
				if o == 0 {
					continue
				}
				d := float64(o) * step
				cand := q
				cand[k][0] += nx * d
				cand[k][1] += ny * d
				cand[j][0] += nx * d
				cand[j][1] += ny * d
				hc, err := frame.SolveHomography(src, cand)
				if err != nil {
					continue
				}
				if s := mfScoreStride(l, t, hc, 2); s > best {
					best = s
					bestOff = d
				}
			}
			q[k][0] += nx * bestOff
			q[k][1] += ny * bestOff
			q[j][0] += nx * bestOff
			q[j][1] += ny * bestOff
		}
	}
	return q, best, true
}

// scanCorners is the fine counterpart of scanEdges: once every edge offset
// is phase-locked, each corner coordinate is swept independently over a
// small ±spanPx window to absorb the residual shear and perspective the
// per-edge translations cannot express.
func scanCorners(l core.Layout, t *mfTable, src, start Quad, pitch, spanPx float64) (Quad, float64, bool) {
	q := start
	h, err := frame.SolveHomography(src, q)
	if err != nil {
		return q, 0, false
	}
	best := mfScoreStride(l, t, h, 2)
	step := pitch / 3
	span := int(math.Ceil(spanPx / step))
	for round := 0; round < 2; round++ {
		for c := 0; c < 4; c++ {
			for axis := 0; axis < 2; axis++ {
				base := q[c][axis]
				bestOff := 0.0
				for o := -span; o <= span; o++ {
					if o == 0 {
						continue
					}
					cand := q
					cand[c][axis] = base + float64(o)*step
					hc, err := frame.SolveHomography(src, cand)
					if err != nil {
						continue
					}
					if s := mfScoreStride(l, t, hc, 2); s > best {
						best = s
						bestOff = float64(o) * step
					}
				}
				q[c][axis] = base + bestOff
			}
		}
	}
	return q, best, true
}

// CalibrateProjective is the projective one-call path: detect the grid quad
// over the captures, refine each edge on the dilated energy profile, scan
// each corner into the matched filter's phase-lock basin, solve the
// display→capture homography by normalized DLT, and polish the four capture
// corners by fixed-iteration coordinate descent on the full-resolution
// matched-filter score. The frontal (full-frame axis-aligned) hypothesis
// competes on the same score and wins near-ties, so an already-aligned
// camera yields an exactly axis-aligned homography — which the receiver
// then routes through the pre-homography decode path bit-identically.
//
// The six candidate chains run concurrently on GOMAXPROCS workers; the
// result is bit-identical at any worker count.
func CalibrateProjective(l core.Layout, caps []*frame.Frame) (frame.Homography, error) {
	return calibrateProjective(l, caps, 0)
}

// calibrateProjective is CalibrateProjective on an explicit worker budget
// (parallel.Resolve semantics).
func calibrateProjective(l core.Layout, caps []*frame.Frame, workers int) (frame.Homography, error) {
	if len(caps) == 0 {
		return frame.Homography{}, ErrNoRegion
	}
	ff := core.FullFrame(l, caps[0].W, caps[0].H)
	hff := frame.AxisAlignedHomography(ff.ScaleX, ff.ScaleY, ff.OffX, ff.OffY)
	energy, err := TemporalEnergy(caps)
	if err != nil {
		return frame.Homography{}, err
	}
	mean := temporalMean(caps)
	quad, err := detectQuad(energy, mean)
	if err != nil {
		return frame.Homography{}, err
	}
	src := GridCorners(l)
	t := diffIntegrals(caps, mean)
	// Cell pitch in capture pixels, estimated from the detected quad's mean
	// horizontal extent against the display grid's width. It sets the polish
	// step sizes.
	gridW := float64(l.BlocksX * l.BlockPx())
	topW := math.Hypot(quad[1][0]-quad[0][0], quad[1][1]-quad[0][1])
	botW := math.Hypot(quad[2][0]-quad[3][0], quad[2][1]-quad[3][1])
	pitch := float64(l.PixelSize) * (topW + botW) / (2 * gridW)
	if !(pitch > 0.5) {
		pitch = 0.5
	}
	// Three starts — the edge-refined quad, the raw detected one (the
	// refinement's safety net), and the frontal grid (where a near-frontal
	// camera truly is, which detection can miss entirely when the energy
	// gate latches onto a content artifact) — each tried under two
	// strategies. A raw pre-descent score cannot rank candidates, because
	// the matched filter is near-periodic in the cell pitch and a start two
	// pixels off the true grid (outside the central comb tooth) can score
	// below one ten pixels off that aliases onto a tooth; only fully
	// descended scores compare.
	frontal := Quad{}
	for i, c := range src {
		frontal[i][0] = ff.OffX + c[0]*ff.ScaleX
		frontal[i][1] = ff.OffY + c[1]*ff.ScaleY
	}
	starts := [3]Quad{refineQuad(energy, quad), quad, frontal}
	// Chain 2k descends start k directly; chain 2k+1 scans it first. The
	// chains share only the read-only table and each writes its own slot.
	type chain struct {
		h     frame.Homography
		score float64
		ok    bool
	}
	var chains [2 * len(starts)]chain
	parallel.For(workers, len(chains), func(k int) {
		start := starts[k/2]
		if k%2 == 1 {
			// Scan bridge for the biased-detection regime: coherent
			// per-edge offsets first, then per-corner shear, then the same
			// leashed descent.
			q, _, ok := scanEdges(l, t, src, start, pitch, 9)
			if !ok {
				return
			}
			if start, _, ok = scanCorners(l, t, src, q, pitch, 3); !ok {
				return
			}
		}
		// Leashed descent: straight from the coarse quad, it is the winning
		// strategy when detection landed within a couple of pixels, where
		// any longer-range move risks hopping onto an aliased comb tooth.
		_, h, s, ok := descendQuad(l, t, src, start, pitch, polishSteps[:], 1)
		chains[k] = chain{h, s, ok}
	})
	// All six final candidates are scored by the identical full-resolution
	// descended matched filter, so the regimes compete on equal terms. The
	// reduction runs in chain order with a strict >, so ties resolve the
	// same way at any worker count.
	var (
		best      frame.Homography
		bestScore = math.Inf(-1)
		solved    bool
	)
	for _, c := range chains {
		if c.ok && c.score > bestScore {
			bestScore = c.score
			best = c.h
			solved = true
		}
	}
	if !solved {
		return frame.Homography{}, frame.ErrDegenerateQuad
	}
	// Among near-ties prefer the frontal hypothesis, exactly as the affine
	// Calibrate prefers the full-frame mapping: the matched filter saturates
	// once alignment is within a fraction of a Pixel cell, and the
	// eight-parameter polish can always trade a sliver of coherence for
	// spurious sub-pixel wiggle. The margin is relative because the filter's
	// scale tracks the (layout- and channel-dependent) modulation amplitude;
	// a real pose costs the frontal grid far more than 10% of its coherence.
	if mfScore(l, t, hff) >= 0.9*bestScore {
		return hff, nil
	}
	return best, nil
}
