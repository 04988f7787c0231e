package frame

import (
	"fmt"
	"math"
)

// BoxBlur returns a copy of f blurred with a (2r+1)×(2r+1) box filter.
// Edges are handled by clamping coordinates (replicate padding). r <= 0
// returns a plain clone. This is the "smoothing" primitive the InFrame
// demultiplexer subtracts to expose chessboard energy (§3.3).
func BoxBlur(f *Frame, r int) *Frame {
	out := New(f.W, f.H)
	BoxBlurInto(f, out, r, nil)
	return out
}

// BoxBlurInto blurs f into dst (same size as f, panics otherwise) drawing
// its two scratch buffers — the intermediate row-blurred plane and the
// vertical pass's one row of column sums — from p, so a pooled
// steady-state blur allocates nothing. dst must not alias f. A nil pool
// allocates the scratch.
func BoxBlurInto(f, dst *Frame, r int, p *Pool) {
	if !f.SameSize(dst) {
		panic("frame.BoxBlurInto: size mismatch")
	}
	if r <= 0 {
		f.CloneInto(dst)
		return
	}
	// Two separable passes: horizontal then vertical, each using a sliding
	// running sum so the cost is O(W*H) independent of r.
	tmp := p.Get(f.W, f.H)
	blurRows(f, tmp, r)
	// The vertical pass keeps one running sum per column; a W×1 pooled
	// frame serves exactly that without a second buffer type in the pool.
	acc := p.Get(f.W, 1)
	blurCols(tmp, dst, r, acc.Pix)
	p.Put(acc)
	p.Put(tmp)
}

func blurRows(src, dst *Frame, r int) {
	w := src.W
	inv := 1 / float32(2*r+1)
	for y := 0; y < src.H; y++ {
		row := src.Pix[y*w : (y+1)*w]
		out := dst.Pix[y*w : (y+1)*w]
		var sum float32
		for i := -r; i <= r; i++ {
			sum += row[clampIdx(i, w)]
		}
		for x := 0; x < w; x++ {
			out[x] = sum * inv
			sum += row[clampIdx(x+r+1, w)] - row[clampIdx(x-r, w)]
		}
	}
}

// blurCols is the vertical sliding pass, walked in rows: acc (len ≥ W)
// holds one running window sum per column, so every access is a
// contiguous row instead of a plane-stride gather. Each column still sees
// the float32 sequence of a per-column slide — start at 0, add the r+1+r
// replicate-padded taps top to bottom, then per row emit sum·inv and add
// (entering − leaving) — so the result is bit-identical to it.
func blurCols(src, dst *Frame, r int, acc []float32) {
	w, h := src.W, src.H
	inv := 1 / float32(2*r+1)
	acc = acc[:w]
	clear(acc)
	for i := -r; i <= r; i++ {
		row := src.Row(clampIdx(i, h))
		for x, v := range row {
			acc[x] += v
		}
	}
	for y := 0; y < h; y++ {
		out := dst.Pix[y*w : (y+1)*w]
		in := src.Row(clampIdx(y+r+1, h))
		outgoing := src.Row(clampIdx(y-r, h))
		for x, s := range acc {
			out[x] = s * inv
			acc[x] = s + (in[x] - outgoing[x])
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

// Resample returns f resampled to w×h using area averaging for reduction and
// bilinear interpolation for enlargement. This models the camera sensor
// seeing the screen at a different resolution than the display's.
func Resample(f *Frame, w, h int) *Frame {
	out := New(w, h)
	ResampleInto(f, out)
	return out
}

// ResampleInto resamples f into dst, whose dimensions select the target
// size: area averaging for reduction, bilinear interpolation for
// enlargement, a straight copy when the sizes match. dst must not alias f.
// It builds the size pair's Resampler for this one call; resample the same
// size pair repeatedly through one NewResampler instead.
func ResampleInto(f, dst *Frame) {
	NewResampler(f.W, f.H, dst.W, dst.H).Into(f, dst)
}

// Resampler resamples srcW×srcH sources to dstW×dstH: the one resample
// kernel behind Resample, ResampleInto and the camera's row-streamed
// capture, with the area-averaging weight tables built once at
// construction. It is read-only afterwards, so concurrent captures share
// one (the camera keeps one per source size).
//
// The kernel walks output rows. Each output row reads a contiguous window
// of at most Span() source rows, and the windows of successive output rows
// never move backwards, so a source does not have to exist as a plane:
// RowsInto pulls each source row through a caller-supplied fill into a
// Span()-row ring and resamples straight from it. Into is the same kernel
// reading the rows of a whole plane.
type Resampler struct {
	srcW, srcH, dstW, dstH int
	// area selects area averaging (a reduction on both axes) over the
	// bilinear enlargement; xt and yt are its tap tables, unused otherwise.
	area   bool
	xt, yt axisTaps
	// span is the most source rows any output row reads.
	span int
	// period names the kernel of a periodic x table (the 2× and 1.5×
	// reductions), whose two-row output rows skip the table; wx holds its
	// weight pair per phase (phase 0 alone at 2×).
	period periodKind
	wx     [2][2]float64
	// lerp holds every output column's taps for the bilinear enlargement
	// (and mixed-axis) path; nil otherwise.
	lerp []lerpTap
}

// lerpTap is one output column of the bilinear path: source columns x0
// and x1 = min(x0+1, srcW−1) and the float32 weight wx of x1.
type lerpTap struct {
	x0, x1 int32
	wx     float32
}

// NewResampler returns the resampler from srcW×srcH to dstW×dstH.
func NewResampler(srcW, srcH, dstW, dstH int) *Resampler {
	r := &Resampler{srcW: srcW, srcH: srcH, dstW: dstW, dstH: dstH}
	switch {
	case (dstW != srcW || dstH != srcH) && dstW <= srcW && dstH <= srcH:
		r.area = true
		r.xt = buildAxisTaps(srcW, dstW, float64(srcW)/float64(dstW))
		r.yt = buildAxisTaps(srcH, dstH, float64(srcH)/float64(dstH))
		for o := 0; o < dstH; o++ {
			r.span = max(r.span, r.yt.off[o+1]-r.yt.off[o])
		}
		r.period, r.wx = periodicTaps(r.xt, dstW)
	case dstW == srcW && dstH == srcH:
		// Output row y is source row y: RowsInto needs no ring.
	default:
		r.span = 2 // the bilinear pair y0, y0+1
		r.lerp = lerpTaps(srcW, dstW)
	}
	return r
}

// Source returns the source size the resampler was built for.
func (r *Resampler) Source() (int, int) { return r.srcW, r.srcH }

// Span returns the row count of the ring RowsInto streams through: the
// most source rows one output row reads, or 0 for equal sizes, where
// RowsInto fills the output rows in place.
func (r *Resampler) Span() int { return r.span }

// Into resamples f into dst; both must match the resampler's sizes (it
// panics otherwise) and dst must not alias f.
func (r *Resampler) Into(f, dst *Frame) {
	if f.W != r.srcW || f.H != r.srcH {
		panic(fmt.Sprintf("frame: resampler %dx%d→%dx%d given %dx%d→%dx%d",
			r.srcW, r.srcH, r.dstW, r.dstH, f.W, f.H, dst.W, dst.H))
	}
	r.checkDst(dst)
	r.rows(dst, 0, r.dstH, f.Row, nil)
}

// RowsInto resamples output rows [lo, hi) of dst without a source plane.
// fill(y, row) must write every pixel of source row y into row (length
// srcW); RowsInto calls it once per source row the taps of [lo, hi) read,
// in increasing y, into ring — scratch for at least Span() source rows
// (len ≥ Span()·srcW), whose contents on entry do not matter; at equal
// sizes it fills the output rows themselves and ring may be nil. After
// each output row is written, done (if not nil) receives it, while it is
// still in cache. Output pixels are bit-identical to Into on the plane
// fill describes; rows outside [lo, hi) are not touched, so disjoint
// ranges of one dst may run concurrently, each with its own ring.
func (r *Resampler) RowsInto(dst *Frame, lo, hi int, ring []float32, fill func(y int, row []float32), done func(row []float32)) {
	r.checkDst(dst)
	if r.span == 0 {
		for y := lo; y < hi; y++ {
			row := dst.Row(y)
			fill(y, row)
			if done != nil {
				done(row)
			}
		}
		return
	}
	n := len(ring) / r.srcW
	if n < r.span {
		panic(fmt.Sprintf("frame: resampler %dx%d→%dx%d needs a ring of %d rows of %d, given %d values",
			r.srcW, r.srcH, r.dstW, r.dstH, r.span, r.srcW, len(ring)))
	}
	// Row y lives in ring row y mod n. Windows are contiguous, at most
	// span ≤ n rows and never move backwards, so a requested row below
	// next (the first row not yet filled) is still resident: the only row
	// that could have overwritten its slot is y + n ≥ next.
	next := 0
	r.rows(dst, lo, hi, func(y int) []float32 {
		k := y % n
		row := ring[k*r.srcW : (k+1)*r.srcW]
		if y >= next {
			fill(y, row)
			next = y + 1
		}
		return row
	}, done)
}

// checkDst panics unless dst is the resampler's target size.
func (r *Resampler) checkDst(dst *Frame) {
	if dst.W != r.dstW || dst.H != r.dstH {
		panic(fmt.Sprintf("frame: resampler %dx%d→%dx%d given a %dx%d target",
			r.srcW, r.srcH, r.dstW, r.dstH, dst.W, dst.H))
	}
}

// rowTapsStack is how many y-tap rows rows keeps on the stack; a reduction
// deeper than that (a tiny sensor framing a large panel) borrows a heap
// slice once per call.
const rowTapsStack = 8

// rows is the resample kernel: output rows [lo, hi) of dst, reading source
// row y through src(y). src is asked for each output row's window in
// increasing y, and the windows never move backwards.
func (r *Resampler) rows(dst *Frame, lo, hi int, src func(y int) []float32, done func(row []float32)) {
	var stack [rowTapsStack][]float32
	taps := stack[:]
	if r.span > len(stack) {
		taps = make([][]float32, r.span)
	}
	for oy := lo; oy < hi; oy++ {
		out := dst.Row(oy)
		switch {
		case r.area:
			ys, ye := r.yt.off[oy], r.yt.off[oy+1]
			wy := r.yt.wgt[ys:ye]
			rowsY := taps[:len(wy)]
			for k := range rowsY {
				rowsY[k] = src(r.yt.idx[ys+k])
			}
			if len(wy) != 2 || !r.periodicRow(out, rowsY[0], rowsY[1], wy[0], wy[1]) {
				areaRow(out, rowsY, wy, r.xt)
			}
		case r.srcW == r.dstW && r.srcH == r.dstH:
			copy(out, src(oy))
		default:
			r.bilinearRow(out, oy, src)
		}
		if done != nil {
			done(out)
		}
	}
}

// axisTaps is the hoisted per-axis weight table of the area resampler: for
// each output coordinate, the contributing input coordinates and their
// overlap weights. The weights depend only on one axis, so computing them
// once per output row/column — instead of once per (output pixel, input
// pixel) pair, where the overlap min/max calls dominated the capture
// profile — leaves the inner loop as pure multiply-accumulate. The taps are
// the exact overlap() values the unhoisted loops computed, visited in the
// same order, so the accumulation is bit-identical.
type axisTaps struct {
	// idx and wgt hold the flattened positive-weight taps; off[o]..off[o+1]
	// is output coordinate o's span.
	idx []int
	wgt []float64
	off []int
}

// buildAxisTaps tabulates one axis: inN input samples reduced to outN
// output samples at scale = inN/outN (≥ 1).
func buildAxisTaps(inN, outN int, scale float64) axisTaps {
	t := axisTaps{
		idx: make([]int, 0, inN+outN),
		wgt: make([]float64, 0, inN+outN),
		off: make([]int, outN+1),
	}
	for o := 0; o < outN; o++ {
		b0 := float64(float64(o) * scale)
		b1 := b0 + scale
		for i := int(b0); i < int(math.Ceil(b1)) && i < inN; i++ {
			f := overlap(float64(i), float64(i+1), b0, b1)
			if f <= 0 {
				continue
			}
			t.idx = append(t.idx, i)
			t.wgt = append(t.wgt, f)
		}
		t.off[o+1] = len(t.idx)
	}
	return t
}

// areaRow area-averages one output row from its y-tap source rows (rowsY,
// weights wy, top to bottom). Every output pixel accumulates its taps
// y-major, x-minor with the float64 products of the direct overlap
// formulation, so the row is bit-identical to it.
func areaRow(out []float32, rowsY [][]float32, wy []float64, xt axisTaps) {
	for ox := range out {
		xs, xe := xt.off[ox], xt.off[ox+1]
		xi, xw := xt.idx[xs:xe], xt.wgt[xs:xe]
		var sum, area float64
		for k, row := range rowsY {
			fy := wy[k]
			for j, i := range xi {
				wgt := float64(xw[j] * fy)
				sum += float64(wgt * float64(row[i]))
				area += wgt
			}
		}
		if area > 0 {
			out[ox] = float32(sum / area)
		}
	}
}

// periodKind names the dedicated kernel of a periodic area table.
type periodKind uint8

const (
	// periodNone: the table takes areaRow.
	periodNone periodKind = iota
	// period2: output column o reads source columns 2o and 2o+1 with one
	// weight pair (areaRow2x).
	period2
	// period3: output columns 2m and 2m+1 read source columns 3m, 3m+1 and
	// 3m+1, 3m+2, with one weight pair per parity (areaRow3to2).
	period3
)

// periodicTaps classifies the n output columns of xt: period2 or period3
// when every column's two taps follow that pattern with the weight bits of
// the first period, returned per phase; periodNone otherwise. The 2× and
// 1.5× reductions are the periodic tables: their overlaps are exact
// multiples of ½, so every period carries the same bits.
func periodicTaps(xt axisTaps, n int) (periodKind, [2][2]float64) {
	// matches reports whether every column o has the two taps
	// stride·(o/phases) + o%phases + {0, 1} with column o%phases's weights.
	matches := func(stride, phases int) bool {
		if n < phases || n%phases != 0 {
			return false
		}
		for o := 0; o < n; o++ {
			xs, p := xt.off[o], xt.off[o%phases]
			i := stride*(o/phases) + o%phases
			if xt.off[o+1]-xs != 2 || xt.idx[xs] != i || xt.idx[xs+1] != i+1 ||
				math.Float64bits(xt.wgt[xs]) != math.Float64bits(xt.wgt[p]) ||
				math.Float64bits(xt.wgt[xs+1]) != math.Float64bits(xt.wgt[p+1]) {
				return false
			}
		}
		return true
	}
	var wx [2][2]float64
	kind := periodNone
	switch {
	case matches(2, 1):
		kind = period2
	case matches(3, 2):
		kind = period3
		wx[1] = [2]float64{xt.wgt[xt.off[1]], xt.wgt[xt.off[1]+1]}
	default:
		return periodNone, wx
	}
	wx[0] = [2]float64{xt.wgt[0], xt.wgt[1]}
	return kind, wx
}

// periodicRow writes output row out from its two source rows through the
// table's periodic kernel. It reports false, writing nothing, when the
// table is not periodic or a phase's area is not positive; the caller then
// takes areaRow, which leaves such pixels unwritten as before.
func (r *Resampler) periodicRow(out, row0, row1 []float32, fy0, fy1 float64) bool {
	switch r.period {
	case period2:
		return areaRow2x(out, row0, row1, fy0, fy1, r.wx[0])
	case period3:
		return areaRow3to2(out, row0, row1, fy0, fy1, r.wx)
	}
	return false
}

// pairArea returns the four tap weights of a two-row, two-column output
// pixel, x weights wx times y weights fy0, fy1, in tap order, and their
// area summed from 0 in that order: areaRow's products and area.
func pairArea(wx [2]float64, fy0, fy1 float64) (w00, w01, w10, w11, area float64) {
	w00, w01 = float64(wx[0]*fy0), float64(wx[1]*fy0)
	w10, w11 = float64(wx[0]*fy1), float64(wx[1]*fy1)
	area += w00
	area += w01
	area += w10
	area += w11
	return w00, w01, w10, w11, area
}

// areaRow2x is areaRow for a period2 table: every output pixel reads the
// same four weights, so the row forms them and their area once. Each
// pixel accumulates the same four products from 0 in areaRow's order and
// divides by the area, so the row is bit for bit areaRow's. It reports
// false, writing nothing, when the area is not positive.
func areaRow2x(out, row0, row1 []float32, fy0, fy1 float64, wx [2]float64) bool {
	w00, w01, w10, w11, area := pairArea(wx, fy0, fy1)
	if !(area > 0) {
		return false
	}
	for o := range out {
		a := row0[2*o : 2*o+2 : 2*o+2]
		b := row1[2*o : 2*o+2 : 2*o+2]
		var sum float64
		sum += float64(w00 * float64(a[0]))
		sum += float64(w01 * float64(a[1]))
		sum += float64(w10 * float64(b[0]))
		sum += float64(w11 * float64(b[1]))
		out[o] = float32(sum / area)
	}
	return true
}

// areaRow3to2 is areaRow for a period3 table: output pixels 2m and 2m+1
// read the three source columns 3m…3m+2 of both rows with their phase's
// weights, formed with their areas once per row. Each pixel accumulates
// the same four products from 0 in areaRow's order and divides by its
// phase's area, so the row is bit for bit areaRow's. It reports false,
// writing nothing, when either phase's area is not positive.
func areaRow3to2(out, row0, row1 []float32, fy0, fy1 float64, wx [2][2]float64) bool {
	e00, e01, e10, e11, areaE := pairArea(wx[0], fy0, fy1)
	d00, d01, d10, d11, areaD := pairArea(wx[1], fy0, fy1)
	if !(areaE > 0 && areaD > 0) {
		return false
	}
	for m := range len(out) / 2 {
		a := row0[3*m : 3*m+3 : 3*m+3]
		b := row1[3*m : 3*m+3 : 3*m+3]
		o := out[2*m : 2*m+2 : 2*m+2]
		var sum float64
		sum += float64(e00 * float64(a[0]))
		sum += float64(e01 * float64(a[1]))
		sum += float64(e10 * float64(b[0]))
		sum += float64(e11 * float64(b[1]))
		o[0] = float32(sum / areaE)
		sum = 0
		sum += float64(d00 * float64(a[1]))
		sum += float64(d01 * float64(a[2]))
		sum += float64(d10 * float64(b[1]))
		sum += float64(d11 * float64(b[2]))
		o[1] = float32(sum / areaD)
	}
	return true
}

func overlap(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// lerpTaps tabulates the bilinear path's dstW output columns over a
// srcW-wide source, with the expressions bilinearRow evaluated per pixel
// before: fx = ox·sx, x0 = ⌊fx⌋, x1 = min(x0+1, srcW−1) and
// wx = float32(fx − x0), where sx = (srcW−1)/max(dstW−1, 1).
func lerpTaps(srcW, dstW int) []lerpTap {
	checkTapIndex(srcW, 1)
	sx := float64(srcW-1) / float64(max(dstW-1, 1))
	taps := make([]lerpTap, dstW)
	for ox := range taps {
		fx := float64(float64(ox) * sx)
		x0 := int(fx)
		taps[ox] = lerpTap{
			x0: int32(x0), // x0 ≤ x1 ≤ srcW−1 ≤ MaxInt32, which checkTapIndex asserts
			x1: int32(min(x0+1, srcW-1)),
			wx: float32(fx - float64(x0)),
		}
	}
	return taps
}

// bilinearRow interpolates output row oy from source rows y0 and
// min(y0+1, srcH-1) through the column taps: the enlargement (and
// mixed-axis) path.
func (r *Resampler) bilinearRow(out []float32, oy int, src func(y int) []float32) {
	sy := float64(r.srcH-1) / float64(max(r.dstH-1, 1))
	fy := float64(float64(oy) * sy)
	y0 := int(fy)
	y1 := min(y0+1, r.srcH-1)
	wy := float32(fy - float64(y0))
	row0 := src(y0)
	row1 := src(y1)
	for ox, t := range r.lerp[:len(out)] {
		v00 := row0[t.x0]
		v01 := row0[t.x1]
		v10 := row1[t.x0]
		v11 := row1[t.x1]
		top := v00 + float32((v01-v00)*t.wx)
		bot := v10 + float32((v11-v10)*t.wx)
		out[ox] = top + float32((bot-top)*wy)
	}
}

// MAE returns the mean absolute pixel error between two equal-sized frames.
func MAE(a, b *Frame) (float64, error) {
	if !a.SameSize(b) {
		return 0, ErrSizeMismatch
	}
	var s float64
	for i, v := range a.Pix {
		s += math.Abs(float64(v - b.Pix[i]))
	}
	return s / float64(len(a.Pix)), nil
}

// MSE returns the mean squared pixel error between two equal-sized frames.
func MSE(a, b *Frame) (float64, error) {
	if !a.SameSize(b) {
		return 0, ErrSizeMismatch
	}
	var s float64
	for i, v := range a.Pix {
		d := float64(v - b.Pix[i])
		s += float64(d * d)
	}
	return s / float64(len(a.Pix)), nil
}

// PSNR returns the peak signal-to-noise ratio in dB between two equal-sized
// frames assuming a 255 peak. Identical frames yield +Inf.
func PSNR(a, b *Frame) (float64, error) {
	mse, err := MSE(a, b)
	if err != nil {
		return 0, err
	}
	//lint:ignore floateq division guard: MSE is a sum of squares, exactly zero iff the frames are identical
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

// Average returns the pixel-wise mean of the given frames, which must all
// share one size. It models ideal temporal fusion over the frame set.
func Average(frames ...*Frame) (*Frame, error) {
	if len(frames) == 0 {
		return nil, ErrSizeMismatch
	}
	out := New(frames[0].W, frames[0].H)
	for _, f := range frames {
		if err := out.Add(f); err != nil {
			return nil, err
		}
	}
	out.Scale(1 / float32(len(frames)))
	return out, nil
}

// HighFreqEnergy returns the mean absolute residual of f after subtracting
// its r-radius box blur: the per-pixel high-spatial-frequency energy the
// InFrame detector keys on.
func HighFreqEnergy(f *Frame, r int) float64 {
	sm := BoxBlur(f, r)
	var s float64
	for i, v := range f.Pix {
		s += math.Abs(float64(v - sm.Pix[i]))
	}
	return s / float64(len(f.Pix))
}
