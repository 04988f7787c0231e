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
// column sliding window — from p, so a pooled steady-state blur allocates
// nothing. dst must not alias f. A nil pool allocates the scratch.
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
	// The column window is a length-H scalar buffer; a 1×H pooled frame
	// serves exactly that without a second buffer type in the pool.
	colf := p.Get(1, f.H)
	blurCols(tmp, dst, r, colf.Pix)
	p.Put(colf)
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

func blurCols(src, dst *Frame, r int, col []float32) {
	w, h := src.W, src.H
	inv := 1 / float32(2*r+1)
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			col[y] = src.Pix[y*w+x]
		}
		var sum float32
		for i := -r; i <= r; i++ {
			sum += col[clampIdx(i, h)]
		}
		for y := 0; y < h; y++ {
			dst.Pix[y*w+x] = sum * inv
			sum += col[clampIdx(y+r+1, h)] - col[clampIdx(y-r, h)]
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

// Resampler resamples srcW×srcH frames to dstW×dstH: the one resample path
// behind Resample and ResampleInto, with the area-averaging weight tables
// built once at construction. It is read-only afterwards, so concurrent
// captures share one (the camera keeps one per source size).
type Resampler struct {
	srcW, srcH, dstW, dstH int
	// area selects area averaging (a reduction on both axes) over the
	// bilinear enlargement; xt and yt are its tap tables, unused otherwise.
	area   bool
	xt, yt axisTaps
}

// NewResampler returns the resampler from srcW×srcH to dstW×dstH.
func NewResampler(srcW, srcH, dstW, dstH int) *Resampler {
	r := &Resampler{srcW: srcW, srcH: srcH, dstW: dstW, dstH: dstH}
	if (dstW != srcW || dstH != srcH) && dstW <= srcW && dstH <= srcH {
		r.area = true
		r.xt = buildAxisTaps(srcW, dstW, float64(srcW)/float64(dstW))
		r.yt = buildAxisTaps(srcH, dstH, float64(srcH)/float64(dstH))
	}
	return r
}

// Source returns the source size the resampler was built for.
func (r *Resampler) Source() (int, int) { return r.srcW, r.srcH }

// Into resamples f into dst; both must match the resampler's sizes (it
// panics otherwise) and dst must not alias f.
func (r *Resampler) Into(f, dst *Frame) {
	if f.W != r.srcW || f.H != r.srcH || dst.W != r.dstW || dst.H != r.dstH {
		panic(fmt.Sprintf("frame: resampler %dx%d→%dx%d given %dx%d→%dx%d",
			r.srcW, r.srcH, r.dstW, r.dstH, f.W, f.H, dst.W, dst.H))
	}
	switch {
	case r.area:
		areaResample(f, dst, r.xt, r.yt)
	case f.W == dst.W && f.H == dst.H:
		f.CloneInto(dst)
	default:
		bilinearResample(f, dst)
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
		b0 := float64(o) * scale
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

func areaResample(f, out *Frame, xt, yt axisTaps) {
	w, h := out.W, out.H
	for oy := 0; oy < h; oy++ {
		ys, ye := yt.off[oy], yt.off[oy+1]
		for ox := 0; ox < w; ox++ {
			xs, xe := xt.off[ox], xt.off[ox+1]
			var sum, area float64
			for ti := ys; ti < ye; ti++ {
				fy := yt.wgt[ti]
				row := f.Pix[yt.idx[ti]*f.W : (yt.idx[ti]+1)*f.W]
				for tj := xs; tj < xe; tj++ {
					wgt := xt.wgt[tj] * fy
					sum += wgt * float64(row[xt.idx[tj]])
					area += wgt
				}
			}
			if area > 0 {
				out.Pix[oy*w+ox] = float32(sum / area)
			}
		}
	}
}

func overlap(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func bilinearResample(f, out *Frame) {
	w, h := out.W, out.H
	sx := float64(f.W-1) / float64(max(w-1, 1))
	sy := float64(f.H-1) / float64(max(h-1, 1))
	for oy := 0; oy < h; oy++ {
		fy := float64(oy) * sy
		y0 := int(fy)
		y1 := min(y0+1, f.H-1)
		wy := float32(fy - float64(y0))
		row0 := f.Pix[y0*f.W : (y0+1)*f.W]
		row1 := f.Pix[y1*f.W : (y1+1)*f.W]
		orow := out.Pix[oy*w : (oy+1)*w]
		for ox := 0; ox < w; ox++ {
			fx := float64(ox) * sx
			x0 := int(fx)
			x1 := min(x0+1, f.W-1)
			wx := float32(fx - float64(x0))
			v00 := row0[x0]
			v01 := row0[x1]
			v10 := row1[x0]
			v11 := row1[x1]
			top := v00 + (v01-v00)*wx
			bot := v10 + (v11-v10)*wx
			orow[ox] = top + (bot-top)*wy
		}
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
		s += d * d
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
