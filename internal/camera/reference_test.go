package camera

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/parallel"
)

// The reference below is the plane-based capture the row-streamed Capture
// replaced, copied verbatim with the frame kernels it ran on (area and
// bilinear resample, two-pass box blur), so the comparison does not lean
// on any code the streamed path shares. Only the receivers changed: the
// capture reads the camera's config, gamma table and pool.

// refCapture is the plane-based Capture: integrate the whole display into
// lin, blur, crop into a window, resample, encode, add noise, quantize.
func refCapture(c *Camera, d *display.Display, t0 float64, index int) *frame.Frame {
	dw, dh := d.Size()
	if dw == 0 || dh == 0 {
		panic("camera: display has no frames")
	}
	lin := c.pool.Get(dw, dh)
	var rowDt float64
	if c.cfg.H > 1 {
		rowDt = c.cfg.ReadoutTime / float64(c.cfg.H)
	}
	parallel.ForChunked(c.cfg.Workers, dh, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			sensorRow := y * c.cfg.H / dh
			a := t0 + float64(float64(sensorRow)*rowDt)
			d.RowAverage(y, a, a+c.cfg.Exposure, lin.Row(y))
		}
	})
	if c.cfg.BlurRadius > 0 {
		blurred := c.pool.Get(dw, dh)
		refBoxBlurInto(lin, blurred, c.cfg.BlurRadius, c.pool)
		c.pool.Put(lin)
		lin = blurred
	}
	if c.cfg.cropped() {
		window := c.pool.Get(c.cfg.CropW, c.cfg.CropH)
		window.Blit(lin, -c.cfg.CropX0, -c.cfg.CropY0)
		c.pool.Put(lin)
		lin = window
	}
	out := c.pool.Get(c.cfg.W, c.cfg.H)
	refResampleInto(lin, out)
	c.pool.Put(lin)
	refEncode(c, out)
	refAddNoise(c, out, index)
	out.Quantize()
	return out
}

func refEncode(c *Camera, f *frame.Frame) {
	g := c.gamma
	for i, v := range f.Pix {
		f.Pix[i] = g.Encode8(v)
	}
}

func refAddNoise(c *Camera, f *frame.Frame, index int) {
	if c.cfg.NoiseSigma == 0 {
		return
	}
	rng := rand.New(rand.NewSource(c.cfg.Seed + int64(index)*1000003))
	sigma := c.cfg.NoiseSigma
	for i := range f.Pix {
		f.Pix[i] += float32(rng.NormFloat64() * sigma)
	}
}

func refBoxBlurInto(f, dst *frame.Frame, r int, p *frame.Pool) {
	tmp := p.Get(f.W, f.H)
	refBlurRows(f, tmp, r)
	colf := p.Get(1, f.H)
	refBlurCols(tmp, dst, r, colf.Pix)
	p.Put(colf)
	p.Put(tmp)
}

func refBlurRows(src, dst *frame.Frame, r int) {
	w := src.W
	inv := 1 / float32(2*r+1)
	for y := 0; y < src.H; y++ {
		row := src.Pix[y*w : (y+1)*w]
		out := dst.Pix[y*w : (y+1)*w]
		var sum float32
		for i := -r; i <= r; i++ {
			sum += row[refClampIdx(i, w)]
		}
		for x := 0; x < w; x++ {
			out[x] = sum * inv
			sum += row[refClampIdx(x+r+1, w)] - row[refClampIdx(x-r, w)]
		}
	}
}

func refBlurCols(src, dst *frame.Frame, r int, col []float32) {
	w, h := src.W, src.H
	inv := 1 / float32(2*r+1)
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			col[y] = src.Pix[y*w+x]
		}
		var sum float32
		for i := -r; i <= r; i++ {
			sum += col[refClampIdx(i, h)]
		}
		for y := 0; y < h; y++ {
			dst.Pix[y*w+x] = sum * inv
			sum += col[refClampIdx(y+r+1, h)] - col[refClampIdx(y-r, h)]
		}
	}
}

func refClampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

func refResampleInto(f, dst *frame.Frame) {
	switch {
	case (dst.W != f.W || dst.H != f.H) && dst.W <= f.W && dst.H <= f.H:
		xt := refBuildAxisTaps(f.W, dst.W, float64(f.W)/float64(dst.W))
		yt := refBuildAxisTaps(f.H, dst.H, float64(f.H)/float64(dst.H))
		refAreaResample(f, dst, xt, yt)
	case f.W == dst.W && f.H == dst.H:
		f.CloneInto(dst)
	default:
		refBilinearResample(f, dst)
	}
}

type refAxisTaps struct {
	idx []int
	wgt []float64
	off []int
}

func refBuildAxisTaps(inN, outN int, scale float64) refAxisTaps {
	t := refAxisTaps{
		idx: make([]int, 0, inN+outN),
		wgt: make([]float64, 0, inN+outN),
		off: make([]int, outN+1),
	}
	for o := 0; o < outN; o++ {
		b0 := float64(float64(o) * scale)
		b1 := b0 + scale
		for i := int(b0); i < int(math.Ceil(b1)) && i < inN; i++ {
			f := refOverlap(float64(i), float64(i+1), b0, b1)
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

func refAreaResample(f, out *frame.Frame, xt, yt refAxisTaps) {
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
					wgt := float64(xt.wgt[tj] * fy)
					sum += float64(wgt * float64(row[xt.idx[tj]]))
					area += wgt
				}
			}
			if area > 0 {
				out.Pix[oy*w+ox] = float32(sum / area)
			}
		}
	}
}

func refOverlap(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func refBilinearResample(f, out *frame.Frame) {
	w, h := out.W, out.H
	sx := float64(f.W-1) / float64(max(w-1, 1))
	sy := float64(f.H-1) / float64(max(h-1, 1))
	for oy := 0; oy < h; oy++ {
		fy := float64(float64(oy) * sy)
		y0 := int(fy)
		y1 := min(y0+1, f.H-1)
		wy := float32(fy - float64(y0))
		row0 := f.Pix[y0*f.W : (y0+1)*f.W]
		row1 := f.Pix[y1*f.W : (y1+1)*f.W]
		orow := out.Pix[oy*w : (oy+1)*w]
		for ox := 0; ox < w; ox++ {
			fx := float64(float64(ox) * sx)
			x0 := int(fx)
			x1 := min(x0+1, f.W-1)
			wx := float32(fx - float64(x0))
			v00 := row0[x0]
			v01 := row0[x1]
			v10 := row1[x0]
			v11 := row1[x1]
			top := v00 + float32((v01-v00)*wx)
			bot := v10 + float32((v11-v10)*wx)
			orow[ox] = top + float32((bot-top)*wy)
		}
	}
}

// randomDisplay pushes n frames of seeded random drive values, so every
// capture integrates distinct content per row and straddles frame edges.
func randomDisplay(t *testing.T, cfg display.Config, w, h, n int, seed int64) *display.Display {
	t.Helper()
	d, err := display.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		f := frame.New(w, h)
		for i := range f.Pix {
			f.Pix[i] = float32(rng.Intn(256))
		}
		if err := d.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// assertSameCapture fails unless got and want are bit-identical.
func assertSameCapture(t *testing.T, name string, got, want *frame.Frame) {
	t.Helper()
	if !got.SameSize(want) {
		t.Fatalf("%s: capture %dx%d, reference %dx%d", name, got.W, got.H, want.W, want.H)
	}
	for i, v := range want.Pix {
		if math.Float32bits(got.Pix[i]) != math.Float32bits(v) {
			t.Fatalf("%s: pixel (%d,%d) = %v, reference %v", name, i%want.W, i/want.W, got.Pix[i], v)
		}
	}
}

// TestCaptureMatchesReference: the row-streamed Capture equals the
// plane-based reference bit for bit — every resample kind (the 1.5×, 2×
// and 3× reductions, a non-integer one, a slight one, enlargement, equal
// size and a 1×1 sensor), crop and overscan windows, blur on and off, no
// noise, a global shutter, pixel response and a strobed backlight, at 1,
// 2 and 8 workers. The benchmark's sensor sizes and the odd ones run on
// the half-scale 960×540 panel once; the matrix runs on a 96×54 panel at
// the same size ratios, which keeps the race-detector run short.
func TestCaptureMatchesReference(t *testing.T) {
	noResp := display.DefaultConfig()
	noResp.ResponseTime = 0
	resp := display.DefaultConfig() // ResponseTime 2 ms
	strobe := noResp
	strobe.StrobeDuty = 0.5

	// check captures twice through one camera (the second capture runs on
	// warm pooled rings) and compares each with the reference.
	check := func(name string, d *display.Display, cfg Config) {
		t.Helper()
		cam, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, t0 := range []float64{0.0043, 0.0123} {
			got := cam.Capture(d, t0, i)
			want := refCapture(ref, d, t0, i)
			assertSameCapture(t, fmt.Sprintf("%s t0=%v", name, t0), got, want)
			cam.pool.Put(got)
		}
	}

	half := randomDisplay(t, noResp, 960, 540, 4, 1)
	for _, s := range [][2]int{{640, 360}, {480, 270}, {320, 180}, {1280, 720}, {960, 540}, {701, 397}, {853, 480}, {1, 1}} {
		cfg := DefaultConfig(s[0], s[1])
		cfg.BlurRadius = 0
		cfg.Workers = 2
		check(fmt.Sprintf("960x540→%dx%d", s[0], s[1]), half, cfg)
	}

	const pw, ph = 96, 54
	panels := []struct {
		name string
		d    *display.Display
	}{
		{"ideal", randomDisplay(t, noResp, pw, ph, 4, 2)},
		{"response2ms", randomDisplay(t, resp, pw, ph, 4, 3)},
		{"strobe0.5", randomDisplay(t, strobe, pw, ph, 4, 4)},
	}
	sizes := [][2]int{{64, 36}, {48, 27}, {32, 18}, {128, 72}, {96, 54}, {70, 39}, {85, 48}, {1, 1}}
	crops := []struct {
		name           string
		x0, y0, cw, ch int
	}{
		{"full", 0, 0, 0, 0},
		{"window", 7, 5, 71, 41},
		{"overscan", -8, -6, pw + 16, ph + 12},
		{"offset", pw / 2, ph / 3, pw, ph},
	}
	// Worker counts cross every size, crop and blur on the ideal panel;
	// the other panels and the camera variants run at 2 workers.
	for _, s := range sizes {
		for _, cr := range crops {
			for _, blur := range []int{0, 1} {
				base := DefaultConfig(s[0], s[1])
				base.BlurRadius = blur
				base.CropX0, base.CropY0, base.CropW, base.CropH = cr.x0, cr.y0, cr.cw, cr.ch
				name := fmt.Sprintf("%dx%d→%dx%d crop=%s blur=%d", pw, ph, s[0], s[1], cr.name, blur)
				for _, workers := range []int{1, 2, 8} {
					cfg := base
					cfg.Workers = workers
					check(fmt.Sprintf("ideal %s workers=%d", name, workers), panels[0].d, cfg)
				}
				base.Workers = 2
				for _, p := range panels[1:] {
					check(p.name+" "+name, p.d, base)
				}
				noise0, readout0 := base, base
				noise0.NoiseSigma = 0
				readout0.ReadoutTime = 0
				check("ideal noise0 "+name, panels[0].d, noise0)
				check("ideal readout0 "+name, panels[0].d, readout0)
			}
		}
	}
}
