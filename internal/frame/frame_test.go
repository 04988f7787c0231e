package frame

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	f := New(7, 3)
	if f.W != 7 || f.H != 3 || len(f.Pix) != 21 {
		t.Fatalf("New(7,3) = %dx%d len %d", f.W, f.H, len(f.Pix))
	}
	for i, v := range f.Pix {
		if v != 0 {
			t.Fatalf("pixel %d = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnInvalidSize(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {-1, 4}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestNewFilled(t *testing.T) {
	f := NewFilled(4, 4, 127)
	for _, v := range f.Pix {
		if v != 127 {
			t.Fatalf("got %v, want 127", v)
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	f := New(5, 4)
	f.Set(3, 2, 42)
	if got := f.At(3, 2); got != 42 {
		t.Fatalf("At(3,2) = %v, want 42", got)
	}
	if got := f.Pix[2*5+3]; got != 42 {
		t.Fatalf("row-major layout violated: Pix[13] = %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := NewFilled(3, 3, 10)
	g := f.Clone()
	g.Set(0, 0, 99)
	if f.At(0, 0) != 10 {
		t.Fatal("Clone shares pixel storage")
	}
}

func TestAddSub(t *testing.T) {
	f := NewFilled(2, 2, 100)
	g := NewFilled(2, 2, 30)
	if err := f.Add(g); err != nil {
		t.Fatal(err)
	}
	if f.At(1, 1) != 130 {
		t.Fatalf("Add: got %v, want 130", f.At(1, 1))
	}
	if err := f.Sub(g); err != nil {
		t.Fatal(err)
	}
	if f.At(1, 1) != 100 {
		t.Fatalf("Sub: got %v, want 100", f.At(1, 1))
	}
}

func TestAddSizeMismatch(t *testing.T) {
	f := New(2, 2)
	g := New(3, 2)
	if err := f.Add(g); err != ErrSizeMismatch {
		t.Fatalf("Add mismatched sizes: err = %v, want ErrSizeMismatch", err)
	}
	if err := f.Sub(g); err != ErrSizeMismatch {
		t.Fatalf("Sub mismatched sizes: err = %v, want ErrSizeMismatch", err)
	}
	if err := f.AddScaled(g, 2); err != ErrSizeMismatch {
		t.Fatalf("AddScaled mismatched sizes: err = %v, want ErrSizeMismatch", err)
	}
}

func TestAddScaled(t *testing.T) {
	f := NewFilled(2, 2, 10)
	g := NewFilled(2, 2, 5)
	if err := f.AddScaled(g, -2); err != nil {
		t.Fatal(err)
	}
	if f.At(0, 0) != 0 {
		t.Fatalf("AddScaled: got %v, want 0", f.At(0, 0))
	}
}

func TestClamp(t *testing.T) {
	f := New(1, 3)
	f.Pix[0], f.Pix[1], f.Pix[2] = -20, 100, 300
	f.Clamp(0, 255)
	want := []float32{0, 100, 255}
	for i, w := range want {
		if f.Pix[i] != w {
			t.Fatalf("Clamp pixel %d = %v, want %v", i, f.Pix[i], w)
		}
	}
}

func TestQuantize(t *testing.T) {
	f := New(1, 4)
	f.Pix[0], f.Pix[1], f.Pix[2], f.Pix[3] = 12.4, 12.6, -3, 270
	f.Quantize()
	want := []float32{12, 13, 0, 255}
	for i, w := range want {
		if f.Pix[i] != w {
			t.Fatalf("Quantize pixel %d = %v, want %v", i, f.Pix[i], w)
		}
	}
}

func TestMeanMinMax(t *testing.T) {
	f := New(2, 2)
	copy(f.Pix, []float32{1, 2, 3, 6})
	if m := f.Mean(); m != 3 {
		t.Fatalf("Mean = %v, want 3", m)
	}
	min, max := f.MinMax()
	if min != 1 || max != 6 {
		t.Fatalf("MinMax = %v,%v, want 1,6", min, max)
	}
}

// TestComplementProperty checks the paper's defining identity (§3.2):
// every pixel pair sums to exactly 2v.
func TestComplementProperty(t *testing.T) {
	prop := func(seed int64, level uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		f := New(8, 8)
		for i := range f.Pix {
			f.Pix[i] = float32(rng.Intn(256))
		}
		v := float32(level)
		g := f.Complement(v)
		for i := range f.Pix {
			if f.Pix[i]+g.Pix[i] != 2*v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestComplementFusesToLevel checks that averaging a frame with its
// complement yields the flat luminance level — the flicker-fusion argument.
func TestComplementFusesToLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := New(16, 16)
	for i := range f.Pix {
		f.Pix[i] = float32(rng.Intn(256))
	}
	g := f.Complement(127)
	avg, err := Average(f, g)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range avg.Pix {
		if v != 127 {
			t.Fatalf("fused pixel %d = %v, want 127", i, v)
		}
	}
}

func TestRegion(t *testing.T) {
	f := New(6, 4)
	for i := range f.Pix {
		f.Pix[i] = float32(i)
	}
	r := f.Region(2, 1, 3, 2)
	if r.W != 3 || r.H != 2 {
		t.Fatalf("Region size %dx%d, want 3x2", r.W, r.H)
	}
	if r.At(0, 0) != f.At(2, 1) || r.At(2, 1) != f.At(4, 2) {
		t.Fatal("Region copied wrong pixels")
	}
}

func TestRegionClips(t *testing.T) {
	f := NewFilled(4, 4, 9)
	r := f.Region(-2, -2, 4, 4)
	if r.W != 2 || r.H != 2 {
		t.Fatalf("clipped Region size %dx%d, want 2x2", r.W, r.H)
	}
	r2 := f.Region(3, 3, 10, 10)
	if r2.W != 1 || r2.H != 1 {
		t.Fatalf("clipped Region size %dx%d, want 1x1", r2.W, r2.H)
	}
}

func TestBlit(t *testing.T) {
	dst := New(4, 4)
	src := NewFilled(2, 2, 5)
	dst.Blit(src, 1, 1)
	if dst.At(1, 1) != 5 || dst.At(2, 2) != 5 || dst.At(0, 0) != 0 || dst.At(3, 3) != 0 {
		t.Fatal("Blit placed pixels incorrectly")
	}
	// Clipping out of bounds must not panic.
	dst.Blit(src, 3, 3)
	if dst.At(3, 3) != 5 {
		t.Fatal("clipped Blit lost in-bounds pixel")
	}
}

func TestEqual(t *testing.T) {
	f := NewFilled(2, 2, 1)
	g := NewFilled(2, 2, 1)
	if !f.Equal(g) {
		t.Fatal("identical frames not Equal")
	}
	g.Set(0, 0, 2)
	if f.Equal(g) {
		t.Fatal("different frames Equal")
	}
	if f.Equal(New(2, 3)) {
		t.Fatal("different sizes Equal")
	}
}

func TestAverageErrors(t *testing.T) {
	if _, err := Average(); err == nil {
		t.Fatal("Average() of nothing should error")
	}
	if _, err := Average(New(2, 2), New(3, 3)); err == nil {
		t.Fatal("Average of mismatched sizes should error")
	}
}

func TestBoxBlurFlatInvariant(t *testing.T) {
	f := NewFilled(10, 10, 77)
	for _, r := range []int{0, 1, 2, 3} {
		b := BoxBlur(f, r)
		for i, v := range b.Pix {
			if math.Abs(float64(v)-77) > 1e-3 {
				t.Fatalf("r=%d pixel %d = %v, want 77", r, i, v)
			}
		}
	}
}

func TestBoxBlurReducesChessboardEnergy(t *testing.T) {
	f := New(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if (x+y)%2 == 1 {
				f.Set(x, y, 40)
			}
		}
	}
	b := BoxBlur(f, 1)
	// A 3x3 box over a unit chessboard averages 4 or 5 of 9 high pixels:
	// interior values must collapse toward the 20 mean.
	for y := 2; y < 14; y++ {
		for x := 2; x < 14; x++ {
			v := float64(b.At(x, y))
			if math.Abs(v-20) > 3 {
				t.Fatalf("blurred chessboard at (%d,%d) = %v, want ~20", x, y, v)
			}
		}
	}
}

func TestBoxBlurMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := New(9, 7)
	for i := range f.Pix {
		f.Pix[i] = rng.Float32() * 255
	}
	r := 2
	fast := BoxBlur(f, r)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			var sum float64
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					sum += float64(f.At(clampIdx(x+dx, f.W), clampIdx(y+dy, f.H)))
				}
			}
			want := sum / float64((2*r+1)*(2*r+1))
			if math.Abs(float64(fast.At(x, y))-want) > 1e-2 {
				t.Fatalf("BoxBlur(%d,%d) = %v, naive = %v", x, y, fast.At(x, y), want)
			}
		}
	}
}

// refBlurCols is the vertical box-blur pass as it was written before it
// walked rows: gather one column at a time into a scratch slice, then
// slide the window down it.
func refBlurCols(src, dst *Frame, r int) {
	w, h := src.W, src.H
	col := make([]float32, h)
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

// TestBoxBlurMatchesColumnReference: the row-major vertical pass gives
// every column the float32 sequence of the column-gather pass, so
// BoxBlurInto is bit-identical to the horizontal pass followed by the
// reference — on planes shorter than the window, one column wide, and at
// the capture size.
func TestBoxBlurMatchesColumnReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pool := NewPool()
	for _, sz := range [][2]int{{640, 360}, {23, 17}, {1, 9}, {7, 2}, {5, 1}} {
		for _, r := range []int{1, 2, 5} {
			f := New(sz[0], sz[1])
			for i := range f.Pix {
				f.Pix[i] = rng.Float32() * 255
			}
			tmp, want, got := New(f.W, f.H), New(f.W, f.H), New(f.W, f.H)
			blurRows(f, tmp, r)
			refBlurCols(tmp, want, r)
			BoxBlurInto(f, got, r, pool)
			for i, v := range want.Pix {
				if math.Float32bits(got.Pix[i]) != math.Float32bits(v) {
					t.Fatalf("%dx%d r=%d pixel %d: %v, reference %v", f.W, f.H, r, i, got.Pix[i], v)
				}
			}
		}
	}
}

func TestResampleDownPreservesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := New(64, 48)
	for i := range f.Pix {
		f.Pix[i] = rng.Float32() * 255
	}
	g := Resample(f, 32, 24)
	if math.Abs(f.Mean()-g.Mean()) > 1.0 {
		t.Fatalf("area resample mean drifted: %v -> %v", f.Mean(), g.Mean())
	}
}

func TestResampleUpFlat(t *testing.T) {
	f := NewFilled(4, 4, 99)
	g := Resample(f, 9, 9)
	for i, v := range g.Pix {
		if math.Abs(float64(v)-99) > 1e-3 {
			t.Fatalf("bilinear upsample pixel %d = %v, want 99", i, v)
		}
	}
}

func TestResampleIdentity(t *testing.T) {
	f := NewFilled(5, 5, 42)
	g := Resample(f, 5, 5)
	if !f.Equal(g) {
		t.Fatal("identity resample changed pixels")
	}
}

// refAreaResample is the area resampler written out directly: for every
// output pixel, the overlap of every input pixel its footprint touches,
// visited in row-major order. Resampler's hoisted tap tables must
// reproduce it bit for bit.
func refAreaResample(f *Frame, w, h int) *Frame {
	out := New(w, h)
	sx := float64(f.W) / float64(w)
	sy := float64(f.H) / float64(h)
	for oy := 0; oy < h; oy++ {
		by0 := float64(float64(oy) * sy)
		by1 := by0 + sy
		for ox := 0; ox < w; ox++ {
			bx0 := float64(float64(ox) * sx)
			bx1 := bx0 + sx
			var sum, area float64
			for iy := int(by0); iy < int(math.Ceil(by1)) && iy < f.H; iy++ {
				fy := overlap(float64(iy), float64(iy+1), by0, by1)
				if fy <= 0 {
					continue
				}
				for ix := int(bx0); ix < int(math.Ceil(bx1)) && ix < f.W; ix++ {
					fx := overlap(float64(ix), float64(ix+1), bx0, bx1)
					if fx <= 0 {
						continue
					}
					wgt := float64(fx * fy)
					sum += float64(wgt * float64(f.Pix[iy*f.W+ix]))
					area += wgt
				}
			}
			if area > 0 {
				out.Pix[oy*w+ox] = float32(sum / area)
			}
		}
	}
	return out
}

// refBilinearResample is the bilinear enlargement written out over whole
// planes, as the resampler computed it before it walked output rows.
func refBilinearResample(f *Frame, w, h int) *Frame {
	out := New(w, h)
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
	return out
}

// TestResamplerMatchesReference: one Resampler reused across frames equals
// the direct reference bit for bit, on random and on cancelling planes — area averaging at the fleet's three
// capture geometries from the half-scale panel (1.5×, 2×, 3×), from a crop
// window and onto a 1×1 sensor, bilinear at the pose enlargement, at an
// exact 2× enlargement whose last column and row land on the source's last
// ones (x1 and y1 clamp), onto 1-wide and 1-tall targets (the max(n−1, 1)
// divisor) and at two mixed-axis sizes, and a copy at equal size — through
// all three entry points: Into, ResampleInto and the row-source RowsInto.
// RowsInto runs in three row chunks through a dirty ring (none at equal
// size, where it fills output rows in place), and must fill each source
// row at most once per call, in increasing order, and hand back every
// output row.
func TestResamplerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cancelling := []float32{1e20, -1e20, 1, -3, 0.25}
	for _, c := range []struct{ sw, sh, dw, dh int }{
		{960, 540, 640, 360},
		{960, 540, 480, 270},
		{960, 540, 320, 180},
		{701, 397, 640, 360}, // crop window onto the sensor
		{97, 61, 1, 1},
		{960, 540, 1280, 720}, // enlargement
		{5, 4, 9, 7},          // sx = sy = 0.5: the last column and row clamp x1, y1
		{1, 5, 1, 9},          // 1-wide source and target
		{7, 3, 1, 5},          // 1-wide target from a wider source
		{4, 6, 9, 1},          // 1-tall target from a taller source
		{40, 30, 20, 45},      // wider source, taller target: bilinear
		{30, 40, 45, 20},      // taller source, wider target: bilinear
		{33, 21, 33, 21},
		{1<<16 + 3, 2, 1<<16 + 5, 3}, // enlargement taps past 16-bit columns
	} {
		r := NewResampler(c.sw, c.sh, c.dw, c.dh)
		for rep := 0; rep < 2; rep++ {
			f := New(c.sw, c.sh)
			for i := range f.Pix {
				f.Pix[i] = rng.Float32() * 255
				if rep == 1 {
					// Cancelling magnitudes: a float64 sum of these taps
					// depends on its order even after rounding to float32,
					// so the second pass pins the accumulation order.
					f.Pix[i] = cancelling[rng.Intn(len(cancelling))]
				}
			}
			got, once, rows := New(c.dw, c.dh), New(c.dw, c.dh), New(c.dw, c.dh)
			r.Into(f, got)
			ResampleInto(f, once)
			ring := make([]float32, r.Span()*c.sw)
			fillPix(ring, -7)
			for k := 0; k < 3; k++ {
				lo, hi := k*c.dh/3, (k+1)*c.dh/3
				last := -1
				nextOut := lo
				r.RowsInto(rows, lo, hi, ring, func(y int, row []float32) {
					if y <= last {
						t.Fatalf("%dx%d→%dx%d rows [%d,%d): source row %d filled after row %d", c.sw, c.sh, c.dw, c.dh, lo, hi, y, last)
					}
					last = y
					copy(row, f.Row(y))
				}, func(row []float32) {
					if &row[0] != &rows.Row(nextOut)[0] {
						t.Fatalf("%dx%d→%dx%d: done out of order at output row %d", c.sw, c.sh, c.dw, c.dh, nextOut)
					}
					nextOut++
				})
				if nextOut != hi {
					t.Fatalf("%dx%d→%dx%d rows [%d,%d): done saw %d rows", c.sw, c.sh, c.dw, c.dh, lo, hi, nextOut-lo)
				}
			}
			var want *Frame
			switch {
			case c.sw == c.dw && c.sh == c.dh:
				want = f
			case c.dw <= c.sw && c.dh <= c.sh:
				want = refAreaResample(f, c.dw, c.dh)
			default:
				want = refBilinearResample(f, c.dw, c.dh)
			}
			for i := range want.Pix {
				b := math.Float32bits(want.Pix[i])
				if math.Float32bits(got.Pix[i]) != b || math.Float32bits(once.Pix[i]) != b || math.Float32bits(rows.Pix[i]) != b {
					t.Fatalf("%dx%d→%dx%d pixel %d: resampler %v, ResampleInto %v, RowsInto %v, reference %v",
						c.sw, c.sh, c.dw, c.dh, i, got.Pix[i], once.Pix[i], rows.Pix[i], want.Pix[i])
				}
			}
		}
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("a source of the wrong size", func() { NewResampler(8, 8, 4, 4).Into(New(8, 6), New(4, 4)) })
	mustPanic("a ring shorter than Span", func() {
		NewResampler(9, 9, 3, 3).RowsInto(New(3, 3), 0, 3, make([]float32, 2*9+8), func(int, []float32) {}, nil)
	})
}

func TestMetrics(t *testing.T) {
	a := NewFilled(4, 4, 100)
	b := NewFilled(4, 4, 104)
	mae, err := MAE(a, b)
	if err != nil || mae != 4 {
		t.Fatalf("MAE = %v (err %v), want 4", mae, err)
	}
	mse, err := MSE(a, b)
	if err != nil || mse != 16 {
		t.Fatalf("MSE = %v (err %v), want 16", mse, err)
	}
	psnr, err := PSNR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(10 * math.Log10(255*255/16.0))
	if math.Abs(psnr-want) > 1e-9 {
		t.Fatalf("PSNR = %v, want %v", psnr, want)
	}
	if p, _ := PSNR(a, a); !math.IsInf(p, 1) {
		t.Fatalf("PSNR of identical frames = %v, want +Inf", p)
	}
	if _, err := MAE(a, New(2, 2)); err != ErrSizeMismatch {
		t.Fatalf("MAE size mismatch err = %v", err)
	}
}

func TestHighFreqEnergyDiscriminates(t *testing.T) {
	flat := NewFilled(32, 32, 128)
	chess := flat.Clone()
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			if (x+y)%2 == 1 {
				chess.Set(x, y, 128+20)
			}
		}
	}
	eFlat := HighFreqEnergy(flat, 1)
	eChess := HighFreqEnergy(chess, 1)
	if eFlat != 0 {
		t.Fatalf("flat frame energy = %v, want 0", eFlat)
	}
	if eChess < 5 {
		t.Fatalf("chessboard energy = %v, want >= 5", eChess)
	}
}
