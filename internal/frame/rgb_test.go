package frame

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomRGB(seed int64, w, h int) *RGB {
	rng := rand.New(rand.NewSource(seed))
	f := NewRGB(w, h)
	for i := range f.R {
		f.R[i] = float32(rng.Intn(256))
		f.G[i] = float32(rng.Intn(256))
		f.B[i] = float32(rng.Intn(256))
	}
	return f
}

func TestNewRGBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRGB(0,1) did not panic")
		}
	}()
	NewRGB(0, 1)
}

func TestRGBAtSetClone(t *testing.T) {
	f := NewRGBFilled(4, 3, 10, 20, 30)
	r, g, b := f.At(2, 1)
	if r != 10 || g != 20 || b != 30 {
		t.Fatalf("At = %v,%v,%v", r, g, b)
	}
	f.Set(2, 1, 1, 2, 3)
	if r, _, _ := f.At(2, 1); r != 1 {
		t.Fatal("Set failed")
	}
	cl := f.Clone()
	cl.Set(0, 0, 9, 9, 9)
	if r, _, _ := f.At(0, 0); r == 9 {
		t.Fatal("Clone shares storage")
	}
}

func TestLumaWeights(t *testing.T) {
	f := NewRGBFilled(1, 1, 255, 0, 0)
	if y := f.Luma().At(0, 0); math.Abs(float64(y)-0.299*255) > 1e-3 {
		t.Fatalf("red luma = %v", y)
	}
	white := NewRGBFilled(1, 1, 255, 255, 255)
	if y := white.Luma().At(0, 0); math.Abs(float64(y)-255) > 1e-3 {
		t.Fatalf("white luma = %v", y)
	}
}

func TestFromLuma(t *testing.T) {
	y := NewFilled(3, 3, 77)
	f := FromLuma(y)
	r, g, b := f.At(1, 1)
	if r != 77 || g != 77 || b != 77 {
		t.Fatalf("FromLuma = %v,%v,%v", r, g, b)
	}
	if math.Abs(float64(f.Luma().At(1, 1))-77) > 1e-3 {
		t.Fatal("gray round trip broke luma")
	}
}

// TestYCbCrRoundTrip: RGB → YCbCr → RGB is near-identity.
func TestYCbCrRoundTrip(t *testing.T) {
	f := randomRGB(3, 8, 8)
	y, cb, cr := f.YCbCr()
	back, err := RGBFromYCbCr(y, cb, cr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.R {
		if math.Abs(float64(f.R[i]-back.R[i])) > 0.01 ||
			math.Abs(float64(f.G[i]-back.G[i])) > 0.01 ||
			math.Abs(float64(f.B[i]-back.B[i])) > 0.01 {
			t.Fatalf("pixel %d: (%v,%v,%v) -> (%v,%v,%v)",
				i, f.R[i], f.G[i], f.B[i], back.R[i], back.G[i], back.B[i])
		}
	}
}

func TestYCbCrGrayIsNeutral(t *testing.T) {
	prop := func(level uint8) bool {
		f := NewRGBFilled(1, 1, float32(level), float32(level), float32(level))
		y, cb, cr := f.YCbCr()
		return math.Abs(float64(y.At(0, 0))-float64(level)) < 1e-3 &&
			math.Abs(float64(cb.At(0, 0))-128) < 1e-3 &&
			math.Abs(float64(cr.At(0, 0))-128) < 1e-3
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRGBFromYCbCrSizeCheck(t *testing.T) {
	if _, err := RGBFromYCbCr(New(2, 2), New(3, 3), New(2, 2)); err != ErrSizeMismatch {
		t.Fatalf("err = %v", err)
	}
}
