package video

import (
	"fmt"
	"math"
	"testing"

	"inframe/internal/frame"
	"inframe/internal/parallel"
)

// refSunRiseFrameInto is the per-pixel SunRise.FrameInto the hoisted
// kernel replaced, copied verbatim: every expression evaluated at every
// pixel, math.Hypot over the whole sky.
func refSunRiseFrameInto(s *SunRise, i int, f *frame.Frame) {
	t := math.Mod(float64(i)/s.Rate, 20) / 20 // progress 0..1
	w, h := float64(s.W), float64(s.H)
	horizon := 0.65 * h
	sunX := w * (0.25 + float64(0.5*t))
	sunY := float64(horizon) - float64((0.05+float64(0.45*t))*horizon)
	sunR := 0.09 * w
	skyBase := 90 + float64(80*t)
	glareH := 0.10 * h // saturated glare band above the horizon
	for y := 0; y < s.H; y++ {
		fy := float64(y)
		for x := 0; x < s.W; x++ {
			fx := float64(x)
			var v float64
			if fy < horizon {
				// Sky: vertical gradient brightening towards the horizon.
				v = skyBase + float64(120*(fy/horizon))
				// Glare band hugging the horizon: effectively saturated.
				if fy > float64(horizon)-float64(glareH) {
					v = 250
				}
				// Sun disc and halo.
				d := math.Hypot(fx-float64(sunX), fy-sunY)
				switch {
				case d < sunR:
					v = 252
				case d < 3*sunR:
					v += float64((252 - v) * math.Exp(-(d-float64(sunR))/(1.1*sunR)))
				}
			} else {
				// Ground: dark with patchy texture that drifts slowly
				// (water/foliage motion), plus gentle luminance waves.
				// The drift matters to the secondary channel: moving
				// texture defeats temporal background subtraction the way
				// real footage does.
				base := 55 + float64(18*math.Sin(fx/17+float64(float64(3*t)*2*math.Pi)))
				drift := int(float64(i) / s.Rate * 45) // 1.5 px per frame
				tx := ((x+drift)%s.W + s.W) % s.W
				idx := y*s.W + tx
				v = base + float64(float64(s.strength[y*s.W+x])*float64(s.texture[idx]))
			}
			if v > 255 {
				v = 255
			} else if v < 0 {
				v = 0
			}
			f.Pix[y*s.W+x] = float32(v)
		}
	}
}

// TestSunRiseMatchesReference: the hoisted, box-confined FrameInto equals
// the per-pixel reference bit for bit over the whole 20 s loop at the
// half-scale 960×540 panel (the sun crosses half the frame and rises
// through the glare band), and at a stride over odd, narrow and full-scale
// sizes, rendering into a dirty buffer so every pixel must be written.
// Frames are independent, so they are compared concurrently.
func TestSunRiseMatchesReference(t *testing.T) {
	for _, c := range []struct {
		w, h, frames, stride int
	}{
		{960, 540, 600, 1},
		{97, 61, 600, 7},
		{33, 400, 600, 11},
		{1280, 720, 600, 29},
	} {
		s := NewSunRise(c.w, c.h, 3)
		n := (c.frames + c.stride - 1) / c.stride
		bad := make([]string, n)
		parallel.For(0, n, func(k int) {
			i := k * c.stride
			got, want := frame.NewFilled(c.w, c.h, -1), frame.New(c.w, c.h)
			s.FrameInto(i, got)
			refSunRiseFrameInto(s, i, want)
			for j, v := range want.Pix {
				if math.Float32bits(got.Pix[j]) != math.Float32bits(v) {
					bad[k] = fmt.Sprintf("%dx%d frame %d pixel (%d,%d) = %v, reference %v",
						c.w, c.h, i, j%c.w, j/c.w, got.Pix[j], v)
					return
				}
			}
		})
		for _, msg := range bad {
			if msg != "" {
				t.Fatal(msg)
			}
		}
	}
}
