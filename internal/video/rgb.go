package video

import (
	"fmt"
	"math"

	"inframe/internal/frame"
)

// RGBSource yields color primary-channel content. The secondary channel
// lives on luma only, so RGBSource exists for the presentation path: color
// demos, Y4M export, and ingesting real footage.
type RGBSource interface {
	// FrameRGB returns the i-th color frame (caller may mutate).
	FrameRGB(i int) *frame.RGB
	// Size returns the frame dimensions in pixels.
	Size() (w, h int)
	// FPS returns the native content frame rate.
	FPS() float64
}

// Luma adapts an RGBSource to the grayscale Source interface by extracting
// the Y plane — the view the core pipeline and the camera operate on.
type Luma struct{ Src RGBSource }

// Frame implements Source.
func (l Luma) Frame(i int) *frame.Frame { return l.Src.FrameRGB(i).Luma() }

// Size implements Source.
func (l Luma) Size() (int, int) { return l.Src.Size() }

// FPS implements Source.
func (l Luma) FPS() float64 { return l.Src.FPS() }

// Colorize adapts a grayscale Source to RGBSource (equal channels).
type Colorize struct{ Src Source }

// FrameRGB implements RGBSource.
func (c Colorize) FrameRGB(i int) *frame.RGB { return frame.FromLuma(c.Src.Frame(i)) }

// Size implements RGBSource.
func (c Colorize) Size() (int, int) { return c.Src.Size() }

// FPS implements RGBSource.
func (c Colorize) FPS() float64 { return c.Src.FPS() }

// DirtyRegion forwards the grayscale source's dirty-region hint
// (RegionSource), so a color consumer can skip what the gray one skips;
// ok is false when the source gives no hint.
func (c Colorize) DirtyRegion(i int) (Region, bool) {
	if rs, ok := c.Src.(RegionSource); ok {
		return rs.DirtyRegion(i)
	}
	return Region{}, false
}

// RGBClip is a fixed, looping sequence of color frames — the adapter for
// footage loaded from Y4M files.
type RGBClip struct {
	Frames []*frame.RGB
	Rate   float64
}

// NewRGBClip wraps pre-rendered color frames as a looping source. It panics
// on empty or inconsistently sized input (a construction-time bug).
func NewRGBClip(frames []*frame.RGB, fps float64) *RGBClip {
	if len(frames) == 0 {
		panic("video.NewRGBClip: no frames")
	}
	w, h := frames[0].W, frames[0].H
	for i, f := range frames {
		if f.W != w || f.H != h {
			panic(fmt.Sprintf("video.NewRGBClip: frame %d is %dx%d, want %dx%d", i, f.W, f.H, w, h))
		}
	}
	if fps <= 0 {
		fps = 30
	}
	return &RGBClip{Frames: frames, Rate: fps}
}

// FrameRGB implements RGBSource, looping.
func (c *RGBClip) FrameRGB(i int) *frame.RGB {
	n := len(c.Frames)
	return c.Frames[((i%n)+n)%n].Clone()
}

// Size implements RGBSource.
func (c *RGBClip) Size() (int, int) { return c.Frames[0].W, c.Frames[0].H }

// FPS implements RGBSource.
func (c *RGBClip) FPS() float64 { return c.Rate }

// ColorSunRise is the color rendition of the sun-rise clip: orange sun and
// halo over a blue-to-amber sky gradient, dark green textured ground. Its
// luma plane matches the channel behaviour of SunRise (bright saturated
// halo, heavy ground texture) while exercising the full color path.
type ColorSunRise struct {
	W, H int
	Rate float64
	mono *SunRise
}

// NewColorSunRise builds the color clip; the same seed reproduces it.
func NewColorSunRise(w, h int, seed int64) *ColorSunRise {
	return &ColorSunRise{W: w, H: h, Rate: 30, mono: NewSunRise(w, h, seed)}
}

// FrameRGB implements RGBSource: the luma structure comes from the
// grayscale clip and a position-dependent tint supplies chroma.
func (s *ColorSunRise) FrameRGB(i int) *frame.RGB {
	y := s.mono.Frame(i)
	out := frame.NewRGB(s.W, s.H)
	horizon := 0.65 * float64(s.H)
	for py := 0; py < s.H; py++ {
		sky := float64(py) < horizon
		for px := 0; px < s.W; px++ {
			idx := py*s.W + px
			v := float64(y.Pix[idx])
			var r, g, b float64
			if sky {
				// Sky: blue high up, amber near the horizon/sun.
				warm := math.Min(1, v/255*1.2)
				r = v * (0.75 + float64(0.35*warm))
				g = v * 0.92
				b = v * (1.25 - float64(0.45*warm))
			} else {
				// Ground: muted green.
				r = v * 0.85
				g = v * 1.1
				b = v * 0.75
			}
			out.R[idx] = float32(math.Min(255, r))
			out.G[idx] = float32(math.Min(255, g))
			out.B[idx] = float32(math.Min(255, b))
		}
	}
	return out
}

// Size implements RGBSource.
func (s *ColorSunRise) Size() (int, int) { return s.W, s.H }

// FPS implements RGBSource.
func (s *ColorSunRise) FPS() float64 { return s.Rate }
