// Package barcode implements the conventional alternative InFrame argues
// against (§1): a dynamic barcode that exclusively occupies a region of the
// display. The video cannot use that region, quantifying the space
// contention, and the code is fully visible (maximally distracting) but
// trivially robust: cells are full-contrast black/white.
//
// It serves as the comparison baseline in examples and ablations: similar
// or higher raw bit rate than InFrame, at the cost of surrendering screen
// area and aesthetics.
package barcode

import (
	"fmt"

	"inframe/internal/frame"
)

// Config describes the barcode region and geometry.
type Config struct {
	// X0, Y0, W, H is the exclusive screen region in pixels.
	X0, Y0, W, H int
	// CellPx is the square cell side in pixels.
	CellPx int
	// Quiet is the white quiet-zone border width in cells.
	Quiet int
	// FramesPerCode is how many display frames each code persists
	// (a camera needs the code stable across at least one capture).
	FramesPerCode int
}

// DefaultConfig places a barcode of roughly a fifth of the screen width in
// the bottom-right corner — the familiar QR-in-the-corner layout.
func DefaultConfig(screenW, screenH int) Config {
	side := screenW / 5
	return Config{
		X0: screenW - side, Y0: screenH - side, W: side, H: side,
		CellPx: side / 16, Quiet: 1, FramesPerCode: 8,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.W <= 0 || c.H <= 0 || c.X0 < 0 || c.Y0 < 0 {
		return fmt.Errorf("barcode: invalid region %d,%d %dx%d", c.X0, c.Y0, c.W, c.H)
	}
	if c.CellPx <= 0 {
		return fmt.Errorf("barcode: CellPx must be positive")
	}
	if c.Quiet < 0 {
		return fmt.Errorf("barcode: Quiet must be non-negative")
	}
	if c.FramesPerCode < 1 {
		return fmt.Errorf("barcode: FramesPerCode must be >= 1")
	}
	if c.CellsX() < 1 || c.CellsY() < 1 {
		return fmt.Errorf("barcode: region too small for any data cell")
	}
	return nil
}

// CellsX returns the data cell columns (quiet zone excluded).
func (c Config) CellsX() int { return c.W/c.CellPx - 2*c.Quiet }

// CellsY returns the data cell rows.
func (c Config) CellsY() int { return c.H/c.CellPx - 2*c.Quiet }

// BitsPerCode returns the bits carried by one code.
func (c Config) BitsPerCode() int { return c.CellsX() * c.CellsY() }

// AreaFraction returns the fraction of a screenW×screenH display the code
// occupies — the space-contention figure.
func (c Config) AreaFraction(screenW, screenH int) float64 {
	return float64(c.W*c.H) / float64(screenW*screenH)
}

// Render draws code bits (row-major, CellsX×CellsY) over the video frame,
// replacing the region content entirely: white quiet zone, black cell for
// 1, white for 0. Bits beyond len(bits) render white.
func (c Config) Render(v *frame.Frame, bits []bool) *frame.Frame {
	out := v.Clone()
	// Quiet zone: whole region white first.
	for y := c.Y0; y < c.Y0+c.H && y < out.H; y++ {
		for x := c.X0; x < c.X0+c.W && x < out.W; x++ {
			out.Pix[y*out.W+x] = 255
		}
	}
	cx, cy := c.CellsX(), c.CellsY()
	for j := 0; j < cy; j++ {
		for i := 0; i < cx; i++ {
			idx := j*cx + i
			if idx >= len(bits) || !bits[idx] {
				continue
			}
			x0 := c.X0 + (c.Quiet+i)*c.CellPx
			y0 := c.Y0 + (c.Quiet+j)*c.CellPx
			for y := y0; y < y0+c.CellPx && y < out.H; y++ {
				for x := x0; x < x0+c.CellPx && x < out.W; x++ {
					out.Pix[y*out.W+x] = 0
				}
			}
		}
	}
	return out
}

// Decode reads code bits from a captured frame, given the capture scale
// relative to the display (capW/dispW, capH/dispH). Each cell is sampled by
// a patch centered in the cell, covering about half the cell's mapped size,
// and thresholded at mid-gray.
func (c Config) Decode(cap *frame.Frame, sx, sy float64) []bool {
	cx, cy := c.CellsX(), c.CellsY()
	pw := int(float64(c.CellPx) * sx / 2)
	if pw < 1 {
		pw = 1
	}
	ph := int(float64(c.CellPx) * sy / 2)
	if ph < 1 {
		ph = 1
	}
	bits := make([]bool, cx*cy)
	for j := 0; j < cy; j++ {
		for i := 0; i < cx; i++ {
			centerX := (float64(c.X0+(c.Quiet+i)*c.CellPx) + float64(float64(c.CellPx)/2)) * sx
			centerY := (float64(c.Y0+(c.Quiet+j)*c.CellPx) + float64(float64(c.CellPx)/2)) * sy
			x0 := int(centerX) - pw/2
			y0 := int(centerY) - ph/2
			var sum float64
			var n int
			for y := y0; y < y0+ph; y++ {
				if y < 0 || y >= cap.H {
					continue
				}
				for x := x0; x < x0+pw; x++ {
					if x < 0 || x >= cap.W {
						continue
					}
					sum += float64(cap.Pix[y*cap.W+x])
					n++
				}
			}
			bits[j*cx+i] = n > 0 && sum/float64(n) < 128
		}
	}
	return bits
}

// RawBps returns the barcode channel's nominal rate at the given display
// refresh rate.
func (c Config) RawBps(refreshHz float64) float64 {
	return float64(c.BitsPerCode()) * refreshHz / float64(c.FramesPerCode)
}
