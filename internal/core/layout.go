// Package core implements the InFrame contribution itself: the hierarchical
// data frame structure (Element pixels → Pixels → Blocks → GOBs, §3.3), the
// chessboard on/off-keying encoder, the complementary-frame multiplexer with
// clipping-aware local amplitude adjustment and temporal block smoothing
// (§3.2), and the noise-energy demultiplexer/decoder.
package core

import "fmt"

// Layout fixes the spatial hierarchy of a data frame on the display panel:
//
//   - an Element pixel is one screen pixel;
//   - a Pixel is p×p Element pixels sharing one value (§3.3's minimum
//     operating unit, p chosen near the eye's resolution);
//   - a Block is s×s Pixels and carries one bit;
//   - a GOB is m×m Blocks; with m=2 the paper uses 3 data bits + 1 XOR
//     parity bit per GOB.
//
// The Block grid is centered on the panel; margins carry no data.
type Layout struct {
	// FrameW, FrameH are the panel dimensions in screen pixels.
	FrameW, FrameH int
	// PixelSize is p, the side of a super Pixel in screen pixels.
	PixelSize int
	// BlockSize is s, the side of a Block in Pixels.
	BlockSize int
	// GOBSize is m, the side of a GOB in Blocks (paper: 2).
	GOBSize int
	// BlocksX, BlocksY are the data frame dimensions in Blocks
	// (paper: 50×30, i.e. 15×25 GOBs).
	BlocksX, BlocksY int
}

// PaperLayout returns the paper's experimental geometry: a 1920×1080 panel,
// p=4, s=9 (36-pixel Blocks), 50×30 Blocks forming 25×15 GOBs, with 60-pixel
// horizontal margins.
func PaperLayout() Layout {
	return Layout{
		FrameW: 1920, FrameH: 1080,
		PixelSize: 4, BlockSize: 9, GOBSize: 2,
		BlocksX: 50, BlocksY: 30,
	}
}

// ScaledPaperLayout returns the paper geometry at 1/div scale (div must
// divide the Pixel size evenly: div ∈ {1, 2, 4}). Block and GOB counts are
// unchanged, so rate accounting matches the paper at any scale.
func ScaledPaperLayout(div int) (Layout, error) {
	l := PaperLayout()
	if div <= 0 || l.PixelSize%div != 0 || l.FrameW%div != 0 || l.FrameH%div != 0 {
		return Layout{}, fmt.Errorf("core: scale divisor %d incompatible with paper layout", div)
	}
	l.FrameW /= div
	l.FrameH /= div
	l.PixelSize /= div
	return l, nil
}

// Validate reports whether the layout is self-consistent and fits the panel.
func (l Layout) Validate() error {
	if l.FrameW <= 0 || l.FrameH <= 0 {
		return fmt.Errorf("core: invalid frame size %dx%d", l.FrameW, l.FrameH)
	}
	if l.PixelSize <= 0 || l.BlockSize <= 0 || l.GOBSize <= 0 {
		return fmt.Errorf("core: non-positive pixel/block/gob size")
	}
	if l.BlocksX <= 0 || l.BlocksY <= 0 {
		return fmt.Errorf("core: non-positive block counts %dx%d", l.BlocksX, l.BlocksY)
	}
	if l.BlocksX%l.GOBSize != 0 || l.BlocksY%l.GOBSize != 0 {
		return fmt.Errorf("core: block grid %dx%d not divisible into %d-Block GOBs",
			l.BlocksX, l.BlocksY, l.GOBSize)
	}
	if l.BlocksX*l.BlockPx() > l.FrameW || l.BlocksY*l.BlockPx() > l.FrameH {
		return fmt.Errorf("core: %dx%d blocks of %d px exceed %dx%d panel",
			l.BlocksX, l.BlocksY, l.BlockPx(), l.FrameW, l.FrameH)
	}
	return nil
}

// BlockPx returns the Block side in screen pixels (p·s).
func (l Layout) BlockPx() int { return l.PixelSize * l.BlockSize }

// MarginX returns the left margin in screen pixels (grid centered).
func (l Layout) MarginX() int { return (l.FrameW - l.BlocksX*l.BlockPx()) / 2 }

// MarginY returns the top margin in screen pixels.
func (l Layout) MarginY() int { return (l.FrameH - l.BlocksY*l.BlockPx()) / 2 }

// GOBsX returns the number of GOB columns.
func (l Layout) GOBsX() int { return l.BlocksX / l.GOBSize }

// GOBsY returns the number of GOB rows.
func (l Layout) GOBsY() int { return l.BlocksY / l.GOBSize }

// NumBlocks returns the total Block count (one bit each on the wire).
func (l Layout) NumBlocks() int { return l.BlocksX * l.BlocksY }

// NumGOBs returns the total GOB count.
func (l Layout) NumGOBs() int { return l.GOBsX() * l.GOBsY() }

// BlocksPerGOB returns the Blocks in one GOB (m²).
func (l Layout) BlocksPerGOB() int { return l.GOBSize * l.GOBSize }

// DataBitsPerFrame returns the data bits per data frame excluding parity:
// with m=2, each GOB carries m²−1 = 3 data bits (the paper's
// w/s/2 × h/s/2 × 3 accounting).
func (l Layout) DataBitsPerFrame() int { return l.NumGOBs() * (l.BlocksPerGOB() - 1) }

// BlockRect returns the screen-pixel rectangle of Block (bx, by).
func (l Layout) BlockRect(bx, by int) (x0, y0, w, h int) {
	if bx < 0 || bx >= l.BlocksX || by < 0 || by >= l.BlocksY {
		panic(fmt.Sprintf("core: block (%d,%d) out of %dx%d grid", bx, by, l.BlocksX, l.BlocksY))
	}
	bp := l.BlockPx()
	return l.MarginX() + bx*bp, l.MarginY() + by*bp, bp, bp
}

// GOBBlocks returns the (bx, by) coordinates of the Blocks of GOB (gx, gy)
// in row-major order; with m=2 the fourth entry is the parity Block.
func (l Layout) GOBBlocks(gx, gy int) [][2]int {
	l.checkGOB(gx, gy)
	out := make([][2]int, 0, l.BlocksPerGOB())
	for j := 0; j < l.GOBSize; j++ {
		for i := 0; i < l.GOBSize; i++ {
			out = append(out, [2]int{gx*l.GOBSize + i, gy*l.GOBSize + j})
		}
	}
	return out
}

// gobBlock returns the row-major Block index (by·BlocksX + bx) of entry i
// of GOBBlocks(gx, gy), 0 ≤ i < BlocksPerGOB, without building the list:
// the decode path walks every GOB of every frame this way, allocation-free.
func (l Layout) gobBlock(gx, gy, i int) int {
	return (gy*l.GOBSize+i/l.GOBSize)*l.BlocksX + gx*l.GOBSize + i%l.GOBSize
}

// checkGOB panics unless (gx, gy) names a GOB of the layout.
func (l Layout) checkGOB(gx, gy int) {
	if gx < 0 || gx >= l.GOBsX() || gy < 0 || gy >= l.GOBsY() {
		panic(fmt.Sprintf("core: GOB (%d,%d) out of %dx%d grid", gx, gy, l.GOBsX(), l.GOBsY()))
	}
}

// ChessOn reports whether the Pixel at global Pixel coordinates (pi, pj) is
// a raised ("on") cell of the chessboard pattern: δ where pi+pj is odd, 0
// otherwise (§3.3).
func ChessOn(pi, pj int) bool { return (pi+pj)%2 == 1 }
