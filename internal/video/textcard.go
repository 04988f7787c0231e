package video

import (
	"math/rand"

	"inframe/internal/frame"
)

// TextCard renders a title-card-like scene: a light background with dark
// pseudo-text line blocks and a highlighted banner. It models the
// advertisement / announcement content from the paper's application
// scenarios (§5), giving the pipeline large flat regions separated by sharp
// high-contrast edges.
type TextCard struct {
	W, H int
	Rate float64
	seed int64
	base *frame.Frame
}

// NewTextCard builds a deterministic text-card scene from seed.
func NewTextCard(w, h int, seed int64) *TextCard {
	t := &TextCard{W: w, H: h, Rate: 30, seed: seed}
	t.base = t.render()
	return t
}

func (t *TextCard) render() *frame.Frame {
	rng := rand.New(rand.NewSource(t.seed))
	f := frame.NewFilled(t.W, t.H, 225)

	// Banner across the top fifth.
	bannerH := t.H / 5
	for y := 0; y < bannerH; y++ {
		for x := 0; x < t.W; x++ {
			f.Set(x, y, 90)
		}
	}
	// "Text" lines: runs of dark word blocks with random lengths and gaps.
	lineH := maxInt(t.H/18, 2)
	gap := lineH
	y := bannerH + 2*gap
	for y+lineH < t.H-gap {
		x := t.W / 12
		for x < t.W*10/12 {
			wordW := (2 + rng.Intn(6)) * lineH
			if x+wordW > t.W*11/12 {
				wordW = t.W*11/12 - x
			}
			for yy := y; yy < y+lineH; yy++ {
				for xx := x; xx < x+wordW && xx < t.W; xx++ {
					f.Set(xx, yy, 40)
				}
			}
			x += wordW + lineH + rng.Intn(lineH+1)
		}
		y += lineH + gap
	}
	return f
}

// Frame implements Source; the card is static.
func (t *TextCard) Frame(int) *frame.Frame { return t.base.Clone() }

// FrameInto implements IntoSource, copying the static card into dst.
func (t *TextCard) FrameInto(_ int, dst *frame.Frame) { t.base.CloneInto(dst) }

// Size implements Source.
func (t *TextCard) Size() (int, int) { return t.W, t.H }

// FPS implements Source.
func (t *TextCard) FPS() float64 { return t.Rate }

// DirtyRegion implements RegionSource: the card is static, so no frame
// transition ever dirties a pixel and incremental consumers (the
// multiplexer's headroom table and drive planes) skip every Block.
func (t *TextCard) DirtyRegion(i int) (Region, bool) { return staticDirty(i) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
