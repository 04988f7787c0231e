package core

import (
	"inframe/internal/frame"
	"inframe/internal/video"
)

// RGBMultiplexer is the color rendition of the transmitter: the chessboard
// delta is added equally to R, G and B (a pure luma shift, as in the
// paper's prototype), so the viewer's chroma is untouched and the camera's
// luma plane carries exactly the grayscale pipeline's signal.
//
// It runs the grayscale Multiplexer's amplitude engine (DESIGN.md §5j) over
// three planes: the clipping-aware local amplitude (§3.3) is each Block's
// headroom over all three channels, and each channel renders with the same
// fused clamp(V + sign·D) sweep from the same chess rows.
type RGBMultiplexer struct {
	modulator
	video  video.RGBSource
	vframe *frame.RGB
}

// NewRGBMultiplexer builds a color multiplexer; the source must match the
// layout's panel size.
func NewRGBMultiplexer(p Params, src video.RGBSource, data Stream) (*RGBMultiplexer, error) {
	mod, err := newModulator(p, src, data)
	if err != nil {
		return nil, err
	}
	return &RGBMultiplexer{modulator: mod, video: src}, nil
}

// FrameRGB renders the multiplexed color frame k: on a new video frame it
// loads the frame and rescans the headroom across its R, G and B planes —
// skipping both when the source's dirty-region hint certifies the frame
// unchanged, and rescanning only the Blocks a partial hint touches — then
// runs the amplitude step and renders each channel from the cached frame.
// The caller owns the returned frame.
func (m *RGBMultiplexer) FrameRGB(k int) *frame.RGB {
	if vi, dirty, dirtyOK, reload := m.nextVideo(k, m.video); reload {
		m.vframe = m.video.FrameRGB(vi)
		m.scanHeadroom(dirty, dirtyOK, m.vframe.R, m.vframe.G, m.vframe.B)
	}
	sign := m.step(k)
	m.fillChess()
	out := frame.NewRGB(m.p.Layout.FrameW, m.p.Layout.FrameH)
	m.render(out.R, m.vframe.R, sign)
	m.render(out.G, m.vframe.G, sign)
	m.render(out.B, m.vframe.B, sign)
	return out
}
