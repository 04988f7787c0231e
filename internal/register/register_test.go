package register

import (
	"errors"
	"math"
	"testing"

	"inframe/internal/camera"
	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/metrics"
	"inframe/internal/video"
)

// testLayout: 12×8 blocks of 8 px on a 112×72 panel → margins 8/4.
func testLayout() core.Layout {
	return core.Layout{
		FrameW: 112, FrameH: 72,
		PixelSize: 2, BlockSize: 4, GOBSize: 2,
		BlocksX: 12, BlocksY: 8,
	}
}

func TestEnergyMapHighlightsChessboard(t *testing.T) {
	f := frame.NewFilled(64, 64, 127)
	// Chessboard patch in the middle.
	for y := 20; y < 44; y++ {
		for x := 20; x < 44; x++ {
			if (x/2+y/2)%2 == 1 {
				f.Set(x, y, 147)
			}
		}
	}
	e := EnergyMap(f, 1)
	inside := e.Region(24, 24, 16, 16).Mean()
	outside := e.Region(0, 0, 12, 12).Mean()
	if inside < 4*outside+1 {
		t.Fatalf("energy inside %.2f not well above outside %.2f", inside, outside)
	}
}

// renderedCaptures produces ideal captures of a multiplexed stream with an
// optional crop window (misregistration).
func renderedCaptures(t testing.TB, l core.Layout, crop *Rect, n int) []*frame.Frame {
	t.Helper()
	p := core.DefaultParams(l)
	p.Tau = 8
	m, err := core.NewMultiplexer(p, video.Gray(l.FrameW, l.FrameH), core.NewRandomStream(l, 5))
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]*frame.Frame, n)
	for i := range caps {
		// One steady frame per data period, alternating the pair sign, so
		// every Block's residual varies across the set.
		f := m.Frame(i*p.Tau + i%2)
		if crop != nil {
			// Overscan windows pad with black, like the camera does.
			window := frame.New(crop.W, crop.H)
			window.Blit(f, -crop.X0, -crop.Y0)
			f = window
		}
		caps[i] = f
	}
	return caps
}

func TestDetectRegionFullFrame(t *testing.T) {
	l := testLayout()
	caps := renderedCaptures(t, l, nil, 10)
	region, err := DetectRegion(caps)
	if err != nil {
		t.Fatal(err)
	}
	// The grid spans [8, 104) × [4, 68); allow a couple of pixels of
	// blur-driven spread.
	if math.Abs(float64(region.X0-8)) > 4 || math.Abs(float64(region.Y0-4)) > 4 {
		t.Fatalf("region origin (%d,%d), want ≈(8,4)", region.X0, region.Y0)
	}
	if math.Abs(float64(region.W-96)) > 8 || math.Abs(float64(region.H-64)) > 8 {
		t.Fatalf("region size %dx%d, want ≈96x64", region.W, region.H)
	}
}

func TestDetectRegionRejectsFlat(t *testing.T) {
	caps := []*frame.Frame{frame.NewFilled(64, 64, 127)}
	if _, err := DetectRegion(caps); !errors.Is(err, ErrNoRegion) {
		t.Fatalf("err = %v, want ErrNoRegion", err)
	}
	if _, err := DetectRegion(nil); !errors.Is(err, ErrNoRegion) {
		t.Fatalf("empty input err = %v", err)
	}
}

func TestSolveIdentity(t *testing.T) {
	l := testLayout()
	// Region exactly framing the grid at capture == display resolution.
	m, err := Solve(l, Rect{X0: l.MarginX(), Y0: l.MarginY(), W: l.BlocksX * l.BlockPx(), H: l.BlocksY * l.BlockPx()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.ScaleX-1) > 1e-9 || math.Abs(m.OffX) > 1e-9 || math.Abs(m.OffY) > 1e-9 {
		t.Fatalf("identity mapping = %+v", m)
	}
	if _, err := Solve(l, Rect{}); err == nil {
		t.Fatal("empty region solved")
	}
}

// TestCalibrateRecoversOverscan: captures framed by an overscan window (the
// camera sees the whole display plus dark border) yield a mapping that
// projects display coordinates onto the right capture pixels.
func TestCalibrateRecoversOverscan(t *testing.T) {
	l := testLayout()
	crop := &Rect{X0: -10, Y0: -6, W: 132, H: 84}
	caps := renderedCaptures(t, l, crop, 10)
	m, err := Calibrate(l, caps)
	if err != nil {
		t.Fatal(err)
	}
	// Display grid origin (8,4) should map near capture (18,10) at unit
	// scale (the window keeps display resolution).
	// Within half a Block pitch; the end-to-end test below is the binding
	// decode-quality criterion.
	gx, gy := m.Apply(float64(l.MarginX()), float64(l.MarginY()))
	if math.Abs(gx-18) > 4.5 || math.Abs(gy-10) > 4.5 {
		t.Fatalf("grid origin maps to (%.1f,%.1f), want ≈(18,10)", gx, gy)
	}
}

// TestMisregisteredEndToEnd: through the physical channel with a cropped,
// zoomed camera, decoding with the calibrated mapping works while the
// naive full-frame assumption collapses.
func TestMisregisteredEndToEnd(t *testing.T) {
	l := testLayout()
	p := core.DefaultParams(l)
	p.Tau = 8
	stream := core.NewRandomStream(l, 9)
	m, err := core.NewMultiplexer(p, video.Gray(l.FrameW, l.FrameH), stream)
	if err != nil {
		t.Fatal(err)
	}
	capW, capH := 100, 66
	ccfg := camera.DefaultConfig(capW, capH)
	ccfg.ReadoutTime = 0
	ccfg.NoiseSigma = 0.5
	ccfg.BlurRadius = 0
	// Camera overscans: the whole display plus a dark border, shifted.
	ccfg.CropX0, ccfg.CropY0, ccfg.CropW, ccfg.CropH = -8, -3, 126, 80
	dcfg := display.DefaultConfig()
	dcfg.ResponseTime = 0
	link, err := channel.New(channel.Config{Display: dcfg, Camera: ccfg})
	if err != nil {
		t.Fatal(err)
	}
	nData := 16
	if err := m.PushTo(link.Display, nData*p.Tau+24); err != nil {
		t.Fatal(err)
	}
	caps, times := link.CaptureAll()
	if len(caps) == 0 {
		t.Fatal("no captures")
	}

	availability := func(pose *frame.Homography) float64 {
		rcfg := core.DefaultReceiverConfig(p, capW, capH)
		rcfg.Exposure = ccfg.Exposure
		rcfg.ReadoutTime = ccfg.ReadoutTime
		rcfg.Pose = pose
		rcv, err := core.NewReceiver(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		var stats metrics.GOBStats
		for d, fd := range rcv.DecodeCaptures(caps, times, ccfg.Exposure, nData) {
			if fd.Captures == 0 {
				continue
			}
			stats.AddWithOracle(fd, stream.DataFrame(d))
		}
		return float64(stats.OracleCorrect) / float64(stats.Total)
	}

	calib, err := Calibrate(l, caps)
	if err != nil {
		t.Fatal(err)
	}
	h := core.AxisAlignedHomography(calib)
	withCalib := availability(&h)
	naive := availability(nil)
	if withCalib < 0.8 {
		t.Fatalf("calibrated oracle-correct ratio %.2f, want >= 0.8", withCalib)
	}
	if withCalib < naive+0.2 {
		t.Fatalf("calibration gain too small: %.2f vs naive %.2f", withCalib, naive)
	}
}
