package fleet

import (
	"math"
	"testing"

	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/impair"
	"inframe/internal/video"
)

// TestFleetCapturesMatchChannel: a fleet member's captures and exposure
// times equal a standalone channel.Simulate run with the member's camera
// spec, start and impairment profile, for a clean and a drop/dup/jitter
// population.
func TestFleetCapturesMatchChannel(t *testing.T) {
	l := core.Layout{
		FrameW: 96, FrameH: 64,
		PixelSize: 2, BlockSize: 4, GOBSize: 2,
		BlocksX: 12, BlocksY: 8,
	}
	for _, tc := range []struct {
		name    string
		profile *impair.Config
	}{
		{"clean", nil},
		{"drop-dup-jitter", &impair.Config{DropRate: 0.3, DupRate: 0.3, StartJitter: 2e-4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(l, l.FrameW, l.FrameH, 3, 5)
			cfg.Params.Tau = 8
			cfg.Seconds = 0.5
			cfg.Pop.Sizes = [][2]int{{96, 64}, {48, 32}}
			cfg.Pop.CleanFrac = 1
			if tc.profile != nil {
				cfg.Pop.CleanFrac = 0
				cfg.Pop.Profiles = []impair.Config{*tc.profile}
			}
			nDisplay := int(cfg.Seconds * cfg.Display.RefreshHz)
			mux := func() *core.Multiplexer {
				m, err := core.NewMultiplexer(cfg.Params, video.Gray(l.FrameW, l.FrameH), core.NewRandomStream(l, cfg.StreamSeed))
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			d, err := display.New(cfg.Display)
			if err != nil {
				t.Fatal(err)
			}
			if err := mux().PushTo(d, nDisplay); err != nil {
				t.Fatal(err)
			}
			pool := frame.NewPool()
			for i := 0; i < cfg.Pop.N; i++ {
				spec, caps, times, err := cfg.capture(i, d, pool, 2)
				if err != nil {
					t.Fatal(err)
				}
				if (spec.Impair != nil) != (tc.profile != nil) {
					t.Fatalf("receiver %d: sampled impairments %+v, want profile %+v", i, spec.Impair, tc.profile)
				}
				want, err := channel.Simulate(mux(), nDisplay, channel.Config{
					Display:     cfg.Display,
					Camera:      spec.Camera,
					CameraStart: spec.Start,
					Workers:     1,
					Impair:      spec.Impair,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(caps) != len(want.Captures) || len(times) != len(want.Times) {
					t.Fatalf("receiver %d: fleet delivered %d captures, channel %d", i, len(caps), len(want.Captures))
				}
				for j, c := range caps {
					if math.Abs(times[j]-want.Times[j]) > 0 || !c.Equal(want.Captures[j]) {
						t.Fatalf("receiver %d capture %d at %v differs from the channel's at %v", i, j, times[j], want.Times[j])
					}
				}
			}
		})
	}
}
