package fleet

import (
	"reflect"
	"testing"

	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/frame"
	"inframe/internal/impair"
	"inframe/internal/metrics"
	"inframe/internal/video"
)

// TestFleetCapturesMatchChannel: every fleet member decodes exactly what a
// standalone run of its spec gives — channel.Simulate with the member's
// camera, start and impairment profile, then DecodeCapturesReport — for a
// clean and a drop/dup/jitter population at Workers 1, 2 and 8: the
// lockstep pass leaves the same decoded frames and report, and Run reports
// the same ReceiverResult row and merged degradation stats.
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
			for _, workers := range []int{1, 2, 8} {
				cfg := DefaultConfig(l, l.FrameW, l.FrameH, 3, 5)
				cfg.Params.Tau = 8
				cfg.Seconds = 0.5
				cfg.Workers = workers
				cfg.Pop.Sizes = [][2]int{{96, 64}, {48, 32}}
				cfg.Pop.CleanFrac = 1
				if tc.profile != nil {
					cfg.Pop.CleanFrac = 0
					cfg.Pop.Profiles = []impair.Config{*tc.profile}
				}
				nDisplay := int(cfg.Seconds * cfg.Display.RefreshHz)
				nData := nDisplay / cfg.Params.Tau
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				bc, err := cfg.broadcast(nDisplay, nData, frame.NewPool(), 1)
				if err != nil {
					t.Fatal(err)
				}
				var merged metrics.DegradationStats
				drops, dups := 0, 0
				for i := 0; i < cfg.Pop.N; i++ {
					spec := cfg.Pop.Spec(i, cfg.Camera)
					if (spec.Impair != nil) != (tc.profile != nil) {
						t.Fatalf("receiver %d: sampled impairments %+v, want profile %+v", i, spec.Impair, tc.profile)
					}
					m, err := core.NewMultiplexer(cfg.Params, video.Gray(l.FrameW, l.FrameH), core.NewRandomStream(l, cfg.StreamSeed))
					if err != nil {
						t.Fatal(err)
					}
					sim, err := channel.Simulate(m, nDisplay, channel.Config{
						Display:     cfg.Display,
						Camera:      spec.Camera,
						CameraStart: spec.Start,
						Workers:     1,
						Impair:      spec.Impair,
					})
					if err != nil {
						t.Fatal(err)
					}
					if spec.Impair != nil {
						st := impair.New(*spec.Impair)
						for j := range channel.NewSchedule(float64(nDisplay)/cfg.Display.RefreshHz, spec.Start, spec.Camera, spec.Impair).Times {
							switch st.Copies(j) {
							case 0:
								drops++
							case 2:
								dups++
							}
						}
					}
					rcv, err := core.NewReceiver(cfg.receiverConfig(spec, nil, 1))
					if err != nil {
						t.Fatal(err)
					}
					wantDec, wantRep := rcv.DecodeCapturesReport(sim.Captures, sim.Times, sim.Exposure, nData)
					gotDec, gotRep := bc.members[i].batch.Decode()
					if bc.members[i].delivered != len(sim.Captures) {
						t.Fatalf("workers=%d receiver %d: fleet delivered %d captures, channel %d", workers, i, bc.members[i].delivered, len(sim.Captures))
					}
					if !reflect.DeepEqual(gotDec, wantDec) || !reflect.DeepEqual(gotRep, wantRep) {
						t.Fatalf("workers=%d receiver %d: the lockstep decode differs from Simulate + DecodeCapturesReport", workers, i)
					}
					wantRow, wantDeg := cfg.row(spec, len(sim.Captures), wantDec, wantRep, bc.oracle)
					if !reflect.DeepEqual(res.Receivers[i], wantRow) {
						t.Fatalf("workers=%d receiver %d: Run reports\n%+v\nwant\n%+v", workers, i, res.Receivers[i], wantRow)
					}
					merged.Merge(&wantDeg)
				}
				if !reflect.DeepEqual(res.Degrade, merged) {
					t.Fatalf("workers=%d: merged degradation stats differ from the standalone runs'", workers)
				}
				if tc.profile != nil && (drops == 0 || dups == 0) {
					t.Fatalf("workers=%d: %d drops and %d duplicates; the delivery plan went untested", workers, drops, dups)
				}
			}
		})
	}
}
