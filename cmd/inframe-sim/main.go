// Command inframe-sim runs one end-to-end InFrame transmission through the
// simulated display→camera channel and reports the secondary channel's
// performance, optionally also sending a real text message.
//
// Usage:
//
//	inframe-sim [-video gray|darkgray|sunrise|textcard|bars] [-delta 20]
//	            [-tau 12] [-seconds 2.0] [-scale 2] [-seed 1]
//	            [-camera-start 0] [-workers 0] [-message "text to send"]
//	            [-report]
//	            [-impair-seed 1] [-drift-ppm 0] [-jitter 0] [-drop 0]
//	            [-dup 0] [-ambient-ramp 0] [-flicker-amp 0] [-flicker-hz 100]
//	            [-gain-amp 0] [-gain-hz 0.7] [-burst-rate 0] [-burst-sigma 0]
//	            [-motion-blur 0] [-occlude "x,y,w,h"] [-occlude-level 0]
//
// -seconds must be positive and at most one simulated day (86400).
//
// The -impair-* family injects seeded, deterministic channel faults (see
// internal/impair); -report prints the receiver's graceful-degradation
// accounting (erasure causes, gaps, resyncs, link-quality timeline summary).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"inframe"
	"inframe/internal/channel"
	"inframe/internal/impair"
	"inframe/internal/metrics"
)

// maxSeconds bounds -seconds at one simulated day, far beyond any run in
// the repository, so the display-frame count int(seconds·RefreshHz) is an
// exact, allocatable int.
const maxSeconds = 86400

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses args, simulates, prints to stdout
// and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inframe-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	videoName := fs.String("video", "gray", "video content: gray, darkgray, sunrise, textcard, bars")
	delta := fs.Float64("delta", 20, "chessboard amplitude δ")
	tau := fs.Int("tau", 12, "smoothing cycle τ (display frames per data frame, even)")
	seconds := fs.Float64("seconds", 2.0, "simulated transmission length")
	scale := fs.Int("scale", 2, "paper-geometry divisor")
	seed := fs.Int64("seed", 1, "random seed")
	cameraStart := fs.Float64("camera-start", 0, "camera clock offset vs the display (seconds, may be negative)")
	workers := fs.Int("workers", 0, "worker pool bound (0 = GOMAXPROCS; results identical at any value)")
	message := fs.String("message", "", "optional text message to transmit instead of random data")
	report := fs.Bool("report", false, "print the receiver's graceful-degradation report")

	impairSeed := fs.Int64("impair-seed", 1, "impairment randomness seed")
	driftPPM := fs.Float64("drift-ppm", 0, "camera clock drift in parts per million")
	jitter := fs.Float64("jitter", 0, "per-exposure start jitter bound (seconds)")
	drop := fs.Float64("drop", 0, "capture drop probability [0,1)")
	dup := fs.Float64("dup", 0, "capture duplication probability [0,1)")
	ambientRamp := fs.Float64("ambient-ramp", 0, "ambient light ramp (gray levels per second)")
	flickerAmp := fs.Float64("flicker-amp", 0, "mains flicker amplitude (gray levels)")
	flickerHz := fs.Float64("flicker-hz", 100, "mains flicker frequency (100 = 50 Hz mains)")
	gainAmp := fs.Float64("gain-amp", 0, "auto-exposure gain drift amplitude (fraction)")
	gainHz := fs.Float64("gain-hz", 0.7, "gain drift frequency (Hz)")
	burstRate := fs.Float64("burst-rate", 0, "sensor noise-burst probability per capture [0,1)")
	burstSigma := fs.Float64("burst-sigma", 0, "noise-burst sigma (gray levels)")
	motionBlur := fs.Int("motion-blur", 0, "horizontal motion blur length (pixels)")
	occlude := fs.String("occlude", "", "partial occlusion rect as x,y,w,h (frame fractions)")
	occludeLevel := fs.Float64("occlude-level", 0, "occluder gray level [0,255]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !(*seconds > 0 && *seconds <= maxSeconds) {
		fmt.Fprintf(stderr, "inframe-sim: -seconds must be in (0, %d], got %v\n", maxSeconds, *seconds)
		return 2
	}

	imp := &inframe.ImpairConfig{
		Seed: *impairSeed, ClockDriftPPM: *driftPPM, StartJitter: *jitter,
		DropRate: *drop, DupRate: *dup, AmbientRamp: *ambientRamp,
		FlickerAmp: *flickerAmp, FlickerHz: *flickerHz,
		GainAmp: *gainAmp, GainHz: *gainHz,
		BurstRate: *burstRate, BurstSigma: *burstSigma,
		MotionBlurLen: *motionBlur, OccludeLevel: *occludeLevel,
	}
	if *occlude != "" {
		if n, err := fmt.Sscanf(strings.ReplaceAll(*occlude, ",", " "), "%f %f %f %f",
			&imp.OccludeX, &imp.OccludeY, &imp.OccludeW, &imp.OccludeH); n != 4 || err != nil {
			fmt.Fprintln(stderr, "inframe-sim: -occlude wants x,y,w,h fractions")
			return 2
		}
	}

	l, err := inframe.ScaledPaperLayout(*scale)
	if err != nil {
		return fatal(stderr, err)
	}
	p := inframe.DefaultParams(l)
	p.Delta = *delta
	p.Tau = *tau
	p.Workers = *workers
	if err := p.Validate(); err != nil {
		return fatal(stderr, err)
	}
	src, err := pickVideo(*videoName, l, *seed)
	if err != nil {
		return fatal(stderr, err)
	}
	capW, capH := 1280 / *scale, 720 / *scale
	cfg := channel.DefaultConfig(capW, capH)
	cfg.Camera.BlurRadius = 0
	cfg.Camera.Seed = *seed
	cfg.Camera.Workers = *workers
	cfg.CameraStart = *cameraStart
	cfg.Workers = *workers
	// Validate before Enabled: a NaN flag fails every comparison Enabled
	// makes, so it would otherwise switch its stage off silently.
	if err := imp.Validate(); err != nil {
		return fatal(stderr, err)
	}
	if imp.Enabled() {
		cfg.Impair = imp
		fmt.Fprintf(stdout, "impairments: %s\n", strings.Join(impairNames(imp), ", "))
	}
	nDisplay := int(*seconds * cfg.Display.RefreshHz)

	if *message != "" {
		return runMessage(stdout, stderr, p, src, cfg, *message, nDisplay)
	}

	stream := inframe.NewRandomStream(l, *seed)
	m, err := inframe.NewMultiplexer(p, src, stream)
	if err != nil {
		return fatal(stderr, err)
	}
	fmt.Fprintf(stdout, "transmitting %.1fs of %s at δ=%.0f τ=%d over a %dx%d display → %dx%d camera...\n",
		*seconds, *videoName, *delta, *tau, l.FrameW, l.FrameH, capW, capH)
	res, err := inframe.Simulate(m, nDisplay, cfg)
	if err != nil {
		return fatal(stderr, err)
	}
	rcfg := cfg.Receiver(p)
	if cfg.Impair != nil {
		// Graceful degradation: gate garbage captures out of aggregation.
		rcfg.MinCaptureQuality = 0.1
	}
	rcv, err := inframe.NewReceiver(rcfg)
	if err != nil {
		return fatal(stderr, err)
	}
	decoded, rep := rcv.DecodeCapturesReport(res.Captures, res.Times, res.Exposure, nDisplay / *tau)
	var stats metrics.GOBStats
	for d, fd := range decoded {
		if fd.Captures == 0 {
			continue
		}
		stats.AddWithOracle(fd, stream.DataFrame(d))
	}
	perf := inframe.ComputeReport(&stats, l, *tau, cfg.Display.RefreshHz)
	fmt.Fprintf(stdout, "captures: %d, data frames decoded: %d\n", len(res.Captures), stats.Frames)
	fmt.Fprintln(stdout, perf)
	if *report {
		writeReport(stdout, rep)
	}
	return 0
}

// writeReport prints the graceful-degradation accounting of one decode.
func writeReport(w io.Writer, rep *inframe.DecodeReport) {
	var deg inframe.DegradationStats
	deg.AddReport(rep)
	fmt.Fprintln(w, deg.String())
	counts := rep.CauseCounts()
	fmt.Fprint(w, "erasure causes:")
	for c, n := range counts {
		fmt.Fprintf(w, " %s=%d", inframe.ErasureCause(c), n)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "link quality: mean=%.3f min=%.3f over %d scored captures\n",
		rep.MeanQuality(), rep.MinQuality(), scoredCaptures(rep))
}

func scoredCaptures(rep *inframe.DecodeReport) int {
	n := 0
	for _, q := range rep.Quality {
		if q.Scored {
			n++
		}
	}
	return n
}

// impairNames returns the enabled impairment stages in canonical order.
func impairNames(imp *inframe.ImpairConfig) []string {
	return impair.New(*imp).Names()
}

func runMessage(stdout, stderr io.Writer, p inframe.Params, src inframe.VideoSource, cfg inframe.ChannelConfig, msg string, nDisplay int) int {
	tx, err := inframe.NewTransmitter(p, src, []byte(msg))
	if err != nil {
		return fatal(stderr, err)
	}
	min := 16 * tx.DisplayFramesPerCycle()
	if nDisplay < min {
		nDisplay = min
	}
	fmt.Fprintf(stdout, "sending %d bytes as %d packet(s) over %d display frames...\n",
		len(msg), tx.Packets(), nDisplay)
	res, err := inframe.Simulate(tx.Multiplexer(), nDisplay, cfg)
	if err != nil {
		return fatal(stderr, err)
	}
	rx, err := inframe.NewMessageReceiver(cfg.Receiver(p))
	if err != nil {
		return fatal(stderr, err)
	}
	fresh := rx.Ingest(res, nDisplay/p.Tau)
	fmt.Fprintf(stdout, "accepted %d packet(s)\n", fresh)
	if !rx.Complete() {
		fmt.Fprintf(stdout, "message incomplete; missing packets %v\n", rx.Missing())
		return 1
	}
	got, err := rx.Message()
	if err != nil {
		return fatal(stderr, err)
	}
	fmt.Fprintf(stdout, "received: %q\n", got)
	return 0
}

func pickVideo(name string, l inframe.Layout, seed int64) (inframe.VideoSource, error) {
	switch name {
	case "gray":
		return inframe.GrayVideo(l.FrameW, l.FrameH), nil
	case "darkgray":
		return inframe.DarkGrayVideo(l.FrameW, l.FrameH), nil
	case "sunrise":
		return inframe.SunRiseVideo(l.FrameW, l.FrameH, seed), nil
	case "textcard":
		return inframe.TextCardVideo(l.FrameW, l.FrameH, seed), nil
	case "bars":
		return inframe.MovingBarsVideo(l.FrameW, l.FrameH, l.BlockPx(), 2), nil
	default:
		return nil, fmt.Errorf("unknown video %q", name)
	}
}

func fatal(w io.Writer, err error) int {
	fmt.Fprintln(w, "inframe-sim:", err)
	return 1
}
