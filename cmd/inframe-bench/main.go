// Command inframe-bench regenerates every figure and table of the paper's
// evaluation on the simulated substrate and prints them as text tables.
//
// Usage:
//
//	inframe-bench [-exp all|fig3|fig5|fig6a|fig6b|fig7|ablations|robustness|pose|fleet|speedup] \
//	              [-seconds 2.0] [-flicker-seconds 1.0] [-seed 1] [-scale 2] \
//	              [-workers 0] [-fleet-n 16] [-json path]
//
// -workers bounds every simulation worker pool (0 = GOMAXPROCS, 1 =
// sequential); outputs are bit-identical at any value. -exp speedup times the
// end-to-end pipeline sequentially and with the full pool over the
// experiments' standard link and reports the ratio and the link's
// availability, verifying on the way that both runs produced identical
// captures and decodes.
// -exp fleet renders the multiplexed stream once and decodes it with an
// N-receiver population (-fleet-n), printing the availability/BER/TTFD
// distributions and the receivers/sec headline.
//
// -json <path> skips the figure tables and instead writes a machine-readable
// baseline (conventionally BENCH_<date>.json at the repo root): ns/op for
// the EndToEnd and DecodeCaptures stages at workers=1 and GOMAXPROCS, the
// same shapes BenchmarkEndToEnd/BenchmarkDecodeCaptures measure, so the
// bench trajectory has comparable seed points across PRs.
//
// The output is the source of the measured columns in EXPERIMENTS.md; the
// tables are pinned byte for byte by testdata/*.golden (see main_test.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"inframe/internal/benchcmp"
	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/experiments"
	"inframe/internal/metrics"
	"inframe/internal/video"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// section is one printed table: the -exp name that selects it, its title
// line and the experiment that prints it.
type section struct {
	exp, title string
	print      func(w io.Writer, s experiments.Setup) error
}

// table adapts an experiment and its writer into a section printer.
func table[R any](run func(experiments.Setup) ([]R, error), write func(io.Writer, []R)) func(io.Writer, experiments.Setup) error {
	return func(w io.Writer, s experiments.Setup) error {
		rows, err := run(s)
		if err != nil {
			return err
		}
		write(w, rows)
		return nil
	}
}

// sections returns every table in print order; fleetN sizes the fleet
// experiment's population.
func sections(fleetN int) []section {
	return []section{
		{"fig3", "Fig. 3 — naive designs vs complementary frames (flicker 0-4)",
			table(experiments.NaiveDesigns, experiments.WriteNaive)},
		{"fig5", "Fig. 5 — temporal smoothing waveform through electronic LPF",
			func(w io.Writer, _ experiments.Setup) error {
				series := experiments.SmoothingWaveform()
				// The full series is long; print the transition region and
				// the stability summary.
				fmt.Fprintf(w, "samples: %d, residual ripple %.3f drive units (input p-p 40)\n",
					len(series.Raw), series.Ripple)
				experiments.WriteEnvelopes(w, experiments.EnvelopeAblation())
				return nil
			}},
		{"fig6a", "Fig. 6 (left) — flicker vs color brightness",
			table(experiments.FlickerVsBrightness, experiments.WriteFlicker)},
		{"fig6b", "Fig. 6 (right) — flicker vs waveform amplitude",
			table(experiments.FlickerVsAmplitude, experiments.WriteFlicker)},
		{"fig7", "Fig. 7 — secondary channel throughput",
			table(experiments.Throughput, experiments.WriteThroughput)},
		{"ablations", "A2 — Pixel pitch vs phantom array",
			table(experiments.PixelSizeAblation, experiments.WritePixelSizes)},
		{"ablations", "A3 — confidence band sweep (availability vs errors)",
			table(experiments.ThresholdSweep, experiments.WriteBands)},
		{"ablations", "A4 — shutter regimes",
			table(experiments.ShutterAblation, experiments.WriteShutter)},
		{"ablations", "A5 — GOB protection: XOR parity vs Reed-Solomon",
			table(experiments.CodingAblation, experiments.WriteCoding)},
		{"ablations", "A6 — sensor noise sweep",
			table(experiments.NoiseSweep, experiments.WriteNoise)},
		{"ablations", "A7 — detector comparison",
			table(experiments.DetectorAblation, experiments.WriteDetectors)},
		{"ablations", "A8 — blind frame synchronization",
			table(experiments.SyncAccuracy, experiments.WriteSync)},
		{"ablations", "A9 — barcode baseline comparison",
			table(experiments.BarcodeComparison, experiments.WriteBaseline)},
		{"ablations", "A10 — blind camera registration",
			table(experiments.Registration, experiments.WriteRegistration)},
		{"ablations", "A11 — batch vs streaming receiver",
			table(experiments.Streaming, experiments.WriteStreaming)},
		{"ablations", "A12 — display pixel response (gray-to-gray)",
			table(experiments.ResponseAblation, experiments.WriteResponse)},
		{"ablations", "A13 — rate vs perceptibility trade-off (§5)",
			table(experiments.Tradeoff, experiments.WriteTradeoff)},
		{"robustness", "Robustness — impairment sweep with graceful degradation",
			table(experiments.Robustness, experiments.WriteRobustness)},
		{"pose", "Pose — availability vs camera tilt, rigid vs registered receiver",
			table(experiments.Pose, experiments.WritePose)},
		{"fleet", "Fleet — one rendered stream, N-receiver broadcast population",
			func(w io.Writer, s experiments.Setup) error {
				start := time.Now()
				res, err := experiments.Fleet(s, fleetN)
				if err != nil {
					return err
				}
				elapsed := time.Since(start).Seconds()
				experiments.WriteFleet(w, res)
				fmt.Fprintf(w, "receivers/sec: %.2f (N=%d in %.1fs, render included)\n",
					float64(res.N)/elapsed, res.N, elapsed)
				return nil
			}},
	}
}

// run is the testable entry point: parses args, runs the selected
// experiments, prints their tables to stdout and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inframe-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: all, fig3, fig5, fig6a, fig6b, fig7, ablations, robustness, pose, fleet, speedup")
	seconds := fs.Float64("seconds", 2.0, "simulated seconds per throughput setting")
	flickerSeconds := fs.Float64("flicker-seconds", 1.0, "simulated seconds per flicker rating")
	seed := fs.Int64("seed", 1, "global random seed")
	scale := fs.Int("scale", 2, "paper-geometry divisor (1 = full 1080p, 2 = half)")
	workers := fs.Int("workers", 0, "worker pool bound (0 = GOMAXPROCS, 1 = sequential)")
	fleetN := fs.Int("fleet-n", 16, "fleet experiment population size")
	jsonPath := fs.String("json", "", "write a BENCH_*.json baseline (EndToEnd, DecodeCaptures and Fleet ns/op at workers=1 and GOMAXPROCS) to this path and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "inframe-bench:", err)
		return 1
	}

	if *jsonPath != "" {
		if err := writeBaseline(stdout, *jsonPath, *scale); err != nil {
			return fatal(err)
		}
		return 0
	}

	s := experiments.DefaultSetup()
	s.ThroughputSeconds = *seconds
	s.FlickerSeconds = *flickerSeconds
	s.Seed = *seed
	s.ScaleDiv = *scale
	s.Workers = *workers
	if err := s.Validate(); err != nil {
		return fatal(err)
	}

	if *exp == "speedup" {
		if err := speedupReport(stdout, s); err != nil {
			return fatal(err)
		}
		return 0
	}

	var selected []section
	for _, sec := range sections(*fleetN) {
		if *exp == "all" || *exp == sec.exp {
			selected = append(selected, sec)
		}
	}
	if len(selected) == 0 {
		return fatal(fmt.Errorf("unknown experiment %q (use all, fig3, fig5, fig6a, fig6b, fig7, ablations, robustness, pose, fleet or speedup)", *exp))
	}
	for _, sec := range selected {
		start := time.Now()
		fmt.Fprintf(stdout, "=== %s ===\n", sec.title)
		if err := sec.print(stdout, s); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "(%.1fs)\n\n", time.Since(start).Seconds())
	}
	return 0
}

// speedupReport times the end-to-end pipeline (render → display → camera →
// decode) on the experiments' standard link at workers=1 and
// workers=GOMAXPROCS and prints the ratio and the link's availability,
// cross-checking that both runs were bit-identical. s sets the geometry
// (ScaleDiv), length (ThroughputSeconds) and seed; its Workers is ignored.
func speedupReport(w io.Writer, s experiments.Setup) error {
	l, err := core.ScaledPaperLayout(s.ScaleDiv)
	if err != nil {
		return err
	}
	stream := core.NewRandomStream(l, s.Seed)
	nDisplay := int(s.ThroughputSeconds * 120)
	var renderStats core.RenderStats
	runOnce := func(workers int) (*channel.Result, []*core.FrameDecode, time.Duration, error) {
		s.Workers = workers
		cfg := s.ChannelConfig(s.CaptureSize())
		p := core.DefaultParams(l)
		p.Workers = workers
		m, err := core.NewMultiplexer(p, video.Gray(l.FrameW, l.FrameH), stream)
		if err != nil {
			return nil, nil, 0, err
		}
		rcv, err := core.NewReceiver(cfg.Receiver(p))
		if err != nil {
			return nil, nil, 0, err
		}
		start := time.Now()
		res, err := channel.Simulate(m, nDisplay, cfg)
		if err != nil {
			return nil, nil, 0, err
		}
		dec := rcv.DecodeCaptures(res.Captures, res.Times, res.Exposure, nDisplay/p.Tau)
		// RenderStats is deterministic at any worker count, so keeping the
		// last run's snapshot reports both runs at once.
		renderStats = m.RenderStats()
		return res, dec, time.Since(start), nil
	}

	maxW := runtime.GOMAXPROCS(0)
	fmt.Fprintf(w, "=== sequential vs parallel pipeline (scale 1/%d, %d display frames, %d cores) ===\n",
		s.ScaleDiv, nDisplay, maxW)
	seqRes, seqDec, seqDur, err := runOnce(1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workers=1:  %8.2fs\n", seqDur.Seconds())
	parRes, parDec, parDur, err := runOnce(maxW)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workers=%d:  %8.2fs\n", maxW, parDur.Seconds())
	fmt.Fprintf(w, "speedup: %.2fx\n", seqDur.Seconds()/parDur.Seconds())
	fmt.Fprintf(w, "render: blocks=%d skipped=%d (skip-rate %.3f) headroom-skipped=%d/%d video-skipped=%d/%d\n",
		renderStats.Blocks, renderStats.BlocksSkipped, renderStats.SkipRate(),
		renderStats.HeadroomSkipped, renderStats.HeadroomBlocks+renderStats.HeadroomSkipped,
		renderStats.VideoSkipped, renderStats.VideoRefreshes+renderStats.VideoSkipped)
	var stats metrics.GOBStats
	for d, fd := range parDec {
		if fd.Captures > 0 {
			stats.AddWithOracle(fd, stream.DataFrame(d))
		}
	}
	fmt.Fprintf(w, "available: %.4f of %d GOBs over %d data frames\n", stats.AvailableRatio(), stats.Total, stats.Frames)

	if len(seqRes.Captures) != len(parRes.Captures) || len(seqDec) != len(parDec) {
		return fmt.Errorf("sequential and parallel runs diverged in shape")
	}
	for i := range seqRes.Captures {
		a, b := seqRes.Captures[i].Pix, parRes.Captures[i].Pix
		for j := range a {
			//lint:ignore floateq the contract under test is bit-identity, so the comparison must be exact
			if a[j] != b[j] {
				return fmt.Errorf("capture %d diverges at pixel %d", i, j)
			}
		}
	}
	for i := range seqDec {
		if !seqDec[i].Bits.Equal(parDec[i].Bits) {
			return fmt.Errorf("decoded frame %d diverges", i)
		}
	}
	fmt.Fprintln(w, "outputs bit-identical: yes")
	return nil
}

// --- -json baseline ---

// writeBaseline measures EndToEnd (render + channel + decode) and
// DecodeCaptures (receive side only) at workers=1 and GOMAXPROCS — via
// internal/benchcmp, the same measurement inframe-benchdiff performs — and
// writes the results as JSON to path.
func writeBaseline(w io.Writer, path string, scale int) error {
	base, err := benchcmp.Measure(scale)
	if err != nil {
		return err
	}
	if err := base.Write(path); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote", path)
	return nil
}
