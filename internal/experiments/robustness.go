package experiments

import (
	"fmt"
	"io"

	"inframe/internal/core"
	"inframe/internal/impair"
	"inframe/internal/metrics"
)

// RobustnessScenario is one impairment setting of the robustness sweep: a
// named fault-injection configuration applied to the standard gray-video
// link.
type RobustnessScenario struct {
	Name   string
	Impair *impair.Config // nil = clean channel
}

// RobustnessScenarios returns the sweep's settings: the clean reference,
// every impairment family in isolation, and a kitchen-sink run stacking the
// lot. All randomness derives from the given seed.
func RobustnessScenarios(seed int64) []RobustnessScenario {
	return []RobustnessScenario{
		{Name: "clean", Impair: nil},
		{Name: "clock-drift", Impair: &impair.Config{Seed: seed, ClockDriftPPM: 500}},
		{Name: "start-jitter", Impair: &impair.Config{Seed: seed, StartJitter: 3e-4}},
		{Name: "capture-drop", Impair: &impair.Config{Seed: seed, DropRate: 0.15}},
		{Name: "capture-dup", Impair: &impair.Config{Seed: seed, DupRate: 0.15}},
		{Name: "ambient-ramp", Impair: &impair.Config{Seed: seed, AmbientRamp: 12}},
		{Name: "mains-flicker", Impair: &impair.Config{Seed: seed, FlickerAmp: 5, FlickerHz: 100}},
		{Name: "gain-drift", Impair: &impair.Config{Seed: seed, GainAmp: 0.04, GainHz: 0.7}},
		{Name: "noise-burst", Impair: &impair.Config{Seed: seed, BurstRate: 0.1, BurstSigma: 6}},
		// Even a short horizontal blur spans the capture-domain chessboard
		// period, so this scenario documents the channel's one true cliff:
		// camera motion erases the signal rather than degrading it.
		{Name: "motion-blur", Impair: &impair.Config{Seed: seed, MotionBlurLen: 3}},
		{Name: "occlusion", Impair: &impair.Config{Seed: seed, OccludeX: 0.1, OccludeY: 0.1, OccludeW: 0.25, OccludeH: 0.25, OccludeLevel: 30}},
		{Name: "kitchen-sink", Impair: &impair.Config{
			Seed: seed, ClockDriftPPM: 300, StartJitter: 1e-4,
			DropRate: 0.05, DupRate: 0.05, AmbientRamp: 6,
			FlickerAmp: 3, FlickerHz: 100, GainAmp: 0.02, GainHz: 0.7,
			BurstRate: 0.05, BurstSigma: 5,
		}},
	}
}

// RobustnessRow is one measured scenario of the sweep.
type RobustnessRow struct {
	Scenario string
	Report   metrics.Report
	Degrade  metrics.DegradationStats
	// Frames is the number of decoded data frames behind the numbers.
	Frames int
}

// RunRobustness measures one scenario: gray video at the default (δ, τ)
// through the impaired channel, decoded by a receiver with the
// graceful-degradation features on (capture gating plus windowed threshold
// recalibration), accounted against the transmitted oracle.
func RunRobustness(s Setup, sc RobustnessScenario) (RobustnessRow, error) {
	if err := s.Validate(); err != nil {
		return RobustnessRow{}, err
	}
	cfg := s.ChannelConfig(s.CaptureSize())
	cfg.Impair = sc.Impair
	e, err := s.transmit(ThroughputSetting{VideoGray, 20, 12}, cfg)
	if err != nil {
		return RobustnessRow{}, err
	}
	// Graceful degradation: gate out garbage captures, recalibrate the
	// per-Block thresholds in windows so lighting and gain drift track.
	d, err := e.decode(func(rc *core.ReceiverConfig) {
		rc.MinCaptureQuality = 0.1
		rc.RecalibrateEvery = 10
	})
	if err != nil {
		return RobustnessRow{}, err
	}
	row := RobustnessRow{Scenario: sc.Name, Report: d.perf, Frames: d.stats.Frames}
	row.Degrade.AddReport(d.report)
	return row, nil
}

// Robustness runs the full impairment sweep.
func Robustness(s Setup) ([]RobustnessRow, error) {
	scenarios := RobustnessScenarios(s.Seed)
	rows := make([]RobustnessRow, 0, len(scenarios))
	for _, sc := range scenarios {
		row, err := RunRobustness(s, sc)
		if err != nil {
			return nil, fmt.Errorf("experiments: robustness %s: %w", sc.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteRobustness prints the impairment sweep: per scenario the paper-style
// channel figures plus the degradation accounting (gaps, resyncs, excluded
// captures, mean link quality).
func WriteRobustness(w io.Writer, rows []RobustnessRow) {
	fmt.Fprintf(w, "%-14s | %9s %8s | %6s %4s %7s %8s %7s\n",
		"scenario", "available", "err-rate", "frames", "gaps", "resyncs", "excluded", "quality")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s | %8.1f%% %7.2f%% | %6d %4d %7d %8d %7.2f\n",
			r.Scenario, 100*r.Report.AvailableRatio, 100*r.Report.ErrorRate,
			r.Frames, r.Degrade.GapFrames, r.Degrade.Resyncs,
			r.Degrade.ExcludedCaptures, r.Degrade.Quality.Mean())
	}
}
