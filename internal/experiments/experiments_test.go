package experiments

import (
	"strings"
	"testing"
)

// fastSetup shortens simulated durations so the shape assertions stay
// affordable in the regular test run.
func fastSetup() Setup {
	s := DefaultSetup()
	s.ThroughputSeconds = 1.5
	s.FlickerSeconds = 0.8
	return s
}

func TestSetupValidate(t *testing.T) {
	if err := DefaultSetup().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Setup){
		func(s *Setup) { s.ScaleDiv = 0 },
		func(s *Setup) { s.ThroughputSeconds = 0 },
		func(s *Setup) { s.FlickerSeconds = -1 },
		func(s *Setup) { s.PanelSize = 0 },
	}
	for i, m := range bad {
		s := DefaultSetup()
		m(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("bad setup %d validated", i)
		}
	}
}

func TestFig7SettingsCoverPaper(t *testing.T) {
	settings := Fig7Settings()
	if len(settings) != 12 {
		t.Fatalf("got %d settings, want 12 (3 videos × 4 parameter points)", len(settings))
	}
	seen := map[string]bool{}
	for _, st := range settings {
		seen[string(st.Video)] = true
	}
	for _, v := range []string{"Gray", "Dark-Gray", "Video"} {
		if !seen[v] {
			t.Fatalf("missing video %q", v)
		}
	}
}

// TestFig7Shapes runs the full throughput experiment and asserts the
// paper's qualitative structure (who wins, in which direction each knob
// moves), not its absolute testbed numbers.
func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline experiment")
	}
	rows, err := Throughput(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	get := func(v VideoKind, delta float64, tau int) ThroughputRow {
		for _, r := range rows {
			if r.Setting.Video == v && r.Setting.Delta == delta && r.Setting.Tau == tau {
				return r
			}
		}
		t.Fatalf("missing row %v δ=%v τ=%d", v, delta, tau)
		return ThroughputRow{}
	}
	// Throughput scales ~1/τ for every video.
	for _, v := range VideoKinds() {
		t10 := get(v, 20, 10).Report.ThroughputBps
		t12 := get(v, 20, 12).Report.ThroughputBps
		t14 := get(v, 20, 14).Report.ThroughputBps
		if !(t10 > t12 && t12 > t14) {
			t.Errorf("%v: throughput not decreasing in tau: %v %v %v", v, t10, t12, t14)
		}
	}
	// Pure colors beat the real video clip at every setting.
	for _, tau := range []int{10, 12, 14} {
		if get(VideoGray, 20, tau).Report.ThroughputBps <= get(VideoClip, 20, tau).Report.ThroughputBps {
			t.Errorf("τ=%d: gray not above video", tau)
		}
	}
	// Availability: pure colors ≥ 90%, video clearly lower (paper: ~63%).
	grayAvail := get(VideoGray, 20, 12).Report.AvailableRatio
	vidAvail := get(VideoClip, 20, 12).Report.AvailableRatio
	if grayAvail < 0.9 {
		t.Errorf("gray availability %.2f, want >= 0.9", grayAvail)
	}
	if vidAvail > grayAvail-0.15 {
		t.Errorf("video availability %.2f not clearly below gray %.2f", vidAvail, grayAvail)
	}
	// Error rates: video well above pure colors.
	if get(VideoClip, 20, 12).Report.ErrorRate < 2*get(VideoGray, 20, 12).Report.ErrorRate+0.01 {
		t.Errorf("video error rate not clearly above gray")
	}
	// Headline magnitudes: gray τ=10 lands near the paper's ~12.8 kbps and
	// video τ=12 near its 5.6-7 kbps.
	if tp := get(VideoGray, 20, 10).Report.ThroughputBps; tp < 10000 || tp > 13500 {
		t.Errorf("gray τ=10 throughput %.0f outside [10k, 13.5k]", tp)
	}
	if tp := get(VideoClip, 20, 12).Report.ThroughputBps; tp < 4000 || tp > 9000 {
		t.Errorf("video τ=12 throughput %.0f outside [4k, 9k]", tp)
	}
	var sb strings.Builder
	WriteThroughput(&sb, rows)
	if !strings.Contains(sb.String(), "Gray") {
		t.Fatal("WriteThroughput lost the video names")
	}
}

// TestFig6BrightnessShape: flicker grows with brightness and with δ; the
// recommended δ=20 stays satisfactory (≤1) everywhere.
func TestFig6BrightnessShape(t *testing.T) {
	if testing.Short() {
		t.Skip("flicker panel experiment")
	}
	rows, err := FlickerVsBrightness(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	series := map[float64][]FlickerPoint{}
	for _, r := range rows {
		series[r.Delta] = append(series[r.Delta], r)
	}
	for delta, pts := range series {
		first, last := pts[0], pts[len(pts)-1]
		if last.Mean < first.Mean {
			t.Errorf("δ=%v: flicker fell with brightness (%.2f -> %.2f)", delta, first.Mean, last.Mean)
		}
	}
	for i := range series[20.0] {
		if series[20.0][i].Mean > series[50.0][i].Mean+0.51 {
			t.Errorf("brightness %v: δ=20 (%.2f) above δ=50 (%.2f)",
				series[20.0][i].Brightness, series[20.0][i].Mean, series[50.0][i].Mean)
		}
		if series[20.0][i].Mean > 1.05 {
			t.Errorf("δ=20 at brightness %v rated %.2f, want satisfactory (≤1)",
				series[20.0][i].Brightness, series[20.0][i].Mean)
		}
	}
}

// TestFig6AmplitudeShape: flicker grows with δ and falls with τ.
func TestFig6AmplitudeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("flicker panel experiment")
	}
	rows, err := FlickerVsAmplitude(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	get := func(delta float64, tau int) FlickerPoint {
		for _, r := range rows {
			if r.Delta == delta && r.Tau == tau {
				return r
			}
		}
		t.Fatalf("missing point δ=%v τ=%d", delta, tau)
		return FlickerPoint{}
	}
	for _, tau := range []int{10, 12, 14} {
		if get(50, tau).Mean < get(20, tau).Mean {
			t.Errorf("τ=%d: δ=50 not above δ=20", tau)
		}
	}
	// Longer cycles reduce perceived flicker at the large amplitude.
	if get(50, 14).Mean > get(50, 10).Mean+0.51 {
		t.Errorf("δ=50: τ=14 (%.2f) above τ=10 (%.2f)", get(50, 14).Mean, get(50, 10).Mean)
	}
	// The recommended corner stays satisfactory.
	if get(20, 10).Mean > 1.05 {
		t.Errorf("δ=20 τ=10 rated %.2f, want ≤ 1", get(20, 10).Mean)
	}
}

func TestNaiveDesignsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("flicker panel experiment")
	}
	rows, err := NaiveDesigns(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 5 naive + InFrame", len(rows))
	}
	byName := map[string]NaiveRow{}
	for _, r := range rows {
		byName[r.Scheme] = r
	}
	if byName["normal"].Mean > 0.5 {
		t.Errorf("pure video rated %.2f", byName["normal"].Mean)
	}
	inframe := byName["InFrame (complementary)"].Mean
	for _, name := range []string{"V:D=1:3", "V:D=1:1", "V:D=2:2", "V:D=3:1"} {
		if byName[name].Mean < 2 {
			t.Errorf("naive %s rated %.2f, want >= 2", name, byName[name].Mean)
		}
		if inframe >= byName[name].Mean {
			t.Errorf("InFrame (%.2f) not below naive %s (%.2f)", inframe, name, byName[name].Mean)
		}
	}
}

func TestSmoothingWaveform(t *testing.T) {
	s := SmoothingWaveform()
	if len(s.Raw) == 0 || len(s.Raw) != len(s.Filtered) || len(s.TimeMs) != len(s.Raw) {
		t.Fatal("series shapes inconsistent")
	}
	// The filtered output must be stable: residual ripple well below the
	// raw ±δ swing.
	if s.Ripple >= 20 {
		t.Fatalf("filtered ripple %.2f, want well below the 40 p-p input", s.Ripple)
	}
	var sb strings.Builder
	WriteWaveform(&sb, s)
	if !strings.Contains(sb.String(), "ripple") {
		t.Fatal("WriteWaveform missing summary")
	}
}

func TestEnvelopeAblationOrdering(t *testing.T) {
	rows := EnvelopeAblation()
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]EnvelopeRow{}
	for _, r := range rows {
		byName[r.Shape] = r
	}
	srrc, lin, stair := byName["sqrt-raised-cosine"], byName["linear"], byName["stair"]
	// The un-smoothed stair is clearly worst on every axis; the two smooth
	// shapes land close together (see EnvelopeRow.FlickerAmp docs).
	if srrc.PhantomAmp >= 0.5*stair.PhantomAmp || lin.PhantomAmp >= 0.5*stair.PhantomAmp {
		t.Errorf("smooth shapes not well below stair: srrc=%.3f linear=%.3f stair=%.3f",
			srrc.PhantomAmp, lin.PhantomAmp, stair.PhantomAmp)
	}
	if srrc.FlickerAmp >= stair.FlickerAmp || lin.FlickerAmp >= stair.FlickerAmp {
		t.Errorf("smooth flicker not below stair: srrc=%.3f linear=%.3f stair=%.3f",
			srrc.FlickerAmp, lin.FlickerAmp, stair.FlickerAmp)
	}
	if srrc.LPFRipple >= stair.LPFRipple {
		t.Errorf("srrc LPF ripple %.3f not below stair %.3f", srrc.LPFRipple, stair.LPFRipple)
	}
}

func TestThresholdSweepTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline experiment")
	}
	rows, err := ThresholdSweep(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	// Availability falls as the band widens.
	if rows[0].AvailableRatio <= rows[len(rows)-1].AvailableRatio {
		t.Errorf("availability did not fall with band: %.2f -> %.2f",
			rows[0].AvailableRatio, rows[len(rows)-1].AvailableRatio)
	}
	// The unconditional error mass (erroneous GOBs per transmitted GOB)
	// falls as the band widens; the *conditional* rate can drift either
	// way because the surviving population changes.
	first := float64(rows[0].ErrorRate * rows[0].AvailableRatio)
	last := float64(rows[len(rows)-1].ErrorRate * rows[len(rows)-1].AvailableRatio)
	if last > first+0.01 {
		t.Errorf("unconditional errors rose with band: %.3f -> %.3f", first, last)
	}
}

func TestShutterAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline experiment")
	}
	rows, err := ShutterAblation(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ShutterRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// A pair-spanning exposure kills the channel.
	if byName["exposure 16.7ms (pair)"].ThroughputBps > 0.3*byName["rolling (default)"].ThroughputBps {
		t.Errorf("pair-spanning exposure did not collapse throughput")
	}
	// A global shutter is at least as good as rolling.
	if byName["global shutter"].AvailableRatio < byName["rolling (default)"].AvailableRatio-0.03 {
		t.Errorf("global shutter below rolling availability")
	}
}

func TestNoiseSweepDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline experiment")
	}
	rows, err := NoiseSweep(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	if rows[len(rows)-1].ThroughputBps > rows[0].ThroughputBps {
		t.Errorf("throughput rose with noise: %.0f -> %.0f",
			rows[0].ThroughputBps, rows[len(rows)-1].ThroughputBps)
	}
}

func TestDetectorAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline experiment")
	}
	rows, err := DetectorAblation(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestCodingAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline experiment")
	}
	rows, err := CodingAblation(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	var sb strings.Builder
	WriteCoding(&sb, rows)
	if !strings.Contains(sb.String(), "RS(") {
		t.Fatal("coding table missing RS row")
	}
}

func TestSyncAccuracyConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline experiment")
	}
	rows, err := SyncAccuracy(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	final := rows[len(rows)-1]
	// The template correlator resolves the boundary to a fraction of the
	// data frame period — enough to seed the fine (per-frame) alignment.
	if final.PhaseErrorFrac > 0.2 {
		t.Errorf("phase error %.1f%% of period with %d captures, want <= 20%%",
			100*final.PhaseErrorFrac, final.Captures)
	}
}

func TestBarcodeComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline experiment")
	}
	rows, err := BarcodeComparison(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	inframe, bc := rows[0], rows[1]
	if inframe.ScreenLoss != 0 || bc.ScreenLoss <= 0 {
		t.Errorf("screen loss: inframe %.2f, barcode %.2f", inframe.ScreenLoss, bc.ScreenLoss)
	}
	if inframe.Perceptible || !bc.Perceptible {
		t.Error("perceptibility flags wrong")
	}
	if inframe.ThroughputBps <= bc.ThroughputBps {
		t.Errorf("InFrame %.0f bps not above the corner barcode %.0f bps",
			inframe.ThroughputBps, bc.ThroughputBps)
	}
}

func TestPixelSizeAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("flicker panel experiment")
	}
	rows, err := PixelSizeAblation(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	byPitch := map[int]float64{}
	for _, r := range rows {
		byPitch[r.PitchPaperPx] = r.Mean
	}
	// The paper's p=4 sits at (or near) the minimum of the U.
	if byPitch[4] > byPitch[1]+0.51 || byPitch[4] > byPitch[16]+0.51 {
		t.Errorf("p=4 (%.2f) not near minimal vs p=1 (%.2f) / p=16 (%.2f)",
			byPitch[4], byPitch[1], byPitch[16])
	}
}

func TestRegistrationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline experiment")
	}
	rows, err := Registration(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]RegistrationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["aligned"].NaiveCorrect < 0.8 {
		t.Errorf("aligned naive correct %.2f, want >= 0.8", byName["aligned"].NaiveCorrect)
	}
	for _, name := range []string{"overscan 115%", "shifted overscan"} {
		r := byName[name]
		if r.CalibCorrect < r.NaiveCorrect+0.2 {
			t.Errorf("%s: calibration gain too small (%.2f vs %.2f)",
				name, r.CalibCorrect, r.NaiveCorrect)
		}
		if r.CalibCorrect < 0.7 {
			t.Errorf("%s: calibrated correct %.2f, want >= 0.7", name, r.CalibCorrect)
		}
	}
}

func TestStreamingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline experiment")
	}
	s := fastSetup()
	s.ThroughputSeconds = 3.0 // warm-up excluded; leave enough tail
	rows, err := Streaming(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.AvailableRatio <= 0.3 {
			t.Errorf("%s availability %.2f suspiciously low", r.Receiver, r.AvailableRatio)
		}
	}
}

func TestTradeoffShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline experiment")
	}
	s := fastSetup()
	s.ThroughputSeconds = 1.0
	s.FlickerSeconds = 0.5
	rows, err := Tradeoff(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("got %d points", len(rows))
	}
	get := func(delta float64, tau int) TradeoffRow {
		for _, r := range rows {
			if r.Delta == delta && r.Tau == tau {
				return r
			}
		}
		t.Fatalf("missing point")
		return TradeoffRow{}
	}
	// Rate falls with tau; flicker falls with tau and rises with delta.
	if get(20, 8).ThroughputBps <= get(20, 16).ThroughputBps {
		t.Error("throughput not decreasing in tau")
	}
	if get(40, 8).FlickerMean < get(10, 8).FlickerMean {
		t.Error("flicker not increasing in delta")
	}
	// The paper's recommended region is satisfactory.
	if !get(20, 12).Satisfactory {
		t.Errorf("δ=20 τ=12 rated %.2f, expected satisfactory", get(20, 12).FlickerMean)
	}
	var sb strings.Builder
	WriteTradeoff(&sb, rows)
	if !strings.Contains(sb.String(), "recommended") {
		t.Error("no recommended point emitted")
	}
}

func TestRegistrationAlignedNotDegraded(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline experiment")
	}
	rows, err := Registration(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Name == "aligned" && r.CalibCorrect < r.NaiveCorrect-0.05 {
			t.Fatalf("calibration degraded the aligned camera: %.2f vs %.2f",
				r.CalibCorrect, r.NaiveCorrect)
		}
	}
}

func TestResponseAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline experiment")
	}
	rows, err := ResponseAblation(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ResponseRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	instant := byName["instant pixels (default)"].ThroughputBps
	mid := byName["2ms gray-to-gray"].ThroughputBps
	slow := byName["4ms gray-to-gray"].ThroughputBps
	if !(instant > mid && mid > slow) {
		t.Errorf("throughput not monotone in response time: %v, %v, %v", instant, mid, slow)
	}
}
