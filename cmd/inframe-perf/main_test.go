package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/frame"
)

// poseFixture is the homography CalibrateProjective solves for
// pose-tilt30's calibration transmission, which is the same in every run.
// Tests use it to skip the blind solve, which takes about 20 s;
// TestPoseFixtureIsTheSolve checks it when not in -short mode.
var poseFixture = frame.Homography{M: [9]float64{
	1.3429949110179933, 0.18357219005196032, -50.49116882968963,
	-0.005645845004421541, 1.2287795018550776, 19.48893833573328,
	-1.738417528699743e-05, 0.0002495741165308103, 0.94095939267444,
}}

// small returns workload name cut down to one timed episode and one traced
// pair, with the pose fixture in place of the blind solve.
func small(t *testing.T, name string) spec {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.quality, w.setups, w.pairs = 1, 1, 1
	if w.calibrate {
		w.pose = &poseFixture
	}
	return w
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// checkDeclared fails unless the report emits exactly the declared metrics,
// each with its declared unit.
func checkDeclared(t *testing.T, rep *report, names, units []string) {
	t.Helper()
	got := rep.result().Metrics
	for i, name := range names {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", rep.workload, name)
			continue
		}
		if m.Unit != units[i] {
			t.Errorf("%s: %s unit %q, declared %q", rep.workload, name, m.Unit, units[i])
		}
	}
	if len(got) != len(names) {
		t.Errorf("%s: emitted %d declared metrics, BENCHMARK.json lists %d", rep.workload, len(got), len(names))
	}
}

// TestBenchmarkFileMatchesWorkloads pins BENCHMARK.json's workload list to
// the command's table.
func TestBenchmarkFileMatchesWorkloads(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, command %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) == 0 || bf.EndToEnd[0].Name != "setup_s" {
		t.Errorf("end_to_end must start with setup_s")
	}
}

// TestEndToEndMetricsEmitted runs every workload's untraced pass at its
// smallest size and checks the end-to-end contract.
func TestEndToEndMetricsEmitted(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names, units []string
	for _, m := range bf.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	for _, w := range workloads {
		rep, err := untracedPass(small(t, w.name), 1, 1e-3, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.correct || rep.failed != 0 || rep.attempted != 1 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d", w.name, rep.correct, rep.attempted, rep.failed)
		}
		checkDeclared(t, rep, names, units)
		for name, m := range rep.result().Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
			}
		}
	}
}

// TestTracedPassMatchesUntraced is the parity gate: for every workload one
// episode through the traced sequential run and through the library's
// own entry point (channel.Simulate, fleet.Run) must decode to the same
// digest with identical RenderStats, and the per-layer contract must hold.
func TestTracedPassMatchesUntraced(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names, units []string
	for _, m := range bf.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	for _, w := range workloads {
		var log bytes.Buffer
		rep, tr, err := tracedPass(small(t, w.name), 1, 1e-3, &log)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.correct || rep.failed != 0 {
			t.Errorf("%s: traced pass failed: %s", w.name, log.String())
		}
		checkDeclared(t, rep, names, units)
		if len(tr.open) != 0 {
			t.Errorf("%s: %d spans left open", w.name, len(tr.open))
		}
		for _, s := range tr.spans {
			if s.EndNs < s.StartNs {
				t.Errorf("%s: span %s ends before it starts", w.name, s.Name)
			}
		}
	}
}

// TestLegacyGateConfigFails documents the failure rule on the committed
// EndToEnd baseline's link: channel.DefaultConfig(640, 360) keeps the
// camera's optical blur (BlurRadius 1) at half scale, which erases the
// chessboard, so every GOB is unavailable and the episode counts as failed.
func TestLegacyGateConfigFails(t *testing.T) {
	b, err := setup(small(t, "clean-gray"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 7} {
		stream := core.NewRandomStream(b.layout, seed)
		m, err := core.NewMultiplexer(b.params, b.src, stream)
		if err != nil {
			t.Fatal(err)
		}
		cfg := channel.DefaultConfig(640, 360)
		cfg.Camera.Seed = seed
		cfg.Pool = b.pool
		res, err := channel.Simulate(m, displayFrames, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := b.decode(res.Captures, res.Times, res.Exposure, nil)
		res.Recycle(b.pool)
		if err != nil {
			t.Fatal(err)
		}
		ep.stream = stream
		if o := b.score(ep); o.avail > 0 || o.fail == "" {
			t.Errorf("seed %d: legacy config avail=%v fail=%q, want a failed episode with avail 0", seed, o.avail, o.fail)
		}
	}
}

// TestSeedDeterminism: the same seed reproduces avail, ber and the decode
// digest; another seed transmits another payload and decodes differently.
func TestSeedDeterminism(t *testing.T) {
	b, err := setup(small(t, "clean-gray"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var first outcome
	for i := 0; i < 2; i++ {
		ep, err := b.run(5)
		if err != nil {
			t.Fatal(err)
		}
		o := b.score(ep)
		if i == 0 {
			first = o
			continue
		}
		if o.digest != first.digest || o.wrong != first.wrong || o.decided != first.decided || o.avail != first.avail {
			t.Errorf("seed 5 twice: digest %x/%x avail %v/%v", first.digest, o.digest, first.avail, o.avail)
		}
	}
	ep, err := b.run(11)
	if err != nil {
		t.Fatal(err)
	}
	if b.score(ep).digest == first.digest {
		t.Error("seeds 5 and 11 decode to the same digest")
	}
}

// TestPoseFixtureIsTheSolve runs the blind solve once and compares it with
// the fixture the other tests use.
func TestPoseFixtureIsTheSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("blind pose solve takes about 20 s")
	}
	w, _ := workloadByName("pose-tilt30")
	b, err := setup(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.warp != poseFixture {
		t.Errorf("solved pose %v, fixture %v", b.warp.M, poseFixture.M)
	}
}

// TestResultLine checks the last output line's schema and the flag errors.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nosuch"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if code := run([]string{"-trace", "2"}, &out, &errOut); code != 2 {
		t.Errorf("-trace 2: exit %d, want 2", code)
	}
	rep := &report{workload: "x", correct: true, attempted: 3}
	rep.add("setup_s", "s", 0.5, "")
	rep.extra("impair.frame_ms", "ms", 0, false, "")
	var buf bytes.Buffer
	rep.print(&buf)
	if err := json.NewEncoder(&buf).Encode(rep.result()); err != nil {
		t.Fatal(err)
	}
	run, err := parseChild(buf.Bytes(), "x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Correct || run.Attempted != 3 || len(run.Lines) != 2 || run.Lines[1].Value != nil || !run.Lines[0].Declared {
		t.Errorf("parsed %+v", run)
	}
	var res map[string]json.RawMessage
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok || len(res) != 4 {
			t.Errorf("result line keys %v, want exactly correct/attempted/failed/metrics", res)
		}
	}
}
