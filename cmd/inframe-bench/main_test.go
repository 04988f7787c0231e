package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"inframe/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenExps are the -exp groups whose printed tables are pinned under
// testdata/<exp>.golden, each run at the command's defaults. The fleet's
// pool line counts buffer misses and the high-water mark, which depend on
// how captures interleave across workers, so its golden runs sequentially;
// every other table is bit-identical at any worker count.
var goldenExps = []struct {
	exp  string
	args []string
}{
	{exp: "fig3"},
	{exp: "fig5"},
	{exp: "fig6a"},
	{exp: "fig6b"},
	{exp: "fig7"},
	{exp: "ablations"},
	{exp: "robustness"},
	{exp: "pose"},
	{exp: "fleet", args: []string{"-workers", "1"}},
}

// wallTime matches the printed lines that measure wall-clock time rather
// than the simulation: each section's "(N.Ns)" footer and the fleet's
// receivers/sec headline.
var wallTime = regexp.MustCompile(`(?m)^(\(\d+\.\ds\)|receivers/sec: .*)\n`)

// TestGoldenTables reruns every experiment group of the paper's evaluation
// and requires its tables, wall-time lines stripped, to equal the committed
// goldens byte for byte: any moved digit is a behaviour change. Rerun with
// -update to accept one deliberately, and quote the new tables in
// EXPERIMENTS.md. The full rerun takes about two minutes on two cores.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline experiment reruns")
	}
	if raceEnabled {
		t.Skip("minutes under the race detector; the worker-invariance tests race this code")
	}
	for _, tc := range goldenExps {
		t.Run(tc.exp, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-exp", tc.exp}, tc.args...)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			got := wallTime.ReplaceAll(stdout.Bytes(), nil)
			path := filepath.Join("testdata", tc.exp+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("tables diverged from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestSpeedupDecodes requires the speedup report to time a link that
// decodes: a camera that blurs the half-scale chessboard away would time
// two all-erased decodes and still call them bit-identical.
func TestSpeedupDecodes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline runs")
	}
	s := experiments.DefaultSetup()
	s.ThroughputSeconds = 1
	var out bytes.Buffer
	if err := speedupReport(&out, s); err != nil {
		t.Fatal(err)
	}
	var avail float64
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "available: "); ok {
			if _, err := fmt.Sscan(rest, &avail); err != nil {
				t.Fatalf("unparsable availability line %q: %v", line, err)
			}
		}
	}
	if avail < 0.5 {
		t.Errorf("availability %.4f < 0.5 over the standard link\n%s", avail, out.String())
	}
	if !strings.Contains(out.String(), "outputs bit-identical: yes") {
		t.Errorf("no bit-identity verdict\n%s", out.String())
	}
}

func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		code     int
		errWants string
	}{
		{name: "unknown flag", args: []string{"-no-such-flag"}, code: 2, errWants: "flag provided but not defined"},
		{name: "negative workers", args: []string{"-workers", "-1"}, code: 1, errWants: "Workers must be non-negative"},
		{name: "unknown experiment", args: []string{"-exp", "bogus"}, code: 1, errWants: `unknown experiment "bogus"`},
		{name: "zero seconds", args: []string{"-exp", "speedup", "-seconds", "0"}, code: 1, errWants: "durations must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.errWants) {
				t.Errorf("stderr %q missing %q", stderr.String(), tc.errWants)
			}
			if stdout.Len() != 0 {
				t.Errorf("unexpected stdout: %s", stdout.String())
			}
		})
	}
}
