package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenRuns are full CLI invocations whose byte-exact output is pinned
// under testdata/. Every run is seeded, so any diff is a real behaviour
// change — rerun with -update to accept one deliberately.
var goldenRuns = []struct {
	name string
	args []string
}{
	{name: "clean_report", args: []string{
		"-scale", "2", "-seconds", "0.8", "-seed", "5", "-report"}},
	{name: "impaired_report", args: []string{
		"-scale", "2", "-seconds", "0.8", "-seed", "5", "-report",
		"-impair-seed", "9", "-drop", "0.25", "-jitter", "0.0002"}},
	{name: "message", args: []string{
		"-scale", "2", "-seconds", "0.3", "-seed", "5", "-message", "hello inframe"}},
}

func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline CLI runs")
	}
	for _, tc := range goldenRuns {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			if stderr.Len() != 0 {
				t.Fatalf("unexpected stderr: %s", stderr.String())
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output diverged from %s\n--- got ---\n%s--- want ---\n%s",
					path, stdout.String(), string(want))
			}
		})
	}
}

// TestRunDeterministic reruns one seeded invocation and requires
// byte-identical output, independent of the worker count.
func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline CLI runs")
	}
	base := []string{"-scale", "4", "-seconds", "0.8", "-seed", "5", "-report",
		"-impair-seed", "9", "-drop", "0.2"}
	outputs := make([]string, 0, 3)
	for _, workers := range []string{"1", "1", "3"} {
		var stdout, stderr bytes.Buffer
		args := append(append([]string{}, base...), "-workers", workers)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("workers=%s: exit %d, stderr: %s", workers, code, stderr.String())
		}
		outputs = append(outputs, stdout.String())
	}
	if outputs[0] != outputs[1] {
		t.Error("identical invocations produced different output")
	}
	if outputs[0] != outputs[2] {
		t.Error("worker count changed the output")
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
		{name: "bad occlude", args: []string{"-occlude", "0.1,0.2"}, code: 2, errWants: "-occlude wants x,y,w,h"},
		{name: "bad impair", args: []string{"-drop", "1.5"}, code: 1, errWants: "DropRate"},
		{name: "NaN drift", args: []string{"-drift-ppm", "NaN"}, code: 1, errWants: "ClockDriftPPM"},
		{name: "NaN drop", args: []string{"-drop", "NaN"}, code: 1, errWants: "DropRate"},
		{name: "unknown video", args: []string{"-video", "plasma"}, code: 1, errWants: `unknown video "plasma"`},
		{name: "odd tau", args: []string{"-tau", "7"}, code: 1, errWants: "Tau"},
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
		})
	}
}
