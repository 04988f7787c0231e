// Command inframe-perf is the end-to-end benchmark of the InFrame pipeline:
// four workloads, each timed end to end in an untraced pass and broken down
// per layer in a separate traced pass.
//
//	go run . [-workload all|<name>] [-seed 1] [-seconds 10] [-trace 0|1] [-json out.json] [-spans spans.json]
//
// One workload runs in this process: -trace 0 times episodes back to back
// after set-up and warm-up and prints the end-to-end metrics; -trace 1
// alternates untraced and traced episodes and prints the per-layer metrics.
// -workload all re-executes the command once per workload and pass, one
// child at a time, so no workload inherits another's heap. Every line but
// the last is for people; the last line is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 1 when any
// output fails its correctness check.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	jsonPath  string
	spansPath string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inframe-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed; episode e uses seed+e for payload, camera noise and impairments")
	fs.Float64Var(&o.seconds, "seconds", 10, "minimum wall time of the measured pass, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.StringVar(&o.jsonPath, "json", "", "also write every metric, n/a ones included, to this JSON file")
	fs.StringVar(&o.spansPath, "spans", "", "write the traced pass's spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.trace < 0 || o.trace > 1 || !(o.seconds > 0) {
		fmt.Fprintln(stderr, "inframe-perf: usage: [-workload all|<name>] [-seed n] [-seconds s] [-trace 0|1] [-json file] [-spans file]")
		return 2
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "inframe-perf: unknown workload %q (use all, %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	fmt.Fprintf(stdout, "workload %s seed %d trace %d seconds %g nproc %d gomaxprocs %d %s\n",
		w.name, o.seed, o.trace, o.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var rep *report
	var err error
	if o.trace == 0 {
		rep, err = untracedPass(w, o.seed, o.seconds, stdout)
	} else {
		var tr *tracer
		rep, tr, err = tracedPass(w, o.seed, o.seconds, stdout)
		if err == nil && o.spansPath != "" {
			err = writeJSON(o.spansPath, tr.spans)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "inframe-perf: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout)
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, fileReport{Seed: o.seed, Seconds: o.seconds, NumCPU: runtime.NumCPU(), Runs: []runJSON{rep.full()}}); err != nil {
			fmt.Fprintf(stderr, "inframe-perf: %v\n", err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(rep.result()); err != nil {
		return 1
	}
	if !rep.correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runAll re-executes this binary for every workload, untraced pass then
// traced pass, one child at a time, passing each child's output through.
// The last line merges the children's results, with metric names prefixed
// by the workload.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "inframe-perf: %v\n", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	file := fileReport{Seed: o.seed, Seconds: o.seconds, NumCPU: runtime.NumCPU()}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
			if trace == 1 && o.spansPath != "" {
				ext := filepath.Ext(o.spansPath)
				args = append(args, "-spans", strings.TrimSuffix(o.spansPath, ext)+"."+w.name+ext)
			}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = io.MultiWriter(stdout, &out)
			cmd.Stderr = stderr
			runErr := cmd.Run()
			child, parseErr := parseChild(out.Bytes(), w.name, trace)
			if runErr != nil || parseErr != nil {
				fmt.Fprintf(stderr, "inframe-perf: %s trace %d: %v\n", w.name, trace, errors.Join(runErr, parseErr))
				all.Correct = false
				if parseErr != nil {
					continue
				}
			}
			file.Runs = append(file.Runs, child)
			all.Correct = all.Correct && child.Correct
			all.Attempted += child.Attempted
			all.Failed += child.Failed
			for _, e := range child.Lines {
				if e.Value != nil && e.Declared {
					all.Metrics[w.name+"."+e.Name] = metric{Value: *e.Value, Unit: e.Unit}
				}
			}
		}
	}
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, file); err != nil {
			fmt.Fprintf(stderr, "inframe-perf: %v\n", err)
			all.Correct = false
		}
	}
	if err := json.NewEncoder(stdout).Encode(all); err != nil || !all.Correct {
		return 1
	}
	return 0
}

// parseChild reads a child's metric lines and final result line.
func parseChild(out []byte, workload string, trace int) (runJSON, error) {
	run := runJSON{Workload: workload, Trace: trace}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) != "" {
			last = line
		}
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != "metric" {
			continue
		}
		e := lineJSON{Name: f[1], Unit: f[3], Declared: len(f) > 4 && f[4] == "declared"}
		if f[2] != "n/a" {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return run, fmt.Errorf("metric line %q: %w", line, err)
			}
			e.Value = &v
		}
		run.Lines = append(run.Lines, e)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return run, fmt.Errorf("no result line: %w", err)
	}
	run.Correct, run.Attempted, run.Failed = res.Correct, res.Attempted, res.Failed
	return run, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
