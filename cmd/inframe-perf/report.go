package main

import (
	"fmt"
	"io"
	"strconv"
)

// metric and result are the last output line's schema.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// entry is one reported metric. Declared metrics are the pass's metrics in
// BENCHMARK.json and always carry a value; extras belong to a layer only some
// workloads run and are n/a elsewhere.
type entry struct {
	name, unit string
	value      float64
	na         bool
	declared   bool
	note       string
}

// report is one pass over one workload.
type report struct {
	workload          string
	trace             int
	correct           bool
	attempted, failed int
	entries           []entry
}

func (r *report) add(name, unit string, v float64, note string) {
	r.entries = append(r.entries, entry{name: name, unit: unit, value: v, declared: true, note: note})
}

func (r *report) extra(name, unit string, v float64, ok bool, note string) {
	r.entries = append(r.entries, entry{name: name, unit: unit, value: v, na: !ok, note: note})
}

// print writes one line per metric:
//
//	metric <name> <value|n/a> <unit> <declared|extra> [note]
func (r *report) print(w io.Writer) {
	for _, e := range r.entries {
		v, kind := "n/a", "extra"
		if !e.na {
			v = strconv.FormatFloat(e.value, 'g', -1, 64)
		}
		if e.declared {
			kind = "declared"
		}
		fmt.Fprintf(w, "metric %s %s %s %s", e.name, v, e.unit, kind)
		if e.note != "" {
			fmt.Fprintf(w, " (%s)", e.note)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %t\n", r.attempted, r.failed, r.correct)
}

// result is the last output line: the declared metrics only.
func (r *report) result() result {
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, e := range r.entries {
		if e.declared {
			res.Metrics[e.name] = metric{Value: e.value, Unit: e.unit}
		}
	}
	return res
}

// fileReport is the -json file: every metric of every run, n/a as null.
type fileReport struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	NumCPU  int       `json:"nproc"`
	Runs    []runJSON `json:"runs"`
}

type runJSON struct {
	Workload  string     `json:"workload"`
	Trace     int        `json:"trace"`
	Correct   bool       `json:"correct"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Lines     []lineJSON `json:"metrics"`
}

type lineJSON struct {
	Name     string   `json:"name"`
	Value    *float64 `json:"value"`
	Unit     string   `json:"unit"`
	Declared bool     `json:"declared"`
}

func (r *report) full() runJSON {
	run := runJSON{Workload: r.workload, Trace: r.trace, Correct: r.correct, Attempted: r.attempted, Failed: r.failed}
	for _, e := range r.entries {
		l := lineJSON{Name: e.name, Unit: e.unit, Declared: e.declared}
		if !e.na {
			v := e.value
			l.Value = &v
		}
		run.Lines = append(run.Lines, l)
	}
	return run
}
