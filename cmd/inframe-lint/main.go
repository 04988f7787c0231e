// Command inframe-lint runs the repository's custom static-analysis suite
// (internal/analysis): a registry of analyzers that enforce the pipeline's
// determinism, ownership, clamp, float-comparison and concurrency
// invariants across every non-test package of the module.
//
// Usage:
//
//	inframe-lint [-list] [-only name[,name...]] [-format text|json|sarif] [-timings] [packages]
//
// The package pattern is accepted for familiarity (verify.sh invokes
// `inframe-lint ./...`) but the tool always loads and checks the whole
// module — the invariants are global, and partial runs would let a
// violation hide in an unchecked package.
//
// -only restricts the run to a comma-separated subset of the registry
// (use -list for the names); directives naming analyzers outside the
// subset are neither unknown nor stale in such a run. Whatever the
// subset, diagnostics come from the same module-wide summary fixpoint
// as a full run, so a subset's findings are always a slice of the full
// run's.
//
// -format json emits a {registry, counts, findings} object on stdout:
// the analyzer registry that ran, per-analyzer finding counts (zero
// entries included, so CI trend lines never lose a series), and the
// findings as {analyzer, file, line, message} records. The default text
// output and the exit codes are unchanged.
//
// -format sarif emits a SARIF 2.1.0 log on stdout — one run, one rule
// per registered analyzer, one result per finding with module-relative
// file URIs — for upload to code-scanning services.
//
// -timings prints a per-analyzer wall-clock attribution table on
// stderr after the run (the shared summary fixpoint appears as its own
// "summaries" row), composing with any -format on stdout.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 load/type-check or
// usage failure (an unknown flag or -format value, or an -only value that
// is empty or names an unknown analyzer). Suppress a single finding with a
// trailing or preceding comment:
//
//	//lint:ignore <analyzer> <reason>
//
// A directive that no longer suppresses anything is itself reported.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"inframe/internal/analysis"
)

// jsonFinding is the machine-readable shape of one diagnostic.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Message  string `json:"message"`
}

// jsonReport is the -format json output: the registry that ran, the
// per-analyzer finding counts (zeros included), and the findings.
type jsonReport struct {
	Registry []string       `json:"registry"`
	Counts   map[string]int `json:"counts"`
	Findings []jsonFinding  `json:"findings"`
}

// sarifLog is a minimal SARIF 2.1.0 document: one run of one tool.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// config is one parsed invocation.
type config struct {
	list bool
	// only holds the -only value split at commas; nil when -only was not
	// given, so an empty value ("-only=", or -only last) is told apart from
	// none and rejected instead of selecting the whole registry.
	only    []string
	format  string
	dir     string
	timings bool
	// unknown lists the flags parseArgs did not recognize, space-separated
	// in the order given; run rejects a non-empty list.
	unknown string
}

func main() {
	os.Exit(run(parseArgs(os.Args[1:]), os.Stdout, os.Stderr))
}

// parseArgs parses flags without the global flag set so run stays
// testable; it records unknown flags in cfg.unknown, and run rejects them.
func parseArgs(args []string) config {
	cfg := config{format: "text", dir: "."}
	i := 0
	next := func() string {
		if i+1 < len(args) {
			i++
			return args[i]
		}
		return ""
	}
	for ; i < len(args); i++ {
		arg := strings.TrimPrefix(args[i], "-")
		arg = strings.TrimPrefix(arg, "-")
		switch {
		case args[i] == arg:
			// Package patterns (./...) are accepted and ignored: the tool
			// always checks the whole module.
		case arg == "list":
			cfg.list = true
		case arg == "only":
			cfg.only = strings.Split(next(), ",")
		case strings.HasPrefix(arg, "only="):
			cfg.only = strings.Split(strings.TrimPrefix(arg, "only="), ",")
		case arg == "format":
			cfg.format = next()
		case strings.HasPrefix(arg, "format="):
			cfg.format = strings.TrimPrefix(arg, "format=")
		case arg == "timings":
			cfg.timings = true
		default:
			cfg.unknown = strings.TrimSpace(cfg.unknown + " " + args[i])
		}
	}
	return cfg
}

// run executes one lint invocation and returns the process exit code.
func run(cfg config, stdout, stderr io.Writer) int {
	if cfg.unknown != "" {
		fmt.Fprintf(stderr, "inframe-lint: unknown flag(s) %s (use -list, -only, -format or -timings)\n", cfg.unknown)
		return 2
	}
	if cfg.format != "text" && cfg.format != "json" && cfg.format != "sarif" {
		fmt.Fprintf(stderr, "inframe-lint: unknown format %q (use text, json or sarif)\n", cfg.format)
		return 2
	}

	analyzers, err := selectAnalyzers(cfg.only)
	if err != nil {
		fmt.Fprintln(stderr, "inframe-lint:", err)
		return 2
	}

	if cfg.list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	mod, err := analysis.LoadModule(cfg.dir)
	if err != nil {
		fmt.Fprintln(stderr, "inframe-lint:", err)
		return 2
	}
	var diags []analysis.Diagnostic
	if cfg.timings {
		var timings []analysis.AnalyzerTiming
		diags, timings = analysis.RunTimed(mod, analyzers, time.Now)
		var total time.Duration
		for _, tm := range timings {
			fmt.Fprintf(stderr, "inframe-lint: timing %-14s %8.1fms\n", tm.Name, float64(tm.Elapsed)/1e6)
			total += tm.Elapsed
		}
		fmt.Fprintf(stderr, "inframe-lint: timing %-14s %8.1fms\n", "total", float64(total)/1e6)
	} else {
		diags = analysis.Run(mod, analyzers)
	}

	switch cfg.format {
	case "sarif":
		if err := writeSARIF(stdout, mod.Root, analyzers, diags); err != nil {
			fmt.Fprintln(stderr, "inframe-lint:", err)
			return 2
		}
	case "json":
		report := jsonReport{
			Registry: make([]string, 0, len(analyzers)),
			Counts:   make(map[string]int, len(analyzers)+1),
			Findings: make([]jsonFinding, 0, len(diags)),
		}
		for _, a := range analyzers {
			report.Registry = append(report.Registry, a.Name)
			report.Counts[a.Name] = 0
		}
		for _, d := range diags {
			report.Counts[d.Analyzer]++
			report.Findings = append(report.Findings, jsonFinding{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "inframe-lint:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "inframe-lint: %d finding(s) across %d analyzer(s)\n", len(diags), len(analyzers))
		return 1
	}
	return 0
}

// writeSARIF renders the findings as a SARIF 2.1.0 log: one run, one
// rule per registered analyzer, one result per diagnostic. File URIs
// are module-relative (uriBaseId SRCROOT) so the log uploads cleanly
// from any checkout location.
func writeSARIF(w io.Writer, root string, analyzers []*analysis.Analyzer, diags []analysis.Diagnostic) error {
	driver := sarifDriver{
		Name:  "inframe-lint",
		Rules: make([]sarifRule, 0, len(analyzers)),
	}
	for _, a := range analyzers {
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		uri := d.Pos.Filename
		if rel, err := filepath.Rel(root, uri); err == nil && !strings.HasPrefix(rel, "..") {
			uri = rel
		}
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{
						URI:       filepath.ToSlash(uri),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// selectAnalyzers resolves -only against the registry: nil (no -only)
// selects everything, and a list naming no analyzer is an error.
func selectAnalyzers(only []string) ([]*analysis.Analyzer, error) {
	all := analysis.DefaultAnalyzers()
	if only == nil {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range only {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("-only names unknown analyzer %q (use -list for the registry)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-only selected no analyzers (give comma-separated names; use -list for the registry)")
	}
	return out, nil
}
