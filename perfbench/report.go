package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, human-readable notes and correctness
// problems. Any problem makes the run incorrect.
type report struct {
	workload  string
	metrics   map[string]metric
	order     []string
	notes     []string
	problems  []string
	attempted int
	failed    int
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("%s is not a finite number (%v)", name, v)
		v = 0
	}
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// absent sets metrics a workload does not exercise to 0 and says why.
func (r *report) absent(names []string, why string) {
	for _, n := range names {
		r.set(n, 0, unitOf(n))
	}
	r.note("0 on %s: %s — %s", r.workload, strings.Join(names, ", "), why)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints the human-readable report and then the result line, which
// carries exactly the metrics of want (the end-to-end list for untraced
// runs, the per-layer list for traced runs).
func (r *report) emit(w io.Writer, want []metricDef, host hostInfo) resultLine {
	fmt.Fprintf(w, "workload %s  host %s\n", r.workload, host)
	for _, n := range r.order {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	out := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range want {
		m, ok := r.metrics[d.name]
		if !ok {
			r.problem("metric %s was not measured", d.name)
			continue
		}
		if m.Unit != d.unit {
			r.problem("metric %s has unit %s, want %s", d.name, m.Unit, d.unit)
		}
		out.Metrics[d.name] = m
	}
	if out.Attempted < 1 {
		r.problem("no operation was attempted")
		out.Attempted = 1
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
	out.Correct = len(r.problems) == 0
	b, _ := json.Marshal(out) // float64 and string fields only; cannot fail
	fmt.Fprintf(w, "%s\n", b)
	return out
}

// writeArtifact writes the run's full record (host, every metric, notes,
// problems, and any extra payload such as spans) to dir.
func writeArtifact(dir, name string, payload any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(payload); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
