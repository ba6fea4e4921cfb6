package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// figure is one workload-specific number the report prints beside the
// result's metrics: a class p50, a ladder rung, a traffic share.
type figure struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// report collects what a run prints to standard error and writes as
// its JSON report.
type report struct {
	figures []figure
	notes   [][2]string
}

func (p *report) add(name string, v float64, unit, note string) {
	p.figures = append(p.figures, figure{name, v, unit, note})
}

func (p *report) note(key, val string) { p.notes = append(p.notes, [2]string{key, val}) }

// print renders the report: the run's identity and checks, its
// workload figures, and its result metrics, each per-layer metric with
// the end-to-end metric it should move.
func (p *report) print(w io.Writer, r *run, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(w, "perfbench %s seed=%d window=%s traced=%v\n", r.workload, r.seed, r.window, r.traced)
	fmt.Fprintf(w, "  operations: %d attempted, %d failed, %d wrong answers\n", r.attempted, r.failed, r.wrongs)
	for _, m := range r.errs {
		fmt.Fprintf(w, "  failure: %s\n", m)
	}
	for _, n := range p.notes {
		fmt.Fprintf(w, "  %s: %s\n", n[0], n[1])
	}
	fmt.Fprintf(w, "  workload figures:\n")
	for _, f := range p.figures {
		fmt.Fprintf(w, "    %-28s %14.4f %-8s %s\n", f.Name, f.Value, f.Unit, f.Note)
	}
	if r.traced {
		fmt.Fprintf(w, "  per-layer metrics (layer → end-to-end metric it should move):\n")
	} else {
		fmt.Fprintf(w, "  end-to-end metrics:\n")
	}
	for _, d := range defs {
		extra := ""
		if d.layer != "" {
			extra = d.layer + " → " + d.moves
		}
		fmt.Fprintf(w, "    %-28s %14.4f %-8s %s\n", d.name, vals[d.name], d.unit, extra)
	}
}

// write saves the report as JSON.
func (p *report) write(path string, r *run, vals map[string]float64) error {
	notes := map[string]string{}
	for _, n := range p.notes {
		notes[n[0]] = n[1]
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b, err := json.MarshalIndent(map[string]any{
		"workload": r.workload, "seed": r.seed, "window_s": r.window.Seconds(), "traced": r.traced,
		"attempted": r.attempted, "failed": r.failed, "wrong_answers": r.wrongs, "failures": r.errs,
		"notes": notes, "figures": p.figures, "metrics": vals,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
