package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// compare judges a change against its parent from two sets of run.json
// files, by the rule the benchmark's metric guide sets for a small
// sandbox: runs alternate parent and change, each side reports median
// and quartiles, and
//   - improved: the change wins at least nine tenths of the pairs and
//     the medians differ by more than the parent's quartile spread;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound in BENCHMARK.json;
//   - unresolved: the parent's own spread is wider than the bound and
//     the change does not beat every parent run;
//   - unchanged otherwise.

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
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

func loadSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	dec := json.NewDecoder(strings.NewReader(string(buf)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// judgement is the outcome of one workload × metric comparison.
type judgement struct {
	baseMed, baseQ1, baseQ3 float64
	headMed, headQ1, headQ3 float64
	wins, pairs             int
	verdict                 string
}

// judge applies the rule above. better is "lower" or "higher"; bound is
// the share of the base median the metric may worsen by.
func judge(base, head []float64, better string, bound float64) judgement {
	j := judgement{baseMed: median(base), headMed: median(head)}
	j.baseQ1, j.baseQ3 = quartiles(base)
	j.headQ1, j.headQ3 = quartiles(head)
	sign := 1.0 // positive when head is better
	if better == "lower" {
		sign = -1
	}
	j.pairs = len(base)
	if len(head) < j.pairs {
		j.pairs = len(head)
	}
	for i := 0; i < j.pairs; i++ {
		if sign*(head[i]-base[i]) > 0 {
			j.wins++
		}
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) <= 0 {
				allBetter = false
			}
		}
	}
	scale := math.Abs(j.baseMed)
	spread := j.baseQ3 - j.baseQ1
	gain := sign * (j.headMed - j.baseMed)
	switch {
	case scale > 0 && spread/scale > bound && !allBetter:
		j.verdict = "unresolved"
	case j.pairs > 0 && float64(j.wins) >= 0.9*float64(j.pairs) && gain > spread:
		j.verdict = "improved"
	case scale > 0 && -gain/scale > bound:
		j.verdict = "regressed"
	default:
		j.verdict = "unchanged"
	}
	return j
}

func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	baseList := fs.String("base", "", "comma-separated run.json files of the parent")
	headList := fs.String("head", "", "comma-separated run.json files of the change, in the same pairing order")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e compare: %v\n", err)
		return 2
	}
	base, err := loadRuns(*baseList)
	if err == nil {
		var head []runFile
		if head, err = loadRuns(*headList); err == nil {
			writeComparison(w, spec, base, head)
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "e2e compare: %v\n", err)
	return 2
}

func loadRuns(list string) ([]runFile, error) {
	if list == "" {
		return nil, fmt.Errorf("need -base and -head run files")
	}
	var out []runFile
	for _, p := range strings.Split(list, ",") {
		buf, err := os.ReadFile(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(buf, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, rf)
	}
	return out, nil
}

// paired collects one workload's metric from the i-th base and i-th
// head run, dropping a pair when either run lacks the metric or its
// window was invalid; layers selects the per-layer section instead of
// the end-to-end one.
func paired(base, head []runFile, wl, name string, layers bool) (b, h []float64) {
	get := func(rf runFile) (float64, bool) {
		r := rf.Workloads[wl]
		if r == nil || r.Invalid != "" {
			return 0, false
		}
		src := r.Metrics
		if layers {
			src = r.Layers
		}
		m, ok := src[name]
		return m.Value, ok
	}
	for i := 0; i < len(base) && i < len(head); i++ {
		bv, bok := get(base[i])
		hv, hok := get(head[i])
		if bok && hok {
			b, h = append(b, bv), append(h, hv)
		}
	}
	return b, h
}

// writeComparison prints one row per workload × end-to-end metric with
// its verdict, then the per-layer medians (no bound, no verdict).
func writeComparison(w io.Writer, spec *benchSpec, base, head []runFile) {
	wls := map[string]bool{}
	for _, rf := range append(append([]runFile(nil), base...), head...) {
		for name := range rf.Workloads {
			wls[name] = true
		}
	}
	names := make([]string, 0, len(wls))
	for n := range wls {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-28s %12s %25s %12s %25s %7s  %s\n",
		"workload", "metric", "base p50", "base [q1,q3]", "head p50", "head [q1,q3]", "wins", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			b, h := paired(base, head, wl, m.Name, false)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			j := judge(b, h, m.Better, m.Bound)
			fmt.Fprintf(w, "%-14s %-28s %12.5g %25s %12.5g %25s %7s  %s (bound %g)\n", wl, m.Name,
				j.baseMed, fmt.Sprintf("[%.5g, %.5g]", j.baseQ1, j.baseQ3),
				j.headMed, fmt.Sprintf("[%.5g, %.5g]", j.headQ1, j.headQ3),
				fmt.Sprintf("%d/%d", j.wins, j.pairs), j.verdict, m.Bound)
		}
		for _, m := range spec.PerLayer {
			b, h := paired(base, head, wl, m.Name, true)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-14s %-28s %12.5g %25s %12.5g %25s %7s  layer\n", wl, m.Name,
				median(b), "", median(h), "", "")
		}
	}
}
