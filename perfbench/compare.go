package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// The comparator reads two result sets — the concatenated output of several
// runs each, typically the parent commit and a change, run alternately —
// and judges every metric by the rule the benchmark is accepted under:
//
//   - each side's median and quartiles;
//   - the share of pairs (run i of one side against run i of the other)
//     the new side wins, ties counting for neither;
//   - "improved" only when the new side wins at least nine tenths of the
//     pairs and the medians differ by more than the old side's
//     interquartile distance;
//   - "regressed" when the new median is worse than the old by more than
//     the metric's bound from BENCHMARK.json;
//   - "unresolved" when either side's spread (interquartile distance over
//     median) is wider than the bound, unless every new run beats every
//     old run: such a metric is neither unchanged nor regressed, it is not
//     known.
//
// Per-layer metrics carry no bound; they are reported as "improved" or
// "not gated".

// runResult is one run read back from a result set.
type runResult struct {
	env     envHeader
	metrics map[string]float64
	correct bool
}

// readResults parses a result set: every line holding an "env" object
// starts a run, and the next result line (one with "metrics") ends it.
func readResults(r io.Reader) ([]runResult, error) {
	var out []runResult
	var env envHeader
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Env     *envHeader             `json:"env"`
			Correct *bool                  `json:"correct"`
			Metrics map[string]metricValue `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // not a result line: build output, notes
		}
		switch {
		case line.Env != nil:
			env = *line.Env
		case line.Metrics != nil && line.Correct != nil:
			rr := runResult{env: env, correct: *line.Correct, metrics: map[string]float64{}}
			for k, v := range line.Metrics {
				rr.metrics[k] = v.Value
			}
			out = append(out, rr)
		}
	}
	return out, sc.Err()
}

// judgement is the comparator's finding for one metric on one workload.
type judgement struct {
	OldMed, OldQ1, OldQ3 float64
	NewMed, NewQ1, NewQ3 float64
	Pairs                int
	Won                  float64 // share of pairs the new side won
	Verdict              string
}

// judge applies the rule above. better is "higher" or "lower"; bound is
// the metric's regression bound as a share of the old median (0: none).
func judge(old, new []float64, better string, bound float64) judgement {
	j := judgement{OldMed: median(old), NewMed: median(new)}
	j.OldQ1, j.OldQ3 = quartiles(old)
	j.NewQ1, j.NewQ3 = quartiles(new)
	lower := better == "lower"
	beats := func(a, b float64) bool { // a is better than b
		if lower {
			return a < b
		}
		return a > b
	}
	j.Pairs = min(len(old), len(new))
	won := 0
	for i := 0; i < j.Pairs; i++ {
		if beats(new[i], old[i]) {
			won++
		}
	}
	if j.Pairs > 0 {
		j.Won = float64(won) / float64(j.Pairs)
	}
	allBetter := len(old) > 0 && len(new) > 0
	for _, n := range new {
		for _, o := range old {
			if !beats(n, o) {
				allBetter = false
			}
		}
	}
	gain := j.Won >= 0.9 && beats(j.NewMed, j.OldMed) && math.Abs(j.NewMed-j.OldMed) > j.OldQ3-j.OldQ1
	worse := false
	if lower {
		worse = j.NewMed > j.OldMed+bound*math.Abs(j.OldMed)
	} else {
		worse = j.NewMed < j.OldMed-bound*math.Abs(j.OldMed)
	}
	switch {
	case bound == 0 && gain:
		j.Verdict = "improved"
	case bound == 0:
		j.Verdict = "not gated"
	case (spread(old) > bound || spread(new) > bound) && !allBetter:
		j.Verdict = "unresolved"
	case gain:
		j.Verdict = "improved"
	case worse:
		j.Verdict = "regressed"
	default:
		j.Verdict = "unchanged"
	}
	return j
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD NEW")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	sets := make([][]runResult, 2)
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
			return 2
		}
		sets[i], err = readResults(f)
		_ = f.Close() // read-only
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: read %s: %v\n", path, err)
			return 2
		}
	}
	regressed, err := writeComparison(stdout, spec, sets[0], sets[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

// writeComparison prints one row per (workload, metric) present on both
// sides and reports whether any metric regressed.
func writeComparison(w io.Writer, spec *benchSpec, old, new []runResult) (bool, error) {
	metrics := map[string]metricSpec{}
	for _, m := range spec.EndToEnd {
		metrics[m.Name] = m
	}
	for _, m := range spec.PerLayer {
		m.Bound = 0
		metrics[m.Name] = m
	}
	group := func(rs []runResult) map[string][]runResult {
		g := map[string][]runResult{}
		for _, r := range rs {
			g[r.env.Workload] = append(g[r.env.Workload], r)
		}
		return g
	}
	og, ng := group(old), group(new)
	var names []string
	for wl := range og {
		if ng[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no workload appears in both result sets")
	}
	for _, d := range envDifferences(old, new) {
		fmt.Fprintf(w, "warning: %s\n", d)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median [q1, q3]\tnew median [q1, q3]\tpairs won\tverdict")
	regressed := false
	for _, wl := range names {
		o, n := og[wl], ng[wl]
		for _, side := range [][]runResult{o, n} {
			for _, r := range side {
				if !r.correct {
					fmt.Fprintf(tw, "%s\t(correct=false in a run)\t\t\t\tincorrect\n", wl)
					regressed = true
				}
			}
		}
		var keys []string
		for k := range o[0].metrics {
			if _, ok := n[0].metrics[k]; ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			m, ok := metrics[k]
			if !ok {
				continue
			}
			j := judge(values(o, k), values(n, k), m.Better, m.Bound)
			if j.Verdict == "regressed" {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%.0f%% of %d\t%s\n",
				wl, k, m.Unit, j.OldMed, j.OldQ1, j.OldQ3, j.NewMed, j.NewQ1, j.NewQ3, 100*j.Won, j.Pairs, j.Verdict)
		}
	}
	return regressed, tw.Flush()
}

func values(rs []runResult, k string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.metrics[k])
	}
	return out
}

// envDifferences lists machine facts that differ between the two sets: a
// comparison across machines or toolchains measures the machines too.
func envDifferences(old, new []runResult) []string {
	facts := func(rs []runResult) map[string]map[string]bool {
		f := map[string]map[string]bool{"cpu": {}, "nproc": {}, "gomaxprocs": {}, "go_version": {}, "seconds": {}}
		for _, r := range rs {
			f["cpu"][r.env.CPU] = true
			f["nproc"][fmt.Sprint(r.env.NProc)] = true
			f["gomaxprocs"][fmt.Sprint(r.env.GOMAXPROCS)] = true
			f["go_version"][r.env.GoVersion] = true
			f["seconds"][fmt.Sprint(r.env.Seconds)] = true
		}
		return f
	}
	of, nf := facts(old), facts(new)
	var out []string
	for _, k := range []string{"cpu", "nproc", "gomaxprocs", "go_version", "seconds"} {
		if !sameKeys(of[k], nf[k]) || len(of[k]) > 1 {
			out = append(out, fmt.Sprintf("%s differs: old %v, new %v", k, keys(of[k]), keys(nf[k])))
		}
	}
	return out
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
