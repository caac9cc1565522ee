package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		q, n int
		want bool
	}{
		{9900, 1000, true}, // rank 990: exactly ten samples beyond
		{9900, 999, false}, // rank 990: nine beyond
		{5000, 20, true},
		{5000, 19, false},
		{9990, 10000, true},
		{9990, 9999, false},
		{5000, 0, false},
	}
	for _, c := range cases {
		if got := supported(c.q, c.n); got != c.want {
			t.Errorf("supported(%d, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
	rungs := map[int]int{19: 0, 20: 5000, 99: 5000, 100: 9000, 999: 9000, 1000: 9900, 9999: 9900, 10000: 9990, 1 << 20: 9990}
	for n, want := range rungs {
		if got := tailRung(n); got != want {
			t.Errorf("tailRung(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSummarizeStatesCountAndTail(t *testing.T) {
	var s samples
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	got := summarize(s)
	want := timing{Count: 1000, P50ms: 500, Tail: "p99", TailMs: 990}
	if got != want {
		t.Errorf("summarize(1..1000 ms) = %+v, want %+v", got, want)
	}
	if got := summarize(s[:15]); got.Tail != "" || got.Count != 15 {
		t.Errorf("15 samples support no percentile, got %+v", got)
	}
	if got := rungName(9990); got != "p99.9" {
		t.Errorf("rungName(9990) = %q", got)
	}
}

// The reference values come from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2.5}, 1.375, 4.75},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTallyFailureRatio(t *testing.T) {
	var a tally
	a.check(nil)
	a.check(errors.New("first"))
	a.check(nil)
	a.check(errors.New("second"))
	if a.attempted != 4 || a.failed != 2 || a.firstErr != "first" || a.failedRatio() != 0.5 {
		t.Errorf("tally = %+v, ratio %v", a, a.failedRatio())
	}
	var b tally
	b.check(nil)
	b.add(a)
	if b.attempted != 5 || b.failed != 2 || b.firstErr != "first" {
		t.Errorf("added tally = %+v", b)
	}
	if r := (tally{}).failedRatio(); r != 1 {
		t.Errorf("a run that attempted nothing has ratio %v, want 1", r)
	}
}

// TestReportAccountsFailures drives the result line end to end: failures
// make the run incorrect and show in attempted, failed and ops_ok_ratio.
func TestReportAccountsFailures(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	reps := []rep{{setup: time.Second, elapsed: time.Second, ops: 3, lat: samples{time.Millisecond}}}
	out := outcome{measured: reps}
	out.gate.check(nil)
	out.gate.check(nil)
	out.gate.check(nil)
	out.gate.check(errors.New("agreement violated"))
	var buf bytes.Buffer
	if err := report(&buf, spec, options{workload: "exhaustive", seed: 7, seconds: 1}, out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 4 || res.Failed != 1 {
		t.Errorf("result = %+v, want incorrect with 1 of 4 failed", res)
	}
	if got := res.Metrics["ops_ok_ratio"].Value; got != 0.75 {
		t.Errorf("ops_ok_ratio = %v, want 0.75", got)
	}
	if !strings.Contains(lines[0], `"seed":7`) || !strings.Contains(lines[0], `"gomaxprocs"`) {
		t.Errorf("environment header missing fields: %s", lines[0])
	}
}

// TestSpecMatchesMeasurements keeps BENCHMARK.json and the code in step:
// every end-to-end metric the definition names is one the run measures, and
// every figure the run measures is named there, gated or per layer.
func TestSpecMatchesMeasurements(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	measured, _ := e2e(nil)
	measured["ops_ok_ratio"] = 0
	named := map[string]bool{}
	for _, m := range spec.EndToEnd {
		named[m.Name] = true
		if _, ok := measured[m.Name]; !ok {
			t.Errorf("BENCHMARK.json names %q, which no run measures", m.Name)
		}
	}
	for _, m := range spec.PerLayer {
		named[m.Name] = true
	}
	for name := range measured {
		if !named[name] {
			t.Errorf("runs measure %q, which BENCHMARK.json does not name", name)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, w := range raw.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	// A 10 ms parent with two overlapping children covering [1, 6) and one
	// child reaching past the parent's end.
	tr.spans = []span{
		{name: "grid.cell", start: ms(0), end: ms(10)},
		{name: "mpnet.run", parent: 1, start: ms(1), end: ms(4)},
		{name: "mpnet.run", parent: 1, start: ms(3), end: ms(6)},
		{name: "checker.check", parent: 1, start: ms(9), end: ms(12)},
	}
	got := tr.selfTimes()
	if lt := got["grid.cell"]; lt.self != ms(4) || lt.calls != 1 {
		t.Errorf("parent = %+v, want self 4ms of 10ms", lt)
	}
	if lt := got["mpnet.run"]; lt.self != ms(6) || lt.calls != 2 {
		t.Errorf("leaf = %+v, want self 6ms over 2 calls", lt)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	nilTracer.end(0)
}

// The sampler must not call a probe once its clear func has returned: the
// workloads clear the probe and then close the nodes it reads.
func TestSamplerProbeClearedBeforeTeardown(t *testing.T) {
	s := startSampler()
	defer s.stop()
	var calls, after atomic.Int64
	torn := atomic.Bool{}
	clear := s.setProbe(func() int64 {
		if torn.Load() {
			after.Add(1)
		}
		return calls.Add(1)
	})
	for calls.Load() < 3 {
		time.Sleep(sampleEvery)
	}
	clear()
	torn.Store(true)
	time.Sleep(5 * sampleEvery)
	if n := after.Load(); n != 0 {
		t.Fatalf("probe called %d times after clear returned", n)
	}
	if s.probePeak.Load() < 3 {
		t.Fatalf("probe peak %d, want at least 3", s.probePeak.Load())
	}
}
