package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f func(float64) float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f(x)
		}
		return out
	}
	wide := []float64{50, 150, 60, 140, 100, 70, 130, 80, 120, 90}
	cases := []struct {
		name     string
		old, new []float64
		better   string
		bound    float64
		want     string
		wantWon  float64
	}{
		{"faster throughput", base, shift(base, func(x float64) float64 { return x + 20 }), "higher", 0.1, "improved", 1},
		{"slower throughput beyond bound", base, shift(base, func(x float64) float64 { return x * 0.8 }), "higher", 0.1, "regressed", 0},
		{"slower within bound", base, shift(base, func(x float64) float64 { return x * 0.95 }), "higher", 0.1, "unchanged", 0},
		{"noise only", base, []float64{101, 100, 100, 99, 101, 99, 101, 100, 100, 99}, "higher", 0.1, "unchanged", 0.5},
		{"spread wider than bound", wide, shift(wide, func(x float64) float64 { return x * 0.97 }), "higher", 0.1, "unresolved", 0},
		{"wide but every new run better", []float64{10, 14, 18, 12, 16}, []float64{30, 38, 34, 32, 36}, "higher", 0.1, "improved", 1},
		{"lower latency", base, shift(base, func(x float64) float64 { return x - 30 }), "lower", 0.15, "improved", 1},
		{"higher latency", base, shift(base, func(x float64) float64 { return x * 1.3 }), "lower", 0.15, "regressed", 0},
		{"wins most pairs but within the old spread", base, shift(base, func(x float64) float64 { return x + 0.5 }), "higher", 0.1, "unchanged", 1},
		{"per-layer, no bound", base, shift(base, func(x float64) float64 { return x * 2 }), "lower", 0, "not gated", 0},
	}
	for _, c := range cases {
		j := judge(c.old, c.new, c.better, c.bound)
		if j.Verdict != c.want || j.Won != c.wantWon {
			t.Errorf("%s: verdict %q won %.2f, want %q won %.2f (%+v)", c.name, j.Verdict, j.Won, c.want, c.wantWon, j)
		}
	}
}

func TestCompareResultSets(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}}
	set := func(vals ...string) string {
		var b strings.Builder
		for _, v := range vals {
			b.WriteString(`{"env":{"workload":"sweep","cpu":"x","nproc":2,"gomaxprocs":2,"go_version":"go1"}}` + "\n")
			b.WriteString(`{"detail":{}}` + "\n")
			b.WriteString(`{"correct":true,"attempted":1,"failed":0,"metrics":{"ops_per_s":{"value":` + v + `,"unit":"1/s"}}}` + "\n")
		}
		return b.String()
	}
	old, err := readResults(strings.NewReader("go: building\n" + set("100", "101", "99", "100")))
	if err != nil || len(old) != 4 {
		t.Fatalf("readResults: %d runs, %v", len(old), err)
	}
	slow, _ := readResults(strings.NewReader(set("70", "71", "69", "70")))
	var buf bytes.Buffer
	regressed, err := writeComparison(&buf, spec, old, slow)
	if err != nil || !regressed || !strings.Contains(buf.String(), "regressed") {
		t.Errorf("regressed=%v err=%v\n%s", regressed, err, buf.String())
	}
	buf.Reset()
	regressed, err = writeComparison(&buf, spec, old, old)
	if err != nil || regressed || !strings.Contains(buf.String(), "unchanged") {
		t.Errorf("same sets: regressed=%v err=%v\n%s", regressed, err, buf.String())
	}
}
