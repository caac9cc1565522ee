// Command perfbench is the repository benchmark. It runs one workload for a
// fixed time from inputs derived from a seed, checks every output against
// the workload's correctness gate, and prints one JSON result line naming
// every metric with its unit. The metric names, units and regression bounds
// live in BENCHMARK.json at the repository root; README.md in this
// directory says why each workload exists and which layers it bypasses.
//
//	perfbench --workload instances --seed 1 --seconds 20 --trace 0
//	perfbench compare old.txt new.txt
//
// A run repeats the workload: each repetition builds a fresh system (a
// loopback cluster, a grid, a set of verdicts) from the seed, drives it to
// completion, and tears it down. The repetitions of the first second warm
// the process and are discarded; the figures are medians over the rest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"kset/internal/prng"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one benchmark workload: run performs one repetition, layers
// (optional) derives the span-based per-layer metrics once every traced
// repetition has finished.
type workload struct {
	run    func(c *repCtx) rep
	layers func(tr *tracer, out map[string]float64)
}

var workloads = map[string]workload{
	"instances":  {run: runInstances, layers: instancesLayers},
	"acs-crash":  {run: runACSCrash, layers: acsLayers},
	"sweep":      {run: runSweep, layers: sweepLayers},
	"exhaustive": {run: runExhaustive},
}

// repCtx is what one repetition receives: its own seed (a pure function of
// the run seed and the repetition index), the tracer (nil on untraced
// repetitions), and the heap/goroutine sampler running across it.
type repCtx struct {
	seed     uint64
	tr       *tracer
	sampler  *sampler
	deadline time.Time // every operation must finish before this

	allocBase uint64        // heap bytes allocated before the measured phase
	cpuBase   time.Duration // process CPU time before the measured phase
}

// beginPhase and endPhase bracket a repetition's measured phase; endPhase
// returns the heap bytes the process allocated within it and the CPU time
// it used. Each reads the cumulative allocation count right after a
// collection, which flushes the per-processor allocation caches into it, so
// the count is exact; the CPU reads sit inside the collections, so the
// forced collections are not counted. Both run outside the timed window.
func (c *repCtx) beginPhase() {
	runtime.GC()
	c.allocBase = heapAllocs()
	c.cpuBase = processCPU()
}

func (c *repCtx) endPhase() (allocs uint64, cpu time.Duration) {
	cpu = processCPU() - c.cpuBase
	runtime.GC()
	return heapAllocs() - c.allocBase, cpu
}

// processCPU is the CPU time the process has used, user and system. On a
// virtual machine the kernel leaves out the time the host gave this
// machine's processors to other guests (steal), which wall time includes.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rep is the outcome of one repetition.
type rep struct {
	setup   time.Duration // building the system and inputs, probe included
	elapsed time.Duration // the measured phase
	ops     int           // operations completed in the measured phase
	allocs  uint64        // heap bytes allocated in the measured phase
	cpu     time.Duration // process CPU time used in the measured phase
	lat     samples       // one latency per completed operation (CPU time on exhaustive)
	gate    tally         // correctness gate, one check per operation
	layer   map[string]float64
	notes   map[string]any // per-run facts for the detail line
	// peakHeap and peakGoroutines are filled in by the framework from the
	// sampler.
	peakHeap       uint64
	peakGoroutines int64
}

// opTimeout bounds a repetition: every operation must finish within this
// of the repetition's start, or it fails its gate.
const opTimeout = 30 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o     options
		trace int
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.IntVar(&o.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out := measure(w, o)
	if err := report(stdout, spec, o, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// outcome is everything a run measured.
type outcome struct {
	measured []rep // untraced repetitions: the end-to-end figures
	traced   []rep // traced repetitions (--trace 1 only)
	gate     tally // every repetition's gate, warm-up included
	warmups  int
	layer    map[string]float64
}

// warmup is how long a run repeats the workload before measuring: long
// enough for a few repetitions of every workload, so the heap has grown,
// the code is paged in and every lazy initialisation has run.
const warmup = time.Second

// measure warms up and then repeats the workload until the time is spent.
// A traced run alternates untraced and traced repetitions, so the two
// halves see the same conditions and their difference is the tracing
// overhead.
func measure(w workload, o options) outcome {
	var out outcome
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	start := time.Now()
	end := start.Add(time.Duration(o.seconds) * time.Second)
	// At least one measured repetition (and one traced repetition in a
	// traced run), however short the run.
	minReps := 1
	if o.trace {
		minReps = 2
	}
	var last time.Duration
	for i := 0; ; i++ {
		warming := i == 0 || time.Since(start) < warmup
		m := len(out.measured) + len(out.traced)
		if !warming && m >= minReps && time.Now().Add(last).After(end) {
			break
		}
		traced := o.trace && !warming && m%2 == 1
		var rtr *tracer
		if traced {
			rtr = tr
		}
		repStart := time.Now()
		r := runRep(w, o.seed, i, rtr)
		last = time.Since(repStart)
		out.gate.add(r.gate)
		switch {
		case warming:
			out.warmups++
		case traced:
			out.traced = append(out.traced, r)
		default:
			out.measured = append(out.measured, r)
		}
		if r.gate.failed > 0 {
			break // the gate already failed; more repetitions prove nothing
		}
	}
	if o.trace {
		out.layer = medianLayers(out.traced)
		out.layer["cluster.goroutines.peak"] = float64(maxGoroutines(out.traced))
		if w.layers != nil {
			w.layers(tr, out.layer)
		}
		out.layer["trace.overhead_pct"] = overheadPct(out.measured, out.traced)
		// The latency tail is an end-to-end figure whose run-to-run spread
		// is too wide to gate on, so it is reported here, from the untraced
		// repetitions, whenever the sample supports p99.
		if lat := pooled(out.measured); supported(9900, len(lat)) {
			out.layer["latency_p99_ms"] = ms(lat.percentile(9900))
		}
		// Wall-clock throughput, likewise: on a shared host it follows the
		// time other guests take from this machine's processors.
		plain, _ := e2e(out.measured)
		out.layer["ops_per_wall_s"] = plain["ops_per_wall_s"]
	}
	return out
}

func runRep(w workload, seed uint64, i int, tr *tracer) rep {
	runtime.GC() // start every repetition from the live heap only
	c := &repCtx{
		seed:     prng.MixSeed(seed, uint64(i)),
		tr:       tr,
		sampler:  startSampler(),
		deadline: time.Now().Add(opTimeout),
	}
	r := w.run(c)
	r.peakHeap, r.peakGoroutines = c.sampler.stop()
	return r
}

// e2e computes the end-to-end figures over a set of repetitions.
func e2e(reps []rep) (map[string]float64, timing) {
	var rates, cpuRates, setups, heaps, allocs []float64
	for _, r := range reps {
		if r.elapsed > 0 {
			rates = append(rates, float64(r.ops)/r.elapsed.Seconds())
		}
		if r.cpu > 0 {
			cpuRates = append(cpuRates, float64(r.ops)/r.cpu.Seconds())
		}
		if r.ops > 0 {
			allocs = append(allocs, float64(r.allocs)/1024/float64(r.ops))
		}
		setups = append(setups, r.setup.Seconds())
		heaps = append(heaps, float64(r.peakHeap)/(1<<20))
	}
	t := summarize(pooled(reps))
	return map[string]float64{
		"ops_per_wall_s":  median(rates),
		"ops_per_cpu_s":   median(cpuRates),
		"latency_p50_ms":  t.P50ms,
		"setup_s":         median(setups),
		"peak_heap_mb":    median(heaps),
		"alloc_kb_per_op": median(allocs),
	}, t
}

func pooled(reps []rep) samples {
	var lat samples
	for _, r := range reps {
		lat = append(lat, r.lat...)
	}
	return lat
}

// overheadPct is how much slower the traced repetitions ran than the
// untraced ones, in percent of the untraced median throughput per
// CPU-second.
func overheadPct(plain, traced []rep) float64 {
	p, _ := e2e(plain)
	t, _ := e2e(traced)
	if p["ops_per_cpu_s"] == 0 {
		return 0
	}
	return 100 * (p["ops_per_cpu_s"] - t["ops_per_cpu_s"]) / p["ops_per_cpu_s"]
}

// medianLayers takes, per layer metric, the median over repetitions.
func medianLayers(reps []rep) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range reps {
		for k, v := range r.layer {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

func maxGoroutines(reps []rep) int64 {
	var m int64
	for _, r := range reps {
		if r.peakGoroutines > m {
			m = r.peakGoroutines
		}
	}
	return m
}

// metricSpec and benchSpec mirror the parts of BENCHMARK.json the
// benchmark reads: metric names with units, and the bounds the comparator
// applies.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// specPath is the benchmark definition, relative to the repository root
// that every run starts from.
const specPath = "BENCHMARK.json"

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envHeader describes the machine and the run, so a result set can be read
// (and compared) without knowing where it came from.
type envHeader struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Reps       int    `json:"reps"`
	WarmupReps int    `json:"warmup_reps"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// report prints the environment header, a detail line, and the result.
func report(w io.Writer, spec *benchSpec, o options, out outcome) error {
	plain, lat := e2e(out.measured)
	plain["ops_ok_ratio"] = 1 - out.gate.failedRatio()
	reps := len(out.measured) + len(out.traced)
	env := envHeader{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Reps: reps, WarmupReps: out.warmups,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(),
	}
	detail := map[string]any{
		"latency":          lat,
		"ops_failed_ratio": out.gate.failedRatio(),
		"ops_per_wall_s":   plain["ops_per_wall_s"],
		"notes":            mergeNotes(out.measured, out.traced),
	}
	if out.gate.firstErr != "" {
		detail["first_failure"] = out.gate.firstErr
	}
	res := result{
		Correct:   out.gate.failed == 0 && out.gate.attempted > 0,
		Attempted: out.gate.attempted,
		Failed:    out.gate.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	if o.trace {
		traced, _ := e2e(out.traced)
		over := map[string]float64{}
		for k, v := range traced {
			over[k] = v - plain[k]
		}
		detail["traced_minus_untraced"] = over
		out.layer["ops_failed_ratio"] = out.gate.failedRatio()
		for _, m := range spec.PerLayer {
			v, ok := out.layer[m.Name]
			if !ok {
				missing = append(missing, m.Name)
			}
			res.Metrics[m.Name] = metricValue{Value: finite(v), Unit: m.Unit}
		}
		detail["not_measured_on_this_workload"] = missing
	} else {
		for _, m := range spec.EndToEnd {
			v, ok := plain[m.Name]
			if !ok {
				return fmt.Errorf("end-to-end metric %q has no measurement", m.Name)
			}
			res.Metrics[m.Name] = metricValue{Value: finite(v), Unit: m.Unit}
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		return err
	}
	if err := enc.Encode(map[string]any{"detail": detail}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// finite maps the values JSON cannot carry to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// mergeNotes keeps the last repetition's value of every note; notes are
// facts that repeat exactly (grid size, configuration count).
func mergeNotes(sets ...[]rep) map[string]any {
	out := map[string]any{}
	for _, reps := range sets {
		for _, r := range reps {
			for k, v := range r.notes {
				out[k] = v
			}
		}
	}
	return out
}

// cpuModel names the processor from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
