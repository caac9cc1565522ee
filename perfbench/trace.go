package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer; parent is the 1-based index of the
// enclosing span, 0 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Duration // since the tracer's origin
}

// tracer keeps every span in memory until the run ends. The benchmark
// records spans only from its own files, around its calls into the
// program; a nil tracer records nothing, which is how untraced
// repetitions run.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id for end (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// durations returns the durations of every closed span with this name.
func (t *tracer) durations(name string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// layerTime is a layer's call count and self time over all its spans.
type layerTime struct {
	calls int
	self  time.Duration
}

// selfTimes computes, per span name, the self time: each span's duration
// minus the part of its interval that its child spans cover (children may
// overlap when they run in parallel, so their union is subtracted, not
// their sum).
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.parent != 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		lt := out[s.name]
		lt.calls++
		lt.self += s.end - s.start - covered(s.start, s.end, children[i+1])
		out[s.name] = lt
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the spans.
func covered(lo, hi time.Duration, spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB time.Duration
	open := false
	for _, v := range iv {
		if open && v[0] <= curB {
			curB = max(curB, v[1])
			continue
		}
		if open {
			sum += curB - curA
		}
		curA, curB, open = v[0], v[1], true
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// sampler polls the heap goal, the goroutine count and an optional probe
// (a workload's queue-depth gauges) across one repetition and keeps each
// peak. It reads runtime/metrics, which does not stop the world.
//
// The heap figure is the collector's goal — the heap size the collector
// lets the process reach before the next collection, twice the live heap
// after the last one, or the runtime's 4 MiB floor. Sampling the heap
// itself catches each collection cycle at a random phase, and on a heap
// that cycles every few milliseconds the peak read that way varied by 40%
// between runs; the goal is fixed between collections, so its peak
// repeats.
type sampler struct {
	probeMu   sync.Mutex // held across every probe call
	probe     func() int64
	probePeak atomic.Int64
	heap      atomic.Uint64
	goros     atomic.Int64
	quit      chan struct{}
	done      chan struct{}
}

// sampleEvery is the polling interval: short against a repetition (a
// second or so), long enough that polling costs nothing measurable.
const sampleEvery = 2 * time.Millisecond

func startSampler() *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

// setProbe installs a gauge to sample alongside heap and goroutines. The
// returned func removes it; once that returns no probe call is running or
// will start, so a workload calls it before tearing down what the probe
// reads.
func (s *sampler) setProbe(f func() int64) (clear func()) {
	s.probeMu.Lock()
	s.probe = f
	s.probeMu.Unlock()
	return func() {
		s.probeMu.Lock()
		s.probe = nil
		s.probeMu.Unlock()
	}
}

// sampleProbe runs the probe, if one is installed, and keeps its peak.
func (s *sampler) sampleProbe() {
	s.probeMu.Lock()
	defer s.probeMu.Unlock()
	if s.probe == nil {
		return
	}
	if v := s.probe(); v > s.probePeak.Load() {
		s.probePeak.Store(v)
	}
}

func (s *sampler) loop() {
	defer close(s.done)
	ms := []metrics.Sample{
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		metrics.Read(ms)
		if v := ms[0].Value.Uint64(); v > s.heap.Load() {
			s.heap.Store(v)
		}
		if v := int64(ms[1].Value.Uint64()); v > s.goros.Load() {
			s.goros.Store(v)
		}
		s.sampleProbe()
		select {
		case <-s.quit:
			return
		case <-tick.C:
		}
	}
}

// heapPeak is the largest heap seen so far.
func (s *sampler) heapPeak() uint64 { return s.heap.Load() }

// stop ends sampling and returns the heap and goroutine peaks.
func (s *sampler) stop() (heap uint64, goroutines int64) {
	close(s.quit)
	<-s.done
	return s.heap.Load(), s.goros.Load()
}
