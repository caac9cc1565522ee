package main

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"kset/internal/acs"
	"kset/internal/cluster"
	"kset/internal/prng"
	"kset/internal/types"
	"kset/internal/wire"
)

// The acs-crash workload: an ACS engine on each of 4 loopback nodes with
// t=1, node 3 crashed before any load, values submitted round-robin to the
// three survivors by two closed-loop submitters with a bounded window of
// uncommitted values each. The value count is part of the definition: the
// links queue every frame for the dead peer, so the per-value cost grows
// with the number of values sent, and a different count is a different
// workload.
const (
	acsNodes      = 4
	acsT          = 1
	acsCrashed    = 3
	acsValues     = 1000
	acsSubmitters = 2
	// acsWindow bounds each submitter's uncommitted values, so at most
	// acsSubmitters*acsWindow rounds are open at once.
	acsWindow = 4
)

func runACSCrash(c *repCtx) rep {
	r := rep{layer: map[string]float64{}}
	rng := prng.New(c.seed)
	// Distinct values (the gate finds each exactly once in the log); the
	// extra one is the set-up probe.
	base := types.Value(rng.Uint64() >> 24)
	values := make([]types.Value, acsValues+1)
	for i := range values {
		values[i] = base + types.Value(i)
	}

	t0 := time.Now()
	engines := make([]*acs.Engine, acsNodes)
	var attachErr error
	var mu sync.Mutex
	lb, err := cluster.StartLoopback(cluster.LoopbackConfig{
		N: acsNodes, K: acsT + 1, T: acsT, Seed: c.seed,
		Attach: func(n *cluster.Node) {
			e, err := acs.New(acs.Config{Node: n})
			mu.Lock()
			defer mu.Unlock()
			if err != nil && attachErr == nil {
				attachErr = err
			}
			engines[n.ID()] = e
		},
	})
	if err == nil {
		err = attachErr
	}
	if err != nil {
		r.gate.check(fmt.Errorf("start acs cluster: %w", err))
		return r
	}
	defer lb.Close()
	lb.Crash(acsCrashed)
	var survivors []*acs.Engine
	var nodes []*cluster.Node
	for i, e := range engines {
		if i != acsCrashed {
			survivors = append(survivors, e)
			nodes = append(nodes, lb.Nodes[i])
		}
	}
	// The probe value brings the survivors' links up before timing starts.
	round, err := survivors[0].Submit(values[acsValues])
	if err != nil {
		r.gate.check(fmt.Errorf("submit probe value: %w", err))
		return r
	}
	for !committed(survivors, round) {
		if time.Now().After(c.deadline) {
			r.gate.check(fmt.Errorf("probe round %d not closed at deadline", round))
			return r
		}
		time.Sleep(pollEvery)
	}
	r.setup = time.Since(t0)

	var statBase, countBase map[string]int64
	closedBase := survivors[0].Closed()
	if c.tr != nil {
		statBase = sumStats(nodes)
		countBase = acsCounters(nodes)
		// Cleared before the deferred teardown closes the nodes it reads.
		defer c.sampler.setProbe(func() int64 { return maxMailboxDepth(nodes) })()
	}

	// errs[i] is the gate outcome of value i; each submitter writes only
	// its own indices.
	errs := make([]error, acsValues)
	subsOut := make([]acsSubmitter, acsSubmitters)
	c.beginPhase()
	var wg sync.WaitGroup
	for w := range subsOut {
		s := &subsOut[w]
		*s = acsSubmitter{engines: survivors, tr: c.tr, errs: errs, deadline: c.deadline}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.run(values, w)
		}(w)
	}
	wg.Wait()

	var submitted []time.Time
	var first, last time.Time
	for _, s := range subsOut {
		first, last = minTime(first, s.first), maxTime(last, s.last)
		r.lat = append(r.lat, s.lat...)
		r.ops += len(s.lat)
		submitted = append(submitted, s.submitted...)
	}
	r.elapsed = last.Sub(first)
	r.allocs, r.cpu = c.endPhase()

	gateErrs := verifyLogs(survivors, values, errs)
	for _, err := range gateErrs {
		r.gate.check(err)
	}

	if c.tr != nil {
		acsLayerMetrics(r.layer, nodes, survivors[0].Closed()-closedBase, statBase, countBase, submitted, c)
	}
	return r
}

// committed reports whether every survivor has closed round.
func committed(engines []*acs.Engine, round uint64) bool {
	for _, e := range engines {
		if e.Closed() < round {
			return false
		}
	}
	return true
}

// acsSubmitter is one closed-loop client. It submits value i to survivor
// i mod 3 while it has fewer than acsWindow values uncommitted, and
// otherwise waits for a commit: the value's round closed on every
// survivor.
type acsSubmitter struct {
	engines  []*acs.Engine
	tr       *tracer
	errs     []error
	deadline time.Time

	pending     []pendingValue
	lat         samples
	submitted   []time.Time
	first, last time.Time
}

type pendingValue struct {
	idx   int
	round uint64
	t0    time.Time
}

func (s *acsSubmitter) run(values []types.Value, w int) {
	next := w
	for next < acsValues || len(s.pending) > 0 {
		if next < acsValues && len(s.pending) < acsWindow {
			s.submit(next, values[next])
			next += acsSubmitters
			continue
		}
		if time.Now().After(s.deadline) {
			for _, p := range s.pending {
				s.errs[p.idx] = fmt.Errorf("value %d (round %d) uncommitted at deadline", p.idx, p.round)
			}
			for ; next < acsValues; next += acsSubmitters {
				s.errs[next] = fmt.Errorf("value %d never submitted: deadline", next)
			}
			return
		}
		time.Sleep(pollEvery)
		s.reap()
	}
}

func (s *acsSubmitter) submit(idx int, v types.Value) {
	t0 := time.Now()
	if s.first.IsZero() {
		s.first = t0
	}
	s.submitted = append(s.submitted, t0)
	sp := s.tr.begin("acs.submit", 0)
	round, err := s.engines[idx%len(s.engines)].Submit(v)
	s.tr.end(sp)
	if err != nil {
		s.errs[idx] = fmt.Errorf("submit value %d: %w", idx, err)
		return
	}
	s.pending = append(s.pending, pendingValue{idx: idx, round: round, t0: t0})
	s.reap()
}

// reap retires every pending value whose round has closed everywhere.
func (s *acsSubmitter) reap() {
	kept := s.pending[:0]
	for _, p := range s.pending {
		if !committed(s.engines, p.round) {
			kept = append(kept, p)
			continue
		}
		now := time.Now()
		s.lat = append(s.lat, now.Sub(p.t0))
		s.last = now
	}
	s.pending = kept
}

// verifyLogs is the workload's correctness gate, one outcome per value
// plus the probe (and one failure per log entry nobody submitted): every
// survivor's log must be identical, entry for entry, and hold every
// submitted value exactly once.
func verifyLogs(engines []*acs.Engine, values []types.Value, errs []error) []error {
	out := append([]error(nil), errs...)
	out = append(out, nil) // the probe value
	logs := make([][]wire.LogEntry, len(engines))
	for i, e := range engines {
		logs[i] = fullLog(e)
	}
	pos := make(map[types.Value][]int, len(values))
	for i, ent := range logs[0] {
		pos[ent.Value] = append(pos[ent.Value], i)
	}
	submitted := make(map[types.Value]bool, len(values))
	for _, v := range values {
		submitted[v] = true
	}
	for _, ent := range logs[0] {
		if !submitted[ent.Value] {
			out = append(out, fmt.Errorf("log holds value %d that nobody submitted", ent.Value))
		}
	}
	identical := true
	for i := 1; i < len(logs); i++ {
		if !reflect.DeepEqual(logs[i], logs[0]) {
			identical = false
		}
	}
	for i, v := range values {
		if out[i] != nil {
			continue
		}
		switch {
		case len(pos[v]) != 1:
			out[i] = fmt.Errorf("value %d appears %d times in the log", i, len(pos[v]))
		case !identical:
			out[i] = fmt.Errorf("survivor logs differ")
		}
	}
	return out
}

// fullLog reads an engine's whole ordered log, window by window.
func fullLog(e *acs.Engine) []wire.LogEntry {
	var out []wire.LogEntry
	for {
		w := e.LogWindow(uint64(len(out)), wire.MaxLogEntries)
		out = append(out, w.Entries...)
		if len(w.Entries) == 0 || uint64(len(out)) >= w.Total {
			return out
		}
	}
}

// acsCounters sums the engine counters over the survivors.
func acsCounters(nodes []*cluster.Node) map[string]int64 {
	out := map[string]int64{}
	for _, n := range nodes {
		reg := n.Metrics()
		for _, name := range []string{"kset_acs_noops_proposed_total", "kset_acs_relays_total"} {
			out[name] += reg.Counter(name).Value()
		}
	}
	return out
}

func acsLayerMetrics(out map[string]float64, nodes []*cluster.Node, closed uint64, statBase, countBase map[string]int64, submitted []time.Time, c *repCtx) {
	clusterLayers(out, nodes, statBase, acsValues, 0, c)
	now := acsCounters(nodes)
	if rounds := float64(closed); rounds > 0 {
		out["acs.values_per_round"] = acsValues / rounds
		out["acs.noops_per_round"] = float64(now["kset_acs_noops_proposed_total"]-countBase["kset_acs_noops_proposed_total"]) / rounds
		out["acs.relays_per_round"] = float64(now["kset_acs_relays_total"]-countBase["kset_acs_relays_total"]) / rounds
	}
	out["acs.round_latency_p50_ms"] = mergedQuantile(nodes, "kset_acs_round_latency_seconds", 0.5)
	out["acs.round_latency_p99_ms"] = mergedQuantile(nodes, "kset_acs_round_latency_seconds", 0.99)
	out["acs.rate_decay"] = rateDecay(submitted)
	out["acs.heap_mb_per_kvalue"] = float64(c.sampler.heapPeak()) / (1 << 20) / (acsValues / 1000.0)
}

// rateDecay is the submission rate over the last tenth of submissions
// divided by the rate over the first tenth. In a closed loop the
// submission rate is the commit rate, so below 1 means values got slower
// as the run went on.
func rateDecay(ts []time.Time) float64 {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	n := len(ts) / 10
	if n < 2 {
		return 0
	}
	firstDur := ts[n-1].Sub(ts[0])
	lastDur := ts[len(ts)-1].Sub(ts[len(ts)-n])
	if firstDur <= 0 || lastDur <= 0 {
		return 0
	}
	return firstDur.Seconds() / lastDur.Seconds()
}

// acsLayers adds the span-derived metric: the time inside Engine.Submit.
func acsLayers(tr *tracer, out map[string]float64) {
	out["acs.submit_us.p50"] = us(tr.durations("acs.submit").percentile(5000))
}

func minTime(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}
