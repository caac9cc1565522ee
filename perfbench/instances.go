package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"kset/internal/cluster"
	"kset/internal/obs"
	"kset/internal/prng"
	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// The instances workload: FloodMin with k=1, t=0 on a 3-node loopback
// cluster, no faults, no injected delay, driven by two closed-loop
// submitters. Each repetition is a fresh cluster and a fixed instance
// count, so every repetition does the same work.
const (
	instNodes      = 3
	instPerRep     = 2000
	instSubmitters = 2
	// firstInstance is the probe instance run during set-up; the measured
	// instances follow it.
	firstInstance = 1
)

func runInstances(c *repCtx) rep {
	r := rep{layer: map[string]float64{}}
	inputs := instanceInputs(prng.New(c.seed), instPerRep+1)

	t0 := time.Now()
	clock := newDecideClock(instNodes, firstInstance+instPerRep+1)
	lb, err := cluster.StartLoopback(cluster.LoopbackConfig{
		N: instNodes, K: 1, T: 0, Seed: c.seed,
		Attach: func(n *cluster.Node) { n.SetDecideObserver(clock.observer(n.ID())) },
	})
	if err != nil {
		r.gate.check(fmt.Errorf("start loopback cluster: %w", err))
		return r
	}
	defer lb.Close()
	subs := make([][]*cluster.Client, instSubmitters)
	for w := range subs {
		if subs[w], err = dialAll(lb.Addrs); err != nil {
			r.gate.check(err)
			return r
		}
		defer closeAll(subs[w])
	}
	nodes := lb.Nodes
	// The probe instance brings every peer link up before timing starts.
	if err := startInstance(subs[0], nil, firstInstance, inputs[0]); err != nil {
		r.gate.check(err)
		return r
	}
	for {
		if _, ok := clock.decided(firstInstance); ok {
			break
		}
		if time.Now().After(c.deadline) {
			r.gate.check(fmt.Errorf("probe instance undecided at deadline"))
			return r
		}
		time.Sleep(pollEvery)
	}
	r.setup = time.Since(t0)

	var base map[string]int64
	if c.tr != nil {
		base = sumStats(nodes)
		// Cleared before the deferred teardown closes the nodes it reads.
		defer c.sampler.setProbe(func() int64 { return maxMailboxDepth(nodes) })()
	}

	// errs[j] is the gate outcome of instance firstInstance+j and sent[j]
	// the moment its first Start went out; each submitter writes only its
	// own indices.
	errs := make([]error, instPerRep+1)
	sent := make([]time.Duration, instPerRep+1)
	c.beginPhase()
	var wg sync.WaitGroup
	for w := 0; w < instSubmitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clients := subs[w]
			for j := 1 + w; j <= instPerRep; j += instSubmitters {
				id := firstInstance + uint64(j)
				sent[j] = clock.now()
				if err := startInstance(clients, c.tr, id, inputs[j]); err != nil {
					errs[j] = err
					for j += instSubmitters; j <= instPerRep; j += instSubmitters {
						errs[j] = fmt.Errorf("instance %d not started: submitter stopped", firstInstance+uint64(j))
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	clock.wait(c.deadline)

	// Decide latency: first Start sent to the last node recording its own
	// decision, as the decide observer saw it.
	first, last := time.Duration(math.MaxInt64), time.Duration(0)
	for j := 1; j <= instPerRep; j++ {
		if errs[j] != nil {
			continue
		}
		at, ok := clock.decided(firstInstance + uint64(j))
		if !ok {
			errs[j] = fmt.Errorf("instance %d undecided at deadline", firstInstance+uint64(j))
			continue
		}
		r.lat = append(r.lat, at-sent[j])
		first, last = min(first, sent[j]), max(last, at)
	}
	r.ops = len(r.lat)
	r.elapsed = last - first
	r.allocs, r.cpu = c.endPhase()

	verifyInstances(nodes, inputs, errs, c)
	for _, err := range errs {
		r.gate.check(err)
	}

	if c.tr != nil {
		clusterLayers(r.layer, nodes, base, instPerRep, instPerRep*instNodes, c)
	}
	return r
}

// instanceInputs draws every instance's per-node inputs: distinct within an
// instance, so FloodMin has a real disagreement to resolve each time.
func instanceInputs(rng *prng.Source, count int) [][]types.Value {
	in := make([][]types.Value, count)
	for j := range in {
		base := types.Value(rng.Uint64() >> 34)
		in[j] = make([]types.Value, instNodes)
		for i := range in[j] {
			in[j][i] = base*instNodes + types.Value(i) + 1
		}
	}
	return in
}

// pollEvery is how long a waiting generator sleeps between checks: short
// against a decision (about a millisecond) without spinning a core the
// cluster needs.
const pollEvery = 50 * time.Microsecond

// decideClock timestamps decisions where they happen: each node's decide
// observer (installed through LoopbackConfig.Attach) stamps the moment the
// node records its own row of an instance. at[i][id] is that moment for
// node i, as time since origin, or 0 while node i has not decided. done
// closes once every node has decided every instance.
type decideClock struct {
	origin    time.Time
	at        [][]atomic.Int64
	remaining atomic.Int64
	done      chan struct{}
}

// newDecideClock expects every node to decide every instance id in
// [firstInstance, ids).
func newDecideClock(nodes int, ids uint64) *decideClock {
	d := &decideClock{origin: time.Now(), at: make([][]atomic.Int64, nodes), done: make(chan struct{})}
	for i := range d.at {
		d.at[i] = make([]atomic.Int64, ids)
	}
	d.remaining.Store(int64(nodes) * int64(ids-firstInstance))
	return d
}

// now is the time since origin; it is never 0, which marks "undecided".
func (d *decideClock) now() time.Duration { return max(time.Since(d.origin), 1) }

// observer is node self's decide observer. It runs on the node's shard
// loops with no locks held, so it only stamps and counts.
func (d *decideClock) observer(self types.ProcessID) func(uint64, types.ProcessID, types.Value) {
	at := d.at[self]
	return func(id uint64, row types.ProcessID, _ types.Value) {
		if row != self || id < firstInstance || id >= uint64(len(at)) {
			return
		}
		if at[id].CompareAndSwap(0, int64(d.now())) && d.remaining.Add(-1) == 0 {
			close(d.done)
		}
	}
}

// decided returns when the last node decided the instance, and whether
// every node has.
func (d *decideClock) decided(id uint64) (time.Duration, bool) {
	var last int64
	for i := range d.at {
		v := d.at[i][id].Load()
		if v == 0 {
			return 0, false
		}
		last = max(last, v)
	}
	return time.Duration(last), true
}

// wait blocks until every node has decided every instance, or the deadline.
func (d *decideClock) wait(deadline time.Time) {
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-d.done:
	case <-t.C:
	}
}

// startInstance sends one instance's Start to every node, node i getting
// input in[i].
func startInstance(clients []*cluster.Client, tr *tracer, id uint64, in []types.Value) error {
	for i, cl := range clients {
		sp := tr.begin("cluster.ctl_start", 0)
		err := cl.Start(wire.Start{Instance: id, K: 1, T: 0, Proto: uint8(theory.ProtoFloodMin), Input: in[i]})
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("start instance %d on node %d: %w", id, i, err)
		}
	}
	return nil
}

// verifyInstances is the workload's correctness gate: once each decided
// instance's table is complete on every node, every node's table must pass
// the checker (termination, at most k=1 values, RV1).
func verifyInstances(nodes []*cluster.Node, inputs [][]types.Value, errs []error, c *repCtx) {
	for j := range errs {
		if errs[j] != nil {
			continue
		}
		id := firstInstance + uint64(j)
		for i, n := range nodes {
			tbl, err := completeTable(n, id, c.deadline)
			if err == nil {
				_, err = cluster.VerifyTable(tbl, inputs[j], types.RV1, c.seed)
			}
			if err != nil {
				errs[j] = fmt.Errorf("instance %d on node %d: %w", id, i, err)
				break
			}
		}
	}
}

// completeTable waits for a node's table of the instance to hold every
// node's decision.
func completeTable(n *cluster.Node, id uint64, deadline time.Time) (wire.Table, error) {
	for {
		tbl, ok := n.Table(id)
		if ok && complete(tbl) {
			return tbl, nil
		}
		if time.Now().After(deadline) {
			return tbl, fmt.Errorf("decision table incomplete at deadline")
		}
		time.Sleep(pollEvery)
	}
}

func complete(tbl wire.Table) bool {
	for _, row := range tbl.Rows {
		if !row.Decided {
			return false
		}
	}
	return len(tbl.Rows) > 0
}

func dialAll(addrs []string) ([]*cluster.Client, error) {
	out := make([]*cluster.Client, 0, len(addrs))
	for i, a := range addrs {
		cl, err := cluster.DialNode(a, 10*time.Second)
		if err != nil {
			closeAll(out)
			return nil, fmt.Errorf("dial node %d: %w", i, err)
		}
		out = append(out, cl)
	}
	return out, nil
}

func closeAll(cs []*cluster.Client) {
	for _, c := range cs {
		_ = c.Close() // teardown: the repetition is already measured
	}
}

// sumStats adds up the node-level transport counters of the nodes.
func sumStats(nodes []*cluster.Node) map[string]int64 {
	out := map[string]int64{}
	for _, n := range nodes {
		for _, p := range n.Stats() {
			out[p.Name] += p.Value
		}
	}
	return out
}

// maxMailboxDepth is the deepest shard mailbox across the nodes right now.
func maxMailboxDepth(nodes []*cluster.Node) int64 {
	var m int64
	for _, n := range nodes {
		reg := n.Metrics()
		for s := 0; s < n.Shards(); s++ {
			m = max(m, reg.Gauge(fmt.Sprintf(`kset_shard_mailbox_depth{shard="%d"}`, s)).Value())
		}
	}
	return m
}

// mergedQuantile merges one histogram across nodes and returns quantile q
// in milliseconds.
func mergedQuantile(nodes []*cluster.Node, name string, q float64) float64 {
	var snaps []obs.HistSnapshot
	for _, n := range nodes {
		for _, s := range n.Metrics().Snapshots() {
			if s.Name == name && s.Count > 0 {
				snaps = append(snaps, s)
			}
		}
	}
	if len(snaps) == 0 {
		return 0
	}
	return obs.MergeSnapshots(snaps).Quantile(q) * 1000
}

// transportLayers fills the per-operation transport ratios from counter
// deltas since base.
func transportLayers(out map[string]float64, nodes []*cluster.Node, base map[string]int64, ops, decisions int) {
	now := sumStats(nodes)
	d := func(k string) float64 { return float64(now[k] - base[k]) }
	frames := d("node.frames_sent")
	out["cluster.frames_per_value"] = frames / float64(ops)
	out["cluster.retransmits_per_value"] = d("node.retransmits") / float64(ops)
	if decisions > 0 {
		out["cluster.frames_per_decision"] = frames / float64(decisions)
	}
	if frames > 0 {
		out["cluster.msgs_per_frame"] = d("node.msgs_sent") / frames
		out["cluster.acks_piggybacked_per_frame"] = d("node.acks_piggybacked") / frames
	}
}

// clusterLayers fills the cluster's per-layer metrics after a traced
// repetition: transport ratios per operation (and per decision, where the
// workload's operations are decisions), the nodes' decision-table and
// ack round-trip histograms, and the deepest shard mailbox sampled.
func clusterLayers(out map[string]float64, nodes []*cluster.Node, base map[string]int64, ops, decisions int, c *repCtx) {
	transportLayers(out, nodes, base, ops, decisions)
	out["cluster.table_p50_ms"] = mergedQuantile(nodes, "kset_table_latency_seconds", 0.5)
	out["cluster.ack_rtt_p50_ms"] = mergedQuantile(nodes, "kset_ack_rtt_seconds", 0.5)
	out["cluster.shard_mailbox_depth.max"] = float64(c.sampler.probePeak.Load())
}

// instancesLayers adds the span-derived metrics: the latency of each
// control-plane Start call.
func instancesLayers(tr *tracer, out map[string]float64) {
	starts := tr.durations("cluster.ctl_start")
	out["cluster.ctl_start_us.p50"] = us(starts.percentile(5000))
	if supported(9900, len(starts)) {
		out["cluster.ctl_start_us.p99"] = us(starts.percentile(9900))
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
