package cluster

import (
	"net"
	"slices"
	"testing"
	"time"

	"kset/internal/types"
	"kset/internal/wire"
)

// silentPeer is the far end of one link under test: a listener that accepts
// the link's connection and reads its frames but never acks. seqs carries
// the sequence number of every Proto frame it reads, in arrival order.
type silentPeer struct {
	ln   net.Listener
	seqs chan uint64
}

// newSilentPeer serves a silent peer on a fresh loopback port.
func newSilentPeer(t *testing.T) *silentPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveSilentPeer(t, ln)
}

// serveSilentPeer serves a silent peer on ln, which it closes at cleanup.
func serveSilentPeer(t *testing.T, ln net.Listener) *silentPeer {
	t.Helper()
	// The buffer holds every frame a test reads plus the retransmissions
	// that arrive meanwhile; the reader drops frames once it is full.
	p := &silentPeer{ln: ln, seqs: make(chan uint64, 4096)}
	conns := make(chan net.Conn, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conns <- conn
		for {
			m, err := wire.ReadMsg(conn)
			if err != nil {
				return
			}
			if pm, ok := m.(wire.Proto); ok {
				select {
				case p.seqs <- pm.Seq:
				default: // the test stopped reading; keep draining the conn
				}
			}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		select {
		case conn := <-conns:
			conn.Close()
		default:
		}
		<-done
	})
	return p
}

// read returns the next n sequence numbers the peer receives, failing the
// test if they do not arrive within the deadline.
func (p *silentPeer) read(t *testing.T, n int) []uint64 {
	t.Helper()
	var got []uint64
	timeout := time.After(10 * time.Second)
	for len(got) < n {
		select {
		case seq := <-p.seqs:
			got = append(got, seq)
		case <-timeout:
			t.Fatalf("peer received %v, want %d frames", got, n)
		}
	}
	return got
}

// linkTo builds node 0 of a two-node cluster whose peer 1 is the given
// address. With serve set, the node runs (its link writer flushes on its
// own wakes and ticks); otherwise the test drives flush by hand.
func linkTo(t *testing.T, peerAddr string, retransmit time.Duration, faults Faults, serve bool) (*Node, *link) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{
		ID: 0, N: 2, K: 1, T: 0,
		Peers:      []string{ln.Addr().String(), peerAddr},
		Retransmit: retransmit,
		Faults:     faults,
		Seed:       5,
	})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	if serve {
		n.Serve(ln)
	} else {
		ln.Close()
	}
	t.Cleanup(n.Close)
	return n, n.links[1]
}

func enqueueProtos(l *link, count int) {
	for i := 0; i < count; i++ {
		l.enqueue(wire.BatchMsg{Kind: wire.TypeProto, Instance: 1, From: 0,
			Payload: types.Payload{Kind: types.KindEcho, Value: types.Value(i)}})
	}
}

// sorted returns the distinct sequence numbers in seqs, ascending.
func sorted(seqs []uint64) []uint64 {
	out := slices.Clone(seqs)
	slices.Sort(out)
	return slices.Compact(out)
}

// TestFlushRetransmitsWithoutNewWork pins the retransmit deadline: frames
// the peer reads but never acks all go out again once the retransmit
// interval has passed, driven by the writer's ticks alone — no enqueue
// after the first send moves the scan cursor.
func TestFlushRetransmitsWithoutNewWork(t *testing.T) {
	const frames = 8
	peer := newSilentPeer(t)
	n, l := linkTo(t, peer.ln.Addr().String(), 20*time.Millisecond, Faults{}, true)
	enqueueProtos(l, frames)

	seen := map[uint64]int{}
	for _, seq := range peer.read(t, frames) {
		seen[seq]++
	}
	// Keep reading until every frame has arrived at least twice.
	for again := 0; again < frames; {
		for _, seq := range peer.read(t, 1) {
			seen[seq]++
			if seen[seq] == 2 {
				again++
			}
		}
	}
	for seq := uint64(1); seq <= frames; seq++ {
		if seen[seq] < 2 {
			t.Errorf("frame %d sent %d times, want a retransmission", seq, seen[seq])
		}
	}
	if got := l.mRetransmits.Value(); got < frames {
		t.Errorf("per-peer retransmits = %d, want >= %d", got, frames)
	}
	if got := n.stats.retransmits.Value(); got < frames {
		t.Errorf("retransmits = %d, want >= %d", got, frames)
	}
}

// TestFlushSendsDelayedFrame pins the injected-delay deadline: with every
// attempt rolled as a delay, a frame is held back once and then goes out
// after its delay on a later tick, with nothing else enqueued to prompt a
// scan.
func TestFlushSendsDelayedFrame(t *testing.T) {
	peer := newSilentPeer(t)
	faults := Faults{Delay: 1, MaxDelay: 30 * time.Millisecond}
	n, l := linkTo(t, peer.ln.Addr().String(), 20*time.Millisecond, faults, true)
	enqueueProtos(l, 1)
	if got := peer.read(t, 1); got[0] != 1 {
		t.Fatalf("peer received seq %d, want 1", got[0])
	}
	if got := n.stats.delaysInjected.Value(); got != 1 {
		t.Errorf("delays injected = %d, want exactly 1 (a frame is delayed once)", got)
	}
}

// TestFlushCursorSurvivesAcks drives one link by hand through acks that
// arrive in order and out of order, before and after the scan cursor, and
// checks that every frame still queued is sent: new frames on the next
// flush, old ones once their retransmit deadline passes. The link clock is
// moved forward by shifting its epoch, so the test does not sleep.
func TestFlushCursorSurvivesAcks(t *testing.T) {
	peer := newSilentPeer(t)
	n, l := linkTo(t, peer.ln.Addr().String(), time.Hour, Faults{}, false)

	enqueueProtos(l, 10)
	l.flush()
	if got := sorted(peer.read(t, 10)); !slices.Equal(got, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
		t.Fatalf("first flush sent %v, want seqs 1..10", got)
	}

	// All ten frames are now behind the cursor. Ack the head in order and
	// two more out of order, then queue five new frames and ack one of them.
	l.ack(1)
	l.ackBatch([]uint64{5, 3})
	enqueueProtos(l, 5)
	l.ack(13)
	l.ack(99) // unknown seq: ignored
	l.mu.Lock()
	fresh, queued := l.fresh, len(l.queue)
	l.mu.Unlock()
	if fresh != 7 || queued != 11 {
		t.Fatalf("after acks: fresh = %d, queue = %d; want 7 of 11", fresh, queued)
	}

	// Nothing old is due yet: the flush sends exactly the new frames.
	l.flush()
	if got := sorted(peer.read(t, 4)); !slices.Equal(got, []uint64{11, 12, 14, 15}) {
		t.Fatalf("second flush sent %v, want the new seqs 11 12 14 15", got)
	}
	if got := l.mRetransmits.Value(); got != 0 {
		t.Fatalf("retransmits before the deadline = %d, want 0", got)
	}

	// Past the retransmit deadline every remaining frame goes out again,
	// including after one more ack from before the cursor.
	l.epoch = l.epoch.Add(-time.Hour)
	l.ack(9)
	l.flush()
	want := []uint64{2, 4, 6, 7, 8, 10, 11, 12, 14, 15}
	if got := sorted(peer.read(t, len(want))); !slices.Equal(got, want) {
		t.Fatalf("retransmit flush sent %v, want %v", got, want)
	}
	if got := l.mRetransmits.Value(); got != int64(len(want)) {
		t.Errorf("retransmits = %d, want %d", got, len(want))
	}
	if got := n.stats.framesSent.Value(); got != 10+4+int64(len(want)) {
		t.Errorf("frames sent = %d, want %d (hello excluded)", got, 10+4+len(want))
	}
}

// TestAckRTTExcludesOutage is the regression test for the ack round trip
// inflated by outages: a frame queued while the peer refused connections
// used to be stamped as first sent by the flush that failed to dial, so its
// eventual ack recorded the whole outage as round-trip time. The stamp now
// waits for a live connection.
func TestAckRTTExcludesOutage(t *testing.T) {
	// Bind-then-close yields an address that refuses connections now but can
	// be re-bound for the recovery.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerAddr := probe.Addr().String()
	probe.Close()

	n, l := linkTo(t, peerAddr, time.Hour, Faults{}, false)
	enqueueProtos(l, 1)
	l.flush() // dial refused
	if got := l.mDialFailures.Value(); got != 1 {
		t.Fatalf("dial failures = %d, want 1", got)
	}

	// The outage: the link clock moves on by an hour while the peer is down.
	const outage = time.Hour
	l.epoch = l.epoch.Add(-outage)

	ln, err := net.Listen("tcp", peerAddr)
	if err != nil {
		t.Skipf("could not re-bind %s: %v", peerAddr, err)
	}
	peer := serveSilentPeer(t, ln)
	l.nextDialAt = time.Time{} // cancel the backoff window
	l.flush()
	if got := peer.read(t, 1); got[0] != 1 {
		t.Fatalf("peer received seq %d, want 1", got[0])
	}
	l.ack(1)

	rtt := n.stats.ackRTT.Snapshot("rtt")
	if rtt.Count != 1 {
		t.Fatalf("ack RTT observations = %d, want 1", rtt.Count)
	}
	if rtt.Max >= outage.Seconds() {
		t.Errorf("ack RTT = %.0fs, want well under the %v outage", rtt.Max, outage)
	}
}
