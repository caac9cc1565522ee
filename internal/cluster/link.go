package cluster

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"kset/internal/obs"
	"kset/internal/prng"
	"kset/internal/types"
	"kset/internal/wire"
)

// link is the outbound half of one peer relationship: a persistent TCP
// connection this node dials to a peer, an outbound queue of sequenced
// frames, and the retransmit state that makes the channel reliable over the
// injected faults. The inbound half (frames the peer sends us) arrives on
// the connection the peer dials and is handled by Node.serveConn.
//
// Concurrency: the queue, scan cursor, ack list, and partition flag are
// guarded by mu and touched by enqueuers (instance goroutines), the ack path
// (inbound reader goroutines) and the writer. The connection and the fault
// rng belong to the writer goroutine alone.
type link struct {
	node *Node
	peer types.ProcessID
	addr string

	mu      sync.Mutex
	queue   []pendingFrame // unacked sequenced frames in seq order
	nextSeq uint64         // next sequence number to assign (first is 1)
	acks    []uint64       // outgoing transport acks, fire-and-forget
	down    bool           // partitioned: hold all traffic
	closed  bool

	// fresh and nextDue bound a flush's scan to the frames that need work.
	// queue[fresh:] holds the frames no flush has examined yet; nextDue is
	// the earliest link-clock reading at which a frame in queue[:fresh]
	// becomes due (its retransmit deadline or the end of its injected
	// delay). A flush before nextDue scans only queue[fresh:]; the first
	// flush at or after it scans the whole queue and recomputes nextDue.
	// An ack never moves nextDue, so it can only be early, which costs one
	// spare full scan.
	fresh   int
	nextDue int64

	// epoch anchors the link clock (see now); set at creation.
	epoch time.Time

	// ackScratch and sendScratch recycle flush's working slices: each round
	// swaps the drained ack list against ackScratch and collects due frames
	// into sendScratch, so a steady-state flush allocates nothing. Both are
	// touched only with mu held or by the writer goroutine between flushes.
	ackScratch  []uint64
	sendScratch []wire.BatchMsg

	// wake signals the writer that there is new work (capacity 1).
	wake chan struct{}

	// Writer-goroutine state.
	conn       net.Conn
	bw         *bufio.Writer
	rng        *prng.Source
	backoff    time.Duration
	nextDialAt time.Time

	// Per-peer metrics, registered in the node's registry at link creation.
	mDials        *obs.Counter
	mDialFailures *obs.Counter
	mRetransmits  *obs.Counter
	mBackoff      *obs.Histogram
}

// pendingFrame is one sequenced message awaiting acknowledgment; its
// sequence number is msg.Seq. The message is stored as the flat
// wire.BatchMsg union and the stamps as link-clock readings (see link.now),
// so the frame is a small pointer-free struct: queueing and flushing move
// plain values, and the garbage collector never scans the queue.
type pendingFrame struct {
	msg wire.BatchMsg
	// lastAttempt is the link-clock reading of the last transmission
	// attempt (zero: never attempted); retransmission is due when it is
	// older than the retransmit interval.
	lastAttempt int64
	// notBefore holds the frame back until the given link-clock reading
	// (injected delay; zero: not held).
	notBefore int64
	// firstSent is the link-clock reading at which the frame was first
	// handed to a live connection (zero: never transmitted); the transport
	// ack round trip is measured from it.
	firstSent int64
}

func newLink(n *Node, peer types.ProcessID, addr string) *link {
	label := fmt.Sprintf(`{peer="%d"}`, peer)
	return &link{
		node:          n,
		peer:          peer,
		addr:          addr,
		wake:          make(chan struct{}, 1),
		epoch:         time.Now(),
		mDials:        n.reg.Counter("kset_link_dials_total" + label),
		mDialFailures: n.reg.Counter("kset_link_dial_failures_total" + label),
		mRetransmits:  n.reg.Counter("kset_link_retransmits_total" + label),
		mBackoff:      n.reg.Histogram("kset_link_backoff_seconds"+label, obs.DefaultLatencyBounds()),
	}
}

// enqueue assigns the next sequence number to bm (a proto or decide message)
// and queues it for reliable delivery.
func (l *link) enqueue(bm wire.BatchMsg) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.nextSeq++
	bm.Seq = l.nextSeq
	l.queue = append(l.queue, pendingFrame{msg: bm})
	l.mu.Unlock()
	l.signal()
}

// enqueueAck queues a transport ack. Acks are not themselves sequenced or
// retransmitted: a lost ack is recovered by the peer's retransmission, which
// we re-ack.
func (l *link) enqueueAck(seq uint64) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.acks = append(l.acks, seq)
	l.mu.Unlock()
	l.signal()
}

// ack removes a frame the peer confirmed, observing the round trip from its
// first transmission.
func (l *link) ack(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ackLocked(seq)
}

// ackBatch removes every frame confirmed by one batch's piggybacked ack
// vector under a single lock acquisition.
func (l *link) ackBatch(seqs []uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, seq := range seqs {
		l.ackLocked(seq)
	}
}

func (l *link) ackLocked(seq uint64) {
	// enqueue appends ascending sequence numbers and removal keeps the
	// order, so the queue is sorted by seq.
	i := sort.Search(len(l.queue), func(i int) bool { return l.queue[i].msg.Seq >= seq })
	if i == len(l.queue) || l.queue[i].msg.Seq != seq {
		return // duplicate or stale ack
	}
	if first := l.queue[i].firstSent; first != 0 {
		l.node.stats.ackRTT.Observe(time.Duration(l.now() - first).Seconds())
	}
	// Acks overwhelmingly confirm the queue head in order; popping the
	// front is O(1) and only an out-of-order ack pays the copy.
	if i == 0 {
		l.queue = l.queue[1:]
	} else {
		l.queue = append(l.queue[:i], l.queue[i+1:]...)
	}
	if i < l.fresh {
		l.fresh--
	}
}

// now reads the link clock: monotonic nanoseconds since the link's epoch,
// offset by one so that a reading is never the zero "never" stamp.
func (l *link) now() int64 {
	return int64(time.Since(l.epoch)) + 1
}

// setDown partitions or heals the link. While down, nothing is sent; queued
// frames accumulate and flow (via retransmission) once healed.
func (l *link) setDown(down bool) {
	l.mu.Lock()
	l.down = down
	l.mu.Unlock()
	if !down {
		l.signal()
	}
}

func (l *link) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// close marks the link closed; the writer goroutine tears the connection
// down when it exits.
func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.signal()
}

// writer is the link's goroutine: it dials (and re-dials with exponential
// backoff), applies the fault injector, retransmits unacked frames, and
// flushes acks. It exits when the node shuts down or the link is closed.
func (l *link) writer() {
	defer l.node.wg.Done()
	defer l.dropConn()
	cfg := &l.node.cfg
	l.rng = prng.New(cfg.Seed + 0x9e37*uint64(l.peer) + 1)
	// Retransmit is validated positive, but integer halving can still reach
	// zero (Retransmit == 1ns), and time.NewTicker panics on non-positive
	// intervals; clamp so the smallest legal config cannot crash the writer.
	interval := cfg.Retransmit / 2
	if interval <= 0 {
		interval = cfg.Retransmit
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-l.node.done:
			return
		case <-l.wake:
		case <-tick.C:
		}
		if l.isClosed() {
			return
		}
		l.flush()
	}
}

func (l *link) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// encBufs pools batch-encode buffers across all links: flush borrows one,
// encodes the whole round's frames into it, and returns it, so steady-state
// batch encoding allocates nothing.
var encBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// batchMsgsPerFrame caps how many messages one batch frame coalesces. Well
// below wire.MaxBatchMsgs: it keeps a frame around 36 KiB so a slow reader
// sees bounded frame latency, while still amortizing the write syscall over
// a thousand messages.
const batchMsgsPerFrame = 1024

// flush performs one round of work. It dials first: while the peer is
// unreachable (a refused dial, or the backoff window after one) the round
// does nothing, so queued frames and acks wait untouched for a connection
// and an outage costs no fault rolls, stamps or retransmit counts. With a
// connection up it drains pending acks and collects the transmission-due
// frames under the lock (each attempt rolled through the fault injector),
// then writes them outside it — as coalesced batch frames with the acks
// piggybacked when the peer speaks wire.VersionBatch, or as legacy
// single-message frames otherwise.
func (l *link) flush() {
	if l.conn == nil {
		l.mu.Lock()
		idle := l.down || (len(l.acks) == 0 && len(l.queue) == 0)
		l.mu.Unlock()
		if idle || !l.ensureConn() {
			return
		}
	}
	now := l.now()
	l.mu.Lock()
	if l.down {
		l.mu.Unlock()
		return
	}
	// Swap the ack list against the recycled scratch slice: the drained
	// array is handed back as next round's l.acks once this round's writes
	// are done (only this goroutine flushes, so the handoff cannot race).
	acks := l.acks
	l.acks = l.ackScratch[:0]
	l.ackScratch = acks
	sends := l.collectDue(now, l.sendScratch[:0])
	l.sendScratch = sends
	l.mu.Unlock()

	if len(acks) > 0 || len(sends) > 0 {
		if l.peerBatches() {
			l.flushBatch(acks, sends)
		} else {
			l.flushV1(acks, sends)
		}
	}
	// Buffered bytes include the Hello of a connection dialed this round
	// even when nothing else was due. bw and conn are set and cleared
	// together, so a buffer means a connection.
	if l.bw != nil && l.bw.Buffered() > 0 {
		if err := l.conn.SetWriteDeadline(time.Now().Add(l.node.cfg.WriteTimeout)); err != nil {
			l.connFailed()
			return
		}
		if err := l.bw.Flush(); err != nil {
			l.connFailed()
		}
	}
}

// collectDue appends to sends every queued frame that is due for
// transmission at link-clock reading now, rolling each attempt through the
// fault injector and stamping it. Before nextDue only the frames past the
// fresh cursor can be due, so only they are examined; otherwise the whole
// queue is, and nextDue is recomputed. Called with l.mu held.
func (l *link) collectDue(now int64, sends []wire.BatchMsg) []wire.BatchMsg {
	retransmit := int64(l.node.cfg.Retransmit)
	start, next := l.fresh, l.nextDue
	if now >= l.nextDue {
		start, next = 0, math.MaxInt64
	}
	for i := start; i < len(l.queue); i++ {
		p := &l.queue[i]
		if now < p.notBefore {
			next = min(next, p.notBefore)
			continue
		}
		isNew := p.lastAttempt == 0
		if !isNew && now-p.lastAttempt < retransmit {
			next = min(next, p.lastAttempt+retransmit)
			continue
		}
		if !isNew {
			l.node.stats.retransmits.Add(1)
			l.mRetransmits.Add(1)
		}
		switch l.node.cfg.Faults.roll(l.rng) {
		case actDrop:
			l.node.stats.dropsInjected.Add(1)
		case actDelay:
			// Only dilate frames that have never been sent, and only once: a
			// retransmission is already late, and a frame whose delay has
			// run out goes now (re-rolling it could hold it back forever).
			if isNew && p.notBefore == 0 {
				l.node.stats.delaysInjected.Add(1)
				p.notBefore = now + int64(l.node.cfg.Faults.delay(l.rng))
				next = min(next, p.notBefore)
				continue
			}
			l.markSent(p, now)
			sends = append(sends, p.msg)
		case actDup:
			l.node.stats.dupsInjected.Add(1)
			l.markSent(p, now)
			sends = append(sends, p.msg, p.msg)
		default:
			l.markSent(p, now)
			sends = append(sends, p.msg)
		}
		p.lastAttempt = now
		next = min(next, now+retransmit)
	}
	l.fresh, l.nextDue = len(l.queue), next
	return sends
}

// peerBatches reports whether this link may send batch frames: both this
// node's configured wire version and the version the peer announced in its
// most recent Hello must be at least wire.VersionBatch. Until the peer's
// Hello is heard, the link conservatively speaks v1.
func (l *link) peerBatches() bool {
	return l.node.cfg.WireVersion >= wire.VersionBatch &&
		l.node.peerVer[l.peer].Load() >= wire.VersionBatch
}

// flushBatch writes one round as coalesced batch frames: the ack vector is
// piggybacked on the first frame, and messages are chunked so each frame
// stays small. The encode buffer is pooled, so the whole path is
// allocation-free in steady state.
func (l *link) flushBatch(acks []uint64, sends []wire.BatchMsg) {
	bufp := encBufs.Get().(*[]byte)
	defer encBufs.Put(bufp)
	for len(acks) > 0 || len(sends) > 0 {
		ackChunk := acks
		if len(ackChunk) > wire.MaxBatchAcks {
			ackChunk = ackChunk[:wire.MaxBatchAcks]
		}
		msgChunk := sends
		if len(msgChunk) > batchMsgsPerFrame {
			msgChunk = msgChunk[:batchMsgsPerFrame]
		}
		frame, err := wire.AppendBatchFrame((*bufp)[:0], ackChunk, msgChunk)
		if err != nil {
			// Encoding is pure: this cannot happen for messages the enqueue
			// path accepts. Requeue the acks and let the frames retransmit.
			l.node.logf("cluster: encode batch to peer %v: %v", l.peer, err)
			l.requeueAcks(acks)
			return
		}
		*bufp = frame[:0]
		if !l.writeFrame(frame) {
			l.requeueAcks(acks)
			return
		}
		l.node.stats.framesSent.Add(1)
		l.node.stats.batchesSent.Add(1)
		l.node.stats.msgsSent.Add(int64(len(msgChunk)))
		l.node.stats.acksPiggybacked.Add(int64(len(ackChunk)))
		acks = acks[len(ackChunk):]
		sends = sends[len(msgChunk):]
	}
}

// flushV1 writes one round as legacy single-message frames for a peer that
// has not announced batch support. The first failed write tears the
// connection down and ends the round immediately: everything unsent stays
// queued (or is requeued, for acks) instead of burning one doomed write
// attempt per remaining frame.
func (l *link) flushV1(acks []uint64, sends []wire.BatchMsg) {
	for i, seq := range acks {
		if !l.write(wire.Ack{Seq: seq}) {
			l.requeueAcks(acks[i:])
			return
		}
		l.node.stats.framesSent.Add(1)
	}
	for i := range sends {
		if !l.write(sends[i].Msg()) {
			return
		}
		l.node.stats.framesSent.Add(1)
		l.node.stats.msgsSent.Add(1)
	}
}

// markSent stamps the first real transmission time (for the ack round-trip
// histogram). flush collects frames only with a connection up, so the stamp
// is the moment the frame went to a live connection, not the moment it was
// first examined. Called under l.mu.
func (l *link) markSent(p *pendingFrame, now int64) {
	if p.firstSent == 0 {
		p.firstSent = now
	}
}

// requeueAcks prepends acks that could not be sent back onto the outgoing
// list, preserving their order ahead of any acks enqueued meanwhile.
func (l *link) requeueAcks(acks []uint64) {
	if len(acks) == 0 {
		return
	}
	l.mu.Lock()
	if !l.closed {
		l.acks = append(append([]uint64(nil), acks...), l.acks...)
	}
	l.mu.Unlock()
}

// ensureConn dials the peer if no connection is up, honoring the backoff
// window, and sends the identifying Hello on success.
func (l *link) ensureConn() bool {
	if l.conn != nil {
		return true
	}
	now := time.Now()
	if now.Before(l.nextDialAt) {
		return false
	}
	l.mDials.Add(1)
	conn, err := net.DialTimeout("tcp", l.addr, l.node.cfg.DialTimeout)
	if err != nil {
		l.mDialFailures.Add(1)
		if l.backoff == 0 {
			l.backoff = 25 * time.Millisecond
		} else {
			l.backoff *= 2
			if l.backoff > time.Second {
				l.backoff = time.Second
			}
		}
		l.mBackoff.Observe(l.backoff.Seconds())
		l.nextDialAt = now.Add(l.backoff)
		l.node.log.Debug("dial failed",
			obs.F("peer", int(l.peer)), obs.F("addr", l.addr),
			obs.F("backoff", l.backoff.String()), obs.F("err", err.Error()))
		return false
	}
	l.backoff = 0
	l.nextDialAt = time.Time{}
	l.conn = conn
	l.bw = bufio.NewWriter(conn)
	l.node.stats.connects.Add(1)
	l.node.log.Debug("dialed peer", obs.F("peer", int(l.peer)), obs.F("addr", l.addr))
	hello := wire.Hello{
		From:       l.node.cfg.ID,
		Role:       wire.RolePeer,
		N:          l.node.cfg.N,
		Session:    l.node.session,
		MaxVersion: uint8(l.node.cfg.WireVersion),
	}
	if !l.write(hello) {
		return false
	}
	return true
}

// write encodes one frame into the buffered writer, applying the write
// deadline. On failure the connection is torn down (the writer re-dials on
// the next round) and queued frames survive for retransmission.
func (l *link) write(m wire.Msg) bool {
	if l.conn == nil {
		return false
	}
	if err := l.conn.SetWriteDeadline(time.Now().Add(l.node.cfg.WriteTimeout)); err != nil {
		l.connFailed()
		return false
	}
	if err := wire.WriteMsg(l.bw, m); err != nil {
		l.connFailed()
		return false
	}
	return true
}

// writeFrame hands one pre-encoded frame (length prefix included) to the
// buffered writer under the write deadline. Failure handling matches write.
func (l *link) writeFrame(frame []byte) bool {
	if l.conn == nil {
		return false
	}
	if err := l.conn.SetWriteDeadline(time.Now().Add(l.node.cfg.WriteTimeout)); err != nil {
		l.connFailed()
		return false
	}
	if _, err := l.bw.Write(frame); err != nil {
		l.connFailed()
		return false
	}
	return true
}

func (l *link) connFailed() {
	l.dropConn()
	l.node.stats.connFailures.Add(1)
}

func (l *link) dropConn() {
	if l.conn != nil {
		_ = l.conn.Close() // the connection is already failed or superseded
		l.conn = nil
		l.bw = nil
	}
}
