package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

// BatchPolicy governs per-link egress batching: outbound packets queue in
// a per-link egress buffer and are flushed as one multi-packet frame when
// the buffer reaches the flush window (size), when the oldest queued
// packet has waited MaxDelay (age), when a control packet must not be
// delayed (control), when the goroutine feeding the queue runs out of
// work (idle: a shard lane's mailbox drains, a back-end handler enters
// Recv with nothing delivered), or when the owner drains at
// shutdown/reparent (drain). Batching amortizes per-message link costs — a
// channel transfer or a TCP write+flush — over the whole frame, which is
// what keeps per-packet overhead from dominating tree throughput; idle
// flushing keeps a closed-loop request from waiting out MaxDelay at every
// hop when nothing else is coming to share its frame.
type BatchPolicy struct {
	// MaxBatch is the flush window in packets; a value <= 1 disables
	// batching and every Send goes straight to the link.
	MaxBatch int
	// MaxDelay bounds how long a packet may sit in an egress queue before
	// an age flush. Non-positive values get DefaultBatchDelay when
	// batching is enabled, so a queued packet can never strand.
	MaxDelay time.Duration
}

// DefaultBatchDelay is the age bound applied when a policy enables
// batching without choosing one.
const DefaultBatchDelay = 2 * time.Millisecond

// DefaultBatchPolicy is a good general-purpose batching configuration.
func DefaultBatchPolicy() BatchPolicy {
	return BatchPolicy{MaxBatch: 32, MaxDelay: DefaultBatchDelay}
}

// enabled reports whether the policy actually batches.
func (p BatchPolicy) enabled() bool { return p.MaxBatch > 1 }

// normalized fills defaults so an enabled policy always has an age bound.
func (p BatchPolicy) normalized() BatchPolicy {
	if p.enabled() && p.MaxDelay <= 0 {
		p.MaxDelay = DefaultBatchDelay
	}
	return p
}

// maxEgressFrameBytes bounds the encoded bytes batched into one wire
// frame. It is a variable (always packet.MaxWireSize in production) only
// so tests can shrink it to exercise the multi-frame split without
// queueing 256 MiB.
var maxEgressFrameBytes = packet.MaxWireSize

// maxRetained bounds an egress queue retained across a dead parent link
// (an orphan waiting for adoption): beyond it the oldest packets are
// dropped, mirroring the bounded kernel-buffer loss a real crashed link
// would impose. With flow control on the queue is already hard-bounded at
// the link window, which is always tighter.
const maxRetained = 4096

// maxFlushRounds bounds how many take-and-send rounds one flush performs
// before handing the wire back: producers that keep the queue hot trigger
// their own size flushes, so the combiner never needs to spin forever.
const maxFlushRounds = 8

// flush causes, for the metrics counters. flushResume is a credit-aware
// re-flush after reparenting (counted with the drains, but — unlike a
// drain — it respects the peer's window). A flush that owed credits ask
// for counts as control: a grant is a control packet that must not wait.
const (
	flushSize = iota
	flushAge
	flushControl
	flushDrain
	flushResume
	flushIdle
)

// egressQueue batches outbound packets for one link. It is safe for
// concurrent use: the stream-sharded data plane has several pipeline
// workers plus the owning router feeding the same link, so every operation
// serializes on the queue's own mutex. FIFO order within the queue is the
// lock-acquisition order, which is what preserves per-stream FIFO (each
// stream has exactly one worker) and keeps control packets behind data the
// router already accepted.
//
// Locking is split in two so producers never wait on the wire:
//
//   - mu guards the queued packets (buf, or the flow-control scheduler)
//     and is held only for O(1) bookkeeping — never across a link Send.
//
//   - flushMu is the wire ownership: exactly one flusher at a time takes
//     batches out (under mu) and sends them (outside mu). Triggered
//     flushes use TryLock, so a producer or the router that finds a flush
//     already in progress simply moves on, leaving a "flush again" mark
//     (again) that the active flusher honours before it lets go of the
//     wire — so what they appended, or the credits they owe, never strand
//     behind a flusher that took its last batch before they arrived. Only
//     the explicit drain (shutdown, reparent, Flush) blocks for the wire.
//
// Credits the link owes the peer (receiver-side retirements) are sent by
// the same flushes: each one claims them and puts the grant at the head of
// the frame it writes, so a reply and the grant for the request it answers
// share one write. Owed credits arm the age deadline the way a queued
// packet does (owedAt).
//
// With flow control enabled (the link is a transport.FlowLink) the queue
// is additionally hard-bounded: data occupancy is capped at the link
// window by a slot semaphore (senders block, abortable by the owner's
// stop channels), flushes acquire one wire credit per data packet and
// stop — stalled — when the peer's window is exhausted, and the scheduler
// (flowegress.go) orders what a flush sends: order-free control first,
// then streams by priority, round-robin within a priority, with
// order-sensitive control packets acting as barriers that nothing
// enqueued after them may overtake.
type egressQueue struct {
	pol    BatchPolicy
	m      *Metrics
	retain bool
	// kick, if non-nil, is called (without mu) whenever the buffer
	// transitions empty -> non-empty or a credit stall clears: the queue
	// then has an age deadline the owner's timer loop needs to learn
	// about, since the enqueue may have come from a shard worker the owner
	// cannot observe.
	kick func()

	// fc marks a flow-controlled queue. Immutable after construction (a
	// replacement link is always the same kind as the one it replaces), so
	// the hot send path may read it lock-free while setLink swaps the flow
	// pointer under mu.
	fc bool
	// slots is the hard data-occupancy bound in flow-control mode: a
	// counting semaphore of link-window capacity. Senders on pipeline or
	// handler goroutines block here when the queue is full; the router
	// never does (it sends with block=false and may transiently overflow
	// during recovery replay — see sendCtx).
	slots chan struct{}
	// stopA/stopB abort a blocked slot acquisition (owner killed, network
	// dying); an aborted sender overflows rather than losing the packet.
	stopA, stopB <-chan struct{}
	// released (guarded by mu; closed by releaseWaiters, re-armed by
	// setLink) aborts blocked slot acquisitions when the link dies: a
	// worker waiting on a dead peer's window would otherwise never reach
	// the quiesce barrier recovery needs to install the replacement link —
	// a deadlock. Released senders overflow into the (retained, bounded)
	// buffer, the pre-flow-control orphan behavior.
	released chan struct{}

	// flushMu is the wire ownership (see above). Held across link sends.
	flushMu sync.Mutex
	// again is the "flush again" mark: a flusher that loses the flushMu
	// TryLock stores its cause + 1 here, and the holder re-runs the flush
	// loop with that cause before returning (flushHeld).
	again atomic.Int32
	// takeBuf is the flusher's reusable batch buffer (owned by flushMu).
	// It is recycled across flushes only when the link copies batches
	// before SendBatch returns (copies); on retaining links — the
	// in-process transport, where the slice itself is the channel
	// transfer — a fresh buffer is taken per flush.
	takeBuf []*packet.Packet
	// copies caches transport.BatchCopies(link); read under flushMu,
	// written at construction and by setLink (which holds both locks).
	copies bool

	mu   sync.Mutex
	link transport.Link
	// flow is the link's credit accounting when flow control is on (the
	// same object as link); nil otherwise.
	flow   *transport.FlowLink
	buf    []*packet.Packet // plain FIFO (flow control off)
	sched  *egressSched     // priority scheduler (flow control on)
	bytes  int              // Σ encoded payload bytes queued (buf mode)
	oldest time.Time
	// owedAt is when the link started owing the peer credits no flush has
	// claimed yet (zero: none owed): it arms the age deadline like oldest
	// does, so a receiver that stops reaching idle points still returns
	// its credits within MaxDelay — even while credit-stalled itself.
	owedAt  time.Time
	window  int // flush window: MaxBatch, or 1 when flow control runs un-batched
	stalled bool
	// localHW mirrors the deepest depth this queue has reported to the
	// global high-water gauge, so the hot path pays an atomic only when
	// it sets a new per-queue record.
	localHW int

	// Exactly-once replay state (enableReplay). xonce is set once, before
	// the queue is shared, so hot paths read it lock-free; everything else
	// is guarded by mu. Flushed data packets are appended to ring and stay
	// there until the peer's cumulative grant acknowledgement covers them;
	// setLink re-flushes the un-popped suffix to the replacement link ahead
	// of everything else. The ring is bounded by the link window: a sender
	// can never have more unacknowledged packets in flight than credits.
	xonce bool
	// ackSink receives the deferred inbound retirements attached to
	// acknowledged packets (the per-node acker); nil at the back-end, where
	// acknowledgements only free ring memory.
	ackSink func([]*pendRetire)
	// ring is the preallocated circular replay buffer, sized to the link
	// window (the credit protocol bounds unacknowledged flushed data at
	// W); its slot structs are the recycled egress slots — a flushed
	// packet's custody moves from the schedule into a ring slot, and the
	// slot is reused once the cumulative ack retires it.
	ring *replayRing
	// ringAcked counts ring entries popped since the current link was
	// installed — the peer's cumulative count minus this is what a grant
	// newly acknowledges.
	ringAcked uint64
	// replaying marks ring packets queued for re-flush by setLink but not
	// yet re-sent: they must be neither re-appended to the ring when their
	// flush completes nor double-queued by a second setLink.
	replaying map[*packet.Packet]struct{}
	// meta carries each enqueued packet's deferred retirement until the
	// flush that sends it moves it into the ring.
	meta   map[*packet.Packet]*pendRetire
	ringHW int

	// stallCt counts this queue's credit stalls cumulatively (the global
	// CreditStalls counter aggregates across queues); it feeds the per-node
	// telemetry samples, so it is atomic — the sampler reads it off-goroutine.
	stallCt atomic.Int64
}

// kickFunc returns a non-blocking notifier for ch — the egress queues'
// empty -> non-empty wakeup toward their owner's timer loop.
func kickFunc(ch chan struct{}) func() {
	return func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// newEgressQueue wraps a link with the given (already normalized) policy.
// A *transport.FlowLink switches the queue into flow-controlled mode:
// hard-bounded occupancy, credit-aware flushes, priority scheduling.
func newEgressQueue(l transport.Link, pol BatchPolicy, m *Metrics, retain bool, kick func()) *egressQueue {
	q := &egressQueue{link: l, pol: pol, m: m, retain: retain, kick: kick, window: pol.MaxBatch}
	q.copies = transport.BatchCopies(l)
	q.adoptFlow(l)
	return q
}

// adoptFlow switches the queue's credit state to l's (callers hold mu, or
// own the queue exclusively at construction/reparent time).
func (q *egressQueue) adoptFlow(l transport.Link) {
	fl, _ := l.(*transport.FlowLink)
	q.flow = fl
	if fl == nil {
		return
	}
	if !q.fc {
		// First (construction-time) adoption: fc is immutable afterwards —
		// a replacement link is always the same kind — so the hot send
		// path may read it lock-free.
		q.fc = true
	}
	if q.sched == nil {
		q.sched = newEgressSched()
	}
	if q.slots == nil {
		q.slots = make(chan struct{}, fl.Window())
	}
	// (Re-)arm the hard bound: a fresh link means the window is enforceable
	// again after a releaseWaiters interlude.
	q.released = make(chan struct{})
	if !q.pol.enabled() {
		q.window = 1 // flow control without batching: flush per packet
	}
	// A grant from the peer may be the only thing that can restart a
	// stalled queue: resume immediately on refill.
	fl.SetRefillHook(q.unstall)
	// Credits this end owes the peer ride this queue's frames.
	fl.SetFlushHook(q.onOwed)
	if q.xonce {
		fl.SetAckHook(q.onAck)
	}
}

// enableReplay switches the queue into exactly-once mode: flushed data
// packets are held in the replay ring until the peer's cumulative grant
// acknowledgement covers them, setLink re-flushes the ring to replacement
// links, and sink (may be nil) receives the deferred inbound retirements
// attached to acknowledged packets. Must be called before the queue is
// shared with other goroutines.
func (q *egressQueue) enableReplay(sink func([]*pendRetire)) {
	q.xonce = true
	q.ackSink = sink
	capacity := transport.DefaultChanBuffer
	if q.flow != nil {
		capacity = q.flow.Window()
	}
	q.ring = newReplayRing(capacity)
	if q.flow != nil {
		q.flow.SetAckHook(q.onAck)
	}
}

// sendAck enqueues a data packet like sendCtx, registering ack to be
// completed when the peer acknowledges this packet. The last output of an
// inbound run carries the run's deferred retirement — acknowledgements are
// cumulative and flush order is FIFO, so covering the last packet covers
// the run.
func (q *egressQueue) sendAck(p *packet.Packet, prio int, block bool, ack *pendRetire) error {
	if ack == nil || !q.xonce {
		return q.sendCtx(p, prio, block)
	}
	q.mu.Lock()
	displaced := q.meta[p]
	if q.meta == nil {
		q.meta = map[*packet.Packet]*pendRetire{}
	}
	q.meta[p] = ack
	sink := q.ackSink
	q.mu.Unlock()
	if displaced != nil && displaced != ack && sink != nil {
		// The same packet pointer enqueued again before its first flush
		// (an in-process transport can hand a forwarded pointer back):
		// complete the displaced retirement rather than leak it.
		sink([]*pendRetire{displaced})
	}
	return q.sendCtx(p, prio, block)
}

// noteSent appends just-flushed data packets to the replay ring, in flush
// order — including the sent prefix of a flush whose link died mid-way:
// those packets are at risk exactly like any other unacknowledged flush.
// Packets completing a setLink re-flush are already in the ring and are
// only cleared from the replaying set.
func (q *egressQueue) noteSent(sent []*packet.Packet) {
	if len(sent) == 0 {
		return
	}
	q.mu.Lock()
	for _, p := range sent {
		if p.Tag == packet.TagControl {
			continue
		}
		if _, pending := q.replaying[p]; pending {
			delete(q.replaying, p)
			continue
		}
		var ack *pendRetire
		if a, ok := q.meta[p]; ok {
			ack = a
			delete(q.meta, p)
		}
		// Custody transfer: the encoded-body hold taken at enqueue now
		// belongs to the ring slot and is released when the cumulative
		// ack pops it (onAck) — the "replay ring has let go" half of the
		// release condition.
		q.ring.push(ringEntry{p: p, ack: ack})
	}
	if n := q.ring.len(); n > q.ringHW {
		q.ringHW = n
		for {
			cur := q.m.ReplayRingHighWater.Load()
			if int64(n) <= cur || q.m.ReplayRingHighWater.CompareAndSwap(cur, int64(n)) {
				break
			}
		}
	}
	q.mu.Unlock()
}

// onAck runs on the link's reader goroutine when a grant arrives: the
// peer's cumulative retirement count acknowledges a prefix of this queue's
// flush order. Pop the covered ring entries and hand their deferred
// retirements to the acker — never the wire from here (a reader blocked in
// a send stops draining its own link). A grant can outrun noteSent on an
// in-process transport; the pop clamps to the ring and the next cumulative
// count covers the shortfall.
func (q *egressQueue) onAck(n int, cum uint64) {
	var acks []*pendRetire
	q.mu.Lock()
	target := q.ringAcked + uint64(n)
	if cum > 0 {
		target = cum
	}
	if target < q.ringAcked {
		target = q.ringAcked
	}
	pop := int(target - q.ringAcked)
	if q.ring == nil {
		pop = 0
	} else if pop > q.ring.len() {
		pop = q.ring.len()
	}
	for i := 0; i < pop; i++ {
		e := q.ring.popFront()
		if e.ack != nil {
			acks = append(acks, e.ack)
		}
		if _, pending := q.replaying[e.p]; pending {
			// Acknowledged while queued for re-flush: the copy still
			// scheduled will be re-appended by its noteSent and retired as
			// a duplicate by the peer — the count algebra stays consistent
			// either way, and the encoded-body hold transfers to that
			// future ring slot (releasing here could recycle bytes the
			// re-flush is about to put on the wire).
			delete(q.replaying, e.p)
		} else {
			e.p.ReleaseEncoded()
		}
	}
	q.ringAcked += uint64(pop)
	sink := q.ackSink
	q.mu.Unlock()
	if len(acks) > 0 && sink != nil {
		sink(acks)
	}
}

// bindStops sets the channels that abort a blocked slot acquisition.
func (q *egressQueue) bindStops(a, b <-chan struct{}) {
	q.stopA, q.stopB = a, b
}

// acquireSlot takes one data-occupancy slot, blocking (abortably) when the
// queue is at the link window and block is true. Callers that may not
// block — the router during recovery replay and final drains — overflow
// instead, transiently exceeding the bound rather than deadlocking; the
// release side is tolerant of the resulting imbalance.
func (q *egressQueue) acquireSlot(block bool) {
	if q.slots == nil {
		return
	}
	select {
	case q.slots <- struct{}{}:
		return
	default:
	}
	if !block {
		return
	}
	q.mu.Lock()
	rel := q.released
	q.mu.Unlock()
	select {
	case q.slots <- struct{}{}:
	case <-q.stopA:
	case <-q.stopB:
	case <-rel:
	}
}

// rearmWaiters restores the hard bound after a releaseWaiters interlude
// (the owner finished quiescing, or a replacement link arrived): future
// blocked acquisitions wait again.
func (q *egressQueue) rearmWaiters() {
	if q == nil {
		return
	}
	q.mu.Lock()
	if q.slots != nil && q.released != nil {
		select {
		case <-q.released:
			q.released = make(chan struct{})
		default:
		}
	}
	q.mu.Unlock()
}

// releaseWaiters aborts every blocked slot acquisition and re-enables
// flush retries: called when the queue's link is known dead (parent or
// child EOF) and before every quiesce, so pipeline workers can finish
// their in-flight items — and reach the quiesce barrier — instead of
// waiting on a window nobody may ever refill. Overflowing sends land in
// the (bounded on the failure path) retained buffer; rearmWaiters or
// setLink restores the bound.
func (q *egressQueue) releaseWaiters() {
	if q == nil {
		return
	}
	q.mu.Lock()
	if q.released != nil {
		select {
		case <-q.released:
		default:
			close(q.released)
		}
	}
	// A credit stall against a dead peer must not suppress the age retry:
	// the retrying flush observes the dead link and retains (bounded) or
	// drops, releasing slots either way.
	q.stalled = false
	if q.queuedLocked() > 0 && q.oldest.IsZero() {
		q.oldest = time.Now()
	}
	kick := q.kick != nil && q.queuedLocked() > 0
	q.mu.Unlock()
	if kick {
		q.kick()
	}
}

// releaseSlots returns n data-occupancy slots; overflow sends may leave
// fewer held than released, so draining stops at empty.
func (q *egressQueue) releaseSlots(n int) {
	if q.slots == nil {
		return
	}
	for i := 0; i < n; i++ {
		select {
		case <-q.slots:
		default:
			return
		}
	}
}

// send enqueues a data packet at default priority, blocking if the
// flow-control window is exhausted. Flushes once the effective window
// fills. With batching and flow control both disabled it forwards directly
// to the link.
func (q *egressQueue) send(p *packet.Packet) error {
	return q.sendCtx(p, 0, true)
}

// sendCtx enqueues a data packet with a stream priority. block chooses
// between the hard bound (pipeline workers, back-end handlers: wait for a
// slot) and router-context overflow (recovery replay, drains: never block
// the control plane, accept a transient excursion past the window).
func (q *egressQueue) sendCtx(p *packet.Packet, prio int, block bool) error {
	if !q.fc {
		if !q.pol.enabled() {
			return q.sendDirect(p)
		}
		return q.enqueue(p, prio, false)
	}
	q.acquireSlot(block)
	return q.enqueue(p, prio, false)
}

// sendDirect forwards p straight to the link (batching and flow control
// both off), holding encoded-body custody across the send so a TCP write
// serializes into an arena buffer that recycles as soon as the wire has
// the bytes. Lock-free link read: q.link changes only before the queue is
// shared or while the owner's shards are quiesced (setLink during
// reparent), so no sender can observe the swap mid-flight.
func (q *egressQueue) sendDirect(p *packet.Packet) error {
	if p.Tag == packet.TagControl {
		return q.link.Send(p)
	}
	p.RetainEncoded(1)
	err := q.link.Send(p)
	p.ReleaseEncoded()
	return err
}

// sendNow enqueues p and flushes immediately. Control packets use it:
// order-sensitive control (stream setup/teardown, shutdown) keeps its FIFO
// position behind already queued data but never waits out a batching
// window; order-free control (telemetry) additionally jumps to the
// scheduler's control lane when flow control is on, so it can never be
// delayed behind credit-stalled data.
func (q *egressQueue) sendNow(p *packet.Packet) error {
	if !q.fc && !q.pol.enabled() {
		return q.sendDirect(p)
	}
	return q.enqueue(p, 0, true)
}

// enqueue appends p (ctrl marks a sendNow control packet), updates the
// bookkeeping, and triggers whatever flush is due. Producers never wait on
// the wire: a triggered flush that finds another flusher active is
// absorbed by that flusher's drain loop.
func (q *egressQueue) enqueue(p *packet.Packet, prio int, ctrl bool) error {
	if p.Tag != packet.TagControl {
		// Custody: the queue holds the data packet's encoded body from
		// here until the flush that ships it lets go — or, exactly-once,
		// until the replay ring does (DESIGN.md §12). While at least one
		// queue holds it, the encode body is arena-backed and every
		// reader of its bytes is covered by a hold.
		p.RetainEncoded(1)
	}
	q.mu.Lock()
	wasEmpty := q.queuedLocked() == 0
	if q.sched != nil {
		q.sched.add(p, prio, ctrl)
	} else if ctrl {
		q.buf = append(q.buf, p)
		q.bytes += p.EncodedSize() + 4
	} else {
		q.bufAddLocked(p)
	}
	if wasEmpty {
		q.oldest = time.Now()
	}
	q.m.PacketsQueued.Add(1)
	// The high-water gauge tracks what the link window bounds: data
	// occupancy in flow-controlled mode, everything queued otherwise.
	hw := q.queuedLocked()
	if q.sched != nil {
		hw = q.sched.data
	}
	if hw > q.localHW {
		q.localHW = hw
		q.noteDepth(hw)
	}
	due := ctrl || q.queuedLocked() >= q.window
	kick := q.kick != nil && wasEmpty && q.queuedLocked() > 0
	q.mu.Unlock()
	if kick {
		q.kick()
	}
	if !due {
		return nil
	}
	cause := flushSize
	if ctrl {
		cause = flushControl
	}
	return q.flush(cause)
}

// bufAddLocked appends a data packet to the plain FIFO, splitting off a
// pre-flush when the batch would outgrow the wire's frame byte bound.
// Individually legal packets must never combine into a frame the receiver
// would reject; the split flush blocks for the wire here (pre-flow-control
// behavior for oversize batches, which are rare). A failed split flush is
// deliberately absorbed: the flusher retained or dropped the buffer, and
// p queues behind whatever remains — later flushes surface the error.
func (q *egressQueue) bufAddLocked(p *packet.Packet) {
	sz := p.EncodedSize()
	if len(q.buf) > 0 && q.bytes+sz > maxEgressFrameBytes {
		q.mu.Unlock()
		_ = q.drainCause(flushSize)
		q.mu.Lock()
	}
	if len(q.buf) == 0 {
		q.oldest = time.Now()
	}
	q.buf = append(q.buf, p)
	q.bytes += sz + 4
}

// queuedLocked reports how many packets are queued. Callers hold mu.
func (q *egressQueue) queuedLocked() int {
	if q.sched != nil {
		return q.sched.count
	}
	return len(q.buf)
}

// flush runs the take-and-send loop if no other flusher owns the wire;
// otherwise it leaves the "flush again" mark, and the active flusher runs
// the loop once more, with this cause, before it lets go of the wire.
func (q *egressQueue) flush(cause int) error {
	q.again.Store(int32(cause) + 1)
	if !q.flushMu.TryLock() {
		return nil
	}
	return q.flushHeld(nil)
}

// flushIdle is the idle-point flush: the goroutine feeding the queue has
// no more work, so nothing it could batch with is coming. It sends what is
// queued plus the credits the link owes, and is a no-op when there is
// neither.
func (q *egressQueue) flushIdle() error {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	idle := q.queuedLocked() == 0 && (q.flow == nil || q.flow.Owed() == 0)
	q.mu.Unlock()
	if idle {
		return nil
	}
	return q.flush(flushIdle)
}

// onOwed is the link's flush hook (transport.FlowLink.SetFlushHook): a
// retirer reports credits owed to the peer. now asks for them at once —
// the grant threshold was crossed, or the receiver went idle; otherwise
// they arm the age deadline, as a queued packet would.
func (q *egressQueue) onOwed(now bool) {
	if now {
		_ = q.flush(flushControl)
		return
	}
	q.mu.Lock()
	armed := q.owedAt.IsZero()
	if armed {
		q.owedAt = time.Now()
	}
	q.mu.Unlock()
	if armed && q.kick != nil {
		q.kick()
	}
}

// drainCause blocks for wire ownership and drains with the given cause.
func (q *egressQueue) drainCause(cause int) error {
	q.flushMu.Lock()
	err := q.flushLoop(cause)
	return q.flushHeld(err)
}

// flushHeld honours pending "flush again" marks, then hands the wire back.
// A mark left after the last check is seen once the wire is released: the
// marker's TryLock either failed against us (and its mark is still set,
// so we take the wire back and run it) or succeeds after our unlock. Every
// mark is therefore run by somebody — a stranded one would leave queued
// data or owed credits behind with possibly nothing left to send them (a
// stranded credit is a deadlock). Marks that keep arriving are run for at
// most maxFlushRounds loops; then the rest is handed to the owner (see
// handOff), because the holder may be the router, which must get back to
// its control plane. Callers hold flushMu; err is the error of the
// caller's own flush so far, returned if nothing later fails first.
func (q *egressQueue) flushHeld(err error) error {
	for runs := 0; ; {
		if c := q.again.Swap(0); c != 0 {
			if runs == maxFlushRounds && q.kick != nil {
				q.flushMu.Unlock()
				q.handOff()
				return err
			}
			runs++
			if e := q.flushLoop(int(c - 1)); err == nil {
				err = e
			}
			continue
		}
		q.flushMu.Unlock()
		if q.again.Load() == 0 || !q.flushMu.TryLock() {
			return err
		}
	}
}

// handOff makes whatever is queued or owed due at once and kicks the
// owner, whose timer loop then runs the flush: the end of a flusher's turn
// when other flushers keep marking faster than it drains.
func (q *egressQueue) handOff() {
	q.mu.Lock()
	now := time.Now()
	if q.queuedLocked() > 0 {
		q.oldest = now.Add(-q.pol.MaxDelay)
	}
	if q.flow != nil && q.flow.Owed() > 0 {
		q.owedAt = now.Add(-q.owedDelay())
	}
	q.mu.Unlock()
	q.kick()
}

// claimGrantLocked claims every credit the link owes the peer and returns
// the grant carrying them, with an encoded-body hold the flusher drops
// once the frame is written (nil when nothing is owed). The grant leads
// the frame: the peer's absorb strips a leading grant without copying.
// Callers hold mu.
func (q *egressQueue) claimGrantLocked() *packet.Packet {
	if q.flow == nil {
		return nil
	}
	q.owedAt = time.Time{}
	g := q.flow.FlushRetired()
	if g == 0 {
		return nil
	}
	q.m.CreditGrants.Add(1)
	p := q.flow.GrantPacket(g)
	p.RetainEncoded(1)
	return p
}

// flushLoop repeatedly takes a batch (under mu) and sends it (outside mu)
// until the queue is empty, the peer's credit window is exhausted, the
// round bound is hit, or the wire fails. Every round first claims the
// credits the link owes and sends their grant at the head of the batch —
// alone when no data can go. Callers hold flushMu.
func (q *egressQueue) flushLoop(cause int) error {
	// Drains normally bypass the credit window (shutdown must move even
	// against a stalled peer), but a replaying queue cannot: every
	// credit-bypassing send would grow the replay ring past the window
	// bound W, and the exactly-once guarantee prices replay memory at
	// exactly links × W. Past-window packets stay queued; the grant that
	// retires in-flight data re-triggers the flush.
	bypass := cause == flushDrain && !q.xonce
	for round := 0; round < maxFlushRounds; round++ {
		q.mu.Lock()
		grant := q.claimGrantLocked()
		var batch []*packet.Packet
		var total, nData int
		var stalled bool
		if q.sched != nil {
			dst := q.takeBuf[:0]
			if grant != nil {
				dst = append(dst, grant)
				total = grant.EncodedSize() + 4
			}
			var taken int
			batch, taken, nData, stalled = q.sched.take(q.flow, bypass, dst)
			total += taken
			// The take buffer is recycled across flushes only on links
			// that copy batches; a retaining link owns the slice once
			// sendFrames hands it over (the batchalias contract).
			if q.copies {
				q.takeBuf = batch[:0]
			} else {
				q.takeBuf = nil
			}
		} else {
			batch, total = q.buf, q.bytes
			q.buf, q.bytes = nil, 0
		}
		if len(batch) == 0 {
			if stalled && q.sched.count > 0 {
				if q.grantLandedLocked() {
					q.mu.Unlock()
					continue
				}
				q.noteStallLocked()
			} else if q.queuedLocked() == 0 {
				q.oldest = time.Time{}
			}
			q.mu.Unlock()
			return nil
		}
		q.mu.Unlock()

		// Count before writing: the peer may act on a frame before the
		// write returns, and the counters must never lag what a peer has
		// seen. A frame carrying nothing but the grant is credit traffic,
		// not a data frame: the frame and flush-cause counters skip it.
		data := grant == nil || len(batch) > 1
		if data {
			q.countFlush(cause, 1)
		}
		unsent, frames, err := q.sendFrames(batch, total, data)
		if data && frames == 0 {
			q.countFlush(cause, -1)
		}
		if grant != nil {
			// The grant's custody ends with the write. On a failed first
			// frame it never left, and its credits die with the link: a
			// replacement link starts a fresh window on both sides.
			grant.ReleaseEncoded()
			if len(unsent) == len(batch) {
				unsent = unsent[1:]
			}
			batch = batch[1:]
		}
		sent := batch[: len(batch)-len(unsent) : len(batch)]
		if q.xonce {
			// Ring-append the sent prefix even when the flush failed: those
			// frames reached the wire before the link died, and losing them
			// from the ring would make them unrecoverable. Custody of the
			// sent packets moves into the ring.
			q.noteSent(sent)
		} else {
			// Sent packets left the queue for good: release the custody
			// holds taken at enqueue, returning arena-backed encode
			// bodies once every sharing queue has flushed.
			releaseEncoded(sent)
		}
		if err != nil {
			q.failedFlush(unsent, nData, bypass)
			return err
		}
		q.releaseSlots(nData)
		q.mu.Lock()
		if stalled && q.sched.count > 0 {
			if q.grantLandedLocked() {
				q.mu.Unlock()
				continue
			}
			q.noteStallLocked()
			q.mu.Unlock()
			return nil
		}
		empty := q.queuedLocked() == 0
		if empty {
			q.oldest = time.Time{}
		}
		q.mu.Unlock()
		if empty {
			return nil
		}
	}
	return nil
}

// countFlush adds d to the counter of the flush cause.
func (q *egressQueue) countFlush(cause int, d int64) {
	switch cause {
	case flushSize:
		q.m.FlushSize.Add(d)
	case flushAge:
		q.m.FlushAge.Add(d)
	case flushControl:
		q.m.FlushControl.Add(d)
	case flushDrain, flushResume:
		q.m.FlushDrain.Add(d)
	case flushIdle:
		q.m.FlushIdle.Add(d)
	}
}

// releaseEncoded drops the enqueue-time custody hold of every data packet
// in ps, recycling arena-backed encode bodies once the last holding queue
// lets go. Control packets are never tracked (they are encoded at most once
// per link and their bodies are not pooled).
func releaseEncoded(ps []*packet.Packet) {
	for _, p := range ps {
		if p.Tag != packet.TagControl {
			p.ReleaseEncoded()
		}
	}
}

// noteStallLocked marks the queue credit-stalled: its age deadline is
// suppressed (only a grant can make progress) and the stall is counted.
// Callers hold mu.
func (q *egressQueue) noteStallLocked() {
	if !q.stalled {
		q.stalled = true
		q.stallCt.Add(1)
		q.m.CreditStalls.Add(1)
	}
}

// stalls reports the queue's cumulative credit-stall count; safe for any
// goroutine (telemetry sampling).
func (q *egressQueue) stalls() int64 {
	if q == nil {
		return 0
	}
	return q.stallCt.Load()
}

// grantLandedLocked probes for a grant that arrived between take()'s
// failed credit acquisition and now: the refill's unstall either ran
// before the stall flag existed (a lost wakeup, which this probe closes —
// the flusher just goes another round) or is blocked on mu and will
// observe the flag once set. Callers hold mu.
func (q *egressQueue) grantLandedLocked() bool {
	if q.flow == nil || !q.flow.TryAcquire() {
		return false
	}
	q.flow.Refund(1)
	return true
}

// unstall clears a credit stall after an inbound grant refilled the send
// window: the queue's age deadline is re-armed as already due and the
// owner is kicked — its timer loop sees the expired deadline immediately
// and flushes. The hook runs on the link's READER goroutine, which must
// never itself touch the wire: a reader blocked in a send stops draining
// its own link, and two peers doing that symmetrically would deadlock.
func (q *egressQueue) unstall() {
	q.mu.Lock()
	was := q.stalled
	if was {
		q.stalled = false
		q.oldest = time.Now().Add(-q.pol.MaxDelay)
	}
	q.mu.Unlock()
	if was && q.kick != nil {
		q.kick()
	}
}

// failedFlush restores or drops the unsent remainder of a failed
// flush and refunds any wire credits it had acquired.
func (q *egressQueue) failedFlush(unsent []*packet.Packet, nData int, bypass bool) {
	// Credits were acquired for every data packet taken; refund the unsent
	// ones (unless the drain bypassed accounting entirely).
	unsentData := 0
	for _, p := range unsent {
		if p.Tag != packet.TagControl {
			unsentData++
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.flow != nil && !bypass {
		// Refund, not Refill: no hook may run under mu, and there is
		// nothing to wake — the credits were never the peer's to grant.
		q.flow.Refund(unsentData)
	}
	q.releaseSlots(nData - unsentData) // sent data left the queue for good
	if q.retain {
		// The link died under us: keep the unsent remainder (bounded) so a
		// reparent can re-flush it to the new parent.
		if n := len(unsent) - maxRetained; n > 0 {
			q.m.EgressDrops.Add(int64(n))
			releaseEncoded(unsent[:n])
			unsent = unsent[n:]
		}
		if q.sched != nil {
			q.sched.restore(unsent)
		} else {
			q.buf = append(unsent, q.buf...)
			q.bytes = 0
			for _, r := range q.buf {
				q.bytes += r.EncodedSize() + 4
			}
		}
		// Restart the age clock so retries back off by MaxDelay instead of
		// hot-looping on an already-expired deadline.
		q.oldest = time.Now()
	} else {
		q.m.EgressDrops.Add(int64(len(unsent)))
		releaseEncoded(unsent)
		q.releaseSlots(unsentData)
	}
}

// sendFrames moves buf onto the link, splitting it whenever the combined
// encoding would exceed the wire's frame byte bound — a retained buffer
// re-flushed after reparenting, or control flushed behind large queued
// data, can outgrow what a single frame may carry. The common case (total
// within bound, maintained by send) is a single SendBatch. On error the
// not-yet-sent packets are returned; already-sent frames are delivered, so
// nothing is duplicated on retry. Callers hold flushMu (which is what
// makes reading q.link here safe: setLink swaps it only under flushMu).
func (q *egressQueue) sendFrames(buf []*packet.Packet, total int, count bool) (unsent []*packet.Packet, frames int64, err error) {
	link := q.link
	if total <= maxEgressFrameBytes+4 {
		if err := q.writeFrame(link, buf, count); err != nil {
			return buf, 0, err
		}
		return nil, 1, nil
	}
	start, bytes := 0, 0
	for i, p := range buf {
		sz := p.EncodedSize() + 4
		if i > start && bytes+sz > maxEgressFrameBytes+4 {
			if err := q.writeFrame(link, buf[start:i], count); err != nil {
				return buf[start:], frames, err
			}
			frames++
			start, bytes = i, 0
		}
		bytes += sz
	}
	if err := q.writeFrame(link, buf[start:], count); err != nil {
		return buf[start:], frames, err
	}
	return nil, frames + 1, nil
}

// writeFrame writes one frame, counting it in FramesSent first when count
// is set (see flushLoop); a failed write takes the count back.
func (q *egressQueue) writeFrame(link transport.Link, ps []*packet.Packet, count bool) error {
	if count {
		q.m.FramesSent.Add(1)
	}
	err := transport.SendBatch(link, ps)
	if err != nil && count {
		q.m.FramesSent.Add(-1)
	}
	return err
}

// deadline returns when the queue must next be age-flushed: MaxDelay after
// the oldest queued packet, or after the link started owing credits,
// whichever is sooner; the zero time when neither applies. Queued data of
// a credit-stalled queue arms nothing — only an inbound grant (whose
// refill hook re-arms the deadline) can move it, and a timer would just
// spin — but owed credits still do: the peer may be stalled on them.
func (q *egressQueue) deadline() time.Time {
	if q == nil {
		return time.Time{}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.deadlineLocked()
}

func (q *egressQueue) deadlineLocked() time.Time {
	var d time.Time
	if q.queuedLocked() > 0 && !q.stalled && !q.oldest.IsZero() {
		d = q.oldest.Add(q.pol.MaxDelay)
	}
	if !q.owedAt.IsZero() {
		if o := q.owedAt.Add(q.owedDelay()); d.IsZero() || o.Before(d) {
			d = o
		}
	}
	return d
}

// owedDelay bounds how long owed credits wait for a flush: MaxDelay, or
// the default bound on un-batched flow-controlled queues, which have no
// MaxDelay of their own (zero would send one grant per retirement).
func (q *egressQueue) owedDelay() time.Duration {
	if q.pol.MaxDelay > 0 {
		return q.pol.MaxDelay
	}
	return DefaultBatchDelay
}

// pollAge flushes the queue if its age deadline has passed.
func (q *egressQueue) pollAge(now time.Time) {
	if q == nil {
		return
	}
	q.mu.Lock()
	d := q.deadlineLocked()
	q.mu.Unlock()
	if !d.IsZero() && !now.Before(d) {
		_ = q.flush(flushAge)
	}
}

// drain force-flushes everything queued (shutdown, reparent, Flush),
// bypassing the credit window: the endpoints are quiescing and losslessness
// outranks the bound.
func (q *egressQueue) drain() error {
	if q == nil {
		return nil
	}
	return q.drainCause(flushDrain)
}

// setLink repoints the queue at a replacement link (recovery reparenting)
// and re-flushes anything retained across the old link's death — within
// the NEW link's credit window, which starts full: retained packets
// re-enter the bounded window without double-spending credits, and
// whatever exceeds it stays queued until the new peer grants. If the
// re-flush fails again the buffer stays retained, and the owner is kicked
// to re-arm its age timer for the retry.
func (q *egressQueue) setLink(l transport.Link) {
	q.flushMu.Lock()
	q.mu.Lock()
	if old := q.flow; old != nil {
		old.SetRefillHook(nil)
		old.SetAckHook(nil)
		old.SetFlushHook(nil)
	}
	q.link = l
	q.adoptFlow(l)
	q.stalled = false
	// Credits owed on the old link died with it: the replacement starts
	// with nothing retired on either side.
	q.owedAt = time.Time{}
	if q.xonce {
		// The new peer's cumulative count starts at zero and will count the
		// replayed packets first: re-flush the un-popped ring suffix ahead
		// of everything, in ring order, so its prefix correspondence holds
		// on the replacement link too. Entries already queued for re-flush
		// by an earlier setLink are still at the schedule head; skip them.
		q.ringAcked = 0
		var replay []*packet.Packet
		for i := 0; i < q.ring.len(); i++ {
			e := q.ring.at(i)
			if _, pending := q.replaying[e.p]; pending {
				continue
			}
			if q.replaying == nil {
				q.replaying = map[*packet.Packet]struct{}{}
			}
			q.replaying[e.p] = struct{}{}
			replay = append(replay, e.p)
		}
		if len(replay) > 0 {
			q.sched.restore(replay)
			// Their occupancy slots were released when they first flushed;
			// best-effort reacquisition keeps the semaphore near the true
			// queue depth (overflow past the window is tolerated here, as
			// in every recovery path).
			for range replay {
				select {
				case q.slots <- struct{}{}:
				default:
				}
			}
			q.m.PacketsReplayed.Add(int64(len(replay)))
		}
	}
	queued := q.queuedLocked()
	if queued > 0 {
		q.oldest = time.Now()
	}
	q.mu.Unlock()
	if queued > 0 {
		_ = q.flushLoop(flushResume)
	}
	_ = q.flushHeld(nil)
	q.mu.Lock()
	kick := q.kick != nil && q.queuedLocked() > 0
	q.mu.Unlock()
	if kick {
		q.kick()
	}
}

// clear drops everything queued (a fenced-off dead child slot).
func (q *egressQueue) clear() {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	dropped := q.queuedLocked()
	if dropped == 0 {
		return
	}
	q.m.EgressDrops.Add(int64(dropped))
	if q.sched != nil {
		// Drain through take so the scheduler's freelists keep their
		// recycled epochs and streams, and release the dropped packets'
		// custody holds.
		ps, _, _, _ := q.sched.take(nil, true, nil)
		releaseEncoded(ps)
	} else {
		releaseEncoded(q.buf)
		q.buf, q.bytes = nil, 0
	}
	q.releaseSlots(dropped)
	q.stalled = false
	q.oldest = time.Time{}
}

// extract removes and returns every queued data packet, in wire order —
// the exactly-once replacement for clear on a fenced dead child slot:
// nothing queued there ever reached the wire, so the router re-routes the
// packets through the repaired stream table instead of dropping them.
// Control packets addressed to the dead child are dropped as before.
func (q *egressQueue) extract() []*packet.Packet {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	total := q.queuedLocked()
	if total == 0 {
		return nil
	}
	var out []*packet.Packet
	if q.sched != nil {
		ps, _, _, _ := q.sched.take(nil, true, nil)
		for _, p := range ps {
			if p.Tag != packet.TagControl {
				out = append(out, p)
			}
		}
		// The router re-enqueues the extracted packets through the repaired
		// routes, re-taking custody there; this queue's holds end here.
		releaseEncoded(ps)
	} else {
		for _, p := range q.buf {
			if p.Tag != packet.TagControl {
				out = append(out, p)
			}
		}
		releaseEncoded(q.buf)
		q.buf, q.bytes = nil, 0
	}
	if d := total - len(out); d > 0 {
		q.m.EgressDrops.Add(int64(d))
	}
	q.releaseSlots(total)
	q.stalled = false
	q.oldest = time.Time{}
	return out
}

// pending reports how many packets are queued (tests, backpressure probes).
func (q *egressQueue) pending() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queuedLocked()
}

// noteDepth maintains the high-water depth gauge.
func (q *egressQueue) noteDepth(d int) {
	for {
		cur := q.m.EgressHighWater.Load()
		if int64(d) <= cur || q.m.EgressHighWater.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}
