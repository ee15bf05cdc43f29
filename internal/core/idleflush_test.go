package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

// frameLink counts the frames written through it and remembers the last
// one, so a test can see exactly what one flush put on the wire. A delay
// makes every write slow, so flushers hold the wire long enough for others
// to lose the race for it.
type frameLink struct {
	transport.Link
	delay  time.Duration
	mu     sync.Mutex
	frames int
	last   []*packet.Packet
}

func (l *frameLink) note(ps []*packet.Packet) {
	l.mu.Lock()
	l.frames++
	l.last = append([]*packet.Packet(nil), ps...)
	l.mu.Unlock()
	if l.delay > 0 {
		time.Sleep(l.delay)
	}
}

func (l *frameLink) Send(p *packet.Packet) error {
	l.note([]*packet.Packet{p})
	return l.Link.Send(p)
}

func (l *frameLink) SendBatch(ps []*packet.Packet) error {
	l.note(ps)
	return transport.SendBatch(l.Link, ps)
}

func (l *frameLink) RecvBatch() ([]*packet.Packet, error) { return transport.RecvBatch(l.Link) }

// TestGrantRidesDataFrame: with credits owed on a link and data queued
// toward the same peer, one idle flush writes exactly one frame — the
// grant at its head, then the data — and the peer's receive edge absorbs
// the grant and hands up only the data.
func TestGrantRidesDataFrame(t *testing.T) {
	a, b := transport.NewPair(16)
	wire := &frameLink{Link: a}
	fa := transport.NewFlowLink(wire, 8)
	fb := transport.NewFlowLink(b, 8)
	var acked atomic.Int64
	fb.SetAckHook(func(n int, _ uint64) { acked.Add(int64(n)) })
	var m Metrics
	q := newEgressQueue(fa, BatchPolicy{MaxBatch: 32, MaxDelay: time.Hour}.normalized(), &m, false, nil)

	for i := 0; i < 3; i++ {
		if err := q.send(packet.MustNew(tagQuery, 1, 5, "%d", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// One inbound packet finished: below the grant threshold (W/4 = 2), so
	// the credit is owed, not sent.
	retireAndGrant(&m, fa, 1)
	if wire.frames != 0 {
		t.Fatalf("%d frames written before the flush, want 0", wire.frames)
	}
	if err := q.flushIdle(); err != nil {
		t.Fatal(err)
	}
	if wire.frames != 1 {
		t.Fatalf("flush wrote %d frames, want 1", wire.frames)
	}
	if len(wire.last) != 4 {
		t.Fatalf("frame carries %d packets, want the grant plus 3 data packets", len(wire.last))
	}
	if n, ok := packet.CreditGrantValue(wire.last[0]); !ok || n != 1 {
		t.Fatalf("frame head = tag %d (grant %v, %d credits), want a 1-credit grant", wire.last[0].Tag, ok, n)
	}
	got, err := fb.RecvBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("peer received %d packets, want the 3 data packets", len(got))
	}
	for i, p := range got {
		if v, _ := p.Int(0); p.Tag != tagQuery || v != int64(i) {
			t.Fatalf("peer packet %d: tag %d value %d, want data %d", i, p.Tag, v, i)
		}
	}
	if acked.Load() != 1 {
		t.Errorf("peer absorbed %d granted credits, want 1", acked.Load())
	}
	if fa.FlushRetired() != 0 {
		t.Error("credits still owed after the flush")
	}
	if g, f, idle := m.CreditGrants.Load(), m.FramesSent.Load(), m.FlushIdle.Load(); g != 1 || f != 1 || idle != 1 {
		t.Errorf("CreditGrants=%d FramesSent=%d FlushIdle=%d, want 1 each", g, f, idle)
	}
}

// TestConcurrentFlushHandoffStrandsNothing races producers, idle flushes
// and credit retirements on one flow-controlled queue whose age bound is
// an hour, so only the flushes the operations themselves trigger can move
// anything. A flusher that loses the wire must leave its mark for the
// holder: afterwards nothing may be queued and no credit may be owed —
// without any drain.
func TestConcurrentFlushHandoffStrandsNothing(t *testing.T) {
	const (
		workers = 8
		perW    = 200
		window  = 16
	)
	a, b := transport.NewPair(8)
	fa := transport.NewFlowLink(&frameLink{Link: a, delay: 20 * time.Microsecond}, window)
	fb := transport.NewFlowLink(b, window)
	var granted atomic.Int64
	fb.SetAckHook(func(n int, _ uint64) { granted.Add(int64(n)) })
	var m Metrics
	kick := make(chan struct{}, 1)
	q := newEgressQueue(fa, BatchPolicy{MaxBatch: 8, MaxDelay: time.Hour}.normalized(), &m, false, kickFunc(kick))
	stop := make(chan struct{})
	defer close(stop)
	q.bindStops(stop, nil)

	// The owner loop: a grant that clears a credit stall makes the queue
	// due at once and kicks its owner, as a router's timer loop would see.
	go func() {
		for {
			select {
			case <-kick:
				q.pollAge(time.Now())
			case <-stop:
				return
			}
		}
	}()
	// The sender's reader absorbs the peer's grants.
	go func() {
		for {
			if _, err := fa.RecvBatch(); err != nil {
				return
			}
		}
	}()
	// The peer retires everything it receives and grants straight back.
	var received atomic.Int64
	go func() {
		for {
			ps, err := fb.RecvBatch()
			if err != nil {
				return
			}
			received.Add(int64(len(ps)))
			if g := fb.Retire(len(ps)); g > 0 {
				_ = fb.Send(fb.GrantPacket(g))
			}
			if g := fb.FlushRetired(); g > 0 {
				_ = fb.Send(fb.GrantPacket(g))
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if err := q.send(packet.MustNew(tagQuery, uint32(w+1), 5, "%d", int64(i))); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					retireAndGrant(&m, fa, 1)
				}
				if i%3 == 0 {
					_ = q.flushIdle()
				}
			}
			// Last, a credit owed with no data behind it: only a flush
			// that honours this idle call's mark can send it.
			retireAndGrant(&m, fa, 1)
			_ = q.flushIdle()
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		// A stranded flush leaves the queue full and the producers blocked
		// on its slots for good (the deferred stop releases them).
		t.Fatalf("producers wedged with %d packets queued", q.pending())
	}

	const total, owed = workers * perW, workers * (perW/2 + 1)
	deadline := time.Now().Add(5 * time.Second)
	for (received.Load() < total || granted.Load() < owed) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := received.Load(); got != total {
		t.Errorf("peer received %d of %d packets; %d still queued", got, total, q.pending())
	}
	if got := granted.Load(); got != owed {
		t.Errorf("peer was granted %d of %d credits owed to it", got, owed)
	}
	if n := q.pending(); n != 0 {
		t.Errorf("%d packets stranded in the queue", n)
	}
	if g := fa.FlushRetired(); g != 0 {
		t.Errorf("%d credits stranded unclaimed", g)
	}
}

// TestNoWaveWaitsForAgeTimer: with an age bound of an hour, closed-loop
// request/reply waves complete only if every hop flushes at its idle
// point and every owed credit rides a frame that actually goes out — on
// both fabrics, with flow control and exactly-once delivery on.
func TestNoWaveWaitsForAgeTimer(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind TransportKind
	}{
		{"chan", ChanTransport},
		{"tcp", TCPTransport},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := NewNetwork(Config{
				Topology:    mustTree(t, "kary:4^2"),
				Transport:   tc.kind,
				Batch:       BatchPolicy{MaxBatch: 32, MaxDelay: time.Hour},
				LinkWindow:  64,
				Recoverable: true,
				ExactlyOnce: true,
				OnBackEnd: func(be *BackEnd) error {
					for {
						p, err := be.Recv()
						if err != nil {
							return nil
						}
						v, _ := p.Int(0)
						if err := be.Send(p.StreamID, p.Tag, "%f", float64(v)); err != nil {
							return err
						}
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Shutdown()
			st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
			if err != nil {
				t.Fatal(err)
			}
			leaves := len(mustTree(t, "kary:4^2").Leaves())
			for i := 0; i < 50; i++ {
				start := time.Now()
				if err := st.Multicast(tagQuery, "%d", int64(i)); err != nil {
					t.Fatal(err)
				}
				p, err := st.RecvTimeout(time.Second)
				if err != nil {
					t.Fatalf("wave %d: %v (an idle point did not flush)", i, err)
				}
				if v, _ := p.Float(0); v != float64(i*leaves) {
					t.Fatalf("wave %d: sum %v, want %d", i, v, i*leaves)
				}
				if d := time.Since(start); d > time.Second {
					t.Fatalf("wave %d took %v", i, d)
				}
			}
			if n := nw.Metrics().FlushAge.Load(); n != 0 {
				t.Errorf("FlushAge = %d, want 0: some frame waited for the age timer", n)
			}
		})
	}
}

// hookLink runs onSend before every packet it writes.
type hookLink struct {
	transport.Link
	onSend func()
}

func (l *hookLink) Send(p *packet.Packet) error {
	l.onSend()
	return l.Link.Send(p)
}

// TestFlushHandOffBoundsHolder: a flusher that sees another producer
// queue more and mark the wire during every write runs a bounded number
// of extra loops, then hands what is left to the queue's owner — due at
// once, owner kicked — instead of flushing for the others indefinitely.
func TestFlushHandOffBoundsHolder(t *testing.T) {
	a, _ := transport.NewPair(1024)
	var q *egressQueue
	writes := 0
	link := &hookLink{Link: a, onSend: func() {
		writes++
		_ = q.sendCtx(packet.MustNew(tagQuery, 1, 5, "%d", int64(writes)), 0, false)
		_ = q.flush(flushSize) // loses the TryLock: leaves its mark
	}}
	var m Metrics
	kick := make(chan struct{}, 1)
	q = newEgressQueue(link, BatchPolicy{MaxBatch: 32, MaxDelay: time.Hour}.normalized(), &m, false, kickFunc(kick))

	if err := q.send(packet.MustNew(tagQuery, 1, 5, "%d", int64(0))); err != nil {
		t.Fatal(err)
	}
	if err := q.flushIdle(); err != nil {
		t.Fatal(err)
	}
	if max := (maxFlushRounds + 1) * maxFlushRounds; writes > max {
		t.Errorf("holder wrote %d times, want at most %d", writes, max)
	}
	if q.pending() == 0 {
		t.Fatal("nothing left queued: the producer stopped marking")
	}
	if d := q.deadline(); d.IsZero() || d.After(time.Now()) {
		t.Errorf("after the hand-off the queue is due at %v, want now", d)
	}
	select {
	case <-kick:
	default:
		t.Error("owner not kicked")
	}
}
