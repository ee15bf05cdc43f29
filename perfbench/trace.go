package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/transport"
)

// The traced run measures each layer from outside: every call the
// benchmark's wrappers see is timed into a histogram, counted, and recorded
// as a span in a fixed in-memory buffer that is written out when the run
// ends. The untraced run installs none of this.

// Span kinds, one per wrapped layer boundary.
const (
	spanMulticast = iota // core: Stream.Multicast
	spanBESend           // core: BackEnd.Send
	spanLinkSend         // transport: Link.Send / SendBatch
	spanTransform        // filter: Transformation.Transform
	spanSync             // filter: Synchronizer Add / AddBatch / Poll / Drain / RemapSlots
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"core.multicast", "core.be_send", "transport.send", "filter.transform", "filter.sync"}

// span is one timed call. Op is the benchmark operation that caused it (a
// wave or a sample id) where the caller knows it, else -1.
type span struct {
	kind       uint8
	op         int64
	start, end int64 // ns since the tracer's epoch
}

// spanCap bounds the span buffer; later calls are still timed and counted,
// only their spans are not kept.
const spanCap = 1 << 17

// histBuckets covers 0 ns to 2^63 ns with 32 linear sub-buckets per power of
// two, so a recorded value is off by at most 1/32 of itself.
const (
	histSub     = 32
	histBuckets = histSub + 59*histSub
)

// hist is a lock-free log-linear latency histogram.
type hist struct{ b [histBuckets]atomic.Int64 }

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 6
	return histSub + shift*histSub + int(v>>shift) - histSub
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	shift := (i - histSub) / histSub
	m := int64((i-histSub)%histSub + histSub)
	return float64(m<<shift) + float64(int64(1)<<shift)/2
}

func (h *hist) add(v int64) { h.b[histIndex(v)].Add(1) }

// histSnap is a point-in-time copy of a hist; windows are deltas of two.
type histSnap [histBuckets]int64

func (h *hist) snap() *histSnap {
	var s histSnap
	for i := range h.b {
		s[i] = h.b[i].Load()
	}
	return &s
}

func (s *histSnap) minus(o *histSnap) *histSnap {
	var d histSnap
	for i := range s {
		d[i] = s[i] - o[i]
	}
	return &d
}

func (s *histSnap) count() int64 {
	var n int64
	for _, c := range s {
		n += c
	}
	return n
}

// quantile returns the q-quantile in ns, or 0 for an empty histogram.
func (s *histSnap) quantile(q float64) float64 {
	n := s.count()
	if n == 0 {
		return 0
	}
	rank := int64(q*float64(n-1)) + 1
	var seen int64
	for i, c := range s {
		seen += c
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

// layerStat accumulates one boundary's calls: a count, total busy time,
// a duration histogram, and the boundary's own counts where it has them.
type layerStat struct {
	calls   atomic.Int64
	busyNs  atomic.Int64
	pktsIn  atomic.Int64 // packets into a transformation
	pktsOut atomic.Int64 // packets out of a transformation
	bytes   atomic.Int64 // wire bytes sent (TCP)
	ctrl    atomic.Int64 // frames carrying only credit grants (transport)
	recv    atomic.Int64 // frames received (transport)
	h       hist
}

type layerSnap struct {
	calls, busyNs, pktsIn, pktsOut, bytes, ctrl, recv int64
	h                                                 *histSnap
}

func (l *layerStat) snap() layerSnap {
	return layerSnap{
		calls: l.calls.Load(), busyNs: l.busyNs.Load(),
		pktsIn: l.pktsIn.Load(), pktsOut: l.pktsOut.Load(),
		bytes: l.bytes.Load(), ctrl: l.ctrl.Load(), recv: l.recv.Load(),
		h: l.h.snap(),
	}
}

func (s layerSnap) minus(o layerSnap) layerSnap {
	return layerSnap{
		calls: s.calls - o.calls, busyNs: s.busyNs - o.busyNs,
		pktsIn: s.pktsIn - o.pktsIn, pktsOut: s.pktsOut - o.pktsOut,
		bytes: s.bytes - o.bytes, ctrl: s.ctrl - o.ctrl, recv: s.recv - o.recv,
		h: s.h.minus(o.h),
	}
}

// tracer owns the per-boundary statistics and the span buffer of one
// traced network. A nil *tracer means an untraced run; its methods are not
// called then (the wrappers are simply not installed).
type tracer struct {
	epoch  time.Time
	layers [numSpanKinds]layerStat
	// keep is set while the measured window is open; spans are kept only
	// then, so set-up and warm-up calls do not fill the buffer.
	keep    atomic.Bool
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, spanCap)}
}

// begin returns the start stamp of a call.
func (t *tracer) begin() int64 { return int64(time.Since(t.epoch)) }

// end records a call of the given kind that began at start.
func (t *tracer) end(kind uint8, op, start int64) {
	stop := int64(time.Since(t.epoch))
	d := stop - start
	l := &t.layers[kind]
	l.calls.Add(1)
	l.busyNs.Add(d)
	l.h.add(d)
	if !t.keep.Load() {
		return
	}
	if i := t.next.Add(1) - 1; i < spanCap {
		t.spans[i] = span{kind: kind, op: op, start: start, end: stop}
	} else {
		t.dropped.Add(1)
	}
}

func (t *tracer) snap() [numSpanKinds]layerSnap {
	var s [numSpanKinds]layerSnap
	for i := range t.layers {
		s[i] = t.layers[i].snap()
	}
	return s
}

// writeSpans writes the spans kept in the measured window as JSON lines: one per span, then a
// trailer giving how many were not kept.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	n := t.next.Load()
	if n > spanCap {
		n = spanCap
	}
	for _, s := range t.spans[:n] {
		fmt.Fprintf(w, "{\"name\":%q,\"op\":%d,\"start_ns\":%d,\"end_ns\":%d}\n", spanNames[s.kind], s.op, s.start, s.end)
	}
	fmt.Fprintf(w, "{\"spans_kept\":%d,\"spans_dropped\":%d}\n", n, t.dropped.Load())
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// --- transport: a timing Link installed through core.Config.WrapFabric ---

// timedLink times every send on one link end and counts received frames.
// It forwards BatchLink, BatchCopier and Dropper to the wrapped link
// through the transport package helpers, which fall back exactly as they
// would for the bare link, so core takes the same paths traced or not.
type timedLink struct {
	inner transport.Link
	t     *tracer
	isTCP bool
}

func wrapFabric(t *tracer, tcp bool) func([]*transport.Endpoint) {
	wrap := func(l transport.Link) transport.Link {
		if l == nil {
			return nil
		}
		return &timedLink{inner: l, t: t, isTCP: tcp}
	}
	return func(eps []*transport.Endpoint) {
		for _, ep := range eps {
			ep.Parent = wrap(ep.Parent)
			for i, c := range ep.Children {
				ep.Children[i] = wrap(c)
			}
		}
	}
}

// noteSend counts the wire bytes of one frame and whether it carries only
// credit grants. Sizes are taken before the send: afterwards a pooled
// encoding may already be back in the arena.
func (l *timedLink) noteSend(ps []*packet.Packet) {
	c := &l.t.layers[spanLinkSend]
	if l.isTCP {
		c.bytes.Add(int64(4 + packet.EncodedFrameSize(ps)))
	}
	for _, p := range ps {
		if _, ok := packet.CreditGrantValue(p); !ok {
			return
		}
	}
	c.ctrl.Add(1)
}

func (l *timedLink) Send(p *packet.Packet) error {
	l.noteSend([]*packet.Packet{p})
	start := l.t.begin()
	err := l.inner.Send(p)
	l.t.end(spanLinkSend, -1, start)
	return err
}

func (l *timedLink) SendBatch(ps []*packet.Packet) error {
	l.noteSend(ps)
	start := l.t.begin()
	err := transport.SendBatch(l.inner, ps)
	l.t.end(spanLinkSend, -1, start)
	return err
}

func (l *timedLink) Recv() (*packet.Packet, error) {
	p, err := l.inner.Recv()
	if err == nil {
		l.t.layers[spanLinkSend].recv.Add(1)
	}
	return p, err
}

func (l *timedLink) RecvBatch() ([]*packet.Packet, error) {
	ps, err := transport.RecvBatch(l.inner)
	if err == nil {
		l.t.layers[spanLinkSend].recv.Add(1)
	}
	return ps, err
}

func (l *timedLink) BatchCopies() bool { return transport.BatchCopies(l.inner) }
func (l *timedLink) Drop()             { transport.DropLink(l.inner) }
func (l *timedLink) Close() error      { return l.inner.Close() }

// --- filter: timing wrappers registered under the built-in names ---

// tracedRegistry returns a registry whose every built-in filter is wrapped
// in a timing shell.
func tracedRegistry(t *tracer) *filter.Registry {
	base := filter.NewRegistry()
	reg := filter.NewRegistry()
	for _, name := range base.Transformations() {
		reg.RegisterTransformation(name, func() filter.Transformation {
			inner, _ := base.NewTransformation(name) // name is registered in base
			return wrapTransform(t, inner)
		})
	}
	for _, name := range base.Synchronizers() {
		reg.RegisterSynchronizer(name, func() filter.Synchronizer {
			inner, _ := base.NewSynchronizer(name)
			return wrapSync(t, inner)
		})
	}
	return reg
}

// timedTransform times Transform. It forwards ChildAware as a no-op when
// the inner filter lacks it, which is what core does for such a filter.
type timedTransform struct {
	inner filter.Transformation
	t     *tracer
}

// timedStatefulTransform adds StatefulTransformation, present only when the
// inner filter has it: core checkpoints exactly those filters.
type timedStatefulTransform struct {
	timedTransform
	st filter.StatefulTransformation
}

func wrapTransform(t *tracer, inner filter.Transformation) filter.Transformation {
	tt := timedTransform{inner: inner, t: t}
	if st, ok := inner.(filter.StatefulTransformation); ok {
		return &timedStatefulTransform{timedTransform: tt, st: st}
	}
	return &tt
}

func (f *timedTransform) Transform(in []*packet.Packet) ([]*packet.Packet, error) {
	l := &f.t.layers[spanTransform]
	l.pktsIn.Add(int64(len(in)))
	start := f.t.begin()
	out, err := f.inner.Transform(in)
	f.t.end(spanTransform, -1, start)
	l.pktsOut.Add(int64(len(out)))
	return out, err
}

func (f *timedTransform) SetNumChildren(n int) {
	if ca, ok := f.inner.(filter.ChildAware); ok {
		ca.SetNumChildren(n)
	}
}

func (f *timedStatefulTransform) State() ([]byte, error)  { return f.st.State() }
func (f *timedStatefulTransform) SetState(b []byte) error { return f.st.SetState(b) }

// timedSync times every call that can release batches. BatchAdder falls
// back through filter.AddBatch, Drainer returns nil and ChildAware is a
// no-op when the inner synchronizer lacks them — each exactly what core
// does with the bare synchronizer.
type timedSync struct {
	inner filter.Synchronizer
	t     *tracer
}

// timedRemapSync adds SlotRemapper, present only when the inner
// synchronizer has it: core prefers it over SetNumChildren on a rewire.
type timedRemapSync struct {
	timedSync
	r filter.SlotRemapper
}

func wrapSync(t *tracer, inner filter.Synchronizer) filter.Synchronizer {
	ts := timedSync{inner: inner, t: t}
	if r, ok := inner.(filter.SlotRemapper); ok {
		return &timedRemapSync{timedSync: ts, r: r}
	}
	return &ts
}

func (s *timedSync) Add(child int, p *packet.Packet) [][]*packet.Packet {
	start := s.t.begin()
	defer s.t.end(spanSync, -1, start)
	return s.inner.Add(child, p)
}

func (s *timedSync) AddBatch(child int, ps []*packet.Packet) [][]*packet.Packet {
	start := s.t.begin()
	defer s.t.end(spanSync, -1, start)
	return filter.AddBatch(s.inner, child, ps)
}

func (s *timedSync) Poll(now time.Time) [][]*packet.Packet {
	start := s.t.begin()
	defer s.t.end(spanSync, -1, start)
	return s.inner.Poll(now)
}

func (s *timedSync) Pending() int        { return s.inner.Pending() }
func (s *timedSync) Deadline() time.Time { return s.inner.Deadline() }

func (s *timedSync) SetNumChildren(n int) {
	if ca, ok := s.inner.(filter.ChildAware); ok {
		ca.SetNumChildren(n)
	}
}

func (s *timedSync) Drain() [][]*packet.Packet {
	d, ok := s.inner.(filter.Drainer)
	if !ok {
		return nil
	}
	start := s.t.begin()
	defer s.t.end(spanSync, -1, start)
	return d.Drain()
}

func (s *timedRemapSync) RemapSlots(remap []int, n int) [][]*packet.Packet {
	start := s.t.begin()
	defer s.t.end(spanSync, -1, start)
	return s.r.RemapSlots(remap, n)
}
