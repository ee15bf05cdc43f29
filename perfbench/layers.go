package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/packet"
)

// snapshot is what per-op costs are deltas of: process CPU time, the
// packet layer's global counters and the Go runtime's own metrics.
type snapshot struct {
	cpu         time.Duration
	wireEncodes int64
	arenaGets   int64
	arenaMisses int64
	allocObjs   uint64
	allocBytes  uint64
	gcCPU       float64
	busyCPU     float64 // runtime CPU seconds that were not idle
	sched       metrics.Float64Histogram
}

func takeSnapshot() snapshot {
	var s snapshot
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.wireEncodes = packet.WireEncodes()
	s.arenaGets, _, s.arenaMisses = packet.ArenaStats()
	rt := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(rt)
	s.allocObjs = rt[0].Value.Uint64()
	s.allocBytes = rt[1].Value.Uint64()
	s.gcCPU = rt[2].Value.Float64()
	s.busyCPU = rt[3].Value.Float64() - rt[4].Value.Float64()
	// The histogram is runtime-owned memory the next Read may reuse.
	h := rt[5].Value.Float64Histogram()
	s.sched.Counts = append([]uint64(nil), h.Counts...)
	s.sched.Buckets = append([]float64(nil), h.Buckets...)
	return s
}

// schedP99 returns the 99th percentile of goroutine scheduling latency
// between two snapshots, in µs (the upper edge of its bucket).
func schedP99(a, b snapshot) float64 {
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i]
		if i < len(a.sched.Counts) {
			counts[i] -= a.sched.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			edge := b.sched.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.sched.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// perLayerMetrics lists every per-layer metric, in output order, with its
// unit and which direction is better. DESIGN.md records which end-to-end
// metric each should move, on which workload.
var perLayerMetrics = []struct{ name, unit, better string }{
	{"core.new_network_ms", "ms", "lower"},
	{"core.new_stream_ms", "ms", "lower"},
	{"core.first_op_ms", "ms", "lower"},
	{"core.multicast_us_p50", "us", "lower"},
	{"core.multicast_us_p99", "us", "lower"},
	{"core.be_send_wait_us_per_op", "us", "lower"},
	{"core.frames_per_op", "count", "lower"},
	{"core.pkts_per_frame", "count", "higher"},
	{"core.age_flush_frac", "ratio", "lower"},
	{"core.credit_grants_per_op", "count", "lower"},
	{"core.credit_stalls_per_op", "count", "lower"},
	{"core.egress_high_water", "count", "lower"},
	{"core.shard_queue_high_water", "count", "lower"},
	{"core.replay_ring_high_water", "count", "lower"},
	{"core.replay_ring_window", "count", "higher"},
	{"core.replay_ring_over_window", "count", "lower"},
	{"core.dups_dropped", "count", "lower"},
	{"transport.send_calls_per_op", "count", "lower"},
	{"transport.send_busy_us_per_op", "us", "lower"},
	{"transport.send_us_p99", "us", "lower"},
	{"transport.ctrl_frames_per_op", "count", "lower"},
	{"transport.recv_frames_per_op", "count", "lower"},
	{"transport.bytes_per_op", "B", "lower"},
	{"filter.transform_calls_per_op", "count", "lower"},
	{"filter.transform_busy_us_per_op", "us", "lower"},
	{"filter.transform_us_p99", "us", "lower"},
	{"filter.sync_busy_us_per_op", "us", "lower"},
	{"filter.pkts_in_per_out", "ratio", "higher"},
	{"packet.wire_encodes_per_op", "count", "lower"},
	{"packet.arena_miss_frac", "ratio", "lower"},
	{"packet.encode_ns", "ns", "lower"},
	{"packet.decode_ns", "ns", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.sched_latency_p99_us", "us", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"loadgen.latency_samples", "count", "higher"},
	{"trace.ops_per_s_overhead", "1/s", "higher"},
	{"trace.cpu_us_per_op_overhead", "us", "lower"},
}

// perLayer computes the per-layer metrics of the traced phase ph. plain is
// the untraced phase of the same run: the difference of their end-to-end
// metrics is the tracing overhead, and the replay ring is reported over
// both, so a ring above the window in either flags the run.
func perLayer(w workload, ph, plain *phase) map[string]metric {
	pe, te := endToEnd(plain), endToEnd(ph)
	ring := max(ph.core["replay_ring_high_water"], plain.core["replay_ring_high_water"])
	st := ph.stats
	fops := float64(st.windowOps())
	a, b := ph.before, ph.after
	dc := func(k string) int64 { return ph.core[k] - ph.coreBefore[k] }
	var nn, ns, fo []float64
	for _, su := range ph.setups {
		nn = append(nn, ms(su.newNetwork))
		ns = append(ns, ms(su.newStream))
		fo = append(fo, ms(su.firstOp))
	}
	mc, bs, ls := ph.layers[spanMulticast], ph.layers[spanBESend], ph.layers[spanLinkSend]
	tf, sy := ph.layers[spanTransform], ph.layers[spanSync]
	flushes := dc("flush_size") + dc("flush_age") + dc("flush_control") + dc("flush_drain")
	enc, dec := codecCost(w)
	v := map[string]float64{
		"core.new_network_ms":             median(nn),
		"core.new_stream_ms":              median(ns),
		"core.first_op_ms":                median(fo),
		"core.multicast_us_p50":           mc.h.quantile(0.50) / 1e3,
		"core.multicast_us_p99":           mc.h.quantile(0.99) / 1e3,
		"core.be_send_wait_us_per_op":     div(float64(bs.busyNs)/1e3, fops),
		"core.frames_per_op":              div(float64(dc("frames_sent")), fops),
		"core.pkts_per_frame":             div(float64(dc("packets_queued")), float64(dc("frames_sent"))),
		"core.age_flush_frac":             div(float64(dc("flush_age")), float64(flushes)),
		"core.credit_grants_per_op":       div(float64(dc("credit_grants")), fops),
		"core.credit_stalls_per_op":       div(float64(dc("credit_stalls")), fops),
		"core.egress_high_water":          float64(ph.core["egress_high_water"]),
		"core.shard_queue_high_water":     float64(ph.core["shard_queue_high_water"]),
		"core.replay_ring_high_water":     float64(ring),
		"core.replay_ring_window":         linkWindow,
		"core.replay_ring_over_window":    boolCount(ring > linkWindow),
		"core.dups_dropped":               float64(ph.core["dups_dropped"]),
		"transport.send_calls_per_op":     div(float64(ls.calls), fops),
		"transport.send_busy_us_per_op":   div(float64(ls.busyNs)/1e3, fops),
		"transport.send_us_p99":           ls.h.quantile(0.99) / 1e3,
		"transport.ctrl_frames_per_op":    div(float64(ls.ctrl), fops),
		"transport.recv_frames_per_op":    div(float64(ls.recv), fops),
		"transport.bytes_per_op":          div(float64(ls.bytes), fops),
		"filter.transform_calls_per_op":   div(float64(tf.calls), fops),
		"filter.transform_busy_us_per_op": div(float64(tf.busyNs)/1e3, fops),
		"filter.transform_us_p99":         tf.h.quantile(0.99) / 1e3,
		"filter.sync_busy_us_per_op":      div(float64(sy.busyNs)/1e3, fops),
		"filter.pkts_in_per_out":          div(float64(tf.pktsIn), float64(tf.pktsOut)),
		"packet.wire_encodes_per_op":      div(float64(b.wireEncodes-a.wireEncodes), fops),
		"packet.arena_miss_frac":          div(float64(b.arenaMisses-a.arenaMisses), float64(b.arenaGets-a.arenaGets)),
		"packet.encode_ns":                enc,
		"packet.decode_ns":                dec,
		"runtime.allocs_per_op":           div(float64(b.allocObjs-a.allocObjs), fops),
		"runtime.alloc_bytes_per_op":      div(float64(b.allocBytes-a.allocBytes), fops),
		"runtime.gc_cpu_frac":             div(b.gcCPU-a.gcCPU, b.busyCPU-a.busyCPU),
		"runtime.sched_latency_p99_us":    schedP99(a, b),
		"loadgen.lag_p99_ms":              percentile(st.lagMs, 0.99),
		"loadgen.latency_samples":         float64(len(st.windowLat())),
		"trace.ops_per_s_overhead":        te["ops_per_s"].Value - pe["ops_per_s"].Value,
		"trace.cpu_us_per_op_overhead":    te["cpu_us_per_op"].Value - pe["cpu_us_per_op"].Value,
	}
	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		x, ok := v[m.name]
		if !ok {
			panic(fmt.Sprintf("per-layer metric %s is not computed", m.name))
		}
		out[m.name] = metric{x, m.unit}
	}
	return out
}

func boolCount(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// codecShapes are the packets each workload puts on a link: the request
// and reply of a wave, or one stream sample.
func codecShapes(w workload) []*packet.Packet {
	if w.rate > 0 {
		return []*packet.Packet{packet.MustNew(packet.TagFirstApplication, 1, 1, "%d %d %d", int64(1), int64(1), int64(1e9))}
	}
	return []*packet.Packet{
		packet.MustNew(packet.TagFirstApplication, 1, 0, "%d", int64(1)),
		packet.MustNew(packet.TagFirstApplication, 1, 1, "%af", waveRecord(1, w.recordLen)),
	}
}

// codecCost times encoding and decoding the workload's packet shapes and
// returns the mean ns per packet over the shapes, each shape weighted
// equally (a wave moves one request and one reply over every link).
func codecCost(w workload) (encNs, decNs float64) {
	const per = 50 * time.Millisecond
	shapes := codecShapes(w)
	for _, p := range shapes {
		var enc []byte
		n, t0 := 0, time.Now()
		for time.Since(t0) < per || n < 100 {
			enc = p.Encode()
			n++
		}
		encNs += float64(time.Since(t0)) / float64(n)
		n, t0 = 0, time.Now()
		for time.Since(t0) < per || n < 100 {
			if _, err := packet.Decode(enc); err != nil {
				panic(fmt.Sprintf("decoding a packet the codec just encoded: %v", err))
			}
			n++
		}
		decNs += float64(time.Since(t0)) / float64(n)
	}
	k := float64(len(shapes))
	return encNs / k, decNs / k
}
