package core

import (
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

// Control operation codes carried in TagControl packets. The op is always
// the first payload value.
const (
	opNewStream    int64 = 1 // establish stream state at every node on the path
	opCloseStream  int64 = 2 // tear down stream state, draining synchronizers
	opShutdown     int64 = 3 // stop the subtree
	opTelemetry    int64 = 4 // periodic liveness + load sample, flowing upstream to the front-end
	opOpenSession  int64 = 5 // announce a tenant session's stream-id namespace
	opCloseSession int64 = 6 // tear down every stream of a namespace, non-quiescing
	opCheckpoint   int64 = 7 // filter-state checkpoint, cached at potential adopters
)

// ckptHops is how many levels upstream a checkpoint travels: a node's
// checkpoint is cached by its parent and grandparent — exactly the set of
// potential adopters of its children when it fails.
const ckptHops = 2

// Control packet formats, one per op.
const (
	// op, streamID, upstream transformation name, synchronization name,
	// downstream transformation name, egress priority, member ranks
	ctrlNewStreamFormat = "%d %d %s %s %s %d %ad"
	// op, streamID
	ctrlCloseStreamFormat = "%d %d"
	// op
	ctrlShutdownFormat = "%d"
	// op, namespace, tenant name, egress priority, credit budget
	ctrlOpenSessionFormat = "%d %d %s %d %d"
	// op, namespace
	ctrlCloseSessionFormat = "%d %d"
	// op, origin rank, streamID, hops remaining, opaque filter-state blob
	ctrlCheckpointFormat = "%d %d %d %d %ac"
	// op, origin rank, cumulative upstream packets routed, parent-egress
	// queue depth, cumulative credit stalls
	ctrlTelemetryFormat = "%d %d %d %d %d"
)

// newStreamPacket encodes an opNewStream control message. prio is the
// stream's egress scheduling priority, carried so every node on the path
// schedules the stream's traffic consistently.
func newStreamPacket(id uint32, tform, sync, downTform string, prio int, members []Rank) *packet.Packet {
	ms := make([]int64, len(members))
	for i, m := range members {
		ms[i] = int64(m)
	}
	return packet.MustNew(packet.TagControl, 0, 0, ctrlNewStreamFormat,
		opNewStream, int64(id), tform, sync, downTform, int64(prio), ms)
}

// closeStreamPacket encodes an opCloseStream control message.
func closeStreamPacket(id uint32) *packet.Packet {
	return packet.MustNew(packet.TagControl, 0, 0, ctrlCloseStreamFormat,
		opCloseStream, int64(id))
}

// ctrlOp extracts the operation code from a control packet.
func ctrlOp(p *packet.Packet) (int64, error) {
	if p.NumValues() == 0 {
		return 0, fmt.Errorf("core: empty control packet")
	}
	return p.Int(0)
}

// parseNewStream decodes an opNewStream control message.
func parseNewStream(p *packet.Packet) (id uint32, tform, sync, downTform string, prio int, members []Rank, err error) {
	rawID, err := p.Int(1)
	if err != nil {
		return 0, "", "", "", 0, nil, err
	}
	tform, err = p.Str(2)
	if err != nil {
		return 0, "", "", "", 0, nil, err
	}
	sync, err = p.Str(3)
	if err != nil {
		return 0, "", "", "", 0, nil, err
	}
	downTform, err = p.Str(4)
	if err != nil {
		return 0, "", "", "", 0, nil, err
	}
	rawPrio, err := p.Int(5)
	if err != nil {
		return 0, "", "", "", 0, nil, err
	}
	ms, err := p.IntArray(6)
	if err != nil {
		return 0, "", "", "", 0, nil, err
	}
	members = make([]Rank, len(ms))
	for i, m := range ms {
		members[i] = Rank(m)
	}
	return uint32(rawID), tform, sync, downTform, int(rawPrio), members, nil
}

// parseCloseStream decodes an opCloseStream control message.
func parseCloseStream(p *packet.Packet) (uint32, error) {
	rawID, err := p.Int(1)
	if err != nil {
		return 0, err
	}
	return uint32(rawID), nil
}

// openSessionPacket encodes an opOpenSession control message: a tenant
// session claims a stream-id namespace, with its fair-share priority and
// credit budget carried for observability at every level.
func openSessionPacket(info SessionInfo) *packet.Packet {
	return packet.MustNew(packet.TagControl, 0, 0, ctrlOpenSessionFormat,
		opOpenSession, int64(info.NS), info.Tenant, int64(info.Priority), int64(info.Budget))
}

// parseOpenSession decodes an opOpenSession control message.
func parseOpenSession(p *packet.Packet) (SessionInfo, error) {
	rawNS, err := p.Int(1)
	if err != nil {
		return SessionInfo{}, err
	}
	tenant, err := p.Str(2)
	if err != nil {
		return SessionInfo{}, err
	}
	rawPrio, err := p.Int(3)
	if err != nil {
		return SessionInfo{}, err
	}
	rawBudget, err := p.Int(4)
	if err != nil {
		return SessionInfo{}, err
	}
	return SessionInfo{
		NS:       uint32(rawNS),
		Tenant:   tenant,
		Priority: int(rawPrio),
		Budget:   int(rawBudget),
	}, nil
}

// closeSessionPacket encodes an opCloseSession control message.
func closeSessionPacket(ns uint32) *packet.Packet {
	return packet.MustNew(packet.TagControl, 0, 0, ctrlCloseSessionFormat,
		opCloseSession, int64(ns))
}

// parseCloseSession decodes an opCloseSession control message.
func parseCloseSession(p *packet.Packet) (uint32, error) {
	rawNS, err := p.Int(1)
	if err != nil {
		return 0, err
	}
	return uint32(rawNS), nil
}

// ckptPacket encodes an opCheckpoint control message carrying origin's
// serialized filter state for one stream, to be relayed hops levels up.
func ckptPacket(origin Rank, id uint32, hops int, blob []byte) *packet.Packet {
	return packet.MustNew(packet.TagControl, 0, origin, ctrlCheckpointFormat,
		opCheckpoint, int64(origin), int64(id), int64(hops), blob)
}

// parseCheckpoint decodes an opCheckpoint control message.
func parseCheckpoint(p *packet.Packet) (origin Rank, id uint32, hops int, blob []byte, err error) {
	rawOrigin, err := p.Int(1)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	rawID, err := p.Int(2)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	rawHops, err := p.Int(3)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	blob, err = p.Bytes(4)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	return Rank(rawOrigin), uint32(rawID), int(rawHops), blob, nil
}

// LoadSample is one process's most recent telemetry sample as observed at
// the front-end. At is the liveness signal the failure detector reads; the
// load fields feed the elastic controller. UpPackets and Stalls are
// cumulative counters — readers rate-normalize by delta between samples,
// so samples lost on a congested path skew nothing.
type LoadSample struct {
	// Origin is the reporting process.
	Origin Rank
	// UpPackets is the cumulative count of upstream data packets the
	// process has routed (zero for back-ends).
	UpPackets int64
	// Queued is the parent-egress queue depth at sample time.
	Queued int64
	// Stalls is the cumulative count of credit stalls on the parent
	// egress (zero when flow control is off).
	Stalls int64
	// At is when the sample reached the front-end.
	At time.Time
}

// telemetryPacket encodes an opTelemetry control message carrying s's
// origin and load fields (At is stamped on arrival).
func telemetryPacket(s LoadSample) *packet.Packet {
	return packet.MustNew(packet.TagControl, 0, s.Origin, ctrlTelemetryFormat,
		opTelemetry, int64(s.Origin), s.UpPackets, s.Queued, s.Stalls)
}

// parseTelemetry decodes an opTelemetry control message, rejecting any
// other op.
func parseTelemetry(p *packet.Packet) (LoadSample, error) {
	var v [5]int64
	for i := range v {
		x, err := p.Int(i)
		if err != nil {
			return LoadSample{}, err
		}
		v[i] = x
	}
	if v[0] != opTelemetry {
		return LoadSample{}, fmt.Errorf("core: control op %d is not telemetry", v[0])
	}
	return LoadSample{Origin: Rank(v[1]), UpPackets: v[2], Queued: v[3], Stalls: v[4]}, nil
}

// telemetrySource is a non-root process as its telemetry loop sees it.
type telemetrySource interface {
	parentLink() transport.Link
	loadSample() LoadSample
}

// startTelemetry launches src's periodic telemetry loop when
// Config.TelemetryPeriod is positive: one ticker per process, sending on
// the current parent link until teardown or until stop closes (the
// process is killed). Samples are lossy-safe and order-free; send failures
// (a dead parent, pre-adoption) are retried on the next tick.
func (nw *Network) startTelemetry(src telemetrySource, stop <-chan struct{}) {
	if nw.cfg.TelemetryPeriod <= 0 {
		return
	}
	go func() {
		t := time.NewTicker(nw.cfg.TelemetryPeriod)
		defer t.Stop()
		for {
			select {
			case <-nw.dying:
				return
			case <-stop:
				return
			case <-t.C:
				if l := src.parentLink(); l != nil && l.Send(telemetryPacket(src.loadSample())) == nil {
					nw.metrics.TelemetrySent.Add(1)
				}
			}
		}
	}()
}

// noteTelemetry records a sample observed at the front-end.
func (nw *Network) noteTelemetry(s LoadSample) {
	s.At = time.Now()
	nw.metrics.TelemetrySeen.Add(1)
	nw.telMu.Lock()
	nw.telemetry[s.Origin] = s
	nw.telMu.Unlock()
}

// Telemetry snapshots the latest sample per non-root rank. Ranks never
// heard from are absent; a dead rank's last sample lingers until
// overwritten (consumers check liveness via At or LiveInternal).
func (nw *Network) Telemetry() map[Rank]LoadSample {
	nw.telMu.Lock()
	defer nw.telMu.Unlock()
	out := make(map[Rank]LoadSample, len(nw.telemetry))
	for r, s := range nw.telemetry {
		out[r] = s
	}
	return out
}

// TelemetryPeriod returns the configured telemetry period (zero when
// telemetry is off).
func (nw *Network) TelemetryPeriod() time.Duration { return nw.cfg.TelemetryPeriod }
