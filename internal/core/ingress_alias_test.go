package core

import (
	"testing"

	"repro/internal/packet"
)

// TestSplitOrderFreeDoesNotMutateInput pins the receive-path aliasing
// contract on the ingress splitter (the same contract PR 7 established for
// FlowLink.absorb and streamState.dropDups): the batch handed to
// splitOrderFree came out of RecvBatch, so on the in-process fabric its
// backing array is still the sender's SendBatch slice — which an
// exactly-once sender re-reads after the send to build its replay ring. A
// regressed in-place compaction (kept := ps[:0]) passes every functional
// check but silently overwrites the sender's packets; this test catches it
// by asserting the input survives verbatim and the output is not aliased.
func TestSplitOrderFreeDoesNotMutateInput(t *testing.T) {
	mkData := func(v int) *packet.Packet {
		p, err := packet.New(packet.TagFirstApplication, 1, 0, "%d", v)
		if err != nil {
			t.Fatalf("packet.New: %v", err)
		}
		return p
	}
	hb := telemetryPacket(LoadSample{Origin: 3})
	ps := []*packet.Packet{mkData(10), hb, mkData(20), mkData(30)}
	orig := append([]*packet.Packet(nil), ps...)

	ctrl := make(chan *packet.Packet, 4)
	kept := splitOrderFree(ps, ctrl)

	if len(kept) != 3 || kept[0] != orig[0] || kept[1] != orig[2] || kept[2] != orig[3] {
		t.Fatalf("kept = %v, want the three data packets in order", kept)
	}
	select {
	case got := <-ctrl:
		if got != hb {
			t.Fatalf("ctrl lane got %v, want the telemetry sample", got)
		}
	default:
		t.Fatal("telemetry sample was not diverted to the ctrl lane")
	}
	// The sender's view of the batch must be untouched...
	for i, p := range ps {
		if p != orig[i] {
			t.Fatalf("input slice mutated at %d: got %v, want %v — receive path compacted a shared backing array", i, p, orig[i])
		}
	}
	// ...which requires the kept slice to live in its own backing array.
	if &kept[0] == &ps[0] {
		t.Fatal("kept aliases the input's backing array; a split must allocate")
	}

	// The all-data fast path stays zero-copy: identity, no allocation.
	data := []*packet.Packet{mkData(1), mkData(2)}
	if got := splitOrderFree(data, ctrl); &got[0] != &data[0] || len(got) != 2 {
		t.Fatal("all-data frame should be returned as-is without copying")
	}
}
