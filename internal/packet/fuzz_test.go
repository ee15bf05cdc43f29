package packet

import (
	"bytes"
	"testing"
)

// FuzzDecode hammers the wire decoder with arbitrary bytes: it must never
// panic, and anything it accepts must re-encode to a decodable packet with
// identical header fields (decode/encode is idempotent on valid inputs).
func FuzzDecode(f *testing.F) {
	seeds := []*Packet{
		MustNew(100, 0, 0, ""),
		MustNew(101, 7, 3, "%d %f %s", int64(-1), 2.5, "x"),
		MustNew(102, 7, 3, "%ad %af %as %ac",
			[]int64{1, 2}, []float64{3}, []string{"a", "b"}, []byte{9}),
		NewCreditGrant(32, 0),
		NewCreditGrant(^uint32(0), ^uint64(0)),
		// Extended grant encoding: credits in StreamID, cumulative ack in
		// the Seq header field (exactly-once recovery) — plus a seq-stamped
		// data packet, so mutations hit both uses of the field.
		NewCreditGrant(4, 1<<40|12345),
		MustNew(103, 9, 2, "%s", "id-7").WithSeq(MakeSeq(2, 7)),
		// Session control ops, mirroring core's opOpenSession (op,
		// namespace, tenant, priority, budget) and opCloseSession (op,
		// namespace) wire shapes — the decoder must survive mutations of
		// the tenant announcement flood.
		MustNew(TagControl, 0, 0, "%d %d %s %d %d",
			int64(5), int64(9), "tenant-a", int64(2), int64(8)),
		MustNew(TagControl, 0, 0, "%d %d %s %d %d",
			int64(5), int64(4095), "", int64(0), int64(0)),
		MustNew(TagControl, 0, 0, "%d %d", int64(6), int64(9)),
		// Telemetry (op 4): origin, cumulative upstream packets, queue
		// depth, cumulative stalls — core's opTelemetry wire shape, so
		// mutations exercise the liveness and elastic-topology feed.
		MustNew(TagControl, 0, 3, "%d %d %d %d %d",
			int64(4), int64(3), int64(1<<40), int64(17), int64(0)),
	}
	for _, p := range seeds {
		f.Add(p.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0x0E, 0x7B, 1})
	f.Add([]byte{0x0E, 0x7B, 2})
	// A version-1 header (no seq field): the decoder must reject the stale
	// version cleanly, not misparse the format length as seq bytes.
	f.Add([]byte{0x0E, 0x7B, 1, 100, 0, 0, 0, 7, 0, 0, 0, 3, 0, 0, 0, 0, 0})
	// A valid packet truncated mid-seq: rejected, never panics.
	trunc := MustNew(103, 9, 2, "").Encode()
	f.Add(trunc[:len(trunc)-10])
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		re := p.Encode()
		q, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of accepted packet failed: %v", err)
		}
		if q.Tag != p.Tag || q.StreamID != p.StreamID || q.SrcRank != p.SrcRank || q.Seq != p.Seq || q.Format != p.Format {
			t.Fatalf("headers changed across re-encode: %v vs %v", p, q)
		}
		if !bytes.Equal(re, q.Encode()) {
			t.Fatal("encode not stable across decode/encode cycle")
		}
	})
}

// FuzzDecodeFrame hammers the multi-packet frame decoder with arbitrary
// bodies: it must never panic regardless of corrupt counts, truncated
// packets, or oversize lengths, and anything it accepts must re-encode to
// an identical frame (the decoder is exactly the inverse of EncodeFrame on
// valid inputs).
func FuzzDecodeFrame(f *testing.F) {
	single := MustNew(101, 7, 3, "%d %f %s", int64(-1), 2.5, "x")
	batch := []*Packet{
		MustNew(100, 0, 0, ""),
		single,
		MustNew(102, 7, 3, "%ad %af %as %ac",
			[]int64{1, 2}, []float64{3}, []string{"a", "b"}, []byte{9}),
		NewCreditGrant(64, 640),
	}
	f.Add(EncodeFrame(nil))
	f.Add(EncodeFrame(batch[:1]))
	f.Add(EncodeFrame(batch))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})               // count 1, no packet
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})   // absurd count
	f.Add(append([]byte{1, 0, 0, 0}, 0xFF)) // count 1, garbage length
	f.Add(append(EncodeFrame(batch), 0x00)) // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := DecodeFrame(data)
		if err != nil {
			return
		}
		re := EncodeFrame(ps)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted frame does not re-encode identically (%d vs %d bytes)", len(re), len(data))
		}
		qs, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if len(qs) != len(ps) {
			t.Fatalf("re-decode count %d, want %d", len(qs), len(ps))
		}
	})
}

// FuzzFormatRoundTrip fuzzes format strings through the parser: parsing
// must never panic, and a parse-accepted format must render back into
// directives consistently.
func FuzzFormatRoundTrip(f *testing.F) {
	for _, s := range []string{"", "%d", "%d %f %s", "%ad %af %as %ac %c", "%x", "nonsense"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, format string) {
		dirs, err := ParseFormat(format)
		if err != nil {
			return
		}
		for _, d := range dirs {
			if d == DirInvalid {
				t.Fatalf("ParseFormat(%q) accepted an invalid directive", format)
			}
			if re, ok := parseDirective(d.String()); !ok || re != d {
				t.Fatalf("directive %v does not round-trip through %q", d, d.String())
			}
		}
	})
}
