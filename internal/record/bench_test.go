package record

import (
	"testing"
)

// benchEdges builds a frame-sized batch with the mixed structure real edge
// files have: mostly-sorted sources with scattered targets, so both the
// varint deltas and the LZ matcher see realistic input.
func benchEdges(n int) []Edge {
	recs := make([]Edge, n)
	for i := range recs {
		recs[i] = Edge{U: NodeID(i / 8), V: NodeID((i * 31) % n)}
	}
	return recs
}

// frameRoundTrip encodes recs into enc and decodes them back into dec,
// reusing both buffers; this is the per-frame hot path of every framed
// reader and writer.
func frameRoundTrip(c BlockCodec[Edge], recs []Edge, enc []byte, dec []Edge) ([]byte, []Edge, error) {
	enc = c.AppendBlock(enc[:0], recs)
	dec, err := c.DecodeBlock(enc, len(recs), dec[:0])
	return enc, dec, err
}

// BenchmarkFrameRoundTrip measures one encode+decode of a 4096-record frame
// per codec family.  Run with -benchmem: the allocs/op column must read 0 at
// steady state — the frame hot path works entirely out of reused and pooled
// buffers (see internal/pool).
func BenchmarkFrameRoundTrip(b *testing.B) {
	recs := benchEdges(4096)
	rawBytes := int64(len(recs) * EdgeCodec{}.Size())

	for _, family := range []string{FamilyVarint, FamilyCompress} {
		c, ok := BlockCodecFor[Edge](family)
		if !ok {
			b.Fatalf("no Edge block codec for family %q", family)
		}
		b.Run(family, func(b *testing.B) {
			enc := make([]byte, 0, len(recs)*c.MaxRecordSize())
			dec := make([]Edge, 0, len(recs))
			var err error
			enc, dec, err = frameRoundTrip(c, recs, enc, dec) // warm pooled buffers
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(rawBytes)
			for i := 0; i < b.N; i++ {
				if enc, dec, err = frameRoundTrip(c, recs, enc, dec); err != nil {
					b.Fatal(err)
				}
			}
			if len(dec) != len(recs) || dec[17] != recs[17] {
				b.Fatal("round trip corrupted records")
			}
		})
	}

	// The fixed family is frameless; its hot path is the plain Encode/Decode
	// pair over a reused block buffer.
	b.Run(FamilyFixed, func(b *testing.B) {
		var c EdgeCodec
		buf := make([]byte, len(recs)*c.Size())
		b.ReportAllocs()
		b.SetBytes(rawBytes)
		for i := 0; i < b.N; i++ {
			for j, e := range recs {
				c.Encode(e, buf[j*c.Size():])
			}
			for j := range recs {
				if got := c.Decode(buf[j*c.Size():]); got != recs[j] {
					b.Fatal("round trip corrupted records")
				}
			}
		}
	})
}

// BenchmarkVarintEdgeDecodeBlock measures the decode half of the varint frame
// hot path alone: one 4096-record Edge frame per op into a reused slice.
func BenchmarkVarintEdgeDecodeBlock(b *testing.B) {
	recs := benchEdges(4096)
	var c VarintEdgeCodec
	payload := c.AppendBlock(nil, recs)
	dec := make([]Edge, 0, len(recs))
	b.ReportAllocs()
	b.SetBytes(int64(len(recs) * EdgeCodec{}.Size()))
	for i := 0; i < b.N; i++ {
		var err error
		if dec, err = c.DecodeBlock(payload, len(recs), dec[:0]); err != nil {
			b.Fatal(err)
		}
	}
	if len(dec) != len(recs) || dec[17] != recs[17] {
		b.Fatal("decode corrupted records")
	}
}

// TestFrameRoundTripAllocs is the regression guard behind the benchmark: the
// steady-state frame round trip must not allocate.  The threshold is below
// one alloc per op but not exactly zero, so a GC emptying the buffer pool
// mid-measurement (a refill, not a leak) cannot flake the test.
func TestFrameRoundTripAllocs(t *testing.T) {
	recs := benchEdges(4096)
	for _, family := range []string{FamilyVarint, FamilyCompress} {
		c, ok := BlockCodecFor[Edge](family)
		if !ok {
			t.Fatalf("no Edge block codec for family %q", family)
		}
		enc := make([]byte, 0, len(recs)*c.MaxRecordSize())
		dec := make([]Edge, 0, len(recs))
		var err error
		if enc, dec, err = frameRoundTrip(c, recs, enc, dec); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if enc, dec, err = frameRoundTrip(c, recs, enc, dec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= 1 {
			t.Errorf("family %s: frame round trip allocates %.1f times per op, want 0", family, allocs)
		}
	}
}
