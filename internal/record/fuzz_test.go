package record

// Fuzz round-trips for every codec — fixed, varint and compress: Encode
// followed by Decode must reproduce the record exactly, for arbitrary field
// values.  The varint fuzzers additionally build three-record blocks (so the
// delta chains are exercised, not just the first record); the compress
// fuzzers drive the raw LZ compressor over arbitrary byte strings and build
// blocks with controlled repetition so both the LZ and the raw-fallback
// payload modes are hit.  The garbage fuzzers feed arbitrary bytes to every
// block decoder, which must reject them with an error instead of panicking
// or fabricating records.  The seed corpus under testdata/fuzz pins the
// boundary NodeIDs (0 and MaxUint32), the one-byte/two-byte varint boundary
// (0x7f/0x80, payloads ending right after or inside a varint) and the
// malformed-LZ shapes; the seeds run as ordinary cases on every `go test`,
// and `go test -fuzz` explores beyond them.

import (
	"bytes"
	"math"
	"testing"
)

func FuzzEdgeCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0))
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32))
	f.Add(uint32(0), uint32(math.MaxUint32))
	f.Add(uint32(1), uint32(2))
	f.Fuzz(func(t *testing.T, u, v uint32) {
		c := EdgeCodec{}
		buf := make([]byte, c.Size())
		want := Edge{U: u, V: v}
		c.Encode(want, buf)
		if got := c.Decode(buf); got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	})
}

func FuzzNodeCodec(f *testing.F) {
	f.Add(uint32(0))
	f.Add(uint32(math.MaxUint32))
	f.Add(uint32(math.MaxUint32 - 1))
	f.Fuzz(func(t *testing.T, n uint32) {
		c := NodeCodec{}
		buf := make([]byte, c.Size())
		c.Encode(n, buf)
		if got := c.Decode(buf); got != n {
			t.Fatalf("round trip: got %d, want %d", got, n)
		}
	})
}

func FuzzLabelCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0))
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32))
	f.Add(uint32(math.MaxUint32), uint32(0))
	f.Fuzz(func(t *testing.T, node, scc uint32) {
		c := LabelCodec{}
		buf := make([]byte, c.Size())
		want := Label{Node: node, SCC: scc}
		c.Encode(want, buf)
		if got := c.Decode(buf); got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	})
}

func FuzzNodeDegreeCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0))
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(math.MaxUint32))
	f.Add(uint32(0), uint32(math.MaxUint32), uint32(1))
	f.Fuzz(func(t *testing.T, node, degIn, degOut uint32) {
		c := NodeDegreeCodec{}
		buf := make([]byte, c.Size())
		want := NodeDegree{Node: node, DegIn: degIn, DegOut: degOut}
		c.Encode(want, buf)
		if got := c.Decode(buf); got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		// The derived keys must survive the trip too: Deg and Prod never
		// overflow because they widen to uint64 before combining.
		got := c.Decode(buf)
		if got.Deg() != uint64(degIn)+uint64(degOut) {
			t.Fatalf("Deg() = %d after round trip", got.Deg())
		}
		if got.Prod() != uint64(degIn)*uint64(degOut) {
			t.Fatalf("Prod() = %d after round trip", got.Prod())
		}
	})
}

func FuzzEdgeSCCCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0))
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(math.MaxUint32))
	f.Add(uint32(math.MaxUint32), uint32(0), uint32(7))
	f.Fuzz(func(t *testing.T, u, v, scc uint32) {
		c := EdgeSCCCodec{}
		buf := make([]byte, c.Size())
		want := EdgeSCC{U: u, V: v, SCC: scc}
		c.Encode(want, buf)
		if got := c.Decode(buf); got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	})
}

func FuzzEdgeAugCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32),
		uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64))
	f.Add(uint32(0), uint32(math.MaxUint32), uint64(1), uint64(2), uint64(3), uint64(4))
	f.Fuzz(func(t *testing.T, u, v uint32, degU, prodU, degV, prodV uint64) {
		c := EdgeAugCodec{}
		buf := make([]byte, c.Size())
		want := EdgeAug{
			U:    u,
			V:    v,
			KeyU: NodeKey{Deg: degU, Prod: prodU},
			KeyV: NodeKey{Deg: degV, Prod: prodV},
		}
		c.Encode(want, buf)
		if got := c.Decode(buf); got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	})
}

// fuzzBlockRoundTrip encodes recs as one varint block and decodes it back.
func fuzzBlockRoundTrip[T comparable](t *testing.T, bc BlockCodec[T], recs []T) {
	t.Helper()
	payload := bc.AppendBlock(nil, recs)
	if len(payload) > len(recs)*bc.MaxRecordSize() {
		t.Fatalf("payload %d bytes exceeds MaxRecordSize bound %d", len(payload), len(recs)*bc.MaxRecordSize())
	}
	got, err := bc.DecodeBlock(payload, len(recs), nil)
	if err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func FuzzVarintEdgeCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(1), uint32(2))
	f.Add(uint32(7), uint32(7), uint32(3), uint32(9), uint32(0), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, u1, v1, u2, v2, u3, v3 uint32) {
		fuzzBlockRoundTrip[Edge](t, VarintEdgeCodec{}, []Edge{{U: u1, V: v1}, {U: u2, V: v2}, {U: u3, V: v3}})
	})
}

func FuzzVarintNodeCodec(f *testing.F) {
	f.Add(uint32(0), uint32(math.MaxUint32), uint32(1))
	f.Add(uint32(math.MaxUint32), uint32(0), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, a, b, c uint32) {
		fuzzBlockRoundTrip[NodeID](t, VarintNodeCodec{}, []NodeID{a, b, c})
	})
}

func FuzzVarintNodeDegreeCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, n1, i1, o1, n2, i2, o2 uint32) {
		fuzzBlockRoundTrip[NodeDegree](t, VarintNodeDegreeCodec{}, []NodeDegree{
			{Node: n1, DegIn: i1, DegOut: o1},
			{Node: n2, DegIn: i2, DegOut: o2},
		})
	})
}

func FuzzVarintEdgeAugCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint64(0), uint64(0), uint64(math.MaxUint64), uint64(math.MaxUint64),
		uint32(math.MaxUint32), uint32(math.MaxUint32), uint64(1), uint64(2), uint64(3), uint64(4))
	f.Fuzz(func(t *testing.T, u1, v1 uint32, du1, pu1, dv1, pv1 uint64, u2, v2 uint32, du2, pu2, dv2, pv2 uint64) {
		fuzzBlockRoundTrip[EdgeAug](t, VarintEdgeAugCodec{}, []EdgeAug{
			{U: u1, V: v1, KeyU: NodeKey{Deg: du1, Prod: pu1}, KeyV: NodeKey{Deg: dv1, Prod: pv1}},
			{U: u2, V: v2, KeyU: NodeKey{Deg: du2, Prod: pu2}, KeyV: NodeKey{Deg: dv2, Prod: pv2}},
		})
	})
}

func FuzzVarintLabelCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(math.MaxUint32), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, n1, s1, n2, s2 uint32) {
		fuzzBlockRoundTrip[Label](t, VarintLabelCodec{}, []Label{{Node: n1, SCC: s1}, {Node: n2, SCC: s2}})
	})
}

func FuzzVarintEdgeSCCCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, u1, v1, s1, u2, v2, s2 uint32) {
		fuzzBlockRoundTrip[EdgeSCC](t, VarintEdgeSCCCodec{}, []EdgeSCC{{U: u1, V: v1, SCC: s1}, {U: u2, V: v2, SCC: s2}})
	})
}

// FuzzLZRoundTrip drives the core LZ compressor over arbitrary byte strings:
// lzAppend followed by lzDecode must reproduce the input exactly, whatever
// its repetition structure (this is the property every compress-family codec
// reduces to).
func FuzzLZRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abcabcabcabcabcabcabcabc"))
	f.Add(bytes.Repeat([]byte{0}, 300))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, src []byte) {
		enc := lzAppend(nil, src)
		got, err := lzDecode(make([]byte, 0, len(src)), enc, len(src))
		if err != nil {
			t.Fatalf("lzDecode rejected lzAppend's own output: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("LZ round trip altered %d bytes", len(src))
		}
	})
}

// FuzzCompressEdgeCodec round-trips edge blocks through the compress codec.
// reps repeats the two fuzzed edges so high values compress (mode 1) while
// low values with distinct ids fall back to the raw payload (mode 0); both
// modes must reproduce the records exactly.
func FuzzCompressEdgeCodec(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(math.MaxUint32), uint32(math.MaxUint32), uint8(0))
	f.Add(uint32(7), uint32(9), uint32(7), uint32(9), uint8(200))
	f.Add(uint32(1), uint32(2), uint32(3), uint32(4), uint8(3))
	f.Fuzz(func(t *testing.T, u1, v1, u2, v2 uint32, reps uint8) {
		bc, ok := BlockCodecFor[Edge](FamilyCompress)
		if !ok {
			t.Fatal("no compress block codec for Edge")
		}
		recs := []Edge{{U: u1, V: v1}, {U: u2, V: v2}}
		for i := 0; i < int(reps); i++ {
			recs = append(recs, recs[i%2])
		}
		fuzzBlockRoundTrip[Edge](t, bc, recs)
	})
}

// FuzzCompressDecodeGarbage feeds arbitrary payload bytes and record counts
// to every compress decoder: decoding must terminate with records or an
// error — truncated groups, out-of-range match offsets, over- and under-runs
// and unknown mode bytes included — never panic or read out of bounds, and a
// successful decode must produce exactly count records.
func FuzzCompressDecodeGarbage(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{compressModeRaw}, uint8(1))
	f.Add([]byte{compressModeLZ, 0xff, 0xff}, uint8(1))
	f.Add([]byte{compressModeLZ, 0xf0, 255, 255, 255}, uint8(2))
	f.Add([]byte{2, 1, 2, 3}, uint8(1))
	f.Add([]byte{compressModeLZ, 0x04, 1, 2, 3, 4, 0xff, 0xff, 0x00}, uint8(1))
	f.Fuzz(func(t *testing.T, payload []byte, count8 uint8) {
		count := int(count8)
		checkLen := func(name string, n int, err error) {
			if err == nil && n != count {
				t.Fatalf("%s: decoded %d records without error, want %d", name, n, count)
			}
		}
		e, ok := BlockCodecFor[Edge](FamilyCompress)
		if !ok {
			t.Fatal("no compress block codec for Edge")
		}
		ed, eerr := e.DecodeBlock(payload, count, nil)
		checkLen("edge", len(ed), eerr)
		n, _ := BlockCodecFor[NodeID](FamilyCompress)
		nd, nerr := n.DecodeBlock(payload, count, nil)
		checkLen("node", len(nd), nerr)
		d, _ := BlockCodecFor[NodeDegree](FamilyCompress)
		dd, derr := d.DecodeBlock(payload, count, nil)
		checkLen("degree", len(dd), derr)
		a, _ := BlockCodecFor[EdgeAug](FamilyCompress)
		ad, aerr := a.DecodeBlock(payload, count, nil)
		checkLen("aug", len(ad), aerr)
		l, _ := BlockCodecFor[Label](FamilyCompress)
		ld, lerr := l.DecodeBlock(payload, count, nil)
		checkLen("label", len(ld), lerr)
		s, _ := BlockCodecFor[EdgeSCC](FamilyCompress)
		sd, serr := s.DecodeBlock(payload, count, nil)
		checkLen("edgescc", len(sd), serr)
	})
}

// FuzzVarintDecodeGarbage feeds arbitrary payload bytes and record counts to
// every varint decoder: decoding must terminate with records or an error,
// never panic, and a successful decode must produce exactly count records.
func FuzzVarintDecodeGarbage(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(4))
	f.Fuzz(func(t *testing.T, payload []byte, count8 uint8) {
		count := int(count8)
		checkLen := func(name string, n int, err error) {
			if err == nil && n != count {
				t.Fatalf("%s: decoded %d records without error, want %d", name, n, count)
			}
		}
		e, err := VarintEdgeCodec{}.DecodeBlock(payload, count, nil)
		checkLen("edge", len(e), err)
		n, err := VarintNodeCodec{}.DecodeBlock(payload, count, nil)
		checkLen("node", len(n), err)
		d, err := VarintNodeDegreeCodec{}.DecodeBlock(payload, count, nil)
		checkLen("degree", len(d), err)
		a, err := VarintEdgeAugCodec{}.DecodeBlock(payload, count, nil)
		checkLen("aug", len(a), err)
		l, err := VarintLabelCodec{}.DecodeBlock(payload, count, nil)
		checkLen("label", len(l), err)
		s, err := VarintEdgeSCCCodec{}.DecodeBlock(payload, count, nil)
		checkLen("edgescc", len(s), err)
	})
}
