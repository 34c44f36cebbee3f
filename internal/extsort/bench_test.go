package extsort

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"extscc/internal/blockio"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// benchRunRecords is the size of the run buffer BenchmarkSortRun sorts: the
// batch one run formation hands to SortSlice under a 4 MiB budget of Edge
// records (M/2 / 8 B).
const benchRunRecords = 256 << 10

// benchRunEdges returns n edges with the shape of a contraction's edge file:
// ids drawn from n/4 nodes, so EdgeByTarget groups sizeable in-lists and a
// fair share of the keys repeat.
func benchRunEdges(n int, rng *rand.Rand) []record.Edge {
	recs := make([]record.Edge, n)
	for i := range recs {
		recs[i] = record.Edge{U: rng.Uint32() % uint32(n/4), V: rng.Uint32() % uint32(n/4)}
	}
	return recs
}

// benchSortRun measures one in-memory run sort of input per op: the input is
// copied into the reused run buffer with the timer stopped, so ns/op is the
// sort alone and B/op is whatever the sort allocates beyond that buffer.
func benchSortRun[T any](b *testing.B, s *Sorter[T], input []T) {
	buf := make([]T, len(input))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(buf, input)
		b.StartTimer()
		s.SortSlice(buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(input)), "ns/record")
}

// BenchmarkSortRun is the run-formation layer of the external sort: one
// 256k-record run buffer sorted in memory, for the two record types the
// contraction sorts most (Edge under EdgeByTarget, and the 40-byte EdgeAug).
// B/op must read 0: run formation holds nothing beyond the record slice.
func BenchmarkSortRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	edges := benchRunEdges(benchRunRecords, rng)
	b.Run("edge-by-target", func(b *testing.B) {
		benchSortRun(b, New(record.EdgeCodec{}, record.EdgeByTarget, iomodel.Config{}), edges)
	})
	aug := make([]record.EdgeAug, len(edges))
	for i, e := range edges {
		aug[i] = record.EdgeAug{
			U: e.U, V: e.V,
			KeyU: record.NodeKey{Deg: uint64(e.U % 97), Prod: uint64(e.U % 89)},
			KeyV: record.NodeKey{Deg: uint64(e.V % 97), Prod: uint64(e.V % 89)},
		}
	}
	b.Run("edgeaug-by-target", func(b *testing.B) {
		benchSortRun(b, New(record.EdgeAugCodec{}, record.EdgeAugByTarget, iomodel.Config{}), aug)
	})
}

// BenchmarkMergeGroup is the merge layer of the external sort: one k-way
// merge of sorted varint run files into a varint output, on the in-memory
// backend, for fan-in 2 and 15.  Every op merges the same 256k records in
// total, so ns/record compares across fan-ins.
func BenchmarkMergeGroup(b *testing.B) {
	for _, fanIn := range []int{2, 15} {
		b.Run(fmt.Sprintf("fanin-%d", fanIn), func(b *testing.B) {
			cfg := iomodel.Config{
				BlockSize: iomodel.DefaultBlockSize,
				Memory:    16 << 20,
				TempDir:   "/bench",
				Codec:     record.FamilyVarint,
				Storage:   storage.NewMem(),
				Stats:     &iomodel.Stats{},
			}
			s := New(record.EdgeCodec{}, record.EdgeBySource, cfg)
			rng := rand.New(rand.NewSource(int64(fanIn)))
			per := benchRunRecords / fanIn
			runs := make([]string, fanIn)
			for i := range runs {
				recs := benchRunEdges(per, rng)
				s.SortSlice(recs)
				runs[i] = filepath.Join(cfg.TempDir, fmt.Sprintf("run-%d", i))
				if err := recio.WriteSlice(runs[i], record.EdgeCodec{}, cfg, recs); err != nil {
					b.Fatal(err)
				}
			}
			out := filepath.Join(cfg.TempDir, "merged")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.mergeGroup(runs, out); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				blockio.Remove(out, cfg)
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(per*fanIn), "ns/record")
		})
	}
}

// TestSortSliceAllocatesNothing is the regression guard behind
// BenchmarkSortRun: run formation sorts the batch in place and holds nothing
// beyond the record slice, so SortSlice must not allocate.
func TestSortSliceAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	input := benchRunEdges(4096, rng)
	buf := make([]record.Edge, len(input))
	s := New(record.EdgeCodec{}, record.EdgeByTarget, iomodel.Config{})
	allocs := testing.AllocsPerRun(20, func() {
		copy(buf, input)
		s.SortSlice(buf)
	})
	if allocs != 0 {
		t.Errorf("SortSlice allocates %.1f times per run, want 0", allocs)
	}
}
