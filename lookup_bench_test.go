package extscc_test

import (
	"context"
	"math/rand"
	"testing"

	"extscc"
	"extscc/internal/graphgen"
)

// BenchmarkLookupLabels measures the serve lookup layer on its own: one
// Result.LookupLabels call per op, each a batch of 8 Zipf(1.1) keys, over the
// varint labelling of a 100k-node Large-SCC graph (several frames at the
// default block size).  Run with -benchmem; the engine run that builds the
// labelling is outside the timed loop.
func BenchmarkLookupLabels(b *testing.B) {
	const batchSize, batches = 8, 4096
	g := graphgen.LargeSCCParams(1000)
	edges, err := g.Generate()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := extscc.New(
		extscc.WithCodec("varint"),
		extscc.WithMemory(4<<20),
		extscc.WithTempDir(b.TempDir()),
	)
	if err != nil {
		b.Fatal(err)
	}
	res, err := eng.Run(context.Background(), extscc.SliceSource(edges))
	if err != nil {
		b.Fatal(err)
	}
	defer res.Close()

	// A seeded permutation spreads the popular Zipf ranks over the id space,
	// as the serve-zipf benchmark workload does.
	n := int(res.NumNodes)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	perm := rng.Perm(n)
	keys := make([][]extscc.NodeID, batches)
	for i := range keys {
		keys[i] = make([]extscc.NodeID, batchSize)
		for j := range keys[i] {
			keys[i][j] = extscc.NodeID(perm[zipf.Uint64()])
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.LookupLabels(keys[i%batches]); err != nil {
			b.Fatal(err)
		}
	}
}
