package main

import (
	"context"
	"slices"
	"testing"

	"extscc"
	"extscc/internal/graphgen"
)

// accounted is the part of Result.Stats the engine promises is independent
// of the storage backend.
func accounted(s extscc.Stats) [10]float64 {
	return [10]float64{float64(s.TotalIOs), float64(s.ReadIOs), float64(s.WriteIOs), float64(s.RandomIOs),
		float64(s.RandomReads), float64(s.RandomWrites), float64(s.BytesRead), float64(s.BytesWritten),
		float64(s.FilesCreated), s.CompressionRatio}
}

func runOn(t *testing.T, st extscc.Storage) ([]extscc.Label, extscc.Stats) {
	t.Helper()
	p := graphgen.DefaultWebGraphParams()
	p.NumNodes, p.AvgDegree, p.Seed = 3000, 8, 5
	edges, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// A node budget of 0.8|V| makes Ext-SCC-Op contract.
	eng, err := extscc.New(extscc.WithNodeBudget(2400), extscc.WithStorage(st))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), extscc.SliceSource(edges, p.AllNodes()...))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	labels, err := res.Labels()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ContractionIterations == 0 {
		t.Fatal("the test graph did not contract; it no longer covers the write path")
	}
	return labels, res.Stats
}

func TestWrappedRunMatchesBare(t *testing.T) {
	bareLabels, bareStats := runOn(t, extscc.MemStorage())
	for _, tc := range []struct {
		name string
		tr   *tracer
	}{{"counting", nil}, {"traced", newTracer()}} {
		t.Run(tc.name, func(t *testing.T) {
			st := newCountingStorage(extscc.MemStorage(), tc.tr)
			labels, stats := runOn(t, st)
			if !slices.Equal(labels, bareLabels) {
				t.Error("wrapped run labelled differently from the bare run")
			}
			if got, want := accounted(stats), accounted(bareStats); got != want {
				t.Errorf("wrapped run accounted %v, bare run %v", got, want)
			}
			c := st.counters()
			if c.WriteCalls == 0 || c.ReadCalls == 0 || c.FilesCreated == 0 || c.PeakLiveBytes == 0 {
				t.Errorf("wrapper saw no traffic: %+v", c)
			}
			if c.LiveBytes != 0 {
				t.Errorf("%d bytes still live after Result.Close", c.LiveBytes)
			}
			if tc.tr != nil && len(tc.tr.spans) != int(c.ReadCalls+c.WriteCalls) {
				t.Errorf("%d storage spans for %d calls", len(tc.tr.spans), c.ReadCalls+c.WriteCalls)
			}
		})
	}
}

func TestPeakLiveBytesMem(t *testing.T) {
	st := newCountingStorage(extscc.MemStorage(), nil)
	dir, err := st.MkdirTemp("", "peak-")
	if err != nil {
		t.Fatal(err)
	}
	step := func(what string, err error, live, peak int64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if c := st.counters(); c.LiveBytes != live || c.PeakLiveBytes != peak {
			t.Fatalf("after %s: live=%d peak=%d, want live=%d peak=%d", what, c.LiveBytes, c.PeakLiveBytes, live, peak)
		}
	}
	create := func(name string) extscc.StorageFile {
		f, err := st.Create(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a := create("a")
	_, err = a.Write(make([]byte, 100))
	step("append 100 to a", err, 100, 100)
	b := create("b")
	_, err = b.WriteAt(make([]byte, 50), 200)
	step("write b[200:250]", err, 350, 350)
	_, err = b.WriteAt(make([]byte, 10), 0)
	step("overwrite b[0:10]", err, 350, 350)
	step("truncate b to 10", b.Truncate(10), 110, 350)
	a.Close()
	step("rename a to c", st.Rename(dir+"/a", dir+"/c"), 110, 350)
	c := create("c")
	step("re-create c", nil, 10, 350)
	_, err = c.Write(make([]byte, 1000))
	step("append 1000 to c", err, 1010, 1010)
	b.Close()
	step("remove b", st.Remove(dir+"/b"), 1000, 1010)
	st.resetPeak()
	step("reset peak", nil, 1000, 1000)
	c.Close()
	step("remove the directory", st.RemoveAll(dir), 0, 1000)
}
