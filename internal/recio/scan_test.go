package recio

import (
	"io"
	"path/filepath"
	"testing"

	"extscc/internal/iomodel"
	"extscc/internal/record"
)

// TestScanCountExact pins the per-reader scan count: a reader tallies the
// records Read returns in a field of its own and hands the tally to Stats
// when it moves to the next frame (a block's worth of records on the fixed
// layout) and in Close.  Partial reads, reads across frame boundaries, SeekTo
// and SeekToKey must leave Stats.RecordsScanned equal to the number of
// records Read returned once the reader closes, lagging by at most one frame
// (or block) while it is open.
func TestScanCountExact(t *testing.T) {
	for _, family := range []string{record.FamilyVarint, record.FamilyFixed} {
		t.Run(family, func(t *testing.T) {
			cfg := testConfig(t)
			cfg.Codec = family
			path := filepath.Join(t.TempDir(), "edges.bin")
			edges := makeEdges(1000)
			if err := WriteSlice(path, record.EdgeCodec{}, cfg, edges); err != nil {
				t.Fatal(err)
			}
			r, err := NewReader(path, record.EdgeCodec{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Framed(); got != (family == record.FamilyVarint) {
				t.Fatalf("Framed() = %v under %s", got, family)
			}
			// The most records one frame (or, fixed, one flush) can hold.
			lagBound := int64(cfg.BlockSize / record.EdgeCodec{}.Size())
			base := cfg.Stats.Snapshot().RecordsScanned
			returned := int64(0)
			read := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					if _, err := r.Read(); err != nil {
						t.Fatalf("read %d: %v", returned, err)
					}
					returned++
				}
				counted := cfg.Stats.Snapshot().RecordsScanned - base
				if counted > returned || returned-counted > lagBound {
					t.Fatalf("after %d records returned Stats counts %d (lag bound %d)", returned, counted, lagBound)
				}
			}

			read(3)  // partial first frame
			read(40) // across many frame boundaries
			if err := r.SeekTo(500); err != nil {
				t.Fatal(err)
			}
			read(7)
			// A fixed-layout key seek is a binary search of Reads, each one
			// counted, so only the framed file takes SeekToKey here.
			if r.Framed() {
				if _, err := r.SeekToKey(record.KeyOf(edges[800])); err != nil {
					t.Fatal(err)
				}
			} else if err := r.SeekTo(800); err != nil {
				t.Fatal(err)
			}
			read(11)
			if err := r.SeekTo(990); err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := r.Read(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				returned++
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if counted := cfg.Stats.Snapshot().RecordsScanned - base; counted != returned {
				t.Fatalf("after Close Stats counts %d scanned records, Read returned %d", counted, returned)
			}
		})
	}
}

// TestReadLeavesStatsAlone checks that a Read served from the decoded frame
// touches neither the allocator nor Stats: the scan count reaches Stats only
// when the reader moves to the next frame or closes.
func TestReadLeavesStatsAlone(t *testing.T) {
	cfg := testConfig(t)
	cfg.BlockSize = iomodel.DefaultBlockSize // one frame holds every record below
	cfg.Codec = record.FamilyVarint
	path := filepath.Join(t.TempDir(), "edges.bin")
	const n = 2000
	if err := WriteSlice(path, record.EdgeCodec{}, cfg, makeEdges(n)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(path, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Read(); err != nil { // decodes the one frame
		t.Fatal(err)
	}
	before := cfg.Stats.Snapshot()
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Read allocates %.1f times per record, want 0", allocs)
	}
	if after := cfg.Stats.Snapshot(); after != before {
		t.Errorf("Read inside a frame changed Stats:\n  before %+v\n  after  %+v", before, after)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Stats.Snapshot().RecordsScanned - before.RecordsScanned; got != 502 {
		t.Errorf("Close flushed %d scanned records, want 502", got)
	}
}
