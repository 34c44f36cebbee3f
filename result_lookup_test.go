package extscc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"extscc/internal/blockio"
	"extscc/internal/graphgen"
	"extscc/internal/storage"
)

// lookupResult runs the engine over a random graph (many components of mixed
// size) with the given codec and backend.
func lookupResult(t *testing.T, codec string, b Storage) *Result {
	t.Helper()
	eng, err := New(
		WithStorage(b),
		WithCodec(codec),
		WithTempDir(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), SliceSource(graphgen.Random(400, 900, 42)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLabelOfBothPaths pins LabelOf and LookupLabels against LabelMap on a
// label file of many frames, under every codec family and both backends:
// every node, the first and last node of every frame (block, for fixed), ids
// below the first and past the last, and unsorted batches with duplicates.
// The white-box assertion pins which path answered: every codec must serve
// lookups by seeking — fixed by offset arithmetic, framed families through
// the frame-index footer — never by building the in-memory fallback table.
func TestLabelOfBothPaths(t *testing.T) {
	backends := []struct {
		name string
		b    Storage
	}{
		{"os", OSStorage()},
		{"mem", storage.NewMem()},
	}
	for _, codec := range []string{"fixed", "varint", "compress"} {
		for _, be := range backends {
			t.Run(codec+"/"+be.name, func(t *testing.T) {
				res := multiFrameResult(t, codec, be.b)
				defer res.Close()
				labels, err := res.Labels()
				if err != nil {
					t.Fatal(err)
				}
				want := make(map[NodeID]uint32, len(labels))
				all := make([]NodeID, len(labels))
				for i, l := range labels {
					want[l.Node] = l.SCC
					all[i] = l.Node
				}
				frames := labelFrames(t, res, codec, len(labels))
				if len(frames) < 32 {
					t.Fatalf("label file spans %d frames; the test needs many", len(frames))
				}
				probe := []NodeID{0, idBase - 1, labels[len(labels)-1].Node + 1, 1 << 30, ^NodeID(0)}
				for _, f := range frames {
					first := labels[f.FirstRecord].Node
					last := labels[f.FirstRecord+int64(f.Count)-1].Node
					probe = append(probe, first, last, first-1, last+1)
				}
				rng := rand.New(rand.NewSource(5))
				batch := append(slices.Clone(probe), probe...)
				rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
				checkLookups(t, res, want, batch)
				rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
				checkLookups(t, res, want, all)
				if res.labelTable != nil {
					t.Fatalf("%s lookup built the in-memory fallback table; expected key seeks", codec)
				}
			})
		}
	}
}

// TestLookupLabelsBatch pins the batched sweep: duplicates collapse, absent
// nodes are omitted, present nodes match LabelMap, and the result is
// identical across codecs.
func TestLookupLabelsBatch(t *testing.T) {
	for _, codec := range []string{"fixed", "varint", "compress"} {
		t.Run(codec, func(t *testing.T) {
			res := lookupResult(t, codec, OSStorage())
			defer res.Close()
			want, err := res.LabelMap()
			if err != nil {
				t.Fatal(err)
			}
			// An unsorted batch with duplicates and misses.
			batch := []NodeID{399, 0, 17, 17, 350, 9999, 1, 0, 123456}
			got, err := res.LookupLabels(batch)
			if err != nil {
				t.Fatal(err)
			}
			expect := map[NodeID]uint32{}
			for _, n := range batch {
				if scc, ok := want[n]; ok {
					expect[n] = scc
				}
			}
			if len(got) != len(expect) {
				t.Fatalf("LookupLabels returned %d entries, want %d", len(got), len(expect))
			}
			for n, scc := range expect {
				if got[n] != scc {
					t.Fatalf("LookupLabels[%d] = %d, want %d", n, got[n], scc)
				}
			}
			// An empty batch is a no-op, not an error.
			if m, err := res.LookupLabels(nil); err != nil || len(m) != 0 {
				t.Fatalf("LookupLabels(nil) = (%v, %v)", m, err)
			}
		})
	}
}

// TestLabelOfConcurrent hammers LabelOf and LookupLabels from many
// goroutines on one multi-frame labelling (meaningful under -race): the
// shared held reader must be safe and every answer correct.
func TestLabelOfConcurrent(t *testing.T) {
	for _, codec := range []string{"fixed", "varint", "compress"} {
		t.Run(codec, func(t *testing.T) {
			res := multiFrameResult(t, codec, OSStorage())
			defer res.Close()
			want, err := res.LabelMap()
			if err != nil {
				t.Fatal(err)
			}
			check := func(n NodeID, scc uint32, ok bool) error {
				wantSCC, wantOK := want[n]
				if ok != wantOK || (ok && scc != wantSCC) {
					return fmt.Errorf("label of %d = (%d, %v), want (%d, %v)", n, scc, ok, wantSCC, wantOK)
				}
				return nil
			}
			// Even goroutines look nodes up one at a time, odd ones in small
			// unsorted batches with a duplicate.
			lookup := func(seed int, n NodeID) error {
				if seed%2 == 0 {
					scc, ok, err := res.LabelOf(n)
					if err != nil {
						return err
					}
					return check(n, scc, ok)
				}
				batch := []NodeID{n + 500, n, n + 1, n}
				got, err := res.LookupLabels(batch)
				if err != nil {
					return err
				}
				for _, m := range batch {
					scc, ok := got[m]
					if err := check(m, scc, ok); err != nil {
						return err
					}
				}
				return nil
			}
			var wg sync.WaitGroup
			errc := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						n := NodeID((seed*2111 + i*137) % (multiFrameNodes + 2*idBase)) // some absent
						if err := lookup(seed, n); err != nil {
							errc <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
		})
	}
}

// stripLabelFooter rewrites res's framed label file without its frame-index
// footer — the exact layout every framed file had before footers existed.
func stripLabelFooter(t *testing.T, res *Result) {
	t.Helper()
	backend := res.cfg.Backend()
	data, err := storage.ReadFile(backend, res.LabelPath)
	if err != nil {
		t.Fatal(err)
	}
	flen, ok, detail := blockio.ParseFooterTrailer(data[len(data)-blockio.FooterTrailerSize:])
	if !ok || detail != "" {
		t.Fatalf("label file carries no footer to strip (ok=%v, %q)", ok, detail)
	}
	f, err := backend.Create(res.LabelPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[:len(data)-flen]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// The rewrite bypasses blockio; evict any cached blocks of the old copy
	// so a configured block cache cannot serve the stripped footer back.
	blockio.InvalidateCache(res.LabelPath, res.cfg)
}

// TestLegacyFooterlessLookupFallsBack pins backward compatibility for the one
// framed layout that cannot seek: with the footer surgically removed (as every
// pre-footer framed file looks), LabelOf still answers correctly — via the
// one-time scan into the in-memory table.
func TestLegacyFooterlessLookupFallsBack(t *testing.T) {
	res := lookupResult(t, "varint", OSStorage())
	defer res.Close()
	want, err := res.LabelMap()
	if err != nil {
		t.Fatal(err)
	}
	stripLabelFooter(t, res)
	for _, node := range []NodeID{0, 17, 399} {
		got, ok, err := res.LabelOf(node)
		if err != nil {
			t.Fatalf("LabelOf(%d): %v", node, err)
		}
		wantSCC, wantOK := want[node]
		if ok != wantOK || got != wantSCC {
			t.Fatalf("LabelOf(%d) = (%d, %v), want (%d, %v)", node, got, ok, wantSCC, wantOK)
		}
	}
	if _, ok, err := res.LabelOf(1 << 30); err != nil || ok {
		t.Fatalf("LabelOf(absent) = (_, %v, %v), want (_, false, nil)", ok, err)
	}
	if res.labelTable == nil {
		t.Fatal("footerless framed lookup answered without the scan table; only the table can serve it")
	}
}

// TestFramedLookupAllocationBounded is the memory-cliff regression gate: point
// lookups on a footer-indexed framed labelling reuse the held reader, so they
// allocate almost nothing per call — no reader buffers, no footer, and never
// the per-node scan table whose cost scales with the labelling.
func TestFramedLookupAllocationBounded(t *testing.T) {
	res := lookupResult(t, "compress", OSStorage())
	defer res.Close()
	if _, _, err := res.LabelOf(7); err != nil {
		t.Fatal(err)
	}
	if res.labelTable != nil {
		t.Fatal("footer-indexed lookup built the per-node scan table")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := res.LabelOf(123); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("LabelOf allocates %.0f objects per call; a lookup on the held reader allocates at most a few", allocs)
	}
}

// TestResultEdgeNodePaths pins the new Result fields: both point at readable
// files inside the run directory and disappear on Close.
func TestResultEdgeNodePaths(t *testing.T) {
	res := lookupResult(t, "", OSStorage())
	if res.EdgePath == "" || res.NodePath == "" {
		t.Fatalf("Result paths missing: edge=%q node=%q", res.EdgePath, res.NodePath)
	}
	backend := res.cfg.Backend()
	for _, p := range []string{res.EdgePath, res.NodePath, res.LabelPath} {
		f, err := backend.Open(p)
		if err != nil {
			t.Fatalf("open %s: %v", p, err)
		}
		f.Close()
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := backend.Open(res.EdgePath); err == nil {
		t.Fatal("EdgePath still readable after Close")
	}
}

// idBase offsets every node id of multiFrameResult's graph, so ids below the
// first labelled node exist; multiFrameNodes is its node-id range.
const (
	idBase          = 1000
	multiFrameNodes = 8000
)

// multiFrameResult runs the engine with 1 KiB blocks over a random graph of
// ids [idBase, idBase+multiFrameNodes), so the label file spans many frames
// (framed codecs) or blocks (fixed).  Ids the sparse graph never touches are
// absent from the labelling.
func multiFrameResult(t *testing.T, codec string, b Storage) *Result {
	t.Helper()
	edges := graphgen.Random(multiFrameNodes, 2*multiFrameNodes, 11)
	for i := range edges {
		edges[i].U += idBase
		edges[i].V += idBase
	}
	eng, err := New(WithStorage(b), WithCodec(codec), WithBlockSize(1024), WithTempDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), SliceSource(edges))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// labelFrames returns the record ranges a lookup reads in one go: the
// frame-index footer entries of a framed label file, or one entry per block
// of a fixed-layout file.
func labelFrames(t *testing.T, res *Result, codec string, numLabels int) []blockio.FooterEntry {
	t.Helper()
	if codec == "fixed" {
		per := int64(res.cfg.BlockSize / 8)
		var out []blockio.FooterEntry
		for first := int64(0); first < int64(numLabels); first += per {
			out = append(out, blockio.FooterEntry{Offset: first * 8, FirstRecord: first, Count: uint32(min(per, int64(numLabels)-first))})
		}
		return out
	}
	br, err := blockio.NewReader(res.LabelPath, res.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	f, ok, err := blockio.ReadFooter(br)
	if err != nil || !ok {
		t.Fatalf("label file has no readable footer (ok=%v): %v", ok, err)
	}
	return f.Entries
}

// checkLookups asserts LabelOf on every node and LookupLabels on batch both
// agree with want, present and absent ids alike.
func checkLookups(t *testing.T, res *Result, want map[NodeID]uint32, batch []NodeID) {
	t.Helper()
	for _, n := range batch {
		got, ok, err := res.LabelOf(n)
		if err != nil {
			t.Fatalf("LabelOf(%d): %v", n, err)
		}
		wantSCC, wantOK := want[n]
		if ok != wantOK || got != wantSCC {
			t.Fatalf("LabelOf(%d) = (%d, %v), want (%d, %v)", n, got, ok, wantSCC, wantOK)
		}
	}
	got, err := res.LookupLabels(batch)
	if err != nil {
		t.Fatal(err)
	}
	expect := map[NodeID]uint32{}
	for _, n := range batch {
		if scc, ok := want[n]; ok {
			expect[n] = scc
		}
	}
	if len(got) != len(expect) {
		t.Fatalf("LookupLabels returned %d entries, want %d", len(got), len(expect))
	}
	for n, scc := range expect {
		if s, ok := got[n]; !ok || s != scc {
			t.Fatalf("LookupLabels[%d] = (%d, %v), want %d", n, s, ok, scc)
		}
	}
}

// countingStorage wraps a backend and logs every Open and every ReadAt, so a
// test can pin exactly which reads a lookup performs.
type countingStorage struct {
	Storage
	mu    sync.Mutex
	opens []string
	reads []int64 // ReadAt offsets, in call order
}

type countingFile struct {
	StorageFile
	c *countingStorage
}

func (c *countingStorage) Open(path string) (StorageFile, error) {
	f, err := c.Storage.Open(path)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.opens = append(c.opens, path)
	c.mu.Unlock()
	return countingFile{f, c}, nil
}

func (f countingFile) ReadAt(p []byte, off int64) (int, error) {
	f.c.mu.Lock()
	f.c.reads = append(f.c.reads, off)
	f.c.mu.Unlock()
	return f.StorageFile.ReadAt(p, off)
}

// mark returns the current log lengths, to pass to since later.
func (c *countingStorage) mark() (opens, reads int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.opens), len(c.reads)
}

// since returns the opens and read offsets logged after a mark.
func (c *countingStorage) since(opens, reads int) ([]string, []int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.opens[opens:]), slices.Clone(c.reads[reads:])
}

// TestLookupLabelsCostBounded is the lookup-cost regression gate.  Once the
// held reader is open, a LookupLabels batch of k keys in k distinct frames
// reads at most k blocks — each at the offset of a frame holding a key — and
// never re-opens the file, so neither the head nor the footer is read again,
// however many frames the file has.  A record-position binary search decodes
// about log2(F) frames per key and fails this gate.
func TestLookupLabelsCostBounded(t *testing.T) {
	for _, codec := range []string{"varint", "compress"} {
		t.Run(codec, func(t *testing.T) {
			cs := &countingStorage{Storage: storage.NewMem()}
			res := multiFrameResult(t, codec, cs)
			defer res.Close()
			labels, err := res.Labels()
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[NodeID]uint32, len(labels))
			for _, l := range labels {
				want[l.Node] = l.SCC
			}
			frames := labelFrames(t, res, codec, len(labels))
			const k = 8
			if len(frames) < 64 {
				t.Fatalf("label file spans %d frames; the gate needs at least 64", len(frames))
			}
			// Open the held reader on frame 0, then pick one key in each of k
			// other frames, spread over the file, in descending order.
			if _, _, err := res.LabelOf(labels[0].Node); err != nil {
				t.Fatal(err)
			}
			var keys []NodeID
			keyFrames := map[int64]bool{}
			for j := k; j >= 1; j-- {
				f := frames[j*(len(frames)-1)/k]
				keys = append(keys, labels[f.FirstRecord+int64(f.Count)/2].Node)
				keyFrames[f.Offset] = true
			}
			mo, mr := cs.mark()
			got, err := res.LookupLabels(keys)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range keys {
				if got[n] != want[n] {
					t.Fatalf("LookupLabels[%d] = %d, want %d", n, got[n], want[n])
				}
			}
			opens, reads := cs.since(mo, mr)
			if len(opens) != 0 {
				t.Fatalf("batch re-opened %v; the held reader must serve it", opens)
			}
			if len(reads) > k {
				t.Fatalf("batch of %d keys in %d distinct frames (F=%d) did %d reads, want <= %d", k, k, len(frames), len(reads), k)
			}
			for _, off := range reads {
				if !keyFrames[off] {
					t.Fatalf("batch read offset %d, which starts no frame holding a key (head or footer re-read?)", off)
				}
			}
			// The sorted batch decoded the highest key's frame last; a lookup
			// there reuses it.
			mo, mr = cs.mark()
			if _, _, err := res.LabelOf(keys[0]); err != nil {
				t.Fatal(err)
			}
			if opens, reads := cs.since(mo, mr); len(opens)+len(reads) != 0 {
				t.Fatalf("a lookup in the decoded frame did %d opens and %d reads, want none", len(opens), len(reads))
			}
		})
	}
}

// TestLookupAfterExport pins that ExportLabels drops the held reader: the
// next lookup re-opens at the exported path and answers correctly.
func TestLookupAfterExport(t *testing.T) {
	for _, b := range []Storage{OSStorage(), storage.NewMem()} {
		t.Run(b.Name(), func(t *testing.T) {
			cs := &countingStorage{Storage: b}
			res := multiFrameResult(t, "varint", cs)
			defer res.Close()
			want, err := res.LabelMap()
			if err != nil {
				t.Fatal(err)
			}
			keys := []NodeID{idBase + 7000, idBase + 3, idBase + 4000}
			checkLookups(t, res, want, keys)
			oldPath := res.LabelPath
			exported := filepath.Join(t.TempDir(), "exported.labels")
			if err := res.ExportLabels(exported); err != nil {
				t.Fatal(err)
			}
			mo, mr := cs.mark()
			checkLookups(t, res, want, keys)
			opens, _ := cs.since(mo, mr)
			if len(opens) == 0 || slices.ContainsFunc(opens, func(p string) bool { return p != exported }) {
				t.Fatalf("lookups after export opened %v, want only %s", opens, exported)
			}
			if f, err := b.Open(oldPath); err == nil {
				f.Close()
				t.Fatalf("old label path %s still exists after export", oldPath)
			}
		})
	}
}

// TestLookupCorruptFrameReopens corrupts label-frame reads through the fault
// backend once the held reader is open.  The call whose frame fails its CRC
// returns a typed ErrCorrupt; once the fault stops, the next call re-opens
// the reader and answers correctly.
func TestLookupCorruptFrameReopens(t *testing.T) {
	rule := &storage.FaultRule{Op: storage.OpRead, Mode: storage.ModeCorrupt} // N=0: armed below
	plan := storage.NewFaultPlan(rule)
	res := multiFrameResult(t, "varint", storage.NewFault(storage.NewMem(), plan))
	defer res.Close()
	labels, err := res.Labels()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[NodeID]uint32, len(labels))
	for _, l := range labels {
		want[l.Node] = l.SCC
	}
	frames := labelFrames(t, res, "varint", len(labels))
	if _, _, err := res.LabelOf(labels[0].Node); err != nil {
		t.Fatal(err)
	}
	// Flip one bit of every label-file read from now on.  A flip can land
	// in a block's bytes past the frame being decoded, so walk the frames
	// until one fails verification.
	rule.Path, rule.N, rule.Count = res.LabelPath, 1, 0
	var bad NodeID
	for _, f := range frames[1:] {
		n := labels[f.FirstRecord].Node
		if _, _, err = res.LabelOf(n); err != nil {
			bad = n
			break
		}
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted frame reads returned %v, want ErrCorrupt", err)
	}
	rule.N = 0 // the disk heals
	opens := plan.OpCount(storage.OpOpen)
	got, ok, err := res.LabelOf(bad)
	if err != nil || !ok || got != want[bad] {
		t.Fatalf("LabelOf(%d) after the fault = (%d, %v, %v), want (%d, true, nil)", bad, got, ok, err, want[bad])
	}
	if plan.OpCount(storage.OpOpen) == opens {
		t.Fatal("the call after a corrupt frame did not re-open the lookup reader")
	}
	checkLookups(t, res, want, []NodeID{bad, labels[len(labels)-1].Node, 0})
}
