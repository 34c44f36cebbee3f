package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"extscc"
	"extscc/internal/blockio"
	"extscc/internal/contraction"
	"extscc/internal/core"
	"extscc/internal/edgefile"
	"extscc/internal/expansion"
	"extscc/internal/extsort"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
	"extscc/internal/semiscc"
)

// selfSumTolerance bounds how far the summed self times of the replay's
// spans may stray from its root span.  Only overlapping storage calls of
// concurrent workers make the sum exceed the root.
const selfSumTolerance = 0.05

// replayOut is what the traced replay of Algorithm 2 measured.
type replayOut struct {
	root       span
	labels     []record.Label
	io         iomodel.Snapshot // accounted I/O after staging, as Engine.Run reports it
	iterations []contraction.Result
	edges      []int64  // |E_i| of every graph G_0..G_k
	graphs     []string // edge files of G_0..G_k, kept for the layer benchmarks
	scanBytes  int64    // accounted bytes the semi-external solve read
	recovered  int64    // removed nodes expansion put into an existing SCC
	storage    storageCounters
	runDir     string
	cfg        iomodel.Config
}

// replay runs Ext-SCC-Op the way Engine.Run does — stage, contract until
// |V_i| fits, solve semi-externally, expand in reverse — calling each layer's
// public function from here, inside a span.  The graphs G_i are kept until
// the caller removes runDir.
func replay(ctx context.Context, w workload, in input, st *countingStorage, tr *tracer, dir string) (replayOut, error) {
	cfg, err := iomodel.Config{Memory: w.memory, Workers: runtime.GOMAXPROCS(0), Storage: st, TempDir: dir}.Validate()
	if err != nil {
		return replayOut{}, err
	}
	out := replayOut{cfg: cfg}
	st.resetPeak()
	base := st.counters()
	closeRoot := tr.open("ext-scc-op")
	err = replaySteps(ctx, in, cfg, tr, &out)
	out.root = closeRoot(nil)
	out.storage = st.counters().sub(base)
	if err != nil {
		if out.runDir != "" {
			st.RemoveAll(out.runDir)
		}
		return replayOut{}, err
	}
	return out, nil
}

// layer runs fn inside a span named name whose attributes carry the
// accounted I/O of the call.
func layer(tr *tracer, cfg iomodel.Config, name string, fn func() error) error {
	closeSpan := tr.open(name)
	before := cfg.Stats.Snapshot()
	err := fn()
	d := cfg.Stats.Snapshot().Sub(before)
	closeSpan(map[string]int64{
		"read_blocks": d.ReadBlocks, "write_blocks": d.WriteBlocks,
		"bytes_read": d.BytesRead, "bytes_written": d.BytesWritten,
	})
	return err
}

func replaySteps(ctx context.Context, in input, cfg iomodel.Config, tr *tracer, out *replayOut) error {
	backend := cfg.Backend()
	runDir, err := backend.MkdirTemp(cfg.TempDir, "extscc-engine-")
	if err != nil {
		return err
	}
	out.runDir = runDir
	var g edgefile.Graph
	if err := layer(tr, cfg, "stage", func() error {
		g, err = edgefile.GraphFromEdgeFile(in.path, runDir, in.nodes, cfg)
		return err
	}); err != nil {
		return err
	}
	before := cfg.Stats.Snapshot()
	coreDir, err := backend.MkdirTemp(runDir, "extscc-run-")
	if err != nil {
		return err
	}

	// Contraction (Algorithm 2, lines 2-4).
	current := g
	out.graphs = append(out.graphs, g.EdgePath)
	out.edges = append(out.edges, g.NumEdges)
	var removed []string
	for current.NumNodes > cfg.NodeCapacity() {
		if len(out.iterations) >= core.DefaultMaxIterations {
			return fmt.Errorf("contraction did not reach the node capacity in %d iterations", core.DefaultMaxIterations)
		}
		var cres contraction.Result
		if err := layer(tr, cfg, "contraction", func() error {
			cres, err = contraction.Contract(ctx, current, coreDir, contraction.Options{Optimized: true}, cfg)
			return err
		}); err != nil {
			return err
		}
		out.iterations = append(out.iterations, cres)
		removed = append(removed, cres.RemovedPath)
		current = cres.Next
		out.graphs = append(out.graphs, current.EdgePath)
		out.edges = append(out.edges, current.NumEdges)
	}

	// Semi-external solve (line 5).
	var semi semiscc.Result
	s0 := cfg.Stats.Snapshot()
	if err := layer(tr, cfg, "semiscc", func() error {
		semi, err = semiscc.Compute(current, coreDir, semiscc.Options{}, cfg)
		return err
	}); err != nil {
		return err
	}
	out.scanBytes = cfg.Stats.Snapshot().Sub(s0).BytesRead

	// Expansion in reverse order of removal (lines 6-9).
	labels := semi.LabelPath
	for i := len(removed) - 1; i >= 0; i-- {
		var eres expansion.Result
		if err := layer(tr, cfg, "expansion", func() error {
			eres, err = expansion.ExpandContext(ctx, expansion.Input{
				EdgePath: out.graphs[i], RemovedPath: removed[i], KeptLabelsPath: labels,
			}, coreDir, cfg)
			return err
		}); err != nil {
			return err
		}
		blockio.Remove(labels, cfg)
		labels = eres.LabelPath
		out.recovered += eres.RecoveredIntoExisting
	}
	if err := layer(tr, cfg, "count", func() error {
		_, err := semiscc.CountSCCsInFile(labels, cfg)
		return err
	}); err != nil {
		return err
	}
	out.io = cfg.Stats.Snapshot().Sub(before)

	// Read the labelling back outside the accounted I/O and the trace.
	bare := cfg
	bare.Storage, bare.Stats = backend.(*countingStorage).inner, &iomodel.Stats{}
	out.labels, err = recio.ReadAll(labels, record.LabelCodec{}, bare)
	return err
}

// benchLayers re-runs extsort and the record codec on the replay's real
// graph files, each in a span of its own: every G_i is sorted by source,
// decoded, and encoded again.  It returns the records each pass handled and
// the files' bytes.
func benchLayers(tr *tracer, ro replayOut) (records, fileBytes float64, err error) {
	cfg := ro.cfg
	cfg.Stats = &iomodel.Stats{} // keep these passes out of the replay's accounted I/O
	for _, path := range ro.graphs {
		sorted := blockio.TempFile(ro.runDir, "bench-sorted", cfg.Stats)
		if err := layer(tr, cfg, "extsort", func() error {
			return extsort.New[record.Edge](record.EdgeCodec{}, record.EdgeBySource, cfg).SortFile(path, sorted)
		}); err != nil {
			return 0, 0, err
		}
		blockio.Remove(sorted, cfg)

		var edges []record.Edge
		if err := layer(tr, cfg, "recio.decode", func() error {
			edges, err = recio.ReadAll(path, record.EdgeCodec{}, cfg)
			return err
		}); err != nil {
			return 0, 0, err
		}
		encoded := blockio.TempFile(ro.runDir, "bench-encoded", cfg.Stats)
		if err := layer(tr, cfg, "recio.encode", func() error {
			return recio.WriteSlice(encoded, record.EdgeCodec{}, cfg, edges)
		}); err != nil {
			return 0, 0, err
		}
		blockio.Remove(encoded, cfg)

		f, err := cfg.Backend().Open(path)
		if err != nil {
			return 0, 0, err
		}
		size, err := f.Size()
		f.Close()
		if err != nil {
			return 0, 0, err
		}
		records += float64(len(edges))
		fileBytes += float64(size)
	}
	return records, fileBytes, nil
}

// sumSelf returns the summed self time of the spans named name.
func sumSelf(spans []span, name string) float64 {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.Self
		}
	}
	return d.Seconds()
}

// traceBatch is the traced run of a batch workload.  It makes one untraced
// Engine run, replays the same computation layer by layer under the tracer,
// requires the replay to reproduce the engine's labels and accounted I/O,
// and reports per-layer metrics.
func traceBatch(ctx context.Context, w workload, seed int64, tr *tracer, dir string, rep *report) error {
	seed = graphSeed(w, seed, 0) // the run's first input
	in, err := writeInput(w, seed, dir)
	if err != nil {
		return err
	}
	orc, err := buildOracle(w, seed)
	if err != nil {
		return err
	}
	part := newPartition(orc.label)

	eng, err := newEngine(w, extscc.OSStorage(), dir, nil)
	if err != nil {
		return err
	}
	settle()
	g0, t0 := readGoCounters(), time.Now()
	rep.attempted++
	res, err := eng.Run(ctx, extscc.FileSource(in.path, in.nodes...))
	engineWall := time.Since(t0)
	gc := readGoCounters().sub(g0)
	if err != nil {
		return fmt.Errorf("engine run: %w", err)
	}
	defer res.Close()
	if err := drainChecked(res, part); err != nil {
		rep.fail("%v", err)
	}
	engineLabels, err := res.Labels()
	if err != nil {
		return err
	}
	lat := runLookups(res, lookupKeys(seed, w.nodes), part, rep)

	st := newCountingStorage(extscc.OSStorage(), tr)
	rep.attempted++
	ro, err := replay(ctx, w, in, st, tr, dir)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	defer st.RemoveAll(ro.runDir)
	checkReplay(rep, res.Stats, engineLabels, ro)
	spans := tr.selfTimes()
	rootS := ro.root.dur().Seconds()
	if sum := traceSelfSum(spans, ro.root.Trace).Seconds(); math.Abs(sum/rootS-1) > selfSumTolerance {
		rep.fail("layer self times sum to %.3fs, root span is %.3fs", sum, rootS)
	}
	records, fileBytes, err := benchLayers(tr, ro)
	if err != nil {
		return err
	}
	spans = tr.selfTimes()
	sortS, decodeS, encodeS := sumSelf(spans, "extsort"), sumSelf(spans, "recio.decode"), sumSelf(spans, "recio.encode")

	setStorageMetrics(rep, ro.storage)
	rep.set("blockio.random_ios", float64(res.Stats.RandomIOs), "count")
	rep.set("blockio.compression_ratio", res.Stats.CompressionRatio, "ratio")
	rep.set("stage.s", sumSelf(spans, "stage"), "s")
	var added, maxRatio float64
	for i, it := range ro.iterations {
		added += float64(it.AddedEdges)
		maxRatio = max(maxRatio, float64(it.MaxRemovedDegree)/math.Sqrt(2*float64(ro.edges[i])))
	}
	growth := 0.0
	if len(ro.iterations) > 0 {
		growth = float64(ro.edges[len(ro.edges)-1]) / float64(ro.edges[0])
	}
	rep.set("contraction.iterations", float64(len(ro.iterations)), "count")
	rep.set("contraction.s", sumSelf(spans, "contraction"), "s")
	rep.set("contraction.added_edges", added, "count")
	rep.set("contraction.edge_growth", growth, "ratio")
	rep.set("contraction.max_degree_ratio", maxRatio, "ratio")
	rep.set("semiscc.s", sumSelf(spans, "semiscc"), "s")
	rep.set("semiscc.scan_bytes", float64(ro.scanBytes), "bytes")
	rep.set("expansion.s", sumSelf(spans, "expansion"), "s")
	rep.set("expansion.recovered", float64(ro.recovered), "count")
	rep.set("extsort.s", sortS, "s")
	rep.set("extsort.records_per_s", records/sortS, "1/s")
	rep.set("recio.decode_records_per_s", records/decodeS, "1/s")
	rep.set("recio.encode_records_per_s", records/encodeS, "1/s")
	rep.set("record.bytes_per_edge", fileBytes/records, "bytes")
	rep.set("result.lookup_p99_ms", percentile(lat, 0.99), "ms")
	setGoMetrics(rep, gc)
	rep.set("trace.overhead_s", rootS-engineWall.Seconds(), "s")
	fmt.Printf("replay: root %.3fs, engine run %.3fs, %d spans, %d iterations\n", rootS, engineWall.Seconds(), len(spans), len(ro.iterations))
	return nil
}

// checkReplay fails the run unless the replay reproduced the engine's exact
// labelling and accounted I/O.
func checkReplay(rep *report, es extscc.Stats, engineLabels []record.Label, ro replayOut) {
	if !slices.Equal(engineLabels, ro.labels) {
		rep.fail("replay labelling differs from the engine's (%d vs %d labels)", len(ro.labels), len(engineLabels))
	}
	io := ro.io
	got := [...]int64{io.TotalIOs(), io.ReadBlocks, io.WriteBlocks, io.RandomIOs(), io.BytesRead, io.BytesWritten, io.FilesCreated, int64(len(ro.iterations))}
	want := [...]int64{es.TotalIOs, es.ReadIOs, es.WriteIOs, es.RandomIOs, es.BytesRead, es.BytesWritten, es.FilesCreated, int64(es.ContractionIterations)}
	if got != want || io.CompressionRatio() != es.CompressionRatio {
		rep.fail("replay accounted I/O %v differs from the engine's %v", got, want)
	}
}

func setStorageMetrics(rep *report, c storageCounters) {
	rep.set("storage.read_calls", float64(c.ReadCalls), "count")
	rep.set("storage.read_bytes", float64(c.ReadBytes), "bytes")
	rep.set("storage.read_s", c.ReadS, "s")
	rep.set("storage.write_calls", float64(c.WriteCalls), "count")
	rep.set("storage.write_bytes", float64(c.WriteBytes), "bytes")
	rep.set("storage.write_s", c.WriteS, "s")
	rep.set("storage.files_created", float64(c.FilesCreated), "count")
	rep.set("storage.peak_live_bytes", float64(c.PeakLiveBytes), "bytes")
}

func setGoMetrics(rep *report, gc goCounters) {
	rep.set("go.gc_cycles", gc.gcCycles, "count")
	rep.set("go.alloc_bytes", gc.allocBytes, "bytes")
	rep.set("go.gc_pause_s", gc.gcPauseS, "s")
}
