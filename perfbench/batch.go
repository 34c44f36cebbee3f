package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"extscc"
	"extscc/internal/iomodel"
	"extscc/internal/record"
)

// tracedLookups is how many Result.LabelOf calls the traced batch run makes
// for result.lookup_p99_ms: enough for ten samples beyond p99.
const tracedLookups = 2000

// input is a generated workload graph on local disk.
type input struct {
	path  string
	nodes []record.NodeID
	bytes int64
}

// writeInput generates the workload graph for seed into dir.
func writeInput(w workload, seed int64, dir string) (input, error) {
	g := w.generator(seed)
	cfg, err := iomodel.Config{Storage: extscc.OSStorage()}.Validate()
	if err != nil {
		return input{}, err
	}
	path := filepath.Join(dir, fmt.Sprintf("input-%d.edges", seed))
	if _, err := g.WriteTo(path, cfg); err != nil {
		return input{}, fmt.Errorf("generate %s: %w", w.name, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return input{}, err
	}
	return input{path: path, nodes: g.AllNodes(), bytes: st.Size()}, nil
}

func buildOracle(w workload, seed int64) (*oracle, error) {
	g := w.generator(seed)
	edges, err := g.Generate()
	if err != nil {
		return nil, err
	}
	return newOracle(edges, g.AllNodes(), w.serve), nil
}

// graphSeed is the generator seed of input k of a run with seed.
func graphSeed(w workload, seed int64, k int) int64 { return seed*int64(w.inputs) + int64(k) }

// newEngine builds an engine with the default settings and the workload's
// memory budget, on storage under dir.  onIteration, if set, receives every
// contraction iteration.
func newEngine(w workload, st extscc.Storage, dir string, onIteration func(extscc.Progress)) (*extscc.Engine, error) {
	opts := []extscc.Option{
		extscc.WithMemory(w.memory),
		extscc.WithStorage(st),
		extscc.WithTempDir(dir),
	}
	if onIteration != nil {
		opts = append(opts, extscc.WithProgress(onIteration))
	}
	return extscc.New(opts...)
}

// exactCounts are the figures an engine run must repeat exactly for one seed,
// whatever the timing.
type exactCounts struct {
	blockIOs, bytesRead, bytesWritten int64
	iterations                        int
	addedEdges                        int64
}

// drainChecked streams the result's labelling through the partition check
// and reports whether it matched.
func drainChecked(res *extscc.Result, p *partition) error {
	p.reset()
	next := uint32(0)
	for node, scc := range res.Stream() {
		if node != next {
			return fmt.Errorf("label stream: node %d where %d was expected", node, next)
		}
		if !p.add(node, scc) {
			return fmt.Errorf("label stream: node %d in SCC %d disagrees with Tarjan", node, scc)
		}
		next++
	}
	if err := res.Err(); err != nil {
		return err
	}
	if int(next) != len(p.want) {
		return fmt.Errorf("label stream: %d labels for %d nodes", next, len(p.want))
	}
	return nil
}

// lookupKeys returns the nodes the traced batch run looks up: Zipf keys, so
// popular nodes repeat.
func lookupKeys(seed int64, n int) []record.NodeID {
	z := newZipfKeys(seed, n)
	keys := make([]record.NodeID, tracedLookups)
	for i := range keys {
		keys[i] = z.key()
	}
	return keys
}

// runLookups calls Result.LabelOf for each key, one after another as a
// caller that waits for each answer would, checks each answer against the
// partition p (which must hold the result's full labelling), and returns each
// lookup's latency in milliseconds.
func runLookups(res *extscc.Result, keys []record.NodeID, p *partition, rep *report) []float64 {
	lat := make([]float64, len(keys))
	bad := 0
	var firstErr error
	for i, k := range keys {
		t0 := time.Now()
		scc, ok, err := res.LabelOf(k)
		lat[i] = millis(time.Since(t0))
		if err != nil || !ok || p.fwd[scc] != p.want[k] {
			bad++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	rep.attempted += len(keys)
	if bad > 0 {
		rep.failN(bad, "%d lookups answered wrongly or failed (first error: %v)", bad, firstErr)
	}
	return lat
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// batchInput is one input graph of a batch run and the exact counts of its
// repeats.
type batchInput struct {
	in     input
	part   *partition
	counts []exactCounts
}

// runBatch is the untraced end-to-end run of a batch workload.  Set-up
// (generating the run's inputs plus extscc.New) is repeated; see moreSetup.
// Then Engine runs cycle through the inputs for d, until every input ran, the
// first ran twice, and there were at least minReps runs.
func runBatch(ctx context.Context, w workload, seed int64, d time.Duration, dir string, rep *report) error {
	inputs := make([]*batchInput, w.inputs)
	var eng *extscc.Engine
	var added int64
	var setup []float64
	for setupStart := time.Now(); moreSetup(len(setup), setupStart); {
		t0 := time.Now()
		for k := range inputs {
			in, err := writeInput(w, graphSeed(w, seed, k), dir)
			if err != nil {
				return err
			}
			inputs[k] = &batchInput{in: in}
		}
		var err error
		eng, err = newEngine(w, extscc.OSStorage(), dir, func(p extscc.Progress) { added += p.AddedEdges })
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	var numSCCs int
	for k, bi := range inputs {
		orc, err := buildOracle(w, graphSeed(w, seed, k))
		if err != nil {
			return err
		}
		numSCCs += orc.numSCCs
		bi.part = newPartition(orc.label)
	}

	var runS, cpuS, heap []float64
	start := time.Now()
	for i := 0; i < max(minReps, len(inputs)+1) || time.Since(start) < d; i++ {
		bi := inputs[i%len(inputs)]
		added = 0
		settle()
		hs := startHeapSampler()
		cpu0, t0 := cpuSeconds(), time.Now()
		rep.attempted++
		res, err := eng.Run(ctx, extscc.FileSource(bi.in.path, bi.in.nodes...))
		if err != nil {
			hs.stop()
			rep.fail("engine run: %v", err)
			continue
		}
		derr := drainChecked(res, bi.part)
		cerr := res.Close()
		cpu1, t1 := cpuSeconds(), time.Now()
		if derr != nil {
			rep.fail("%v", derr)
		}
		heap = append(heap, hs.stop())
		if cerr != nil {
			rep.fail("close result: %v", cerr)
		}
		runS = append(runS, t1.Sub(t0).Seconds())
		cpuS = append(cpuS, cpu1-cpu0)
		got := exactCounts{res.Stats.TotalIOs, res.Stats.BytesRead, res.Stats.BytesWritten, res.Stats.ContractionIterations, added}
		if len(bi.counts) > 0 && got != bi.counts[0] {
			rep.fail("exact counts differ between repeats of one input: %+v vs %+v", bi.counts[0], got)
		}
		bi.counts = append(bi.counts, got)
	}

	// Timings are medians over every repeat; exact counts are means over
	// the inputs.
	var ios, read, written, inBytes float64
	iterations := 0
	for _, bi := range inputs {
		if len(bi.counts) == 0 {
			return fmt.Errorf("no engine run succeeded on %s", bi.in.path)
		}
		c := bi.counts[0]
		ios += float64(c.blockIOs)
		read += float64(c.bytesRead)
		written += float64(c.bytesWritten)
		inBytes += float64(bi.in.bytes)
		iterations += c.iterations
	}
	n := float64(len(inputs))
	rep.set("setup_s", median(setup), "s")
	rep.set("run_s", median(runS), "s")
	rep.set("cpu_s", median(cpuS), "s")
	rep.set("peak_heap_bytes", median(heap), "bytes")
	rep.set("block_ios", ios/n, "count")
	rep.set("write_amp", written/inBytes, "ratio")
	rep.set("read_amp", read/inBytes, "ratio")
	fmt.Printf("inputs: %d x |V|=%d |E|~%d, %.0f bytes each, M=%d; iterations=%d SCCs=%d (summed over inputs)\n",
		len(inputs), w.nodes, w.nodes*w.degree, inBytes/n, w.memory, iterations, numSCCs)
	fmt.Printf("run_s per repeat %.3f\n", runS)
	return nil
}
