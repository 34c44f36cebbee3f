package baseline

import (
	"context"
	"fmt"
	"io"
	"time"

	"extscc/internal/blockio"
	"extscc/internal/edgefile"
	"extscc/internal/extsort"
	"extscc/internal/iomodel"
	"extscc/internal/memgraph"
	"extscc/internal/recio"
	"extscc/internal/record"
)

// EMOptions configures an EM-SCC run.
type EMOptions struct {
	// PartitionEdges is the number of edges loaded per in-memory partition
	// (0 = derive from the memory budget).
	PartitionEdges int
	// MaxIterations caps the contraction loop; reaching it without fitting in
	// memory is reported as non-convergence (0 = 64).
	MaxIterations int
}

// EMResult describes an EM-SCC run.
type EMResult struct {
	// Converged reports whether the algorithm terminated with a full SCC
	// labelling.  The paper's Case-1/Case-2 graphs do not converge.
	Converged bool
	// LabelPath is the label file sorted by node id (empty if not converged).
	LabelPath string
	// NumSCCs is the number of SCCs (0 if not converged).
	NumSCCs int64
	// Iterations is the number of contraction iterations executed.
	Iterations int
	// IO is the I/O charged by the run.
	IO iomodel.Snapshot
	// Duration is the wall-clock time of the run.
	Duration time.Duration
}

// EMSCC runs the contraction heuristic of Cosgaya-Lozano & Zeh: it repeatedly
// loads memory-sized partitions of the edge file, contracts the SCCs found
// inside each partition, and stops when the whole graph fits in memory.  If
// an iteration contracts nothing while the graph is still too large, the run
// is reported as not converged.  Cancelling ctx aborts the run between
// iterations and removes every intermediate file.
func EMSCC(ctx context.Context, g edgefile.Graph, dir string, opts EMOptions, cfg iomodel.Config) (*EMResult, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if dir == "" {
		dir = cfg.TempDir
	}
	start := time.Now()
	base := cfg.Stats.Snapshot()
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = 64
	}
	partition := opts.PartitionEdges
	if partition <= 0 {
		partition = int(cfg.Memory / 2 / int64(record.EdgeCodec{}.Size()))
		if partition < 16 {
			partition = 16
		}
	}
	memEdgeLimit := int64(partition)

	var temps []string
	temp := func(prefix string) string {
		p := blockio.TempFile(dir, prefix, cfg.Stats)
		temps = append(temps, p)
		return p
	}
	defer func() {
		for _, p := range temps {
			blockio.Remove(p, cfg)
		}
	}()
	finish := func(converged bool, labelPath string, numSCCs int64, iters int) *EMResult {
		return &EMResult{
			Converged:  converged,
			LabelPath:  labelPath,
			NumSCCs:    numSCCs,
			Iterations: iters,
			IO:         cfg.Stats.Snapshot().Sub(base),
			Duration:   time.Since(start),
		}
	}

	// Cumulative mapping original node -> current representative, stored as
	// labels sorted by node, initialised to the identity.
	cumulative := temp("em-cumulative")
	if err := identityMapping(g.NodePath, cumulative, cfg); err != nil {
		return nil, err
	}

	// Working edge file (copy so the input graph stays untouched).
	current := temp("em-edges")
	if _, err := edgefile.ConcatEdges(current, cfg, g.EdgePath); err != nil {
		return nil, err
	}
	currentEdges := g.NumEdges

	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if currentEdges <= memEdgeLimit {
			// The contracted graph fits in memory: solve it and compose the
			// labels with the cumulative mapping.
			labelPath, numSCCs, err := emFinalSolve(current, cumulative, dir, cfg)
			if err != nil {
				return nil, err
			}
			return finish(true, labelPath, numSCCs, iter), nil
		}

		// One pass over the edge file in memory-sized partitions, contracting
		// partition-local SCCs.
		relabel, pairs, err := emPartitionPass(current, partition, temp, cfg)
		if err != nil {
			return nil, err
		}
		if pairs == 0 {
			// No partition contained a contractible SCC: EM-SCC cannot make
			// progress (Case-1 / Case-2 of Section III).
			return finish(false, "", 0, iter+1), nil
		}
		// Apply the relabelling to the edge file and to the cumulative map.
		next := temp("em-edges-next")
		n, err := emApplyRelabel(current, relabel, next, temp, cfg)
		if err != nil {
			return nil, err
		}
		current, currentEdges = next, n
		updated := temp("em-cumulative-next")
		if err := emComposeMapping(cumulative, relabel, updated, temp, cfg); err != nil {
			return nil, err
		}
		cumulative = updated
	}
	return finish(false, "", 0, maxIter), nil
}

// identityMapping writes (n, n) for every node of the sorted node file.
func identityMapping(nodePath, outPath string, cfg iomodel.Config) error {
	r, err := recio.NewReader(nodePath, record.NodeCodec{}, cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	w, err := recio.NewWriter(outPath, record.LabelCodec{}, cfg)
	if err != nil {
		return err
	}
	for {
		n, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			w.Close()
			return err
		}
		if err := w.Write(record.Label{Node: n, SCC: n}); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// emPartitionPass scans the edge file in partitions of partitionEdges edges,
// finds SCCs inside each partition with in-memory Tarjan, and writes a
// relabel file (member -> representative) sorted by member.  It returns the
// number of relabel pairs.
func emPartitionPass(edgePath string, partitionEdges int, temp func(string) string, cfg iomodel.Config) (string, int64, error) {
	r, err := recio.NewReader(edgePath, record.EdgeCodec{}, cfg)
	if err != nil {
		return "", 0, err
	}
	defer r.Close()
	raw := temp("em-relabel-raw")
	w, err := recio.NewWriter(raw, record.LabelCodec{}, cfg)
	if err != nil {
		return "", 0, err
	}
	buf := make([]record.Edge, 0, partitionEdges)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		cfg.Stats.CountInMemorySolve()
		res := memgraph.FromEdges(buf, nil).Tarjan()
		for _, l := range res.Labels() {
			if l.Node != l.SCC {
				if err := w.Write(l); err != nil {
					return err
				}
			}
		}
		buf = buf[:0]
		return nil
	}
	for {
		e, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			w.Close()
			return "", 0, err
		}
		buf = append(buf, e)
		if len(buf) == partitionEdges {
			if err := flush(); err != nil {
				w.Close()
				return "", 0, err
			}
		}
	}
	if err := flush(); err != nil {
		w.Close()
		return "", 0, err
	}
	if err := w.Close(); err != nil {
		return "", 0, err
	}
	pairs := w.Count()
	sorted := temp("em-relabel")
	sorter := extsort.New[record.Label](record.LabelCodec{}, record.LabelByNode, cfg)
	if err := sorter.SortFile(raw, sorted); err != nil {
		return "", 0, err
	}
	return sorted, pairs, nil
}

// emApplyRelabel rewrites both endpoints of the edge file, removes self-loops
// and parallel edges, and returns the new edge count.
func emApplyRelabel(edgePath, relabelPath string, outPath string, temp func(string) string, cfg iomodel.Config) (int64, error) {
	bySource := temp("em-by-source")
	if err := edgefile.SortEdges(edgePath, bySource, record.EdgeBySource, cfg); err != nil {
		return 0, err
	}
	relabeledU := temp("em-relabeled-u")
	if err := edgefile.RelabelEdges(bySource, relabelPath, relabeledU, false, cfg); err != nil {
		return 0, err
	}
	byTarget := temp("em-by-target")
	if err := edgefile.SortEdges(relabeledU, byTarget, record.EdgeByTarget, cfg); err != nil {
		return 0, err
	}
	relabeledV := temp("em-relabeled-v")
	if err := edgefile.RelabelEdges(byTarget, relabelPath, relabeledV, true, cfg); err != nil {
		return 0, err
	}
	sorted := temp("em-sorted")
	if err := edgefile.SortEdges(relabeledV, sorted, record.EdgeBySource, cfg); err != nil {
		return 0, err
	}
	return edgefile.DedupeEdges(sorted, outPath, true, cfg)
}

// emComposeMapping updates the cumulative mapping: every representative that
// was itself relabelled is replaced by its new representative.
func emComposeMapping(cumulativePath, relabelPath, outPath string, temp func(string) string, cfg iomodel.Config) error {
	// Sort the cumulative mapping by its current representative so the
	// composition is a merge join.
	byRep := temp("em-cum-by-rep")
	sorter := extsort.New[record.Label](record.LabelCodec{}, record.LabelBySCC, cfg)
	if err := sorter.SortFile(cumulativePath, byRep); err != nil {
		return err
	}
	composedRaw := temp("em-cum-composed")
	cR, err := recio.NewReader(byRep, record.LabelCodec{}, cfg)
	if err != nil {
		return err
	}
	defer cR.Close()
	mR, err := recio.NewReader(relabelPath, record.LabelCodec{}, cfg)
	if err != nil {
		return err
	}
	defer mR.Close()
	w, err := recio.NewWriter(composedRaw, record.LabelCodec{}, cfg)
	if err != nil {
		return err
	}
	cum := recio.NewPeekable[record.Label](cR.Iter())
	rel := recio.NewPeekable[record.Label](mR.Iter())
	for cum.Valid() {
		l := cum.Pop()
		for rel.Valid() && rel.Peek().Node < l.SCC {
			rel.Pop()
		}
		if rel.Valid() && rel.Peek().Node == l.SCC {
			l.SCC = rel.Peek().SCC
		}
		if err := w.Write(l); err != nil {
			w.Close()
			return err
		}
	}
	if cum.Err() != nil {
		w.Close()
		return cum.Err()
	}
	if err := w.Close(); err != nil {
		return err
	}
	// Back to node order.
	byNode := extsort.New[record.Label](record.LabelCodec{}, record.LabelByNode, cfg)
	return byNode.SortFile(composedRaw, outPath)
}

// emFinalSolve loads the residual edge file, solves it in memory, and maps
// every original node through the cumulative mapping to its final SCC.
func emFinalSolve(edgePath, cumulativePath, dir string, cfg iomodel.Config) (string, int64, error) {
	edges, err := recio.ReadAll(edgePath, record.EdgeCodec{}, cfg)
	if err != nil {
		return "", 0, err
	}
	cfg.Stats.CountInMemorySolve()
	finalLabels := memgraph.FromEdges(edges, nil).Tarjan().Labels()
	repSCC := make(map[record.NodeID]record.SCCID, len(finalLabels))
	for _, l := range finalLabels {
		repSCC[l.Node] = l.SCC
	}

	out := blockio.TempFile(dir, "em-labels", cfg.Stats)
	r, err := recio.NewReader(cumulativePath, record.LabelCodec{}, cfg)
	if err != nil {
		return "", 0, err
	}
	defer r.Close()
	w, err := recio.NewWriter(out, record.LabelCodec{}, cfg)
	if err != nil {
		return "", 0, err
	}
	seen := map[record.SCCID]struct{}{}
	for {
		l, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			w.Close()
			return "", 0, err
		}
		scc := l.SCC
		if mapped, ok := repSCC[l.SCC]; ok {
			scc = mapped
		}
		seen[scc] = struct{}{}
		if err := w.Write(record.Label{Node: l.Node, SCC: scc}); err != nil {
			w.Close()
			return "", 0, err
		}
	}
	if err := w.Close(); err != nil {
		return "", 0, err
	}
	return out, int64(len(seen)), nil
}

// Validate ensures the options are sensible.
func (o EMOptions) Validate() error {
	if o.PartitionEdges < 0 {
		return fmt.Errorf("baseline: PartitionEdges must be non-negative, got %d", o.PartitionEdges)
	}
	if o.MaxIterations < 0 {
		return fmt.Errorf("baseline: MaxIterations must be non-negative, got %d", o.MaxIterations)
	}
	return nil
}
