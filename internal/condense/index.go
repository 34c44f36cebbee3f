package condense

import (
	"context"
	"fmt"
	"sort"

	"extscc/internal/blockio"
	"extscc/internal/extsort"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
)

// Index is a 2-hop (pruned landmark) reachability index over a condensation
// DAG.  Every DAG node u carries two sorted label sets: Out(u), the
// landmarks u reaches, and In(u), the landmarks that reach u; u reaches v
// exactly when u = v or Out(u) and In(v) intersect.  Landmarks are processed
// in descending degree order with pruned BFS, which keeps the label sets
// small on the hierarchical DAGs SCC condensation produces.
//
// The index answers queries from memory — the structures are per-component,
// not per-node, so they are far smaller than the graph — while the label
// sets are also materialised as sorted record files through the external
// sort (see BuildIndex), carrying the same I/O accounting as every other
// intermediate of a run.  Index methods are safe for concurrent use: the
// structure is immutable after BuildIndex.
type Index struct {
	rank map[record.SCCID]int32 // SCC label -> landmark rank (dense)
	id   []record.SCCID         // rank -> SCC label
	in   [][]int32              // per rank: sorted ranks of landmarks reaching it
	out  [][]int32              // per rank: sorted ranks of landmarks it reaches

	entries  int64
	maxLabel int

	// OutPath and InPath are the materialised hop-label files: Label records
	// (component, landmark rank) sorted by (component, rank), one file per
	// direction.  They live in the directory handed to BuildIndex.
	OutPath string
	InPath  string
}

// IndexStats summarises a built index.
type IndexStats struct {
	// Nodes is the number of DAG nodes (components with inter-component
	// edges) the index covers.
	Nodes int `json:"nodes"`
	// Entries is the total number of hop-label entries across both
	// directions.
	Entries int64 `json:"entries"`
	// MaxLabel is the largest single label set.
	MaxLabel int `json:"max_label"`
}

// Stats returns the index's size summary.
func (ix *Index) Stats() IndexStats {
	return IndexStats{Nodes: len(ix.id), Entries: ix.entries, MaxLabel: ix.maxLabel}
}

// Reaches reports whether component u reaches component v in the DAG the
// index was built over.  Components unknown to the index have no
// inter-component edges and therefore reach exactly themselves, so the
// answer is exact for every pair of valid SCC labels.
func (ix *Index) Reaches(u, v record.SCCID) bool {
	if u == v {
		return true
	}
	ru, ok := ix.rank[u]
	if !ok {
		return false
	}
	rv, ok := ix.rank[v]
	if !ok {
		return false
	}
	return intersects(ix.out[ru], ix.in[rv])
}

// intersects reports whether two ascending rank lists share an element.
func intersects(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// BuildIndex constructs the 2-hop index of dag.  The label sets are pruned
// landmark labels: nodes are ranked by descending degree, and each
// landmark's forward and backward BFS skips every node whose reachability
// the earlier landmarks already cover.  The resulting label entries are
// spilled through the external sort into two sorted record files beneath
// dir (see Index.OutPath / Index.InPath), so building the index is charged
// to cfg.Stats like any other external operator.
func BuildIndex(ctx context.Context, dag *DAG, dir string, cfg iomodel.Config) (*Index, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ids := dag.Nodes()
	n := len(ids)
	ix := &Index{
		rank: make(map[record.SCCID]int32, n),
		id:   ids,
		in:   make([][]int32, n),
		out:  make([][]int32, n),
	}
	// Landmark order: descending total degree, ties by label.  High-degree
	// hubs cover the most pairs, so processing them first lets the pruned
	// BFS of every later landmark stop almost immediately.
	sort.Slice(ix.id, func(a, b int) bool {
		da := len(dag.Succ[ix.id[a]]) + len(dag.Pred[ix.id[a]])
		db := len(dag.Succ[ix.id[b]]) + len(dag.Pred[ix.id[b]])
		if da != db {
			return da > db
		}
		return ix.id[a] < ix.id[b]
	})
	for r, id := range ix.id {
		ix.rank[id] = int32(r)
	}
	// Dense adjacency in rank space.
	fwd := make([][]int32, n)
	rev := make([][]int32, n)
	for r, id := range ix.id {
		for _, s := range dag.Succ[id] {
			fwd[r] = append(fwd[r], ix.rank[s])
		}
		for _, p := range dag.Pred[id] {
			rev[r] = append(rev[r], ix.rank[p])
		}
	}

	// Pruned BFS per landmark.  seen is an epoch-stamped visited array so no
	// per-landmark allocation is needed.
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	queue := make([]int32, 0, n)
	for k := int32(0); k < int32(n); k++ {
		if k%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// The landmark labels itself first, so Out(k) and In(k) answer
		// queries with k as an endpoint without special cases.
		ix.out[k] = append(ix.out[k], k)
		ix.in[k] = append(ix.in[k], k)

		// Forward: k reaches w  =>  k enters In(w), unless already covered.
		queue = append(queue[:0], k)
		seen[k] = k
		for len(queue) > 0 {
			w := queue[0]
			queue = queue[1:]
			for _, x := range fwd[w] {
				if seen[x] == k {
					continue
				}
				seen[x] = k
				if intersects(ix.out[k], ix.in[x]) {
					continue // covered by an earlier landmark: prune subtree
				}
				ix.in[x] = append(ix.in[x], k)
				queue = append(queue, x)
			}
		}
		// Backward: w reaches k  =>  k enters Out(w).  A fresh epoch value
		// is required, so the forward epoch is shifted out of range.
		queue = append(queue[:0], k)
		seen[k] = k + int32(n)
		for len(queue) > 0 {
			w := queue[0]
			queue = queue[1:]
			for _, x := range rev[w] {
				if seen[x] == k+int32(n) {
					continue
				}
				seen[x] = k + int32(n)
				if intersects(ix.out[x], ix.in[k]) {
					continue
				}
				ix.out[x] = append(ix.out[x], k)
				queue = append(queue, x)
			}
		}
	}
	for r := 0; r < n; r++ {
		ix.entries += int64(len(ix.in[r])) + int64(len(ix.out[r]))
		if l := len(ix.in[r]); l > ix.maxLabel {
			ix.maxLabel = l
		}
		if l := len(ix.out[r]); l > ix.maxLabel {
			ix.maxLabel = l
		}
	}

	// Materialise both label sets as sorted record files: (component,
	// landmark rank) pairs in Label records, sorted by the external sort so
	// the build cost shows up in the I/O counters like every intermediate.
	var err error
	ix.OutPath, err = ix.spill(ctx, dir, "hop2-out", ix.out, cfg)
	if err != nil {
		return nil, err
	}
	ix.InPath, err = ix.spill(ctx, dir, "hop2-in", ix.in, cfg)
	if err != nil {
		blockio.Remove(ix.OutPath, cfg)
		return nil, err
	}
	return ix, nil
}

// spill writes one direction's label entries and external-sorts them by
// (component, rank) into a file under dir.
func (ix *Index) spill(ctx context.Context, dir, prefix string, labels [][]int32, cfg iomodel.Config) (string, error) {
	raw := blockio.TempFile(cfg.TempDir, prefix+"-raw", cfg.Stats)
	w, err := recio.NewWriter(raw, record.LabelCodec{}, cfg)
	if err != nil {
		return "", err
	}
	for r, set := range labels {
		for _, h := range set {
			if err := w.Write(record.Label{Node: ix.id[r], SCC: record.SCCID(h)}); err != nil {
				w.Close()
				blockio.Remove(raw, cfg)
				return "", err
			}
		}
	}
	if err := w.Close(); err != nil {
		blockio.Remove(raw, cfg)
		return "", err
	}
	out := blockio.TempFile(dir, prefix, cfg.Stats)
	err = extsort.NewContext(ctx, record.LabelCodec{}, record.LabelByNode, cfg).SortFile(raw, out)
	blockio.Remove(raw, cfg)
	if err != nil {
		blockio.Remove(out, cfg)
		return "", fmt.Errorf("condense: sort %s hop labels: %w", prefix, err)
	}
	return out, nil
}
