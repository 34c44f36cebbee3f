package extscc

import (
	"errors"
	"fmt"
	"io"
	"iter"
	"slices"
	"sync"
	"time"

	"extscc/internal/blockio"
	"extscc/internal/iomodel"
	"extscc/internal/prof"
	"extscc/internal/recio"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// Stats summarises the I/O behaviour of a computation.  Every counter is
// independent of the storage backend and of the worker count: for a fixed
// workload and configuration, runs on OSStorage and MemStorage at any
// WithWorkers setting report identical values (only Duration varies).  The
// codec family (WithCodec) is different: it deliberately changes BytesWritten
// and the block counts — that is the point of a compressing codec — while
// leaving the labelling untouched.
type Stats struct {
	// TotalIOs is the number of block transfers (reads plus writes).
	TotalIOs int64
	// ReadIOs and WriteIOs split TotalIOs by direction.
	ReadIOs  int64
	WriteIOs int64
	// RandomIOs is the number of non-sequential block transfers.
	RandomIOs int64
	// RandomReads and RandomWrites split RandomIOs by direction.
	RandomReads  int64
	RandomWrites int64
	// BytesRead and BytesWritten are the transferred volumes.
	BytesRead    int64
	BytesWritten int64
	// FilesCreated is the number of intermediate files the run created.
	FilesCreated int64
	// CompressionRatio is the logical record volume of every file the run
	// wrote divided by the bytes that physically hit storage: 1.0 under
	// CodecFixed, above 1.0 when a compressing codec shrank the files, 0 when
	// nothing was written.
	CompressionRatio float64
	// Retries is the number of transient storage failures the run recovered
	// from by re-issuing the operation (0 unless WithRetry enabled retries
	// and faults actually occurred).  Retried transfers are not double-counted
	// in the I/O counters above.
	Retries int64
	// CorruptFrames is the number of frames that failed integrity
	// verification during the run.  Any non-zero value fails the run with
	// ErrCorrupt, so a successful Result always reports 0; the counter exists
	// for post-mortem inspection by tools that snapshot mid-run.
	CorruptFrames int64
	// CacheHits and CacheMisses report the shared block cache (WithBlockCache
	// or EXTSCC_CACHE): hits are block reads served from memory instead of the
	// storage backend, misses are cache lookups that went to storage.  Both
	// are zero when no cache is configured.  A cache hit is charged exactly
	// like the read it replaced, so these counters are diagnostics of the
	// physical win only — every accounted counter above is identical cache on
	// or off.  Unlike those counters, hit/miss totals may vary with the worker
	// count, because eviction and prefetch timing are scheduling-dependent.
	CacheHits   int64
	CacheMisses int64
	// ContractionIterations is the number of contraction steps performed
	// (0 for algorithms that do not contract).
	ContractionIterations int
	// Workers is the worker count the run executed with (see WithWorkers).
	// It never affects the I/O counters above, only Duration.
	Workers int
	// Storage names the backend the run executed on ("os", "mem").  Like
	// Workers it never affects the I/O counters, only Duration.
	Storage string
	// Codec names the record-codec family intermediate files were written
	// with ("fixed", "varint", "compress"); see WithCodec.
	Codec string
	// Phases breaks the run down by engine phase — staging, contraction,
	// sorting, merging, labelling, expansion — in first-execution order.
	// Wall-clock overlaps under WithWorkers (phases run concurrently inside
	// the sort, for example), so phase walls can sum to more than Duration.
	Phases []PhaseStat
	// Duration is the wall-clock time of the computation.
	Duration time.Duration
}

// PhaseStat is the aggregated profile of one named engine phase: how often it
// ran, its total wall-clock, and its approximate allocation and heap cost
// (heap deltas are sampled at span boundaries, so concurrent activity from
// other phases bleeds in; treat Allocs and HeapDelta as indicative, Wall as
// exact).
type PhaseStat struct {
	Name      string
	Count     int64
	Wall      time.Duration
	Allocs    int64
	HeapDelta int64
}

// phaseStats converts an internal profile snapshot into the public form.
func phaseStats(p *prof.Profile) []PhaseStat {
	snap := p.Snapshot()
	if len(snap) == 0 {
		return nil
	}
	out := make([]PhaseStat, len(snap))
	for i, s := range snap {
		out[i] = PhaseStat{Name: s.Name, Count: s.Count, Wall: s.Wall, Allocs: s.Allocs, HeapDelta: s.HeapDelta}
	}
	return out
}

// Result is the outcome of a computation.
type Result struct {
	// Algorithm is the registered name of the algorithm that produced the
	// result.
	Algorithm string
	// NumNodes is the number of labelled nodes.
	NumNodes int64
	// NumEdges is the number of edges of the input graph.
	NumEdges int64
	// NumSCCs is the number of strongly connected components.
	NumSCCs int64
	// LabelPath is the on-disk label file (one 8-byte (node, scc) record per
	// node, sorted by node id).  It lives inside a run directory that is
	// removed by Close, unless ExportLabels moved it out first.
	LabelPath string
	// EdgePath is the staged edge file the run computed over, on the run's
	// storage backend.  Downstream consumers (condensation-DAG construction,
	// the serving subsystem) re-read it; like LabelPath it lives inside the
	// run directory and is removed by Close.
	EdgePath string
	// NodePath is the staged node file derived alongside EdgePath, same
	// lifetime.
	NodePath string
	// Stats summarises the run.
	Stats Stats

	runDir    string
	cfg       iomodel.Config
	streamErr error

	// Random-access lookup state shared by LabelOf and LookupLabels, guarded
	// by lookupMu.  lookupRd is the held reader: opened on first use, dropped
	// on any read error and by ExportLabels, and closed for good by Close
	// (lookupClosed).  labelTable is the in-memory fallback for a legacy
	// footerless framed label file.
	lookupMu     sync.Mutex
	lookupRd     *recio.Reader[record.Label]
	lookupClosed bool
	labelTable   map[NodeID]uint32
}

// Stream iterates the label assignment as (node, SCC label) pairs in node-id
// order, reading LabelPath block by block — the node set never has to fit in
// memory.  If the underlying read fails, the sequence ends early and Err
// reports the failure.
func (r *Result) Stream() iter.Seq2[NodeID, uint32] {
	return func(yield func(NodeID, uint32) bool) {
		r.streamErr = nil
		rd, err := recio.NewReader(r.LabelPath, record.LabelCodec{}, r.cfg)
		if err != nil {
			r.streamErr = err
			return
		}
		defer rd.Close()
		for {
			l, err := rd.Read()
			if err == io.EOF {
				return
			}
			if err != nil {
				r.streamErr = err
				return
			}
			if !yield(l.Node, l.SCC) {
				return
			}
		}
	}
}

// Err reports the error, if any, that terminated the most recent Stream
// iteration early.
func (r *Result) Err() error { return r.streamErr }

// errResultClosed is returned by lookups on a Result after Close.
var errResultClosed = errors.New("extscc: result is closed")

// lookupReader returns the held lookup reader, opening it on first use; the
// caller holds lookupMu.  It opens with Workers = 1, so no sequential
// prefetcher starts for what is a seek-only access pattern.  Fixed-layout
// files and framed files with a frame-index footer seek by key with no
// per-node memory, whatever the codec.  Only a legacy footerless framed file
// (written before footers existed) cannot seek: its whole labelling is
// scanned once into labelTable, costing 12-16 bytes per node, and the
// returned reader is nil.
func (r *Result) lookupReader() (*recio.Reader[record.Label], error) {
	if r.lookupClosed {
		return nil, errResultClosed
	}
	if r.lookupRd != nil || r.labelTable != nil {
		return r.lookupRd, nil
	}
	cfg := r.cfg
	cfg.Workers = 1
	rd, err := recio.NewReader(r.LabelPath, record.LabelCodec{}, cfg)
	if err != nil {
		return nil, err
	}
	if rd.Count() >= 0 {
		r.lookupRd = rd
		return rd, nil
	}
	defer rd.Close()
	table := make(map[NodeID]uint32)
	for {
		l, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		table[l.Node] = l.SCC
	}
	r.labelTable = table
	return nil, nil
}

// dropLookup closes the held lookup reader, if any; the next lookup reopens
// it on LabelPath.  The caller holds lookupMu.
func (r *Result) dropLookup() {
	if r.lookupRd != nil {
		r.lookupRd.Close()
		r.lookupRd = nil
	}
}

// seekLabel looks node up on the held reader rd with one key seek.  Any
// error drops the reader, so a failed read never leaves it in an unknown
// position and the next call starts from a fresh open.
func (r *Result) seekLabel(rd *recio.Reader[record.Label], node NodeID) (uint32, bool, error) {
	if _, err := rd.SeekToKey(uint64(node) << 32); err != nil {
		r.dropLookup()
		return 0, false, err
	}
	l, err := rd.Read()
	switch {
	case err == io.EOF:
		return 0, false, nil
	case err != nil:
		r.dropLookup()
		return 0, false, err
	case l.Node != node:
		return 0, false, nil
	}
	return l.SCC, true, nil
}

// LabelOf returns the SCC label of a single node, or ok=false for a node the
// run never saw.  The lookup seeks the node-sorted label file by key on a
// reader the Result holds between calls.  On a framed file (varint,
// compress) that is one probe of the frame-index footer's per-frame key
// ranges, in memory, plus at most one frame decode — none when the node
// lies in the frame the previous lookup decoded.  On a fixed-layout file it
// is a binary search by offset arithmetic, O(log n) block reads.  Either way
// point queries over larger-than-RAM labellings need no per-node memory;
// the held reader costs one decoded frame plus one block buffer, and is
// closed by ExportLabels and Close.  Only a legacy footerless framed file
// falls back to scanning the labelling into an in-memory table on first
// call.  LabelOf is safe for concurrent use; lookups on one Result are
// serialised.
func (r *Result) LabelOf(node NodeID) (scc uint32, ok bool, err error) {
	r.lookupMu.Lock()
	defer r.lookupMu.Unlock()
	rd, err := r.lookupReader()
	if err != nil {
		return 0, false, err
	}
	if rd == nil {
		scc, ok = r.labelTable[node]
		return scc, ok, nil
	}
	return r.seekLabel(rd, node)
}

// LookupLabels resolves a batch of nodes, returning a map holding an entry
// for every node that has a label.  The batch is sorted and each distinct
// node is looked up as in LabelOf, on the same held reader: sorted keys that
// share a frame reuse its decoded records, so a batch costs at most one frame
// decode per touched frame on footer-indexed framed files, and no re-open,
// head or footer read after the first call.  This is the primitive the
// serving subsystem's request coalescing is built on.  Legacy footerless
// framed files answer from the same in-memory table as LabelOf.
func (r *Result) LookupLabels(nodes []NodeID) (map[NodeID]uint32, error) {
	r.lookupMu.Lock()
	defer r.lookupMu.Unlock()
	rd, err := r.lookupReader()
	if err != nil {
		return nil, err
	}
	out := make(map[NodeID]uint32, len(nodes))
	if rd == nil {
		for _, n := range nodes {
			if scc, ok := r.labelTable[n]; ok {
				out[n] = scc
			}
		}
		return out, nil
	}
	sorted := slices.Clone(nodes)
	slices.Sort(sorted)
	for i, n := range sorted {
		if i > 0 && n == sorted[i-1] {
			continue
		}
		scc, ok, err := r.seekLabel(rd, n)
		if err != nil {
			return nil, err
		}
		if ok {
			out[n] = scc
		}
	}
	return out, nil
}

// Labels loads the full label assignment into memory.  Use it only when the
// node set fits in memory; otherwise Stream.
func (r *Result) Labels() ([]Label, error) {
	return recio.ReadAll(r.LabelPath, record.LabelCodec{}, r.cfg)
}

// LabelMap loads the assignment as a map from node to SCC label.
func (r *Result) LabelMap() (map[NodeID]uint32, error) {
	labels, err := r.Labels()
	if err != nil {
		return nil, err
	}
	m := make(map[NodeID]uint32, len(labels))
	for _, l := range labels {
		m[l.Node] = l.SCC
	}
	return m, nil
}

// ExportLabels moves the label file out of the run directory to path — on
// the run's storage backend — so it survives Close.  It renames when the
// backend can and falls back to a streamed copy (removing the original)
// otherwise.  On success LabelPath points at the exported file.  To move a
// label file from a MemStorage run onto disk, export it and copy the bytes
// out through the backend (cmd/sccrun -storage=mem -out does exactly that).
func (r *Result) ExportLabels(path string) error {
	if r == nil || r.LabelPath == "" {
		return errors.New("extscc: result has no label file")
	}
	// The held lookup reader is bound to the old path; the next lookup
	// reopens at the exported one.
	r.lookupMu.Lock()
	defer r.lookupMu.Unlock()
	r.dropLookup()
	backend := r.cfg.Backend()
	// The rename (or copy) below goes straight through the backend, not
	// through blockio's writer, so drop any cached blocks held under either
	// path before the bytes move.
	blockio.InvalidateCache(r.LabelPath, r.cfg)
	blockio.InvalidateCache(path, r.cfg)
	if err := backend.Rename(r.LabelPath, path); err == nil {
		r.LabelPath = path
		return nil
	}
	if err := storage.Copy(backend, path, backend, r.LabelPath); err != nil {
		return fmt.Errorf("extscc: export labels: %w", err)
	}
	// The copy succeeded; drop the original so the run directory does not
	// keep a second, identical label file around.
	backend.Remove(r.LabelPath)
	r.LabelPath = path
	return nil
}

// Close closes the held lookup reader and removes the result's run
// directory (including LabelPath, unless it was exported) from the run's
// storage backend.  LabelOf and LookupLabels fail after Close.  It is
// idempotent and safe on a nil receiver.
func (r *Result) Close() error {
	if r == nil {
		return nil
	}
	r.lookupMu.Lock()
	r.dropLookup()
	r.lookupClosed = true
	r.lookupMu.Unlock()
	if r.runDir == "" {
		return nil
	}
	dir := r.runDir
	r.runDir = ""
	return r.cfg.Backend().RemoveAll(dir)
}
