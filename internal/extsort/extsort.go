// Package extsort implements a memory-bounded, I/O-accounted external merge
// sort over record files.  Runs and merge outputs are written through
// package recio, so they inherit the run's codec family: under a compressing
// codec every run and every merge pass occupies fewer blocks, and the sort
// charges correspondingly fewer I/Os.  It is the sort(m) primitive of the
// paper's cost model: run formation uses at most the configured memory budget
// and the k-way merge fan-in is derived from M/B, so the number of merge
// passes matches Theta(log_{M/B}(m/B)).
//
// Every comparator handed to the sorter must be a strict total order on the
// record: !less(a, b) && !less(b, a) implies a == b.  Records that compare
// equal are then indistinguishable, so any correct sort writes the same
// bytes, and runs are sorted in place (pdqsort) rather than stably.  Run
// formation holds nothing beyond its M/2 record slice — no sort scratch.
//
// With cfg.Workers > 1 the sorter parallelises the CPU-bound work without
// changing the accounted I/O: run boundaries are identical at every worker
// count (each run still holds runCapacity() records of the input, in input
// order), each run is sorted by concurrently sorting contiguous chunks and
// merging them while writing (under a total order the output file is
// byte-for-byte the file the sequential sorter writes), the next batch is
// read while the current one is sorted and written, and independent run
// groups of a merge pass are merged concurrently.  Every Stats counter
// therefore matches the sequential run exactly; only the wall-clock changes.
package extsort

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"

	"extscc/internal/blockio"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
)

// checkEvery is how many records the per-record loops process between two
// cancellation checks.
const checkEvery = 8192

// Sorter sorts record files of type T under a fixed comparator.
type Sorter[T any] struct {
	codec record.Codec[T]
	less  func(a, b T) bool
	cmp   func(a, b T) int
	cfg   iomodel.Config
	ctx   context.Context
}

// New returns a Sorter for records of type T ordered by less, operating under
// the memory budget, block size and worker count of cfg.  less must be a
// strict total order on T: two records neither of which is less than the
// other must be equal in every field (break ties on every field the order
// does not otherwise compare).  The sort is not stable, so a comparator that
// ignores a field lets records differing only in that field land in either
// order — and the output bytes then depend on the worker count.
func New[T any](codec record.Codec[T], less func(a, b T) bool, cfg iomodel.Config) *Sorter[T] {
	return NewContext(context.Background(), codec, less, cfg)
}

// NewContext is New with a cancellation context: cancelling ctx aborts a
// running sort between batches, merge groups and record chunks; every worker
// drains and every temporary file the sort created is removed.
func NewContext[T any](ctx context.Context, codec record.Codec[T], less func(a, b T) bool, cfg iomodel.Config) *Sorter[T] {
	if ctx == nil {
		ctx = context.Background()
	}
	cmp := func(a, b T) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	}
	return &Sorter[T]{codec: codec, less: less, cmp: cmp, cfg: cfg, ctx: ctx}
}

func (s *Sorter[T]) ctxErr() error { return s.ctx.Err() }

// workers returns the effective worker count of the sorter.
func (s *Sorter[T]) workers() int { return s.cfg.WorkerCount() }

// blockSize returns the effective block size of the sorter.
func (s *Sorter[T]) blockSize() int {
	if s.cfg.BlockSize > 0 {
		return s.cfg.BlockSize
	}
	return iomodel.DefaultBlockSize
}

// runCapacity returns the number of records sorted in memory per run.  Half
// of the memory budget is reserved for the record slice; the remainder covers
// block buffers and bookkeeping.  A budget too small to hold a record slice
// next to two block buffers (M < 2*B, the Aggarwal–Vitter minimum) is
// rejected: sorting under it would thrash one-block runs instead of making
// progress.
func (s *Sorter[T]) runCapacity() (int, error) {
	if bs := int64(s.blockSize()); s.cfg.Memory < 2*bs {
		return 0, fmt.Errorf("extsort: memory budget %d bytes cannot hold a sort buffer alongside two %d-byte block buffers (the I/O model requires M >= 2*B); raise Memory or shrink BlockSize", s.cfg.Memory, bs)
	}
	capRecords := int(s.cfg.Memory / 2 / int64(s.codec.Size()))
	if capRecords < 4 {
		capRecords = 4
	}
	return capRecords, nil
}

// SortFile sorts the record file at inPath into a new file at outPath.
// The input file is left untouched.
func (s *Sorter[T]) SortFile(inPath, outPath string) error {
	r, err := recio.NewReader(inPath, s.codec, s.cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	return s.SortStream(r.Iter(), outPath)
}

// SortStream sorts all records produced by in into a new file at outPath.
// Run formation and run merging report to the run profile as the "sort" and
// "merge" phases.
func (s *Sorter[T]) SortStream(in recio.Iterator[T], outPath string) error {
	sp := s.cfg.Prof.Start("sort")
	runs, err := s.formRuns(in)
	sp.End()
	if err != nil {
		removeAll(runs, s.cfg)
		return err
	}
	sp = s.cfg.Prof.Start("merge")
	err = s.mergeRuns(runs, outPath)
	sp.End()
	if err != nil {
		removeAll(runs, s.cfg)
		return err
	}
	return nil
}

// SortSlice sorts recs in place using the Sorter's comparator (pdqsort; it
// allocates nothing).  It exists so callers have a single definition of each
// sort order; no I/O is charged.  Under the strict total order New requires,
// the result is the unique sorted permutation of recs.
func (s *Sorter[T]) SortSlice(recs []T) {
	slices.SortFunc(recs, s.cmp)
}

// formRuns splits the input stream into sorted runs, each at most
// runCapacity() records, and writes every run to a temporary file.  The run
// boundaries depend only on the input order and the memory budget — never on
// the worker count — so the parallel and sequential modes produce identical
// run files.
func (s *Sorter[T]) formRuns(in recio.Iterator[T]) ([]string, error) {
	capRecords, err := s.runCapacity()
	if err != nil {
		return nil, err
	}
	if s.workers() > 1 {
		return s.formRunsParallel(in, capRecords)
	}
	var runs []string
	buf := make([]T, 0, capRecords)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		s.SortSlice(buf)
		path := blockio.TempFile(s.cfg.TempDir, "extsort-run", s.cfg.Stats)
		if err := recio.WriteSlice(path, s.codec, s.cfg, buf); err != nil {
			blockio.Remove(path, s.cfg)
			return err
		}
		s.cfg.Stats.CountSortRun(int64(len(buf)))
		runs = append(runs, path)
		buf = buf[:0]
		return nil
	}
	scanned := 0
	for {
		rec, ok, err := in.Next()
		if err != nil {
			return runs, err
		}
		if !ok {
			break
		}
		if scanned++; scanned%checkEvery == 0 {
			if err := s.ctxErr(); err != nil {
				return runs, err
			}
		}
		buf = append(buf, rec)
		if len(buf) == capRecords {
			if err := flush(); err != nil {
				return runs, err
			}
		}
	}
	if err := flush(); err != nil {
		return runs, err
	}
	return runs, nil
}

// formRunsParallel pipelines run formation: the calling goroutine keeps
// reading the input into the next batch while a background goroutine sorts
// and writes the previous one.  Two record batches circulate and the chunks
// are sorted in place, so run formation holds exactly the two M/2 record
// slices — the full memory budget — and nothing more.
// Batches are handed over in input order and written by a single goroutine,
// so the produced run files — paths aside — are the sequential ones.
func (s *Sorter[T]) formRunsParallel(in recio.Iterator[T], capRecords int) ([]string, error) {
	free := make(chan []T, 2)
	free <- make([]T, 0, capRecords)
	free <- make([]T, 0, capRecords)
	batches := make(chan []T)

	var (
		runs     []string
		writeErr error
		failed   = make(chan struct{})
		done     = make(chan struct{})
	)
	go func() {
		defer close(done)
		for buf := range batches {
			if writeErr == nil {
				path, err := s.writeRun(buf)
				if err != nil {
					writeErr = err
					close(failed)
				} else {
					runs = append(runs, path)
				}
			}
			free <- buf[:0]
		}
	}()

	var readErr error
	buf := <-free
	scanned := 0
read:
	for {
		rec, ok, err := in.Next()
		if err != nil {
			readErr = err
			break
		}
		if !ok {
			break
		}
		if scanned++; scanned%checkEvery == 0 {
			if err := s.ctxErr(); err != nil {
				readErr = err
				break
			}
			select {
			case <-failed:
				break read
			default:
			}
		}
		buf = append(buf, rec)
		if len(buf) == capRecords {
			batches <- buf
			buf = <-free
		}
	}
	if readErr == nil && len(buf) > 0 {
		batches <- buf
	}
	close(batches)
	<-done
	if readErr != nil {
		return runs, readErr
	}
	return runs, writeErr
}

// writeRun sorts one batch and writes it as a run file.  The batch is split
// into one contiguous chunk per worker; the chunks are sorted in place
// concurrently and then merged straight into the run writer.  Under a total
// order the merge of sorted chunks is the unique sorted permutation of the
// batch — records that tie are equal — so the run file is byte-identical to
// the sequential sorter's.
func (s *Sorter[T]) writeRun(buf []T) (string, error) {
	if err := s.ctxErr(); err != nil {
		return "", err
	}
	chunks := s.sortChunks(buf)
	path := blockio.TempFile(s.cfg.TempDir, "extsort-run", s.cfg.Stats)
	w, err := recio.NewWriter(path, s.codec, s.cfg)
	if err != nil {
		return "", err
	}
	idx := make([]int, len(chunks))
	written := 0
	for {
		best := -1
		for ci := range chunks {
			if idx[ci] >= len(chunks[ci]) {
				continue
			}
			if best == -1 || s.less(chunks[ci][idx[ci]], chunks[best][idx[best]]) {
				best = ci
			}
		}
		if best == -1 {
			break
		}
		if written++; written%checkEvery == 0 {
			if err := s.ctxErr(); err != nil {
				w.Close()
				blockio.Remove(path, s.cfg)
				return "", err
			}
		}
		if err := w.Write(chunks[best][idx[best]]); err != nil {
			w.Close()
			blockio.Remove(path, s.cfg)
			return "", err
		}
		idx[best]++
	}
	if err := w.Close(); err != nil {
		blockio.Remove(path, s.cfg)
		return "", err
	}
	s.cfg.Stats.CountSortRun(int64(len(buf)))
	return path, nil
}

// sortChunks splits buf into up to workers() contiguous chunks and sorts
// each in place, concurrently.
func (s *Sorter[T]) sortChunks(buf []T) [][]T {
	w := s.workers()
	if w > len(buf) {
		w = len(buf)
	}
	if w <= 1 {
		s.SortSlice(buf)
		return [][]T{buf}
	}
	chunks := make([][]T, 0, w)
	per := (len(buf) + w - 1) / w
	for start := 0; start < len(buf); start += per {
		end := start + per
		if end > len(buf) {
			end = len(buf)
		}
		chunks = append(chunks, buf[start:end])
	}
	var wg sync.WaitGroup
	for _, c := range chunks {
		wg.Add(1)
		go func(c []T) {
			defer wg.Done()
			s.SortSlice(c)
		}(c)
	}
	wg.Wait()
	return chunks
}

// mergeRuns repeatedly merges groups of at most SortFanIn() runs until a
// single sorted file remains, then renames/copies it to outPath.  When the
// sorter has more than one worker, the independent groups of one pass are
// merged concurrently; the pass structure (and therefore every I/O count) is
// the sequential one.  On error every intermediate file the merge created is
// removed, including a partially written outPath.
func (s *Sorter[T]) mergeRuns(runs []string, outPath string) error {
	if len(runs) == 0 {
		// An empty input still produces an (empty) output file.
		w, err := recio.NewWriter(outPath, s.codec, s.cfg)
		if err != nil {
			return err
		}
		return w.Close()
	}
	fanIn := s.cfg.SortFanIn()
	if fanIn < 2 {
		fanIn = 2
	}
	// Every path created below is collected so one error path can remove the
	// whole in-flight state; Remove ignores files already consumed.
	var created []string
	fail := func(err error) error {
		removeAll(created, s.cfg)
		blockio.Remove(outPath, s.cfg)
		return err
	}
	current := runs
	for len(current) > 1 {
		if err := s.ctxErr(); err != nil {
			return fail(err)
		}
		s.cfg.Stats.CountMergePass()
		numGroups := (len(current) + fanIn - 1) / fanIn
		next := make([]string, numGroups)
		for gi := range next {
			if numGroups == 1 {
				next[gi] = outPath
			} else {
				next[gi] = blockio.TempFile(s.cfg.TempDir, "extsort-merge", s.cfg.Stats)
				created = append(created, next[gi])
			}
		}
		if err := s.mergePass(current, next, fanIn); err != nil {
			return fail(err)
		}
		current = next
	}
	if current[0] != outPath {
		// Single run: stream-copy it to the destination (charged as one scan).
		if err := s.copyFile(current[0], outPath); err != nil {
			return fail(err)
		}
		removeAll(current, s.cfg)
	}
	return nil
}

// mergePass merges current[gi*fanIn:(gi+1)*fanIn] into next[gi] for every
// group, with up to workers() groups in flight, and removes each consumed
// group.  Note: each in-flight group buffers fanIn+1 blocks, so a pass with
// multiple workers and multiple groups transiently holds up to
// min(workers, groups) × M bytes of block buffers; WithWorkers(1) restores
// the strict budget.
func (s *Sorter[T]) mergePass(current, next []string, fanIn int) error {
	group := func(gi int) []string {
		start := gi * fanIn
		end := start + fanIn
		if end > len(current) {
			end = len(current)
		}
		return current[start:end]
	}
	par := s.workers()
	if par > len(next) {
		par = len(next)
	}
	if par <= 1 {
		for gi := range next {
			if err := s.ctxErr(); err != nil {
				return err
			}
			g := group(gi)
			if err := s.mergeGroup(g, next[gi]); err != nil {
				return err
			}
			removeAll(g, s.cfg)
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	bail := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	sem := make(chan struct{}, par)
	for gi := range next {
		sem <- struct{}{}
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			defer func() { <-sem }()
			if bail() {
				return
			}
			if err := s.ctxErr(); err != nil {
				setErr(err)
				return
			}
			g := group(gi)
			if err := s.mergeGroup(g, next[gi]); err != nil {
				setErr(err)
				return
			}
			removeAll(g, s.cfg)
		}(gi)
	}
	wg.Wait()
	return firstErr
}

// mergeItem is one heap entry of the k-way merge.
type mergeItem[T any] struct {
	rec T
	src int
}

// mergeHeap is a binary min-heap of merge items under less.  Its sift-down
// makes container/heap's exact choices — the same init order, the same child
// picked on a tie (the left one), the same swap-with-last on pop — so a merge
// pass takes its records in the order the interface-based heap did.
type mergeHeap[T any] struct {
	items []mergeItem[T]
	less  func(a, b T) bool
}

// init establishes the heap invariant (container/heap.Init).
func (h *mergeHeap[T]) init() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts items[i] towards the leaves (container/heap's down).
func (h *mergeHeap[T]) down(i int) {
	items := h.items
	n := len(items)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if j2 := j + 1; j2 < n && h.less(items[j2].rec, items[j].rec) {
			j = j2
		}
		if !h.less(items[j].rec, items[i].rec) {
			return
		}
		items[i], items[j] = items[j], items[i]
		i = j
	}
}

// replaceTop overwrites the minimum and restores the heap
// (container/heap.Fix at index 0).
func (h *mergeHeap[T]) replaceTop(it mergeItem[T]) {
	h.items[0] = it
	h.down(0)
}

// pop removes the minimum (container/heap.Pop).
func (h *mergeHeap[T]) pop() {
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	h.down(0)
}

// mergeGroup merges the sorted run files in group into a single sorted file
// at target.
func (s *Sorter[T]) mergeGroup(group []string, target string) error {
	readers := make([]*recio.Reader[T], len(group))
	defer func() {
		for _, r := range readers {
			if r != nil {
				r.Close()
			}
		}
	}()
	h := &mergeHeap[T]{less: s.less}
	for i, path := range group {
		r, err := recio.NewReader(path, s.codec, s.cfg)
		if err != nil {
			return err
		}
		readers[i] = r
		rec, err := r.Read()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		h.items = append(h.items, mergeItem[T]{rec: rec, src: i})
	}
	h.init()
	w, err := recio.NewWriter(target, s.codec, s.cfg)
	if err != nil {
		return err
	}
	written := 0
	for len(h.items) > 0 {
		top := h.items[0]
		if written++; written%checkEvery == 0 {
			if err := s.ctxErr(); err != nil {
				w.Close()
				return err
			}
		}
		if err := w.Write(top.rec); err != nil {
			w.Close()
			return err
		}
		rec, err := readers[top.src].Read()
		if err == io.EOF {
			h.pop()
			continue
		}
		if err != nil {
			w.Close()
			return err
		}
		h.replaceTop(mergeItem[T]{rec: rec, src: top.src})
	}
	return w.Close()
}

// copyFile streams the record file at src to dst.
func (s *Sorter[T]) copyFile(src, dst string) error {
	r, err := recio.NewReader(src, s.codec, s.cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	_, err = recio.WriteAll(dst, s.codec, s.cfg, r.Iter())
	return err
}

func removeAll(paths []string, cfg iomodel.Config) {
	for _, p := range paths {
		blockio.Remove(p, cfg)
	}
}

// Sorted reports whether the record file at path is sorted under less.  It is
// a verification helper used by tests and cmd/sccverify.
func Sorted[T any](path string, codec record.Codec[T], less func(a, b T) bool, cfg iomodel.Config) (bool, error) {
	r, err := recio.NewReader(path, codec, cfg)
	if err != nil {
		return false, err
	}
	defer r.Close()
	var prev T
	first := true
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, err
		}
		if !first && less(rec, prev) {
			return false, nil
		}
		prev = rec
		first = false
	}
}

// SortFileInPlace sorts the record file at path, replacing its contents.
func SortFileInPlace[T any](path string, codec record.Codec[T], less func(a, b T) bool, cfg iomodel.Config) error {
	tmp := blockio.TempFile(cfg.TempDir, "extsort-inplace", cfg.Stats)
	s := New(codec, less, cfg)
	if err := s.SortFile(path, tmp); err != nil {
		blockio.Remove(tmp, cfg)
		return err
	}
	if err := replaceFile(tmp, path, cfg); err != nil {
		blockio.Remove(tmp, cfg)
		return err
	}
	return nil
}

// replaceFile moves src over dst on cfg's storage backend.  A plain rename is
// free of I/O in the model (metadata only), matching how the paper treats
// renaming intermediate files.
func replaceFile(src, dst string, cfg iomodel.Config) error {
	if err := blockio.Remove(dst, cfg); err != nil {
		return err
	}
	if err := cfg.Backend().Rename(src, dst); err != nil {
		return fmt.Errorf("extsort: rename %s -> %s: %w", src, dst, err)
	}
	return nil
}
