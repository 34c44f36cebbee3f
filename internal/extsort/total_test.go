package extsort

import (
	"bytes"
	"container/heap"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// comparatorCase checks one comparator handed to the sorter for the strict
// total order New requires.
type comparatorCase struct {
	name  string
	check func(t *testing.T, rng *rand.Rand)
}

// totalCase builds the check for less over records of type T: for random
// records drawn from tiny field domains (so every kind of tie on the leading
// fields comes up) and for each record's near-duplicates (one field bumped),
// exactly one of less(a, b) and less(b, a) must hold whenever a != b, and
// neither when a == b.
func totalCase[T comparable](name string, less func(a, b T) bool) comparatorCase {
	return comparatorCase{name: name, check: func(t *testing.T, rng *rand.Rand) {
		verify := func(a, b T) {
			ab, ba := less(a, b), less(b, a)
			if a == b && (ab || ba) {
				t.Fatalf("%s(%+v, %+v) holds for equal records", name, a, b)
			}
			if a != b && ab == ba {
				t.Fatalf("%s cannot order %+v and %+v, which differ", name, a, b)
			}
		}
		for i := 0; i < 2000; i++ {
			a, b := randomSmall[T](rng), randomSmall[T](rng)
			verify(a, b)
			verify(a, a)
			for _, d := range nearDuplicates(a) {
				verify(a, d)
			}
		}
	}}
}

// eachLeaf calls fn on every unsigned integer field of v, recursing into
// nested structs; a bare integer type is its own single leaf.
func eachLeaf(v reflect.Value, fn func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachLeaf(v.Field(i), fn)
		}
	case reflect.Uint32, reflect.Uint64:
		fn(v)
	default:
		panic("unsupported record field kind " + v.Kind().String())
	}
}

// randomSmall returns a record whose every field is drawn from {0, 1, 2}.
func randomSmall[T any](rng *rand.Rand) T {
	var rec T
	eachLeaf(reflect.ValueOf(&rec).Elem(), func(f reflect.Value) { f.SetUint(uint64(rng.Intn(3))) })
	return rec
}

// nearDuplicates returns one copy of rec per field, that field incremented.
func nearDuplicates[T any](rec T) []T {
	var out []T
	eachLeaf(reflect.ValueOf(&rec).Elem(), func(f reflect.Value) {
		old := f.Uint()
		f.SetUint(old + 1)
		out = append(out, rec)
		f.SetUint(old)
	})
	return out
}

// sortComparators lists every comparator the tree hands to the sorter, by
// the name it is referenced with (record.<name>).
var sortComparators = []comparatorCase{
	totalCase("EdgeBySource", record.EdgeBySource),
	totalCase("EdgeByTarget", record.EdgeByTarget),
	totalCase("NodeLess", record.NodeLess),
	totalCase("NodeDegreeByNode", record.NodeDegreeByNode),
	totalCase("EdgeAugBySource", record.EdgeAugBySource),
	totalCase("EdgeAugByTarget", record.EdgeAugByTarget),
	totalCase("LabelByNode", record.LabelByNode),
	totalCase("LabelBySCC", record.LabelBySCC),
	totalCase("EdgeSCCBySource", record.EdgeSCCBySource),
	totalCase("EdgeSCCByTargetSCC", record.EdgeSCCByTargetSCC),
}

func TestComparatorsAreTotal(t *testing.T) {
	for _, c := range sortComparators {
		t.Run(c.name, func(t *testing.T) { c.check(t, rand.New(rand.NewSource(1))) })
	}
}

// TestEveryComparatorIsListed walks the module's Go sources and checks that
// every comparator passed to the sorter — through extsort.New, NewContext or
// SortFileInPlace, or through edgefile.SortEdges(Context) — is a record
// comparator listed in sortComparators, so TestComparatorsAreTotal covers it.
// A bare identifier is accepted only as a pass-through parameter named less,
// whose own callers are checked here too.
func TestEveryComparatorIsListed(t *testing.T) {
	listed := map[string]bool{}
	for _, c := range sortComparators {
		listed[c.name] = true
	}
	// The position of the comparator among each sorting entry point's
	// arguments.
	lessArg := map[string]int{
		"extsort.New": 1, "extsort.NewContext": 2, "extsort.SortFileInPlace": 2,
		"edgefile.SortEdges": 2, "edgefile.SortEdgesContext": 3,
	}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	calls := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun := call.Fun
			if ix, ok := fun.(*ast.IndexExpr); ok { // New[record.Edge](...)
				fun = ix.X
			}
			var name string
			switch fn := fun.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := fn.X.(*ast.Ident); ok {
					name = pkg.Name + "." + fn.Sel.Name
				}
			case *ast.Ident:
				if f.Name.Name == "extsort" {
					name = "extsort." + fn.Name
				}
			}
			pos, ok := lessArg[name]
			if !ok || len(call.Args) <= pos {
				return true
			}
			calls++
			switch arg := call.Args[pos].(type) {
			case *ast.SelectorExpr:
				if pkg, ok := arg.X.(*ast.Ident); ok && pkg.Name == "record" && listed[arg.Sel.Name] {
					return true
				}
			case *ast.Ident:
				if arg.Name == "less" {
					return true
				}
			}
			t.Errorf("%s: %s is passed a comparator that is not a listed record comparator; add it to sortComparators", fset.Position(call.Pos()), name)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls < 20 {
		t.Fatalf("found only %d sorter calls; the source walk is broken", calls)
	}
}

// stableRuns is the oracle for run formation: the input cut into batches of
// capRecords in input order, each stable-sorted with sort.SliceStable (the
// run sort before the in-place pdqsort) and written as its own file.
func stableRuns[T any](t *testing.T, codec record.Codec[T], less func(a, b T) bool, cfg iomodel.Config, input []T, capRecords int) [][]byte {
	t.Helper()
	var runs [][]byte
	for start := 0; start < len(input); start += capRecords {
		batch := append([]T(nil), input[start:min(start+capRecords, len(input))]...)
		sort.SliceStable(batch, func(i, j int) bool { return less(batch[i], batch[j]) })
		runs = append(runs, writeBytes(t, codec, cfg, batch))
	}
	return runs
}

// writeBytes writes recs as one record file and returns its bytes.
func writeBytes[T any](t *testing.T, codec record.Codec[T], cfg iomodel.Config, recs []T) []byte {
	t.Helper()
	path := filepath.Join(cfg.TempDir, "oracle")
	if err := recio.WriteSlice(path, codec, cfg, recs); err != nil {
		t.Fatal(err)
	}
	data, err := storage.ReadFile(cfg.Backend(), path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkAgainstStableOracle sorts input at workers 1, 2 and 4 and asserts
// that every run file and the sorted output are byte-identical to the
// sort.SliceStable oracle.
func checkAgainstStableOracle[T any](t *testing.T, codec record.Codec[T], less func(a, b T) bool, input []T) {
	for _, workers := range []int{1, 2, 4} {
		cfg := iomodel.Config{
			BlockSize: 1024,
			Memory:    int64(codec.Size()) * 2 * 700, // 700-record runs
			TempDir:   "/sort",
			Workers:   workers,
			Storage:   storage.NewMem(),
			Stats:     &iomodel.Stats{},
		}
		s := New(codec, less, cfg)
		capRecords, err := s.runCapacity()
		if err != nil {
			t.Fatal(err)
		}
		want := stableRuns(t, codec, less, cfg, input, capRecords)
		runs, err := s.formRuns(recio.NewSliceIterator(input))
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != len(want) || len(runs) < 5 {
			t.Fatalf("workers=%d: %d runs, oracle %d (want >= 5)", workers, len(runs), len(want))
		}
		for i, path := range runs {
			got, err := storage.ReadFile(cfg.Backend(), path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("workers=%d: run %d differs from the stable-sort oracle", workers, i)
			}
		}
		out := filepath.Join(cfg.TempDir, "sorted")
		if err := s.mergeRuns(runs, out); err != nil {
			t.Fatal(err)
		}
		all := append([]T(nil), input...)
		sort.SliceStable(all, func(i, j int) bool { return less(all[i], all[j]) })
		got, err := storage.ReadFile(cfg.Backend(), out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, writeBytes(t, codec, cfg, all)) {
			t.Fatalf("workers=%d: sorted output differs from the stable-sort oracle", workers)
		}
	}
}

// TestRunsMatchStableSortOracle sorts batches full of duplicate keys and
// near-duplicates — records equal on the leading sort fields and differing
// only in the fields the comparators break ties on — and asserts that the
// in-place sort writes exactly the bytes the stable sort wrote, at every
// worker count.
func TestRunsMatchStableSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 5000
	aug := make([]record.EdgeAug, n)
	for i := range aug {
		aug[i] = record.EdgeAug{
			U: rng.Uint32() % 8, V: rng.Uint32() % 8,
			KeyU: record.NodeKey{Deg: uint64(rng.Intn(2)), Prod: uint64(rng.Intn(2))},
			KeyV: record.NodeKey{Deg: uint64(rng.Intn(2)), Prod: uint64(rng.Intn(2))},
		}
	}
	labels := make([]record.Label, n)
	for i := range labels {
		labels[i] = record.Label{Node: rng.Uint32() % 300, SCC: rng.Uint32() % 3}
	}
	edges := make([]record.Edge, n)
	for i := range edges {
		edges[i] = record.Edge{U: rng.Uint32() % 20, V: rng.Uint32() % 20}
	}
	t.Run("EdgeAugByTarget", func(t *testing.T) {
		checkAgainstStableOracle(t, record.EdgeAugCodec{}, record.EdgeAugByTarget, aug)
	})
	t.Run("LabelByNode", func(t *testing.T) {
		checkAgainstStableOracle(t, record.LabelCodec{}, record.LabelByNode, labels)
	})
	t.Run("LabelBySCC", func(t *testing.T) {
		checkAgainstStableOracle(t, record.LabelCodec{}, record.LabelBySCC, labels)
	})
	t.Run("EdgeByTarget", func(t *testing.T) {
		checkAgainstStableOracle(t, record.EdgeCodec{}, record.EdgeByTarget, edges)
	})
}

// oracleHeap is the container/heap-based merge heap the typed heap replaced.
type oracleHeap struct {
	items []mergeItem[int]
	less  func(a, b int) bool
}

func (h *oracleHeap) Len() int           { return len(h.items) }
func (h *oracleHeap) Less(i, j int) bool { return h.less(h.items[i].rec, h.items[j].rec) }
func (h *oracleHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *oracleHeap) Push(x any)         { h.items = append(h.items, x.(mergeItem[int])) }
func (h *oracleHeap) Pop() any {
	it := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return it
}

// TestMergeHeapMatchesContainerHeap drives the typed merge heap and a
// container/heap one through the same merge — init, then per step either
// replace the minimum with the next record of its source or pop it — over
// keys with many ties, and asserts both hold the same items in the same
// slots after every step, so a merge pass picks the same source every time.
func TestMergeHeapMatchesContainerHeap(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(20)
		typed := &mergeHeap[int]{less: less}
		oracle := &oracleHeap{less: less}
		for src := 0; src < k; src++ {
			it := mergeItem[int]{rec: rng.Intn(4), src: src}
			typed.items = append(typed.items, it)
			oracle.items = append(oracle.items, it)
		}
		typed.init()
		heap.Init(oracle)
		for step := 0; len(typed.items) > 0; step++ {
			if !reflect.DeepEqual(typed.items, oracle.items) {
				t.Fatalf("trial %d step %d: typed heap %v, container/heap %v", trial, step, typed.items, oracle.items)
			}
			top := typed.items[0]
			if rng.Intn(4) == 0 {
				typed.pop()
				heap.Pop(oracle)
				continue
			}
			next := mergeItem[int]{rec: top.rec + rng.Intn(2), src: top.src}
			typed.replaceTop(next)
			oracle.items[0] = next
			heap.Fix(oracle, 0)
		}
		if len(oracle.items) != 0 {
			t.Fatalf("trial %d: container/heap still holds %d items", trial, len(oracle.items))
		}
	}
}
