package extscc_test

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"extscc"
	"extscc/internal/graphgen"
	"extscc/internal/storage"
)

// streamBackends runs fn once per storage backend, mirroring how CI runs the
// suite under EXTSCC_STORAGE=os and =mem.
func streamBackends(t *testing.T, fn func(t *testing.T, b extscc.Storage)) {
	t.Run("os", func(t *testing.T) { fn(t, extscc.OSStorage()) })
	t.Run("mem", func(t *testing.T) { fn(t, storage.NewMem()) })
}

func streamResult(t *testing.T, b extscc.Storage) *extscc.Result {
	t.Helper()
	eng, err := extscc.New(
		extscc.WithStorage(b),
		extscc.WithNodeBudget(40),
		extscc.WithTempDir(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), extscc.SliceSource(graphgen.Cycle(200)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamEarlyTermination breaks out of the iter.Seq2 mid-stream: the
// sequence must stop cleanly, report no error, leave no reader leaked (a
// subsequent full Stream and Close must work), and successive partial
// iterations must each restart from the first label.
func TestStreamEarlyTermination(t *testing.T) {
	streamBackends(t, func(t *testing.T, b extscc.Storage) {
		res := streamResult(t, b)
		defer res.Close()

		var first extscc.NodeID
		seen := 0
		for node := range res.Stream() {
			if seen == 0 {
				first = node
			}
			if seen++; seen == 7 {
				break
			}
		}
		if seen != 7 {
			t.Fatalf("broke after %d labels, want 7", seen)
		}
		if err := res.Err(); err != nil {
			t.Fatalf("Err after early break: %v", err)
		}

		// A second partial iteration restarts from the top.
		for node := range res.Stream() {
			if node != first {
				t.Fatalf("second Stream started at node %d, first at %d", node, first)
			}
			break
		}
		if err := res.Err(); err != nil {
			t.Fatalf("Err after second break: %v", err)
		}

		// A full pass still sees every label.
		total := 0
		for range res.Stream() {
			total++
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		if total != 200 {
			t.Fatalf("full Stream after breaks yielded %d labels, want 200", total)
		}
	})
}

// TestResultDoubleClose pins Close idempotency: a second Close (and a Close
// after streaming or lookups) is a no-op, and a nil receiver is safe.  Close
// also closes the held lookup reader, leaving no file behind, and a lookup
// after Close fails instead of panicking or re-opening.
func TestResultDoubleClose(t *testing.T) {
	streamBackends(t, func(t *testing.T, b extscc.Storage) {
		res := streamResult(t, b)
		for range res.Stream() {
			break
		}
		if _, _, err := res.LabelOf(7); err != nil {
			t.Fatal(err)
		}
		if err := res.Close(); err != nil {
			t.Fatalf("first Close: %v", err)
		}
		if m, ok := b.(*storage.MemBackend); ok && m.Len() != 0 {
			t.Fatalf("Close left %d files: %v", m.Len(), m.Paths())
		}
		if _, err := os.Stat(filepath.Dir(res.LabelPath)); b.Name() == "os" && !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Close left the run directory behind (stat: %v)", err)
		}
		if _, _, err := res.LabelOf(7); err == nil {
			t.Fatal("LabelOf after Close must fail")
		}
		if _, err := res.LookupLabels([]extscc.NodeID{7}); err == nil {
			t.Fatal("LookupLabels after Close must fail")
		}
		if err := res.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		var nilRes *extscc.Result
		if err := nilRes.Close(); err != nil {
			t.Fatalf("nil Close: %v", err)
		}
		// Streaming after Close fails via Err, not a panic.
		for range res.Stream() {
			t.Fatal("Stream yielded a label after Close")
		}
		if res.Err() == nil {
			t.Fatal("Stream after Close must surface an error through Err")
		}
	})
}
