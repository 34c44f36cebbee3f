package blockio

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"testing"

	"extscc/internal/iomodel"
	"extscc/internal/storage"
)

// cachedConfig is testConfig plus a private block cache.
func cachedConfig(t *testing.T, blockSize int, budget int64) iomodel.Config {
	t.Helper()
	cfg := testConfig(t, blockSize)
	cfg.Cache = NewBlockCache(budget)
	return cfg
}

// readAll drains a Reader and returns everything it produced.
func readAll(t *testing.T, path string, cfg iomodel.Config) []byte {
	t.Helper()
	r, err := NewReader(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCacheAccountingIdentical is the cache's core invariant: the accounted
// I/O of a scan is byte-identical with the cache on (hit or miss) and off;
// only the hit/miss diagnostics differ.
func TestCacheAccountingIdentical(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 100) // 1600 bytes, 25 blocks of 64
	path := filepath.Join(t.TempDir(), "data.bin")

	base := testConfig(t, 64)
	w, err := NewWriter(path, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference scan without a cache.
	off := base
	off.Stats = &iomodel.Stats{}
	if got := readAll(t, path, off); !bytes.Equal(got, payload) {
		t.Fatalf("uncached read returned %d bytes, want %d", len(got), len(payload))
	}
	want := off.Stats.Snapshot()

	// Cold scan (all misses) and warm scan (all hits) under one cache.
	cached := base
	cached.Cache = NewBlockCache(1 << 20)
	// The passes run in order: cold first fills the cache, warm then hits it.
	for _, pass := range []string{"cold", "warm"} {
		wantHits := pass == "warm"
		st := &iomodel.Stats{}
		cfg := cached
		cfg.Stats = st
		if got := readAll(t, path, cfg); !bytes.Equal(got, payload) {
			t.Fatalf("%s cached read returned wrong bytes", pass)
		}
		if got := st.Snapshot(); got != want {
			t.Errorf("%s cached scan accounted %+v, want %+v", pass, got, want)
		}
		if wantHits && st.CacheHits() == 0 {
			t.Errorf("warm scan recorded no cache hits (misses %d)", st.CacheMisses())
		}
		if !wantHits && st.CacheHits() != 0 {
			t.Errorf("cold scan recorded %d cache hits, want 0", st.CacheHits())
		}
	}
}

// TestCacheLRUEviction fills a small cache past its budget and checks the
// oldest blocks were evicted while the budget holds.
func TestCacheLRUEviction(t *testing.T) {
	backend := storage.NewMem()
	c := NewBlockCache(256) // room for 4 blocks of 64
	block := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 64) }
	for i := 0; i < 8; i++ {
		c.PutBlock(backend, "f", int64(i*64), block(i))
	}
	if c.Used() > 256 {
		t.Fatalf("cache uses %d bytes, budget 256", c.Used())
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d blocks, want 4", c.Len())
	}
	dst := make([]byte, 64)
	for i := 0; i < 4; i++ {
		if c.GetBlock(backend, "f", int64(i*64), dst) {
			t.Errorf("block %d survived eviction", i)
		}
	}
	for i := 4; i < 8; i++ {
		if !c.GetBlock(backend, "f", int64(i*64), dst) {
			t.Errorf("recent block %d was evicted", i)
		} else if !bytes.Equal(dst, block(i)) {
			t.Errorf("block %d returned wrong bytes", i)
		}
	}
	// Touch the LRU block, insert one more, and check the touch protected it.
	c.GetBlock(backend, "f", 4*64, dst)
	c.PutBlock(backend, "f", 8*64, block(8))
	if !c.GetBlock(backend, "f", 4*64, dst) {
		t.Error("touched block was evicted before the least recently used one")
	}
	if c.GetBlock(backend, "f", 5*64, dst) {
		t.Error("least recently used block survived over the touched one")
	}
}

// TestCacheInvalidateOnRewrite rewrites a file through NewWriter and checks
// the next read sees the new bytes, not a stale cached block.
func TestCacheInvalidateOnRewrite(t *testing.T) {
	cfg := cachedConfig(t, 64, 1<<20)
	path := filepath.Join(t.TempDir(), "data.bin")
	for _, fill := range []byte{'a', 'b'} {
		payload := bytes.Repeat([]byte{fill}, 640)
		w, err := NewWriter(path, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, path, cfg); !bytes.Equal(got, payload) {
			t.Fatalf("after rewrite with %q: read %q", fill, got[:8])
		}
	}
}

// TestCacheInvalidateOnRemove checks Remove drops the file's cached blocks,
// so a later file at the same path starts cold.
func TestCacheInvalidateOnRemove(t *testing.T) {
	cache := NewBlockCache(1 << 20)
	cfg := testConfig(t, 64)
	cfg.Cache = cache
	path := filepath.Join(t.TempDir(), "data.bin")
	payload := bytes.Repeat([]byte{'x'}, 640)
	w, err := NewWriter(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(payload)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	readAll(t, path, cfg)
	if cache.Len() == 0 {
		t.Fatal("scan did not populate the cache")
	}
	if err := Remove(path, cfg); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatalf("cache still holds %d blocks of a removed file", cache.Len())
	}
}

// TestCacheKeyedByBackend holds equal paths on two in-memory backends under
// one shared cache and checks neither sees the other's blocks.
func TestCacheKeyedByBackend(t *testing.T) {
	cache := NewBlockCache(1 << 20)
	mk := func(fill byte) (iomodel.Config, []byte) {
		cfg := iomodel.Config{
			BlockSize: 64,
			Memory:    256,
			TempDir:   t.TempDir(),
			Stats:     &iomodel.Stats{},
			Storage:   storage.NewMem(),
			Cache:     cache,
		}
		payload := bytes.Repeat([]byte{fill}, 640)
		w, err := NewWriter("/shared/path.bin", cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(payload)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return cfg, payload
	}
	cfgA, payloadA := mk('a')
	cfgB, payloadB := mk('b')
	// Warm A, then read B: equal paths, distinct backends.
	readAll(t, "/shared/path.bin", cfgA)
	if got := readAll(t, "/shared/path.bin", cfgB); !bytes.Equal(got, payloadB) {
		t.Fatal("backend B read backend A's cached blocks")
	}
	if got := readAll(t, "/shared/path.bin", cfgA); !bytes.Equal(got, payloadA) {
		t.Fatal("backend A read backend B's cached blocks")
	}
}

// TestCacheConcurrentReaders hammers one shared cache from concurrent
// readers over several files (run under -race in CI).
func TestCacheConcurrentReaders(t *testing.T) {
	cache := NewBlockCache(4096) // small enough to force constant eviction
	base := testConfig(t, 64)
	base.Cache = cache
	base.Workers = 2 // exercise the prefetching read path too
	dir := t.TempDir()
	payloads := make([][]byte, 4)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 64*20+17)
		w, err := NewWriter(filepath.Join(dir, fmt.Sprintf("f%d.bin", i)), base)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(payloads[i])
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				i := (g + it) % len(payloads)
				cfg := base
				cfg.Stats = &iomodel.Stats{}
				r, err := NewReader(filepath.Join(dir, fmt.Sprintf("f%d.bin", i)), cfg)
				if err != nil {
					errs <- err
					return
				}
				data, err := io.ReadAll(r)
				r.Close()
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(data, payloads[i]) {
					errs <- fmt.Errorf("goroutine %d read wrong bytes for file %d", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestParseCacheSize(t *testing.T) {
	cases := []struct {
		spec string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"1024", 1024, true},
		{"64k", 64 << 10, true},
		{"64K", 64 << 10, true},
		{"32m", 32 << 20, true},
		{"2g", 2 << 30, true},
		{"8mb", 8 << 20, true},
		{"8mib", 8 << 20, true},
		{"", 0, false},
		{"-1", 0, false},
		{"12x", 0, false},
	}
	for _, c := range cases {
		got, err := ParseCacheSize(c.spec)
		if c.ok != (err == nil) {
			t.Errorf("ParseCacheSize(%q): err = %v, want ok=%t", c.spec, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseCacheSize(%q) = %d, want %d", c.spec, got, c.want)
		}
	}
}

// TestNoBlockCacheSentinel checks the explicit-off sentinel wins over the
// environment default resolution.
func TestNoBlockCacheSentinel(t *testing.T) {
	cfg := testConfig(t, 64)
	cfg.Cache = iomodel.NoBlockCache
	if c := CacheFor(cfg); c != nil {
		t.Fatalf("CacheFor returned %T for an explicitly disabled cache", c)
	}
}
