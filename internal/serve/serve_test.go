package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"extscc"
	"extscc/internal/condense"
	"extscc/internal/graphgen"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// oracle is the single-threaded ground truth a server's answers are checked
// against: the labelling streamed from the server's own Result plus a BFS
// DAG built in memory from the same edge list.
type oracle struct {
	labels map[extscc.NodeID]uint32
	dag    *condense.DAG
}

func buildOracle(t *testing.T, s *Server, edges []record.Edge) *oracle {
	t.Helper()
	labels := map[extscc.NodeID]uint32{}
	for node, scc := range s.res.Stream() {
		labels[node] = scc
	}
	if err := s.res.Err(); err != nil {
		t.Fatal(err)
	}
	return &oracle{labels: labels, dag: condense.FromMemory(labels, edges)}
}

func (o *oracle) scc(n extscc.NodeID) (uint32, bool) {
	scc, ok := o.labels[n]
	return scc, ok
}

func (o *oracle) reach(u, v extscc.NodeID) (bool, bool) {
	su, okU := o.labels[u]
	sv, okV := o.labels[v]
	if !okU || !okV {
		return false, false
	}
	return o.dag.Reaches(su, sv), true
}

// serveBackends runs fn once per storage backend.
func serveBackends(t *testing.T, fn func(t *testing.T, b extscc.Storage)) {
	t.Run("os", func(t *testing.T) { fn(t, storage.OS()) })
	t.Run("mem", func(t *testing.T) { fn(t, storage.NewMem()) })
}

func newTestServer(t *testing.T, b extscc.Storage, codec string, edges []record.Edge) *Server {
	t.Helper()
	tempDir := ""
	if b.Name() == "os" {
		tempDir = t.TempDir()
	}
	s, err := New(context.Background(), Options{
		Source:      extscc.SliceSource(edges),
		Storage:     b,
		Codec:       codec,
		TempDir:     tempDir,
		BatchWindow: 500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestServerConcurrentOracle hammers a server with mixed membership,
// same-component and reachability queries from many goroutines and checks
// every answer against the single-threaded oracle, on both storage backends
// and with both the fixed codec (key seeks by binary search) and the framed
// varint codec (key seeks through the frame-index footer).
func TestServerConcurrentOracle(t *testing.T) {
	for _, codec := range []string{"fixed", "varint"} {
		t.Run(codec, func(t *testing.T) {
			serveBackends(t, func(t *testing.T, b extscc.Storage) {
				edges := graphgen.Random(300, 700, 17)
				s := newTestServer(t, b, codec, edges)
				orc := buildOracle(t, s, edges)
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()

				const goroutines = 12
				const perG = 150
				errc := make(chan error, goroutines)
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						client := ts.Client()
						for i := 0; i < perG; i++ {
							// Deterministic but varied: some ids beyond the node
							// range exercise the 404 path.
							u := extscc.NodeID((g*977 + i*31) % 330)
							v := extscc.NodeID((g*313 + i*57) % 330)
							switch i % 3 {
							case 0:
								var got sccResponse
								code := getJSON(t, client, fmt.Sprintf("%s/scc/%d", ts.URL, u), &got)
								want, ok := orc.scc(u)
								if ok != (code == http.StatusOK) {
									errc <- fmt.Errorf("/scc/%d status %d, oracle found=%v", u, code, ok)
									return
								}
								if ok && got.SCC != want {
									errc <- fmt.Errorf("/scc/%d = %d, oracle %d", u, got.SCC, want)
									return
								}
							case 1:
								var got pairResponse
								code := getJSON(t, client, fmt.Sprintf("%s/same/%d/%d", ts.URL, u, v), &got)
								su, okU := orc.scc(u)
								sv, okV := orc.scc(v)
								if (okU && okV) != (code == http.StatusOK) {
									errc <- fmt.Errorf("/same/%d/%d status %d, oracle found=%v", u, v, code, okU && okV)
									return
								}
								if okU && okV && got.Answer != (su == sv) {
									errc <- fmt.Errorf("/same/%d/%d = %v, oracle %v", u, v, got.Answer, su == sv)
									return
								}
							default:
								var got pairResponse
								code := getJSON(t, client, fmt.Sprintf("%s/reach/%d/%d", ts.URL, u, v), &got)
								want, ok := orc.reach(u, v)
								if ok != (code == http.StatusOK) {
									errc <- fmt.Errorf("/reach/%d/%d status %d, oracle found=%v", u, v, code, ok)
									return
								}
								if ok && got.Answer != want {
									errc <- fmt.Errorf("/reach/%d/%d = %v, oracle %v", u, v, got.Answer, want)
									return
								}
							}
						}
					}(g)
				}
				wg.Wait()
				close(errc)
				for err := range errc {
					t.Fatal(err)
				}

				// The stats endpoint must report the traffic just served.
				var stats statsResponse
				if code := getJSON(t, ts.Client(), ts.URL+"/stats", &stats); code != http.StatusOK {
					t.Fatalf("/stats status %d", code)
				}
				if stats.Serving.Queries < goroutines*perG {
					t.Fatalf("stats report %d queries, served at least %d", stats.Serving.Queries, goroutines*perG)
				}
				if stats.Graph.SCCs != s.res.NumSCCs {
					t.Fatalf("stats SCCs = %d, result %d", stats.Graph.SCCs, s.res.NumSCCs)
				}
				if stats.Serving.Batches == 0 || stats.Serving.BatchedLookups < stats.Serving.Batches {
					t.Fatalf("implausible batching counters: %+v", stats.Serving)
				}
			})
		})
	}
}

// TestServerBatchingCoalesces pins that concurrent waves actually coalesce:
// with a generous window, many simultaneous lookups must resolve in far
// fewer sweeps than queries.
func TestServerBatchingCoalesces(t *testing.T) {
	edges := graphgen.Random(200, 500, 5)
	s, err := New(context.Background(), Options{
		Source:      extscc.SliceSource(edges),
		Storage:     storage.OS(),
		Codec:       "fixed",
		TempDir:     t.TempDir(),
		BatchWindow: 20 * time.Millisecond,
		CacheSize:   -1, // no cache: every query must reach the dispatcher
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			getJSON(t, ts.Client(), fmt.Sprintf("%s/scc/%d", ts.URL, i%200), nil)
		}(i)
	}
	wg.Wait()
	batches, batched := s.store.stats()
	if batched < n {
		t.Fatalf("dispatcher resolved %d lookups, want >= %d", batched, n)
	}
	if batches >= batched {
		t.Fatalf("no coalescing: %d sweeps for %d lookups", batches, batched)
	}
}

// TestServerCacheServesRepeats pins the LRU: repeating one query must be
// answered from cache, not the dispatcher.
func TestServerCacheServesRepeats(t *testing.T) {
	edges := graphgen.Random(100, 250, 9)
	s := newTestServer(t, storage.OS(), "fixed", edges)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 10; i++ {
		if code := getJSON(t, ts.Client(), ts.URL+"/scc/5", nil); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	hits, _ := s.cache.stats()
	if hits < 9 {
		t.Fatalf("LRU hits = %d after 10 identical queries, want >= 9", hits)
	}
	_, batched := s.store.stats()
	if batched > 1 {
		t.Fatalf("dispatcher saw %d lookups for a fully cacheable workload", batched)
	}
}

// TestServerGracefulShutdown boots Listen/Serve, issues live queries, then
// cancels the context: Serve must drain and return nil, queries issued after
// shutdown must fail to connect, and — the cleanup guarantee — the backend
// must hold zero leftover files from either the run or serve directories.
func TestServerGracefulShutdown(t *testing.T) {
	serveBackends(t, func(t *testing.T, b extscc.Storage) {
		tempDir := ""
		if b.Name() == "os" {
			tempDir = t.TempDir()
		}
		edges := graphgen.Random(200, 480, 23)
		s, err := New(context.Background(), Options{
			Source:  extscc.SliceSource(edges),
			Storage: b,
			TempDir: tempDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Listen()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- s.Serve(ctx) }()

		url := "http://" + addr.String()
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(url + "/healthz")
			if err == nil {
				resp.Body.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("server never became healthy: %v", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if code := getJSON(t, http.DefaultClient, url+"/scc/0", nil); code != http.StatusOK {
			t.Fatalf("live query status %d", code)
		}

		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Serve returned %v after cancellation", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Serve did not return after cancellation")
		}
		if _, err := http.Get(url + "/healthz"); err == nil {
			t.Fatal("server still accepting connections after shutdown")
		}

		// Zero leaked artifacts: the os backend's serve/run dirs lived under
		// tempDir; the mem backend must be entirely empty.
		if b.Name() == "os" {
			entries, err := os.ReadDir(tempDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				names := make([]string, len(entries))
				for i, e := range entries {
					names[i] = e.Name()
				}
				t.Fatalf("leaked files after shutdown: %v", names)
			}
		} else {
			files, err := b.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != 0 {
				t.Fatalf("mem backend still holds %v after shutdown", files)
			}
		}
	})
}

// TestServerRejectsBadInput pins the HTTP error surface: non-numeric ids are
// 400, absent endpoints in pair queries are 404 naming the missing node.
func TestServerRejectsBadInput(t *testing.T) {
	s := newTestServer(t, storage.OS(), "", graphgen.Path(10))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for url, want := range map[string]int{
		"/scc/abc":        http.StatusBadRequest,
		"/scc/-1":         http.StatusBadRequest,
		"/scc/4294967296": http.StatusBadRequest, // overflows uint32
		"/scc/99":         http.StatusNotFound,
		"/same/0/99":      http.StatusNotFound,
		"/reach/99/0":     http.StatusNotFound,
		"/same/0/1":       http.StatusOK,
		"/nope":           http.StatusNotFound,
	} {
		if code := getJSON(t, ts.Client(), ts.URL+url, nil); code != want {
			t.Fatalf("GET %s status %d, want %d", url, code, want)
		}
	}
}

// TestNewCancelled pins that a context cancelled during construction leaves
// nothing behind on the backend.
func TestNewCancelled(t *testing.T) {
	tempDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(ctx, Options{
		Source:  extscc.SliceSource(graphgen.Random(500, 1200, 3)),
		Storage: storage.OS(),
		TempDir: tempDir,
	}); err == nil {
		t.Fatal("New succeeded under a cancelled context")
	}
	entries, err := os.ReadDir(tempDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("cancelled New leaked files: %v", entries)
	}
}
