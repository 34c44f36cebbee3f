package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"extscc"
	"extscc/internal/blockio"
	"extscc/internal/condense"
	"extscc/internal/iomodel"
	"extscc/internal/record"
	"extscc/internal/serve"
)

// queriesPerRound is the number of queries in one timed round of serve-zipf;
// run_s is the median wall time of a round.
const queriesPerRound = 1000

// warmupRounds is how many untimed rounds serve-zipf sends before timing:
// round times fall while the LRU fills with popular keys, then level off.
const warmupRounds = 4

// directLookups is how many of the traced queries' key batches the traced
// run also answers with Result.LookupLabels, for result.lookup_p99_ms.
const directLookups = 2000

// serveClients is the number of closed-loop clients, each on its own
// keep-alive connection.  Eight, so that lookups share the dispatcher's batch
// windows and the server is busy for most of a round: with one or two
// clients a round is mostly clients waiting out the window one lookup at a
// time, and its wall time follows the host's timer wake-up latency rather
// than the server's work.
const serveClients = 8

func bootServer(ctx context.Context, w workload, in input, st extscc.Storage, dir string) (*serve.Server, error) {
	return serve.New(ctx, serve.Options{
		Source:  extscc.FileSource(in.path, in.nodes...),
		Memory:  w.memory,
		Storage: st,
		TempDir: dir,
	})
}

// serverStats is the part of the /stats payload the benchmark reads.
type serverStats struct {
	Engine extscc.Stats `json:"engine"`
	Graph  struct {
		DAGNodes int   `json:"dag_nodes"`
		DAGEdges int64 `json:"dag_edges"`
	} `json:"graph"`
	Serving struct {
		Batches        int64 `json:"batches"`
		BatchedLookups int64 `json:"batched_lookups"`
		CacheHits      int64 `json:"cache_hits"`
		CacheMisses    int64 `json:"cache_misses"`
	} `json:"serving"`
}

// statsOf reads /stats from the server's handler, in process.
func statsOf(srv *serve.Server) (serverStats, error) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st serverStats
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", rec.Code)
	}
	return st, json.Unmarshal(rec.Body.Bytes(), &st)
}

// session is a listening server and its clients.
type session struct {
	base    string
	clients [serveClients]*http.Client
	cancel  context.CancelFunc
	done    chan error
}

// listen starts serving srv on a loopback port.  Stopping the session shuts
// the server down and closes it.
func listen(srv *serve.Server) (*session, error) {
	addr, err := srv.Listen()
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &session{base: "http://" + addr.String(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ctx) }()
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	return s, nil
}

func (s *session) stop() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.cancel()
	return <-s.done
}

// clientKeys draws each client's queries from a Zipf key stream of its own:
// the clients agree on how skewed popularity is but not on which nodes are
// popular, so a round's cost does not hang on the few nodes one stream
// happens to rank first.
type clientKeys []*zipfKeys

func newClientKeys(seed int64, n int) clientKeys {
	z := make(clientKeys, serveClients)
	for c := range z {
		z[c] = newZipfKeys(seed*serveClients+int64(c), n)
	}
	return z
}

// fill draws a round of queries; round sends qs[i] from client i mod
// serveClients.
func (z clientKeys) fill(qs []query) {
	for i := range qs {
		qs[i] = z[i%serveClients].next()
	}
}

// answer is one query's outcome.
type answer struct {
	q          query
	sccU, sccV uint32
	yes        bool
	start      time.Time
	ms         float64
	err        error
}

type pairJSON struct {
	SCC    uint32 `json:"scc"`
	SCCU   uint32 `json:"scc_u"`
	SCCV   uint32 `json:"scc_v"`
	Answer bool   `json:"answer"`
}

func (s *session) ask(c *http.Client, q query) answer {
	var url string
	switch q.kind {
	case 's':
		url = fmt.Sprintf("%s/scc/%d", s.base, q.u)
	case 'm':
		url = fmt.Sprintf("%s/same/%d/%d", s.base, q.u, q.v)
	default:
		url = fmt.Sprintf("%s/reach/%d/%d", s.base, q.u, q.v)
	}
	a := answer{q: q, start: time.Now()}
	resp, err := c.Get(url)
	if err == nil {
		var body pairJSON
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: status %d", url, resp.StatusCode)
		}
		a.sccU, a.sccV, a.yes = body.SCCU, body.SCCV, body.Answer
		if q.kind == 's' {
			a.sccU = body.SCC
		}
	}
	a.ms = millis(time.Since(a.start))
	a.err = err
	return a
}

// round sends qs from the session's clients in a closed loop: each client
// sends its next query when the previous one is answered.
func (s *session) round(qs []query) []answer {
	out := make([]answer, len(qs))
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(qs); i += serveClients {
				out[i] = s.ask(s.clients[c], qs[i])
			}
		}(c)
	}
	wg.Wait()
	return out
}

// checkAnswers compares every answer with the oracle and counts failures.
func checkAnswers(answers []answer, orc *oracle, rep *report) {
	p := newPartition(orc.label)
	bad := 0
	var first string
	for _, a := range answers {
		ok := a.err == nil && p.add(a.q.u, a.sccU)
		if ok && a.q.kind != 's' {
			ok = p.add(a.q.v, a.sccV)
		}
		switch {
		case !ok:
		case a.q.kind == 'm':
			ok = a.yes == (orc.label[a.q.u] == orc.label[a.q.v])
		case a.q.kind == 'r':
			ok = a.yes == orc.reaches(a.q.u, a.q.v)
		}
		if !ok {
			bad++
			if first == "" {
				first = fmt.Sprintf("%c %d %d: %+v", a.q.kind, a.q.u, a.q.v, a)
			}
		}
	}
	rep.attempted += len(answers)
	if bad > 0 {
		rep.failN(bad, "%d queries answered wrongly or failed (first: %s)", bad, first)
	}
}

// queryStats collects the latency figures of query rounds.  A run reports
// the median over its rounds, so that a round hit by interference from
// outside the process does not move the result.
type queryStats struct {
	p50, p99, qps []float64
}

// add records one round; p99 needs at least ten samples beyond it.
func (q *queryStats) add(rep *report, lat []float64, wall time.Duration) {
	if len(lat) < 1000 {
		rep.fail("a query round of %d samples is too small for p99", len(lat))
	}
	q.p50 = append(q.p50, percentile(lat, 0.50))
	q.p99 = append(q.p99, percentile(lat, 0.99))
	q.qps = append(q.qps, float64(len(lat))/wall.Seconds())
}

// medians returns the median over rounds of p50 and p99 in milliseconds and
// of queries per second.
func (q *queryStats) medians() (p50, p99, qps float64) {
	return median(q.p50), median(q.p99), median(q.qps)
}

func latencies(answers []answer) []float64 {
	out := make([]float64, len(answers))
	for i, a := range answers {
		out[i] = a.ms
	}
	return out
}

// bootRepeated boots the server repeatedly (see moreSetup), checking that
// each boot's exact engine counts repeat, and returns the last server with the
// median boot time and its /stats.
func bootRepeated(ctx context.Context, w workload, in input, st extscc.Storage, dir string, rep *report) (*serve.Server, float64, serverStats, error) {
	var setup []float64
	var srv *serve.Server
	var first serverStats
	for start := time.Now(); moreSetup(len(setup), start); {
		if srv != nil {
			if err := srv.Close(); err != nil {
				return nil, 0, first, err
			}
		}
		t0 := time.Now()
		var err error
		rep.attempted++
		if srv, err = bootServer(ctx, w, in, st, dir); err != nil {
			return nil, 0, first, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		stats, err := statsOf(srv)
		if err != nil {
			srv.Close()
			return nil, 0, first, err
		}
		e, f := stats.Engine, first.Engine
		if len(setup) == 1 {
			first = stats
		} else if e.TotalIOs != f.TotalIOs || e.BytesRead != f.BytesRead || e.BytesWritten != f.BytesWritten || e.ContractionIterations != f.ContractionIterations {
			rep.fail("exact engine counts differ between boots: %+v vs %+v", f, e)
		}
	}
	return srv, median(setup), first, nil
}

// runServe is the untraced end-to-end run of serve-zipf: serve.New repeated,
// then closed-loop query rounds repeated for d.
func runServe(ctx context.Context, w workload, seed int64, d time.Duration, dir string, rep *report) error {
	in, err := writeInput(w, seed, dir)
	if err != nil {
		return err
	}
	srv, setupS, stats, err := bootRepeated(ctx, w, in, extscc.OSStorage(), dir, rep)
	if err != nil {
		return err
	}
	orc, err := buildOracle(w, seed)
	if err != nil {
		srv.Close()
		return err
	}
	sess, err := listen(srv)
	if err != nil {
		return err
	}
	z := newClientKeys(seed, w.nodes)
	qs := make([]query, queriesPerRound)
	var all []answer
	var runS, cpuS, heap []float64
	var queries queryStats
	// Untimed rounds first, so that the hot-label LRU holds the popular
	// keys before timing starts.
	for range warmupRounds {
		z.fill(qs)
		all = append(all, sess.round(qs)...)
	}
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < d; i++ {
		z.fill(qs)
		settle()
		hs := startHeapSampler()
		cpu0, t0 := cpuSeconds(), time.Now()
		answers := sess.round(qs)
		t1 := time.Now()
		cpuS = append(cpuS, cpuSeconds()-cpu0)
		heap = append(heap, hs.stop())
		runS = append(runS, t1.Sub(t0).Seconds())
		queries.add(rep, latencies(answers), t1.Sub(t0))
		all = append(all, answers...)
	}
	if err := sess.stop(); err != nil {
		rep.fail("server shutdown: %v", err)
	}
	checkAnswers(all, orc, rep)

	rep.set("setup_s", setupS, "s")
	rep.set("run_s", median(runS), "s")
	rep.set("cpu_s", median(cpuS), "s")
	rep.set("peak_heap_bytes", median(heap), "bytes")
	rep.set("block_ios", float64(stats.Engine.TotalIOs), "count")
	rep.set("write_amp", float64(stats.Engine.BytesWritten)/float64(in.bytes), "ratio")
	rep.set("read_amp", float64(stats.Engine.BytesRead)/float64(in.bytes), "ratio")
	p50, p99, qps := queries.medians()
	fmt.Printf("queries: p50 %.3f ms, p99 %.3f ms, %.0f/s (medians over rounds of %d, %d closed-loop clients)\n", p50, p99, qps, queriesPerRound, serveClients)
	fmt.Printf("input: |V|=%d |E|~%d bytes=%d M=%d SCCs=%d DAG=%d/%d rounds=%d queries=%d\n",
		w.nodes, w.nodes*w.degree, in.bytes, w.memory, orc.numSCCs, stats.Graph.DAGNodes, stats.Graph.DAGEdges, len(runS), len(all))
	fmt.Printf("run_s per round %.3f\n", runS)
	return nil
}

// condenseOut is the size of the traced condensation build.
type condenseOut struct {
	dagNodes, dagEdges, hopLabels int64
}

func setCondenseMetrics(rep *report, spans []span, c condenseOut) {
	rep.set("condense.dag_s", sumSelf(spans, "condense.dag"), "s")
	rep.set("condense.index_s", sumSelf(spans, "condense.index"), "s")
	rep.set("condense.dag_nodes", float64(c.dagNodes), "count")
	rep.set("condense.dag_edges", float64(c.dagEdges), "count")
	rep.set("condense.hop_labels", float64(c.hopLabels), "count")
}

// serveLayer is what the traced query phase measured inside the server.
type serveLayer struct {
	lruHitRatio, batchMean    float64
	sccP99, sameP99, reachP99 float64
}

func setServeLayerMetrics(rep *report, s serveLayer) {
	rep.set("serve.lru_hit_ratio", s.lruHitRatio, "ratio")
	rep.set("serve.batch_mean", s.batchMean, "count")
	rep.set("serve.scc_p99_ms", s.sccP99, "ms")
	rep.set("serve.same_p99_ms", s.sameP99, "ms")
	rep.set("serve.reach_p99_ms", s.reachP99, "ms")
}

// traceCondense builds the condensation DAG and its 2-hop index from an
// engine result, the way serve.New does, each step in a span.
func traceCondense(ctx context.Context, w workload, res *extscc.Result, st extscc.Storage, tr *tracer, dir string) (condenseOut, error) {
	var out condenseOut
	cdir, err := st.MkdirTemp(dir, "perfbench-condense-")
	if err != nil {
		return out, err
	}
	defer st.RemoveAll(cdir)
	cfg, err := iomodel.Config{Memory: w.memory, Storage: st, TempDir: cdir}.Validate()
	if err != nil {
		return out, err
	}
	var dag *condense.DAG
	if err := layer(tr, cfg, "condense.dag", func() error {
		dagPath := blockio.TempFile(cdir, "dag-edges", cfg.Stats)
		if out.dagEdges, err = condense.Build(ctx, res.EdgePath, res.LabelPath, dagPath, cfg); err != nil {
			return err
		}
		dag, err = condense.Load(dagPath, cfg)
		return err
	}); err != nil {
		return out, err
	}
	out.dagNodes = int64(len(dag.Nodes()))

	var ix *condense.Index
	if err := layer(tr, cfg, "condense.index", func() error {
		ix, err = condense.BuildIndex(ctx, dag, cdir, cfg)
		return err
	}); err != nil {
		return out, err
	}
	out.hopLabels = ix.Stats().Entries
	return out, nil
}

// traceServe is the traced run of serve-zipf.  It boots the server untraced
// and traced (the difference is the tracing overhead), builds the
// condensation DAG and index from the benchmark's own code, runs traced
// query rounds for d, and times Result.LookupLabels directly on the same key
// batches.
func traceServe(ctx context.Context, w workload, seed int64, d time.Duration, tr *tracer, dir string, rep *report) error {
	in, err := writeInput(w, seed, dir)
	if err != nil {
		return err
	}
	orc, err := buildOracle(w, seed)
	if err != nil {
		return err
	}
	t0 := time.Now()
	rep.attempted++
	srv, err := bootServer(ctx, w, in, extscc.OSStorage(), dir)
	if err != nil {
		return err
	}
	untracedBoot := time.Since(t0)
	if err := srv.Close(); err != nil {
		return err
	}

	st := newCountingStorage(extscc.OSStorage(), tr)
	closeSpan := tr.open("serve.New")
	rep.attempted++
	srv, err = bootServer(ctx, w, in, st, dir)
	boot := closeSpan(nil)
	if err != nil {
		return err
	}
	sess, err := listen(srv)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			sess.stop()
		}
	}()
	z := newClientKeys(seed, w.nodes)
	qs := make([]query, queriesPerRound)
	var warm []answer
	for range warmupRounds {
		z.fill(qs)
		warm = append(warm, sess.round(qs)...)
	}
	checkAnswers(warm, orc, rep)
	stats0, err := statsOf(srv)
	if err != nil {
		return err
	}

	eng, err := newEngine(w, st, dir, nil)
	if err != nil {
		return err
	}
	closeSpan = tr.open("engine.run")
	rep.attempted++
	res, err := eng.Run(ctx, extscc.FileSource(in.path, in.nodes...))
	closeSpan(nil)
	if err != nil {
		return err
	}
	defer res.Close()
	cond, err := traceCondense(ctx, w, res, st, tr, dir)
	if err != nil {
		return err
	}

	// Traced query rounds, after the same untimed rounds as the untraced
	// run: storage calls made meanwhile are children of the "queries" span;
	// every query is a span and a trace of its own.
	var all []answer
	var queries queryStats
	settle()
	st.resetPeak()
	base := st.counters()
	g0 := readGoCounters()
	closeSpan = tr.open("queries")
	phase := tr.current.Load()
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < d; i++ {
		z.fill(qs)
		t0 := time.Now()
		answers := sess.round(qs)
		queries.add(rep, latencies(answers), time.Since(t0))
		all = append(all, answers...)
	}
	closeSpan(nil)
	gc := readGoCounters().sub(g0)
	during := st.counters().sub(base)
	stats1, err := statsOf(srv)
	if err != nil {
		return err
	}
	stopped = true
	if err := sess.stop(); err != nil {
		rep.fail("server shutdown: %v", err)
	}
	checkAnswers(all, orc, rep)

	byKind := map[byte][]float64{}
	for _, a := range all {
		id := tr.nextID.Add(1)
		tr.add(span{ID: id, Parent: phase, Trace: id, Name: "query." + kindName(a.q.kind),
			Start: a.start.Sub(tr.epoch), End: a.start.Sub(tr.epoch) + time.Duration(a.ms*float64(time.Millisecond))})
		byKind[a.q.kind] = append(byKind[a.q.kind], a.ms)
	}

	// The same key batches, answered by Result.LookupLabels directly.
	direct := all[:min(len(all), directLookups)]
	p := newPartition(orc.label)
	lookup := make([]float64, 0, len(direct))
	bad := 0
	for _, a := range direct {
		keys := []record.NodeID{a.q.u}
		if a.q.kind != 's' {
			keys = append(keys, a.q.v)
		}
		t := time.Now()
		m, err := res.LookupLabels(keys)
		lookup = append(lookup, millis(time.Since(t)))
		for _, k := range keys {
			if scc, ok := m[k]; err != nil || !ok || !p.add(k, scc) {
				bad++
				break
			}
		}
	}
	rep.attempted += len(direct)
	if bad > 0 {
		rep.failN(bad, "%d direct label lookups failed or disagree with Tarjan", bad)
	}

	setStorageMetrics(rep, during)
	rep.set("blockio.random_ios", float64(stats0.Engine.RandomIOs), "count")
	rep.set("blockio.compression_ratio", stats0.Engine.CompressionRatio, "ratio")
	setCondenseMetrics(rep, tr.selfTimes(), cond)
	hits := stats1.Serving.CacheHits - stats0.Serving.CacheHits
	misses := stats1.Serving.CacheMisses - stats0.Serving.CacheMisses
	batches := stats1.Serving.Batches - stats0.Serving.Batches
	sl := serveLayer{
		sccP99:   percentile(byKind['s'], 0.99),
		sameP99:  percentile(byKind['m'], 0.99),
		reachP99: percentile(byKind['r'], 0.99),
	}
	if hits+misses > 0 {
		sl.lruHitRatio = float64(hits) / float64(hits+misses)
	}
	if batches > 0 {
		sl.batchMean = float64(stats1.Serving.BatchedLookups-stats0.Serving.BatchedLookups) / float64(batches)
	}
	setServeLayerMetrics(rep, sl)
	p50, p99, qps := queries.medians()
	rep.set("serve.query_p50_ms", p50, "ms")
	rep.set("serve.query_p99_ms", p99, "ms")
	rep.set("serve.queries_per_s", qps, "1/s")
	rep.set("result.lookup_p99_ms", percentile(lookup, 0.99), "ms")
	setGoMetrics(rep, gc)
	rep.set("trace.overhead_s", boot.dur().Seconds()-untracedBoot.Seconds(), "s")
	fmt.Printf("traced: boot %.3fs (untraced %.3fs), %d queries\n", boot.dur().Seconds(), untracedBoot.Seconds(), len(all))
	return nil
}

func kindName(k byte) string {
	switch k {
	case 's':
		return "scc"
	case 'm':
		return "same"
	}
	return "reach"
}
