// Command perfbench is the repository benchmark.  It runs one named workload
// through the public extscc.Engine (or the internal/serve query server),
// checks every output against an in-memory oracle, and prints the workload's
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.  With
// -trace 1 a traced run drives each layer from the benchmark's own code and
// reports per-layer metrics instead; its spans are written to -trace-out.
//
// run.py builds and runs it from the repository root; by hand:
//
//	go run . -workload contract-web -seed 1 -seconds 30 -trace 0 -dir "$(mktemp -d)"
//
// Workloads: contract-web, semi-large, serve-zipf (see workloads.go).  The
// exit code is 0 only if every output matched the oracle and every exact
// count repeated.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// A run repeats its set-up at least minSetupReps times and for at least
// minSetupTime; setup_s is the median.
const (
	minSetupReps = 3
	minSetupTime = time.Second
)

// moreSetup reports whether set-up should be repeated once more after reps
// repeats that began at start.
func moreSetup(reps int, start time.Time) bool {
	return reps < minSetupReps || time.Since(start) < minSetupTime
}

// minReps is the least number of timed repetitions a run makes, whatever
// -seconds says: the median of three is robust to one disturbed repeat, and
// exact counts can be compared across repeats.
const minReps = 3

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"run_s", "s"}, {"cpu_s", "s"}, {"peak_heap_bytes", "bytes"},
	{"block_ios", "count"}, {"write_amp", "ratio"}, {"read_amp", "ratio"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"storage.read_calls", "count"}, {"storage.read_bytes", "bytes"}, {"storage.read_s", "s"},
	{"storage.write_calls", "count"}, {"storage.write_bytes", "bytes"}, {"storage.write_s", "s"},
	{"storage.files_created", "count"}, {"storage.peak_live_bytes", "bytes"},
	{"blockio.random_ios", "count"}, {"blockio.compression_ratio", "ratio"},
	{"stage.s", "s"},
	{"contraction.iterations", "count"}, {"contraction.s", "s"}, {"contraction.added_edges", "count"},
	{"contraction.edge_growth", "ratio"}, {"contraction.max_degree_ratio", "ratio"},
	{"semiscc.s", "s"}, {"semiscc.scan_bytes", "bytes"},
	{"expansion.s", "s"}, {"expansion.recovered", "count"},
	{"extsort.s", "s"}, {"extsort.records_per_s", "1/s"},
	{"recio.decode_records_per_s", "1/s"}, {"recio.encode_records_per_s", "1/s"}, {"record.bytes_per_edge", "bytes"},
	{"condense.dag_s", "s"}, {"condense.index_s", "s"}, {"condense.dag_nodes", "count"},
	{"condense.dag_edges", "count"}, {"condense.hop_labels", "count"},
	{"serve.query_p50_ms", "ms"}, {"serve.query_p99_ms", "ms"}, {"serve.queries_per_s", "1/s"},
	{"serve.lru_hit_ratio", "ratio"}, {"serve.batch_mean", "count"},
	{"serve.scc_p99_ms", "ms"}, {"serve.same_p99_ms", "ms"}, {"serve.reach_p99_ms", "ms"},
	{"result.lookup_p99_ms", "ms"},
	{"go.gc_cycles", "count"}, {"go.alloc_bytes", "bytes"}, {"go.gc_pause_s", "s"},
	{"trace.overhead_s", "s"},
}

// checkMetricSet verifies that rep holds exactly the metrics of want, with
// their units.
func checkMetricSet(rep *report, want []metricDef) error {
	if len(rep.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(rep.metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.metrics[m.name]
		if !ok || got.Unit != m.unit {
			return fmt.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
		}
	}
	return nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	order             []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, value float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// fail records a failed or wrong operation.
func (r *report) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN records n failed or wrong operations under one description.
func (r *report) failN(n int, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: contract-web, semi-large or serve-zipf")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	secs := flag.Float64("seconds", 30, "how long the timed section repeats")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	traceOut := flag.String("trace-out", "", "file the traced run writes its spans to (JSON lines)")
	work := flag.String("dir", "", "scratch directory for inputs and engine temp files (required)")
	flag.Parse()

	w, err := lookupWorkload(*workloadName)
	if err != nil {
		fatal(err)
	}
	if *work == "" {
		fatal(fmt.Errorf("-dir is required"))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fatal(err)
	}
	rep := newReport()
	total0, steal0 := hostTicks()
	err = run(context.Background(), w, *seed, time.Duration(*secs*float64(time.Second)), *trace == 1, *traceOut, dir, rep)
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	// Time the hypervisor gave to other guests slows every timing of the
	// run; report it so that a disturbed run can be recognised.
	if total, steal := hostTicks(); total > total0 {
		fmt.Printf("host steal: %.1f%% of CPU time during the run\n", 100*float64(steal-steal0)/float64(total-total0))
	}
	printReport(w, rep)
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func run(ctx context.Context, w workload, seed int64, d time.Duration, traced bool, traceOut, dir string, rep *report) error {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var err error
	switch {
	case w.serve && traced:
		err = traceServe(ctx, w, seed, d, tr, dir, rep)
	case w.serve:
		err = runServe(ctx, w, seed, d, dir, rep)
	case traced:
		err = traceBatch(ctx, w, seed, tr, dir, rep)
	default:
		err = runBatch(ctx, w, seed, d, dir, rep)
	}
	if err != nil {
		return err
	}
	want := endToEnd
	if traced {
		want = perLayer
		// A layer the workload does not drive reads 0.
		for _, m := range perLayer {
			if _, ok := rep.metrics[m.name]; !ok {
				rep.set(m.name, 0, m.unit)
			}
		}
	}
	if err := checkMetricSet(rep, want); err != nil {
		return err
	}
	if tr == nil || traceOut == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
		return err
	}
	return writeSpans(traceOut, tr.selfTimes())
}

// printReport prints a human-readable table, then the JSON result line.
func printReport(w workload, rep *report) {
	errorRate := 0.0
	if rep.attempted > 0 {
		errorRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("workload %s: attempted=%d failed=%d error_rate=%g\n", w.name, rep.attempted, rep.failed, errorRate)
	for _, p := range rep.problems {
		fmt.Printf("  problem: %s\n", p)
	}
	for _, name := range rep.order {
		m := rep.metrics[name]
		fmt.Printf("  %-32s %16.6g %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", strings.TrimSpace(err.Error()))
	os.Exit(2)
}
