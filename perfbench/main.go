// Command perfbench is the repository's benchmark: it builds RDF-H data
// from a seed, runs one workload against the store in this process,
// checks every answer, and prints each metric by name with its unit and
// sample count. The last line of standard output is one JSON object:
// end-to-end metrics untraced, per-layer metrics with -trace 1.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 16 --trace 0
//
// Workloads, metrics and the moves each layer metric predicts are
// described in perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"srdf"
)

// Sizes and rates. The open-loop rates keep the median request a point
// lookup that waited for nothing: near half of serve-read's closed-loop
// capacity (about 1000 requests/s on 2 cores) the median request queues,
// and the figure swings with the machine's speed. The write interval
// keeps the projection rebuild each write triggers (about 1 s there)
// under a fifth of wall time, so the backlog stays bounded.
const (
	scaleFactor   = 0.003 // RDF-H scale: ~290k triples
	setupReps     = 5     // set-ups per run; setup_s is their median
	readRate      = 200.0 // serve-read open-loop offered rate, requests/s
	trickleRate   = 90.0  // serve-trickle open-loop offered rate, requests/s
	writeInterval = 5 * time.Second
	probeWrites   = 5        // writes timed after the reads on serve-read and ingest-reopen
	poolBudget    = 48 << 10 // ingest-reopen PoolBytes, below the read mix's decoded working set
	closedShare   = 0.25     // share of --seconds spent in the closed loop (serve workloads)
)

var workloads = []string{"serve-read", "serve-trickle", "ingest-reopen"}

// e2eMetrics and layerMetrics are the names BENCHMARK.json declares, in
// its order; a run must produce every one of them.
var e2eMetrics = []string{
	"setup_s", "read_qps", "read_p50_ms", "read_p99_ms", "write_visible_ms",
	"organize_s", "first_query_ms", "snapshot_bytes_per_triple", "heap_mb",
}

var layerMetrics = func() []string {
	out := []string{"server.handler_us", "server.client_overhead_us", "server.rejected", "server.serialize_allocs_per_row"}
	for _, prefix := range []string{"server.serialize_us", "sparql.parse_us", "plan.build_us", "core.open_us", "exec.drain_us"} {
		for _, s := range shapeNames {
			out = append(out, prefix+"."+s)
		}
	}
	for _, q := range shapeNames[:shPoint] {
		out = append(out, "plan.worst_qerror."+q)
	}
	return append(out,
		"core.plan_cache_hit_ratio", "core.plan_cache_lookups", "core.add_us", "core.refresh_ms", "core.first_refresh_ms",
		"core.organize_gap_ms",
		"exec.alloc_bytes_per_query", "exec.scan_rows_per_result_row",
		"colstore.pool_faults", "colstore.pool_evictions", "colstore.resident_bytes_max", "colstore.compression_ratio",
		"relational.delta_rows", "relational.tombstones", "relational.build_catalog_ms",
		"nt.parse_ms", "dict.intern_ms", "cs.discover_ms", "cluster.reorganize_ms", "triples.build_all_ms",
		"storage.save_ms", "storage.open_ms", "core.load_triples_per_s", "exec.cold_sweep_ms",
		"loadgen.lag_max_ms", "loadgen.sent", "loadgen.ok", "loadgen.failed",
	)
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark invocation.
type run struct {
	workload string
	seed     int64
	dur      time.Duration
	workdir  string
	workers  int
	tr       *tracer // nil unless -trace 1
	// residentMax is the most decoded segment bytes the pool held at
	// any phase boundary.
	residentMax int64

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	errShown          int

	metrics map[string]metric
}

// record counts one checked operation.
func (r *run) record(err error, what string) bool {
	r.attempted.Add(1)
	if err == nil {
		return true
	}
	r.failed.Add(1)
	r.errMu.Lock()
	if r.errShown < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
	r.errShown++
	r.errMu.Unlock()
	return false
}

// set records a metric and prints it with its sample count.
func (r *run) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("metric %-36s %14.6g %-10s n=%d\n", name, v, unit, n)
}

// sampleResident updates residentMax.
func (r *run) sampleResident(st *srdf.Store) {
	r.residentMax = max(r.residentMax, st.PoolStats().ResidentBytes)
}

// note prints one line of context that is not a metric.
func note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine's total and stolen CPU ticks, to report how
// much of a run's wall time the hypervisor gave to other guests.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

func main() {
	workload := flag.String("workload", "", "one of: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "data and request-mix seed")
	seconds := flag.Int("seconds", 16, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for snapshots, logs and the span dump")
	flag.Parse()

	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		workdir: dir, workers: runtime.NumCPU(), metrics: map[string]metric{},
	}
	if *traceFlag == 1 {
		r.tr = newTracer()
	}
	note("env go=%s GOMAXPROCS=%d nproc=%d cpu=%q", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	note("run workload=%s seed=%d seconds=%d trace=%d sf=%g clients=%d read_rate=%g/s trickle_rate=%g/s write_interval=%s",
		r.workload, r.seed, *seconds, *traceFlag, scaleFactor, r.workers, readRate, trickleRate, writeInterval)

	total0, steal0 := cpuTicks()
	switch r.workload {
	case "serve-read", "serve-trickle":
		err = r.serve()
	case "ingest-reopen":
		err = r.ingestReopen()
	}
	total1, steal1 := cpuTicks()
	note("cpu steal %.2f%% of machine time during the run", 100*ratio(float64(steal1-steal0), float64(total1-total0)))
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	want := e2eMetrics
	if r.tr != nil {
		want = layerMetrics
	}
	out := map[string]metric{}
	var missing []string
	for _, name := range want {
		m, ok := r.metrics[name]
		if !ok {
			missing = append(missing, name)
		}
		out[name] = m
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintln(os.Stderr, "perfbench: metrics not measured:", strings.Join(missing, ", "))
		os.Exit(1)
	}
	attempted, failed := r.attempted.Load(), r.failed.Load()
	note("fail_ratio=%.6f (failed=%d of attempted=%d)", ratio(float64(failed), float64(attempted)), failed, attempted)
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(res))
	if failed > 0 {
		os.Exit(1)
	}
}
