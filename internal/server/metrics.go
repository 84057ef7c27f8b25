package server

import (
	"sync/atomic"
	"time"

	"srdf/internal/core"
	"srdf/internal/exec"
	"srdf/internal/obs"
)

// latencyBuckets are the query-duration histogram bounds in seconds,
// roughly exponential from 100µs to 10s.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// serverMetrics holds the request-side counters the handlers touch on
// every query, pre-resolved from the registry so the hot path never
// takes the label-lookup lock.
type serverMetrics struct {
	queriesOK       *obs.Counter
	queriesBad      *obs.Counter // malformed/unplannable (400)
	queriesTimeout  *obs.Counter // deadline exceeded (408 or truncated)
	queriesCanceled *obs.Counter // client disconnected mid-query
	queriesRejected *obs.Counter // admission overflow (503)
	queriesErr      *obs.Counter // internal failures (500)
	queriesMem      *obs.Counter // memory budget exceeded (413)
	queriesCapped   *obs.Counter // row cap hit, stream aborted
	rowsSent        *obs.Counter
	// handlerPanics counts panics recovered at the HTTP layer; it is
	// not its own family — srdf_panics_total folds it in with the
	// executor's pipeline panics.
	handlerPanics atomic.Uint64

	latency *obs.Histogram
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	q := reg.LabeledCounter("srdf_queries_total", "Queries by outcome.", "status")
	return &serverMetrics{
		queriesOK:       q.With("ok"),
		queriesBad:      q.With("bad_query"),
		queriesTimeout:  q.With("timeout"),
		queriesCanceled: q.With("canceled"),
		queriesRejected: q.With("rejected"),
		queriesErr:      q.With("error"),
		queriesMem:      q.With("mem_budget"),
		queriesCapped:   q.With("row_capped"),
		rowsSent:        reg.Counter("srdf_result_rows_total", "Result rows serialized to clients."),
		latency: reg.Histogram("srdf_query_duration_seconds",
			"Query wall time, admission to last byte.", latencyBuckets),
	}
}

// registerDerivedMetrics wires every series whose value is owned
// elsewhere — admission, plan cache, buffer pool, store, executor,
// query log — as scrape-time closures, so /metrics is one registry
// walk instead of two files of fmt.Fprintf.
func (s *Server) registerDerivedMetrics() {
	reg, st := s.reg, s.store
	reg.GaugeFunc("srdf_inflight_queries", "Queries holding an execution slot.",
		func() float64 { return float64(s.adm.inFlight()) })
	reg.GaugeFunc("srdf_admission_queued", "Requests waiting for an execution slot.",
		func() float64 { return float64(s.adm.queued()) })
	reg.GaugeFunc("srdf_max_concurrent", "Execution slot capacity.",
		func() float64 { return float64(s.cfg.MaxConcurrent) })
	reg.GaugeFunc("srdf_uptime_seconds", "Seconds since server start.",
		func() float64 { return time.Since(s.start).Seconds() })

	reg.CounterFunc("srdf_plan_cache_hits_total", "Prepared-plan cache hits.",
		func() float64 { return float64(st.PlanCacheStats().Hits) })
	reg.CounterFunc("srdf_plan_cache_misses_total", "Prepared-plan cache misses.",
		func() float64 { return float64(st.PlanCacheStats().Misses) })
	reg.CounterFunc("srdf_plan_cache_evictions_total", "Prepared-plan cache LRU evictions.",
		func() float64 { return float64(st.PlanCacheStats().Evictions) })
	reg.GaugeFunc("srdf_plan_cache_entries", "Prepared plans cached for the current epoch.",
		func() float64 { return float64(st.PlanCacheStats().Size) })
	reg.GaugeFunc("srdf_store_epoch", "Published snapshot epoch.",
		func() float64 { return float64(st.Epoch()) })
	reg.CounterFunc("srdf_index_maintenance_seconds_total", "Time spent building and merging the triple projections.",
		func() float64 { return st.IndexStats().Seconds })
	reg.CounterFunc("srdf_index_builds_total", "Full builds of the triple projections (Organize, first use after open).",
		func() float64 { return float64(st.IndexStats().Builds) })
	reg.CounterFunc("srdf_index_merges_total", "Write batches merged into the triple projections.",
		func() float64 { return float64(st.IndexStats().Merges) })

	reg.CounterFunc("srdf_pool_hits_total", "Buffer pool page hits.",
		func() float64 { return float64(st.PoolStats().Hits) })
	reg.CounterFunc("srdf_pool_misses_total", "Buffer pool page misses.",
		func() float64 { return float64(st.PoolStats().Misses) })
	reg.CounterFunc("srdf_pool_evictions_total", "Buffer pool evictions.",
		func() float64 { return float64(st.PoolStats().Evictions) })
	reg.GaugeFunc("srdf_pool_resident_pages", "Resident buffer pool pages.",
		func() float64 { return float64(st.PoolStats().Resident) })
	reg.GaugeFunc("srdf_pool_segment_bytes", "Resident sealed segment bytes.",
		func() float64 { return float64(st.PoolStats().SegmentBytes) })
	reg.GaugeFunc("srdf_pool_compression_ratio", "Logical/segment byte ratio of sealed columns.",
		func() float64 { return st.PoolStats().CompressionRatio })
	reg.GaugeFunc("srdf_pool_segments_lazy", "Sealed blocks not yet decoded from the snapshot.",
		func() float64 { return float64(st.PoolStats().SegmentsLazy) })
	reg.GaugeFunc("srdf_pool_segments_decoded", "Sealed blocks decoded on demand.",
		func() float64 { return float64(st.PoolStats().SegmentsDecoded) })
	reg.CounterFunc("srdf_pool_faults_total", "Sealed segments decoded from the snapshot, including re-decodes after eviction.",
		func() float64 { return float64(st.PoolStats().Faults) })
	reg.GaugeFunc("srdf_pool_resident_bytes", "Decoded sealed segment bytes held by the pool.",
		func() float64 { return float64(st.PoolStats().ResidentBytes) })
	reg.GaugeFunc("srdf_pool_budget_bytes", "Configured pool byte budget (0: unlimited).",
		func() float64 { return float64(st.PoolStats().BudgetBytes) })

	reg.GaugeFunc("srdf_triples", "Stored triples.",
		func() float64 { return float64(st.NumTriples()) })
	reg.GaugeFunc("srdf_store_readonly", "1 while the store is latched read-only after a durability failure.",
		func() float64 {
			if st.Health().State != core.StateHealthy {
				return 1
			}
			return 0
		})
	reg.CounterFunc("srdf_panics_total", "Panics recovered in query pipelines and HTTP handlers (process survived).",
		func() float64 { return float64(exec.PanicsTotal() + s.met.handlerPanics.Load()) })

	reg.CounterFunc("srdf_exec_scan_rows_total", "Rows produced by table and triple scans across all queries.",
		func() float64 { return float64(exec.ScanRowsTotal()) })
	reg.CounterFunc("srdf_exec_operator_seconds_total", "Cumulative query pipeline wall time, open to close.",
		exec.PipelineSecondsTotal)
	reg.CounterFunc("srdf_query_log_queries_total", "Completed queries recorded in the structured query log.",
		func() float64 { q, _ := st.QueryLogCounts(); return float64(q) })
	reg.CounterFunc("srdf_query_log_rows_total", "Result rows recorded in the structured query log.",
		func() float64 { _, r := st.QueryLogCounts(); return float64(r) })
}
