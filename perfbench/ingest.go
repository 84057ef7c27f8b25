package main

import (
	"context"
	"time"

	"srdf"
	"srdf/internal/rdfh"
)

// libOp runs request i of the mix through the library.
func (r *run) libOp(st *srdf.Store, o *oracle, mix []request, tr *tracer) op {
	return r.readOp(o, mix, 0, tr, func(req request, tr *tracer, id string, parent int64) (*answer, error) {
		return libQueryTraced(context.Background(), st, req.text, tr, id, parent)
	})
}

// ingestReopen runs the bulk path with the snapshot reopened under a
// pool budget smaller than the read mix's decoded working set, then
// reads serially through the library while segments fault and evict.
func (r *run) ingestReopen() error {
	d := rdfh.Generate(scaleFactor, r.seed)
	o := newOracle(d)
	mix := buildMix(r.seed, 1<<16, len(d.Orders))
	st, sample, err := r.setup(o, func(string) srdf.Options {
		opts := srdf.Defaults()
		opts.PoolBytes = poolBudget
		return opts
	})
	if err != nil {
		return err
	}
	defer st.Close()
	initial := st.NumTriples()
	r.sampleResident(st)
	ps0, pc0 := st.PoolStats(), st.PlanCacheStats()
	loop := closedLoop(realClock{}, r.dur, 1, r.libOp(st, o, mix, r.tr))
	r.traceOverhead(loop)
	ps1, pc1 := st.PoolStats(), st.PlanCacheStats()
	hits, lookups := float64(pc1.Hits-pc0.Hits), float64(pc1.Hits-pc0.Hits+pc1.Misses-pc0.Misses)
	note("phase serial-reads sent=%d ok=%d failed=%d elapsed=%s plan_cache hit_ratio=%.4f (hits=%.0f of lookups=%.0f) pool faults=%d evictions=%d resident_bytes=%d budget=%d",
		loop.Sent, loop.OK, loop.Failed, loop.Elapsed.Round(time.Millisecond), ratio(hits, lookups), hits, lookups,
		ps1.Faults-ps0.Faults, ps1.Evictions-ps0.Evictions, ps1.ResidentBytes, ps1.BudgetBytes)
	r.set("read_qps", float64(loop.OK)/loop.Elapsed.Seconds(), "queries/s", loop.OK)
	r.reportLatency(loop.Lat)
	r.sampleResident(st)
	if r.tr != nil {
		if err := r.replay(st, o); err != nil {
			return err
		}
		if err := r.httpReplay(st, o, mix); err != nil {
			return err
		}
	}
	ws := r.probeWrites(st, d, func(text string) (*answer, error) {
		return libQuery(context.Background(), st, text)
	})
	r.reportWrites(ws)
	r.checkFinalTriples(st, initial, ws.applied)

	if r.tr == nil {
		return nil
	}
	r.set("loadgen.lag_max_ms", ms(loop.LagMax), "ms", loop.Sent)
	r.set("loadgen.sent", float64(loop.Sent), "requests", 1)
	r.set("loadgen.ok", float64(loop.OK), "requests", 1)
	r.set("loadgen.failed", float64(loop.Failed), "requests", 1)
	r.set("core.plan_cache_hit_ratio", ratio(hits, lookups), "ratio", int(lookups))
	r.set("core.plan_cache_lookups", lookups, "lookups", 1)
	r.set("colstore.pool_faults", float64(ps1.Faults-ps0.Faults), "faults", 1)
	r.set("colstore.pool_evictions", float64(ps1.Evictions-ps0.Evictions), "evictions", 1)

	return r.finishTrace(d, sample)
}

// httpReplay measures the server layer for a workload without HTTP
// load: one client replays the mix over a loopback endpoint for a
// second.
func (r *run) httpReplay(st *srdf.Store, o *oracle, mix []request) error {
	e, err := serveStore(st, 1, r.tr)
	if err != nil {
		return err
	}
	m0, err := scrape(e.hc, e.base)
	if err != nil {
		e.close()
		return err
	}
	closedLoop(realClock{}, time.Second, 1, r.httpOp(e, o, mix, 0, r.tr))
	m1, err := scrape(e.hc, e.base)
	e.close()
	if err != nil {
		return err
	}
	c := countersBetween(m0, m1)
	note("phase http-replay %s", c)
	r.set("server.rejected", c.Rejected, "requests", 1)
	r.reportHandlerSpans()
	return nil
}
