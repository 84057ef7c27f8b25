package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"srdf"
	"srdf/internal/rdfh"
	"srdf/internal/server"
)

// endpoint is the store served over HTTP on a loopback listener inside
// this process, with a client limited to one connection per worker.
type endpoint struct {
	base string
	hc   *http.Client
	hs   *http.Server
	done chan error
}

// serveStore starts server.New(st).Handler() on 127.0.0.1. Traced runs
// wrap the handler in a server.handler span whose parent is the client
// request's span.
func serveStore(st *srdf.Store, workers int, tr *tracer) (*endpoint, error) {
	srv := server.New(st, server.Config{Query: qopts})
	h := srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			parent, _ := strconv.ParseInt(req.Header.Get("X-Bench-Span"), 10, 64)
			if parent == 0 {
				inner.ServeHTTP(w, req)
				return
			}
			sp := tr.begin("server.handler", req.Header.Get("X-Bench-Req"), parent)
			inner.ServeHTTP(w, req)
			sp.end()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &endpoint{
		base: "http://" + ln.Addr().String(),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true,
		}},
		hs:   &http.Server{Handler: h},
		done: make(chan error, 1),
	}
	go func() { e.done <- e.hs.Serve(ln) }()
	return e, nil
}

// close stops the server and waits for it to exit.
func (e *endpoint) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.done
	e.hc.CloseIdleConnections()
}

// query sends one SPARQL request and decodes the JSON result.
func (e *endpoint) query(escaped, reqID string, parent int64) (*answer, error) {
	req, err := http.NewRequest(http.MethodGet, e.base+"/sparql?query="+escaped, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", server.MimeJSON)
	if parent != 0 {
		req.Header.Set("X-Bench-Span", strconv.FormatInt(parent, 10))
		req.Header.Set("X-Bench-Req", reqID)
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var body struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]term `json:"bindings"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	a := &answer{Vars: body.Head.Vars, Rows: make([][]term, len(body.Results.Bindings))}
	for i, b := range body.Results.Bindings {
		row := make([]term, len(a.Vars))
		for j, v := range a.Vars {
			row[j] = b[v]
		}
		a.Rows[i] = row
	}
	return a, nil
}

// read sends an untraced query given as plain text.
func (e *endpoint) read(text string) (*answer, error) {
	return e.query(url.QueryEscape(text), "", 0)
}

// traceOdd traces odd-numbered requests only, so a traced run times
// traced and untraced requests side by side under the same load.
func traceOdd(tr *tracer, i int) *tracer {
	if i%2 == 1 {
		return tr
	}
	return nil
}

// readOp sends request base+i of the mix through query and checks the
// answer; query gets the tracer, request id and parent span to use.
func (r *run) readOp(o *oracle, mix []request, base int, tr *tracer,
	query func(req request, tr *tracer, id string, parent int64) (*answer, error)) op {
	return func(i int, _ time.Time) bool {
		req := mix[(base+i)%len(mix)]
		tr := traceOdd(tr, i)
		var id string
		if tr != nil {
			id = "r" + strconv.Itoa(base+i)
		}
		sp := tr.begin("loadgen.request", id, 0)
		a, err := query(req, tr, id, sp.id)
		sp.end()
		if err == nil {
			err = o.check(req, a)
		}
		return r.record(err, "read "+req.shape.String())
	}
}

// httpOp sends request base+i of the mix over HTTP.
func (r *run) httpOp(e *endpoint, o *oracle, mix []request, base int, tr *tracer) op {
	return r.readOp(o, mix, base, tr, func(req request, _ *tracer, id string, parent int64) (*answer, error) {
		return e.query(req.query, id, parent)
	})
}

// serve runs serve-read or serve-trickle.
func (r *run) serve() error {
	trickle := r.workload == "serve-trickle"
	d := rdfh.Generate(scaleFactor, r.seed)
	o := newOracle(d)
	mix := buildMix(r.seed, 1<<16, len(d.Orders))
	st, sample, err := r.setup(o, func(dir string) srdf.Options {
		opts := srdf.Defaults()
		if trickle {
			opts.WALPath = filepath.Join(dir, "store.wal")
		}
		return opts
	})
	if err != nil {
		return err
	}
	defer st.Close()
	initial := st.NumTriples()
	r.sampleResident(st)
	e, err := serveStore(st, r.workers, r.tr)
	if err != nil {
		return err
	}
	defer e.close()
	// warm-up: requests from the far end of the mix fill the plan
	// cache's hot keys and the connection pool
	closedLoop(realClock{}, 500*time.Millisecond, r.workers, r.httpOp(e, o, mix, len(mix)/2, nil))

	rate := readRate
	var ws writeStats
	var wg sync.WaitGroup
	stop := make(chan struct{})
	stopWriter := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopWriter() // on early returns; the normal path stops it below
	if trickle {
		rate = trickleRate
		writes := makeWrites(d, r.seed, int(r.dur/writeInterval)+2)
		// The first write lands before measuring starts, so every
		// measured read runs against a store that already has a delta
		// layer, as a server taking writes does.
		wt, err := r.applyWrite(st, writes[0], e.read)
		r.record(err, "trickle write 0 visible")
		if wt.applied {
			ws.applied++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := r.writer(st, e, writes[1:], stop)
			w.applied += ws.applied
			ws = w
		}()
	}

	closedDur := time.Duration(closedShare * float64(r.dur))
	var counters phaseCounters
	m0, err := scrape(e.hc, e.base)
	if err != nil {
		return err
	}
	closed := closedLoop(realClock{}, closedDur, r.workers, r.httpOp(e, o, mix, 0, r.tr))
	r.traceOverhead(closed)
	m1, err := scrape(e.hc, e.base)
	if err != nil {
		return err
	}
	c := countersBetween(m0, m1)
	note("phase closed-loop clients=%d sent=%d ok=%d failed=%d elapsed=%s %s", r.workers, closed.Sent, closed.OK, closed.Failed, closed.Elapsed.Round(time.Millisecond), c)
	counters.add(c)
	r.set("read_qps", float64(closed.OK)/closed.Elapsed.Seconds(), "queries/s", closed.OK)
	r.sampleResident(st)

	open := openLoop(realClock{}, rate, r.dur-closedDur, r.workers, r.httpOp(e, o, mix, closed.Sent, r.tr))
	m2, err := scrape(e.hc, e.base)
	if err != nil {
		return err
	}
	c = countersBetween(m1, m2)
	note("phase open-loop rate=%g/s sent=%d ok=%d failed=%d lag_max=%s %s", rate, open.Sent, open.OK, open.Failed, open.LagMax.Round(time.Microsecond), c)
	counters.add(c)
	r.reportLatency(open.Lat)
	r.sampleResident(st)
	if trickle {
		stopWriter()
	}
	if r.tr != nil {
		if err := r.replay(st, o); err != nil {
			return err
		}
	}
	if !trickle {
		// serve-read times its writes only after every read has been
		// measured: its reads never share the store with a refresh
		ws = r.probeWrites(st, d, e.read)
	}
	r.reportWrites(ws)
	r.checkFinalTriples(st, initial, ws.applied)

	if r.tr == nil {
		return nil
	}
	r.set("loadgen.lag_max_ms", ms(open.LagMax), "ms", open.Sent)
	r.set("loadgen.sent", float64(open.Sent), "requests", 1)
	r.set("loadgen.ok", float64(open.OK), "requests", 1)
	r.set("loadgen.failed", float64(open.Failed), "requests", 1)
	r.set("server.rejected", counters.Rejected, "requests", 1)
	r.set("core.plan_cache_hit_ratio", ratio(counters.CacheHits, counters.CacheHits+counters.CacheMisses), "ratio", int(counters.CacheHits+counters.CacheMisses))
	r.set("core.plan_cache_lookups", counters.CacheHits+counters.CacheMisses, "lookups", 1)
	r.set("colstore.pool_faults", counters.PoolFaults, "faults", 1)
	r.set("colstore.pool_evictions", counters.PoolEvicts, "evictions", 1)
	r.reportHandlerSpans()
	return r.finishTrace(d, sample)
}

// writer applies one write per writeInterval until stop closes, each
// polled over HTTP until visible.
func (r *run) writer(st *srdf.Store, e *endpoint, writes []write, stop chan struct{}) writeStats {
	var ws writeStats
	tick := time.NewTicker(writeInterval)
	defer tick.Stop()
	for i, w := range writes {
		select {
		case <-stop:
			return ws
		case <-tick.C:
		}
		wt, err := r.applyWrite(st, w, e.read)
		ws.add(wt, r.record(err, fmt.Sprintf("trickle write %d visible", i)))
	}
	<-stop
	return ws
}

// reportLatency records the open-loop latency percentiles.
func (r *run) reportLatency(lat []time.Duration) {
	sorted := msOf(lat)
	r.set("read_p50_ms", percentile(sorted, 50), "ms", len(sorted))
	p := 99.0
	if len(sorted) < 1000 {
		if tp, _, ok := tail(sorted); ok {
			p = tp
		}
		note("read_p99_ms is p%g: only %d samples", p, len(sorted))
	}
	r.set("read_p99_ms", percentile(sorted, p), "ms", len(sorted))
}

// traceOverhead reports, in a traced run, how much slower the traced
// (odd) requests of a phase were than the untraced (even) ones.
func (r *run) traceOverhead(ls loadStats) {
	if r.tr == nil {
		return
	}
	var plain, traced []float64
	for k, d := range ls.Lat {
		if ls.Seq[k]%2 == 1 {
			traced = append(traced, float64(d)/1e3)
		} else {
			plain = append(plain, float64(d)/1e3)
		}
	}
	mp, mt := median(plain), median(traced)
	note("trace overhead: median latency untraced %.1f us (n=%d), traced %.1f us (n=%d), overhead %.1f us (%.2f%%)",
		mp, len(plain), mt, len(traced), mt-mp, 100*ratio(mt-mp, mp))
}

// reportHandlerSpans derives handler time and client overhead from the
// request spans of the load phases.
func (r *run) reportHandlerSpans() {
	spans := r.tr.snapshot()
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var handler, overhead []float64
	for _, s := range spans {
		if s.Name != "server.handler" {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		h := s.End - s.Start
		handler = append(handler, float64(h)/1e3)
		overhead = append(overhead, float64(p.End-p.Start-h)/1e3)
	}
	r.set("server.handler_us", median(handler), "us", len(handler))
	r.set("server.client_overhead_us", median(overhead), "us", len(overhead))
}
