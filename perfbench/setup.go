package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"srdf"
	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/rdfh"
)

// qopts is the plan configuration `srdf serve` uses by default.
var qopts = srdf.QueryOptions{Mode: srdf.RDFScan, ZoneMaps: true}

// libQuery runs a query through the library and collects its answer.
func libQuery(ctx context.Context, st *srdf.Store, text string) (*answer, error) {
	return libQueryTraced(ctx, st, text, nil, "", 0)
}

// libQueryTraced is libQuery with core.open and exec.drain spans on tr.
func libQueryTraced(ctx context.Context, st *srdf.Store, text string, tr *tracer, req string, parent int64) (*answer, error) {
	sp := tr.begin("core.open", req, parent)
	rows, err := st.QueryStreamCtx(ctx, text, qopts)
	sp.end()
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	sp = tr.begin("exec.drain", req, parent)
	defer sp.end()
	a := &answer{Vars: rows.Vars()}
	for rows.Next() {
		a.Rows = append(a.Rows, rowTerms(rows.Row(), rows.Term))
	}
	return a, rows.Err()
}

// rowTerms converts one result row to its JSON-result form; termOf
// resolves values that carry a dictionary OID.
func rowTerms(row []dict.Value, termOf func(dict.Value) (dict.Term, bool)) []term {
	out := make([]term, len(row))
	for i, v := range row {
		if t, ok := termOf(v); ok {
			out[i] = termOfDict(t)
		} else {
			out[i] = termOfValue(v)
		}
	}
	return out
}

var rdfhShapes = []shape{shQ1, shQ3, shQ5, shQ6}

// fixedRequest is the request of a non-point shape.
func fixedRequest(s shape) request {
	return request{shape: s, text: map[shape]string{
		shQ1: rdfh.Q1(), shQ3: rdfh.Q3(), shQ5: rdfh.Q5(), shQ6: rdfh.Q6(), shSelect: selectQuery,
	}[s]}
}

// setupSample is the timing of one set-up.
type setupSample struct {
	total, load, organize, save, open, firstRefresh, first, sweep time.Duration
	triples                                                       int
	snapBytes                                                     int64
	report                                                        srdf.Report
}

// setupOnce generates the data, bulk-loads it, organizes, checkpoints,
// reopens the snapshot with open's options, and runs the first RDF-H
// query and the cold Q1/Q3/Q5/Q6 sweep, checking each answer. Each timed
// step starts after a forced GC, so no step pays for an earlier step's
// garbage at a point that varies from run to run; the collections count
// in setup_s.
func (r *run) setupOnce(o *oracle, dir string, open srdf.Options) (*srdf.Store, setupSample, error) {
	var s setupSample
	t0 := time.Now()
	d := rdfh.Generate(scaleFactor, r.seed)
	var buf bytes.Buffer
	if _, err := d.WriteNT(&buf); err != nil {
		return nil, s, fmt.Errorf("write N-Triples: %w", err)
	}
	st := srdf.New(srdf.Defaults())
	runtime.GC()
	t := time.Now()
	n, _, err := st.LoadNTriples(&buf, false)
	s.load = time.Since(t)
	if err != nil {
		return nil, s, fmt.Errorf("load: %w", err)
	}
	s.triples = n
	runtime.GC()
	t = time.Now()
	s.report, err = st.Organize()
	s.organize = time.Since(t)
	if err != nil {
		return nil, s, fmt.Errorf("organize: %w", err)
	}
	path := filepath.Join(dir, "store.srdf")
	sp := r.tr.begin("storage.save", "", 0)
	t = time.Now()
	err = st.Save(path)
	s.save = time.Since(t)
	sp.end()
	if err != nil {
		return nil, s, fmt.Errorf("save: %w", err)
	}
	if err := st.Close(); err != nil {
		return nil, s, fmt.Errorf("close: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, s, err
	}
	s.snapBytes = fi.Size()
	sp = r.tr.begin("storage.open", "", 0)
	t = time.Now()
	st, err = srdf.Open(path, open)
	s.open = time.Since(t)
	sp.end()
	if err != nil {
		return nil, s, fmt.Errorf("open: %w", err)
	}
	runtime.GC()
	t = time.Now()
	if r.tr != nil {
		// the traced run splits the lazy projection rebuild out of the
		// first query
		sp := r.tr.begin("core.first_refresh", "", 0)
		st.Stats()
		s.firstRefresh = sp.end()
	}
	a, err := libQuery(context.Background(), st, rdfh.Q3())
	s.first = time.Since(t)
	if err == nil {
		err = o.check(fixedRequest(shQ3), a)
	}
	r.record(err, "first query Q3 after open")
	runtime.GC()
	t = time.Now()
	for _, sh := range rdfhShapes {
		a, err := libQuery(context.Background(), st, fixedRequest(sh).text)
		if err == nil {
			err = o.check(fixedRequest(sh), a)
		}
		r.record(err, "cold sweep "+sh.String())
	}
	s.sweep = time.Since(t)
	s.total = time.Since(t0)
	return st, s, nil
}

// setup runs setupReps set-ups, keeps the last store open, and records
// the set-up and bulk-path metrics as medians over the repetitions.
func (r *run) setup(o *oracle, open func(dir string) srdf.Options) (*srdf.Store, setupSample, error) {
	var samples []setupSample
	var st *srdf.Store
	for k := 0; k < setupReps; k++ {
		if st != nil {
			st.Close()
			st = nil
		}
		dir := filepath.Join(r.workdir, fmt.Sprintf("setup-%d", k))
		if k > 0 {
			os.RemoveAll(filepath.Join(r.workdir, fmt.Sprintf("setup-%d", k-1)))
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, setupSample{}, err
		}
		runtime.GC()
		s, sample, err := r.setupOnce(o, dir, open(dir))
		if err != nil {
			return nil, setupSample{}, fmt.Errorf("setup %d: %w", k, err)
		}
		st = s
		samples = append(samples, sample)
	}
	pick := func(f func(s setupSample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	for k, s := range samples {
		note("setup %d total=%.3fs load=%.3fs organize=%.3fs save=%.1fms open=%.1fms first_query=%.1fms cold_sweep=%.1fms",
			k, s.total.Seconds(), s.load.Seconds(), s.organize.Seconds(), ms(s.save), ms(s.open), ms(s.first), ms(s.sweep))
	}
	n := len(samples)
	r.set("setup_s", pick(func(s setupSample) float64 { return s.total.Seconds() }), "s", n)
	r.set("core.load_triples_per_s", pick(func(s setupSample) float64 { return float64(s.triples) / s.load.Seconds() }), "triples/s", n)
	r.set("organize_s", pick(func(s setupSample) float64 { return s.organize.Seconds() }), "s", n)
	r.set("first_query_ms", pick(func(s setupSample) float64 { return ms(s.first) }), "ms", n)
	r.set("exec.cold_sweep_ms", pick(func(s setupSample) float64 { return ms(s.sweep) }), "ms", n)
	r.set("snapshot_bytes_per_triple", pick(func(s setupSample) float64 { return float64(s.snapBytes) / float64(s.triples) }), "B/triple", n)
	r.set("storage.save_ms", pick(func(s setupSample) float64 { return ms(s.save) }), "ms", n)
	r.set("storage.open_ms", pick(func(s setupSample) float64 { return ms(s.open) }), "ms", n)
	if r.tr != nil {
		r.set("core.first_refresh_ms", pick(func(s setupSample) float64 { return ms(s.firstRefresh) }), "ms", n)
	}
	last := samples[n-1]
	note("setup triples=%d %s", last.triples, last.report)
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	r.set("heap_mb", float64(m.HeapAlloc)/(1<<20), "MiB", 1)
	return st, last, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// write is one trickle write: a new lineitem with its full property set,
// and an update of one value of an existing lineitem (Delete, then Add).
// The values keep every read in the mix unchanged — the new lineitem
// ships after Q1's cut-off and outside Q6's year, belongs to no order
// (so Q3 and Q5 cannot join it), has quantity 1 (below the selection),
// and the update changes a ship mode, which no query reads — so the
// oracle's answers stay exact while writes land.
type write struct {
	add              []nt.Triple
	updSubject       string
	oldMode, newMode string
}

var shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}

// makeWrites plans n writes against d, seeded.
func makeWrites(d *rdfh.Data, seed int64, n int) []write {
	rng := rand.New(rand.NewSource(seed ^ 0x3717e))
	cut, _ := dict.ParseDate("1998-09-20")
	picks := rng.Perm(len(d.Lineitems))
	out := make([]write, n)
	for i := range out {
		pk := 1 + rng.Intn(len(d.Parts))
		ship := cut + int64(rng.Intn(60))
		l := rdfh.Lineitem{
			OrderKey: len(d.Orders) + 1 + i, PartKey: pk, SuppKey: 1 + (pk*2)%len(d.Suppliers),
			LineNumber: 1, Quantity: 1, ExtendedPrice: float64(int64((900+float64(pk%1000))*10+0.5)) / 100,
			Discount: 0.02, Tax: 0.01, ReturnFlag: "N", LineStatus: "O",
			ShipDate: ship, CommitDate: ship - 10, ReceiptDate: ship + 5, ShipMode: "MAIL",
		}
		old := &d.Lineitems[picks[i%len(picks)]]
		newMode := shipModes[(indexOf(shipModes, old.ShipMode)+1+rng.Intn(len(shipModes)-1))%len(shipModes)]
		out[i] = write{
			add:        lineitemTriples(&l),
			updSubject: rdfh.LineitemIRI(old.OrderKey, old.LineNumber),
			oldMode:    old.ShipMode, newMode: newMode,
		}
	}
	return out
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}

func (w write) modeTriple(mode string) nt.Triple {
	return nt.Triple{S: dict.IRI(w.updSubject), P: dict.IRI(rdfh.PLiShipMode), O: dict.StringLit(mode)}
}

// newSubject is the IRI of the written lineitem.
func (w write) newSubject() string { return w.add[0].S.Value }

// props is the written lineitem's expected property set.
func (w write) props() []prop {
	out := make([]prop, len(w.add))
	for i, t := range w.add {
		out[i] = propOf(t)
	}
	return out
}

// modeQuery reads the updated value back.
func (w write) modeQuery() string {
	return fmt.Sprintf("SELECT ?m WHERE { <%s> <%s> ?m }", w.updSubject, rdfh.PLiShipMode)
}

// checkMode requires exactly the new ship mode.
func (w write) checkMode(a *answer) error {
	if len(a.Rows) != 1 || len(a.Rows[0]) != 1 || a.Rows[0][0].Value != w.newMode {
		return fmt.Errorf("ship mode of %s: got %v, want %q", w.updSubject, a.Rows, w.newMode)
	}
	return nil
}

// writeTiming is what applying and observing one write took.
type writeTiming struct {
	applied bool // every Add and Delete went in
	adds    []time.Duration
	refresh time.Duration // traced runs: the Stats() call after the batch
	visible time.Duration // first Add until a read returns everything
}

// applyWrite applies w and polls with read until the new lineitem and
// the updated value are visible with their values.
func (r *run) applyWrite(st *srdf.Store, w write, read func(text string) (*answer, error)) (writeTiming, error) {
	var wt writeTiming
	t0 := time.Now()
	for _, t := range w.add {
		sp := r.tr.begin("core.add", "", 0)
		t1 := time.Now()
		if err := st.Add(t); err != nil {
			return wt, fmt.Errorf("add: %w", err)
		}
		wt.adds = append(wt.adds, time.Since(t1))
		sp.end()
	}
	if err := st.Delete(w.modeTriple(w.oldMode)); err != nil {
		return wt, fmt.Errorf("delete: %w", err)
	}
	if err := st.Add(w.modeTriple(w.newMode)); err != nil {
		return wt, fmt.Errorf("add: %w", err)
	}
	wt.applied = true
	if r.tr != nil {
		sp := r.tr.begin("core.refresh", "", 0)
		st.Stats()
		wt.refresh = sp.end()
	}
	deadline := t0.Add(60 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		a, err := read(pointQuery(w.newSubject()))
		if err == nil {
			err = checkProps(a, w.props())
		}
		if err == nil {
			a, err = read(w.modeQuery())
			if err == nil {
				err = w.checkMode(a)
			}
		}
		if err == nil {
			wt.visible = time.Since(t0)
			return wt, nil
		}
		lastErr = err
		time.Sleep(time.Millisecond)
	}
	return wt, fmt.Errorf("write not visible after 60s: %w", lastErr)
}

// writeStats gathers write timings into metrics.
type writeStats struct {
	applied       int
	visible, adds []time.Duration
	refresh       []float64
}

// add counts an applied write; only a visible one contributes timings.
func (ws *writeStats) add(wt writeTiming, visible bool) {
	if wt.applied {
		ws.applied++
	}
	if !visible {
		return
	}
	ws.visible = append(ws.visible, wt.visible)
	ws.adds = append(ws.adds, wt.adds...)
	if wt.refresh > 0 {
		ws.refresh = append(ws.refresh, ms(wt.refresh))
	}
}

// probeWrites times probeWrites writes, one after another, on a store
// nothing else is using.
func (r *run) probeWrites(st *srdf.Store, d *rdfh.Data, read func(string) (*answer, error)) writeStats {
	var ws writeStats
	for i, w := range makeWrites(d, r.seed, probeWrites) {
		runtime.GC() // each probe starts from the same heap state
		wt, err := r.applyWrite(st, w, read)
		ws.add(wt, r.record(err, fmt.Sprintf("probe write %d visible", i)))
	}
	return ws
}

func (r *run) reportWrites(ws writeStats) {
	r.set("write_visible_ms", median(msOf(ws.visible)), "ms", len(ws.visible))
	if r.tr != nil {
		r.set("core.add_us", median(usOf(ws.adds)), "us", len(ws.adds))
		r.set("core.refresh_ms", median(ws.refresh), "ms", len(ws.refresh))
	}
}

// checkFinalTriples requires the store to hold exactly the triples it
// held before the first write plus every add minus every delete: each
// write adds a full lineitem and replaces one value.
func (r *run) checkFinalTriples(st *srdf.Store, initial, writes int) {
	want := initial + writes*len(lineitemTriples(&rdfh.Lineitem{}))
	got := st.NumTriples()
	var err error
	if got != want {
		err = fmt.Errorf("NumTriples %d, want %d (initial %d + %d writes)", got, want, initial, writes)
	}
	r.record(err, "final triple count")
	s := st.Stats()
	if r.tr != nil {
		r.set("relational.delta_rows", float64(s.DeltaRows), "rows", 1)
		r.set("relational.tombstones", float64(s.Tombstones), "rows", 1)
	} else {
		note("delta_rows=%d tombstones=%d epoch=%d", s.DeltaRows, s.Tombstones, s.Epoch)
	}
}
