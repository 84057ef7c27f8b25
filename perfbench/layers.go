package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"

	"srdf"
	"srdf/internal/cluster"
	"srdf/internal/colstore"
	"srdf/internal/core"
	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/nt"
	"srdf/internal/rdfh"
	"srdf/internal/relational"
	"srdf/internal/server"
	"srdf/internal/sparql"
	"srdf/internal/triples"
)

// replayReps is how often the traced run replays each query shape.
const replayReps = 5

// drained is a result drained into memory, replayed to a serializer so
// serialization is timed apart from execution.
type drained struct {
	vars []string
	rows [][]dict.Value
	term func(dict.Value) (dict.Term, bool)
	i    int
}

func (s *drained) Vars() []string                      { return s.vars }
func (s *drained) Next() bool                          { s.i++; return s.i <= len(s.rows) }
func (s *drained) Row() []dict.Value                   { return s.rows[s.i-1] }
func (s *drained) Term(v dict.Value) (dict.Term, bool) { return s.term(v) }
func (s *drained) Err() error                          { return nil }

// allocs reports heap bytes and objects allocated while f runs.
func allocs(f func()) (bytes, objects uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs
}

var misestimate = regexp.MustCompile(`misestimate: worst est/act ([0-9.]+)x`)

// replay runs, in a traced run after the measured reads, every query
// shape serially with a span per layer call, and reads the cost model's
// worst mis-estimate per RDF-H query.
func (r *run) replay(st *srdf.Store, o *oracle) error {
	ctx := context.Background()
	ser, _ := server.SerializerFor(server.MimeJSON)
	var allocBytes []float64
	var serBytes, serObjs, serRows, scanRows, resultRows float64
	for sh := shape(0); sh < numShapes; sh++ {
		req := fixedRequest(sh)
		if sh == shPoint {
			req = request{shape: shPoint, key: 1, text: pointQuery(rdfh.OrderIRI(1))}
		}
		var parse, build, open, drain, serialize []float64
		for rep := 0; rep < replayReps; rep++ {
			id := fmt.Sprintf("%s/%d", sh, rep)
			root := r.tr.begin("replay.query", id, 0)
			sp := r.tr.begin("sparql.parse", id, root.id)
			if _, err := sparql.Parse(req.text); err != nil {
				return fmt.Errorf("parse %s: %w", sh, err)
			}
			p := sp.end()
			sp = r.tr.begin("plan.explain", id, root.id)
			if _, err := st.Explain(req.text, qopts); err != nil {
				return fmt.Errorf("explain %s: %w", sh, err)
			}
			x := sp.end()
			parse = append(parse, float64(p)/1e3)
			build = append(build, float64(max(x-p, 0))/1e3)

			var rows *srdf.Rows
			var n int
			var runErr error
			s0 := exec.ScanRowsTotal()
			b, _ := allocs(func() {
				sp := r.tr.begin("core.open", id, root.id)
				rows, runErr = st.QueryStreamCtx(ctx, req.text, qopts)
				open = append(open, float64(sp.end())/1e3)
				if runErr != nil {
					return
				}
				sp = r.tr.begin("exec.drain", id, root.id)
				for rows.Next() {
					n++
				}
				drain = append(drain, float64(sp.end())/1e3)
				runErr = rows.Err()
			})
			if runErr != nil {
				return fmt.Errorf("run %s: %w", sh, runErr)
			}
			scanRows += float64(exec.ScanRowsTotal() - s0)
			resultRows += float64(n)
			allocBytes = append(allocBytes, float64(b))

			// a second execution materializes the rows for the
			// serializer and checks them against the oracle
			rows, err := st.QueryStreamCtx(ctx, req.text, qopts)
			if err != nil {
				return fmt.Errorf("run %s: %w", sh, err)
			}
			src := &drained{vars: rows.Vars(), term: rows.Term}
			for rows.Next() {
				src.rows = append(src.rows, append([]dict.Value(nil), rows.Row()...))
			}
			a := &answer{Vars: src.vars}
			for _, row := range src.rows {
				a.Rows = append(a.Rows, rowTerms(row, src.term))
			}
			r.record(o.check(req, a), "replay "+sh.String())
			var serErr error
			sb, so := allocs(func() {
				sp := r.tr.begin("server.serialize", id, root.id)
				_, serErr = ser.Write(io.Discard, src)
				serialize = append(serialize, float64(sp.end())/1e3)
			})
			if serErr != nil {
				return fmt.Errorf("serialize %s: %w", sh, serErr)
			}
			serBytes += float64(sb)
			serObjs += float64(so)
			serRows += float64(len(src.rows))
			root.end()
			r.sampleResident(st)
		}
		name := sh.String()
		r.set("sparql.parse_us."+name, median(parse), "us", len(parse))
		r.set("plan.build_us."+name, median(build), "us", len(build))
		r.set("core.open_us."+name, median(open), "us", len(open))
		r.set("exec.drain_us."+name, median(drain), "us", len(drain))
		r.set("server.serialize_us."+name, median(serialize), "us", len(serialize))
	}
	r.set("exec.alloc_bytes_per_query", median(allocBytes), "B", len(allocBytes))
	r.set("exec.scan_rows_per_result_row", ratio(scanRows, resultRows), "rows/row", int(resultRows))
	note("replay scan_rows=%.0f result_rows=%.0f serialize bytes=%.0f objects=%.0f rows=%.0f", scanRows, resultRows, serBytes, serObjs, serRows)
	r.set("server.serialize_allocs_per_row", ratio(serObjs, serRows), "allocs/row", int(serRows))

	for _, sh := range rdfhShapes {
		out, err := st.ExplainAnalyze(ctx, fixedRequest(sh).text, qopts)
		if err != nil {
			return fmt.Errorf("explain analyze %s: %w", sh, err)
		}
		q := 1.0 // no misestimate line: estimates matched
		if m := misestimate.FindStringSubmatch(out); m != nil {
			q, _ = strconv.ParseFloat(m[1], 64)
		}
		r.set("plan.worst_qerror."+sh.String(), q, "ratio", 1)
	}
	r.set("colstore.compression_ratio", st.PoolStats().CompressionRatio, "ratio", 1)
	r.set("colstore.resident_bytes_max", float64(r.residentMax), "B", 1)
	return nil
}

// finishTrace mirrors Organize, prints every layer's self time and
// writes the spans out.
func (r *run) finishTrace(d *rdfh.Data, sample setupSample) error {
	if err := r.mirrorOrganize(d, sample); err != nil {
		return err
	}

	spans := r.tr.snapshot()
	self := layerSelf(spans)
	names := make([]string, 0, len(self))
	for l := range self {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		note("self_time layer=%s ms=%.3f", l, ms(self[l]))
	}
	path := filepath.Join(filepath.Dir(r.workdir), fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
	if err := r.tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	note("spans=%d written to %s", len(spans), path)
	return nil
}

// mirrorOrganize rebuilds the store the way core.Organize does, calling
// each layer's public function in the same order with
// core.DefaultOptions(), and checks that it discovers the same schema as
// the store's own Organize, so the per-layer spans cannot drift from
// the real path unnoticed.
func (r *run) mirrorOrganize(d *rdfh.Data, sample setupSample) error {
	var buf bytes.Buffer
	if _, err := d.WriteNT(&buf); err != nil {
		return err
	}
	opts := core.DefaultOptions()
	span := func(name string, f func()) time.Duration {
		sp := r.tr.begin(name, "mirror", 0)
		f()
		return sp.end()
	}
	var ts []nt.Triple
	var err error
	tParse := span("nt.parse", func() { ts, err = nt.NewReader(&buf).ReadAll() })
	if err != nil {
		return fmt.Errorf("mirror parse: %w", err)
	}
	dc := dict.New()
	tb := triples.NewTable(len(ts))
	tIntern := span("dict.intern", func() {
		for _, t := range ts {
			tb.Append(dc.Intern(t.S), dc.Intern(t.P), dc.Intern(t.O))
		}
	})
	ts = nil
	buf = bytes.Buffer{}
	runtime.GC() // Organize, too, starts after the load's garbage is gone
	var schema *cs.Schema
	var inf *cluster.Info
	var cat *relational.Catalog
	tDedup := span("triples.dedup", func() {
		if opts.Dedup {
			tb.Dedup()
		}
	})
	tCS := span("cs.discover", func() { schema = cs.Discover(tb, dc, opts.CS) })
	tCluster := span("cluster.reorganize", func() { inf, err = cluster.Reorganize(tb, dc, schema, opts.Cluster) })
	if err != nil {
		return fmt.Errorf("mirror reorganize: %w", err)
	}
	pool := colstore.NewPool(opts.PoolPages)
	pool.SetBudget(opts.PoolBytes)
	tCat := span("relational.build_catalog", func() { cat = relational.BuildCatalog(tb, dc, schema, inf, pool) })
	tIdx := span("triples.build_all", func() { triples.BuildAll(tb) })

	got := cat.Stats()
	want := sample.report
	var mismatch error
	if len(schema.CSs) != want.CSs || got.Tables != want.Tables || len(schema.FKs) != want.FKs {
		mismatch = fmt.Errorf("mirror found %d CS, %d tables, %d FKs; Organize found %d, %d, %d",
			len(schema.CSs), got.Tables, len(schema.FKs), want.CSs, want.Tables, want.FKs)
	}
	r.record(mismatch, "organize mirror")
	r.set("nt.parse_ms", ms(tParse), "ms", 1)
	r.set("dict.intern_ms", ms(tIntern), "ms", 1)
	r.set("cs.discover_ms", ms(tCS), "ms", 1)
	r.set("cluster.reorganize_ms", ms(tCluster), "ms", 1)
	r.set("relational.build_catalog_ms", ms(tCat), "ms", 1)
	r.set("triples.build_all_ms", ms(tIdx), "ms", 1)
	mirror := tDedup + tCS + tCluster + tCat + tIdx
	gap := ms(sample.organize - mirror)
	r.set("core.organize_gap_ms", gap, "ms", 1)
	note("organize mirror: spans %.1f ms (dedup %.1f) vs Organize %.1f ms in the last set-up; gap %.1f ms (%.1f%%)",
		ms(mirror), ms(tDedup), ms(sample.organize), gap, 100*gap/ms(sample.organize))
	return nil
}
