package srdf_test

import (
	"fmt"
	"strings"
	"testing"

	"srdf/internal/core"
	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/plan"
	"srdf/internal/rdfh"
)

// deltaBenchStore builds an organized store of n clustered subjects and
// trickles extra delta rows of the same shape on top (auto-compaction
// disabled so the delta tail stays unsealed).
func deltaBenchStore(b *testing.B, n, delta int) *core.Store {
	b.Helper()
	var src strings.Builder
	src.WriteString("@prefix d: <http://del/> .\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "d:s%06d d:a %d ; d:b %d .\n", i, i%9973, i%89)
	}
	opts := core.DefaultOptions()
	opts.CompactThreshold = -1
	st := core.NewStore(opts)
	if _, err := st.LoadTurtle(strings.NewReader(src.String())); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Organize(); err != nil {
		b.Fatal(err)
	}
	addDelta(st, n, delta)
	return st
}

// addDelta trickles count fresh subjects shaped like the clustered ones.
func addDelta(st *core.Store, base, count int) {
	for i := 0; i < count; i++ {
		s := dict.IRI(fmt.Sprintf("http://del/s%06d", base+i))
		st.Add(nt.Triple{S: s, P: dict.IRI("http://del/a"), O: dict.IntLit(int64(i % 9973))})
		st.Add(nt.Triple{S: s, P: dict.IRI("http://del/b"), O: dict.IntLit(int64(i % 89))})
	}
}

const deltaBenchQuery = `PREFIX d: <http://del/>
SELECT ?s ?x WHERE { ?s d:a ?x . ?s d:b ?y . }`

// BenchmarkStream_DeltaScan measures the RDF-H-style update workload
// read path: a multi-block sealed table scanned through selection
// vectors followed by the unsealed delta tail. The sealed variant is
// the no-updates baseline; delta4096 carries a 4096-row unsealed tail
// plus tombstones from 512 deletions.
func BenchmarkStream_DeltaScan(b *testing.B) {
	qo := core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}
	run := func(b *testing.B, st *core.Store) {
		// fold pending writes in once, outside the timer
		st.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := st.QueryStream(deltaBenchQuery, qo)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for rows.Next() {
				n++
			}
			rows.Close()
		}
	}
	b.Run("sealed", func(b *testing.B) {
		run(b, deltaBenchStore(b, 20000, 0))
	})
	b.Run("delta4096", func(b *testing.B) {
		st := deltaBenchStore(b, 20000, 4096)
		for i := 0; i < 512; i++ {
			s := dict.IRI(fmt.Sprintf("http://del/s%06d", i*7))
			st.Delete(nt.Triple{S: s, P: dict.IRI("http://del/a"), O: dict.IntLit(int64((i * 7) % 9973))})
		}
		run(b, st)
	})
}

// BenchmarkCompact_Merge measures Store.Compact folding a 4096-row
// delta into freshly sealed segments — the cost the auto-compaction
// threshold amortizes, and the cheap alternative to the full Organize
// measured by benchOrganize-style runs.
func BenchmarkCompact_Merge(b *testing.B) {
	st := deltaBenchStore(b, 20000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		addDelta(st, 100000+i*4096, 4096)
		st.Stats() // apply the delta outside the timer
		b.StartTimer()
		if _, err := st.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWrite_TrickleThenQuery measures what making one trickle
// write visible costs: one Add batch (a new lineitem's properties) and
// one point query on an organized RDF-H store, whose refresh syncs the
// batch into the delta layer and merges it into the triple projections.
// The merge is a linear memory copy of the projections, so the cost
// grows with the store, but far below a re-sort of them.
func BenchmarkWrite_TrickleThenQuery(b *testing.B) {
	for _, sf := range []float64{0.002, 0.01} {
		b.Run(fmt.Sprintf("sf%g", sf), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.CS.MinSupport = 5
			st := core.NewStore(opts)
			rdfh.Generate(sf, 42).Emit(func(t nt.Triple) { st.Add(t) })
			if _, err := st.Organize(); err != nil {
				b.Fatal(err)
			}
			qo := core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				li := rdfh.NS + fmt.Sprintf("trickle/%d", i)
				s := dict.IRI(li)
				st.Add(nt.Triple{S: s, P: dict.IRI(rdfh.PLiQty), O: dict.IntLit(int64(1 + i%50))})
				st.Add(nt.Triple{S: s, P: dict.IRI(rdfh.PLiPrice), O: dict.IntLit(int64(900 + i%1000))})
				st.Add(nt.Triple{S: s, P: dict.IRI(rdfh.PLiDiscount), O: dict.IntLit(int64(i % 10))})
				st.Add(nt.Triple{S: s, P: dict.IRI(rdfh.PLiShipMode), O: dict.StringLit("MAIL")})
				res, err := st.Query("SELECT ?p ?o WHERE { <"+li+"> ?p ?o }", qo)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != 4 {
					b.Fatalf("query saw %d of the 4 written triples", res.Len())
				}
			}
		})
	}
}
