package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/triples"
)

// oracleTriple draws from a small term universe, so scripts keep
// re-adding, re-deleting and duplicating the same triples. Objects mix
// IRIs with literals (bit-63 OIDs).
func oracleTriple(rng *rand.Rand) nt.Triple {
	s := dict.IRI(fmt.Sprintf("http://o/s%d", rng.Intn(16)))
	p := dict.IRI(fmt.Sprintf("http://o/p%d", rng.Intn(4)))
	var o dict.Term
	switch rng.Intn(3) {
	case 0:
		o = dict.IRI(fmt.Sprintf("http://o/s%d", rng.Intn(16)))
	case 1:
		o = dict.IntLit(int64(rng.Intn(10)))
	default:
		o = dict.StringLit(fmt.Sprintf("v%d", rng.Intn(10)))
	}
	return nt.Triple{S: s, P: p, O: o}
}

// checkIndexOracle asserts that the store's projections equal a full
// rebuild of its table row for row, that no write batch is left
// pending, and that the table holds exactly the model's triples.
func checkIndexOracle(t *testing.T, s *Store, model map[nt.Triple]bool, where string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pendAdds) != 0 || len(s.pendDels) != 0 || len(s.delPending) != 0 {
		t.Fatalf("%s: batch still pending after refresh (%d adds, %d dels, %d queued)",
			where, len(s.pendAdds), len(s.pendDels), len(s.delPending))
	}
	want := triples.BuildAll(s.table)
	for _, p := range triples.AllPerms {
		got, w := s.idx.Get(p), want.Get(p)
		if got.Len() != w.Len() {
			t.Fatalf("%s: %v has %d rows, a rebuild has %d", where, p, got.Len(), w.Len())
		}
		for i := 0; i < w.Len(); i++ {
			if got.Triple(i) != w.Triple(i) {
				t.Fatalf("%s: %v row %d is %v, a rebuild has %v", where, p, i, got.Triple(i), w.Triple(i))
			}
		}
	}
	have := map[nt.Triple]bool{}
	for i := 0; i < s.table.Len(); i++ {
		tr := s.table.At(i)
		st, _ := s.dict.Term(tr.S)
		pt, _ := s.dict.Term(tr.P)
		ot, _ := s.dict.Term(tr.O)
		have[nt.Triple{S: st, P: pt, O: ot}] = true
	}
	if len(have) != len(model) {
		t.Fatalf("%s: table holds %d distinct triples, model %d", where, len(have), len(model))
	}
	for tr := range model {
		if !have[tr] {
			t.Fatalf("%s: table lacks %v", where, tr)
		}
	}
}

// TestIndexOracle runs randomized write scripts and checks, after every
// refresh and after Compact, re-Organize and WAL replay on Open, that
// merging each write batch into the projections leaves them identical
// to a full rebuild of the table.
func TestIndexOracle(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runIndexScript(t, seed) })
	}
}

func runIndexScript(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	snap := filepath.Join(dir, "s.srdf")
	opts := DefaultOptions()
	opts.CS.MinSupport = 2
	opts.Dedup = seed%2 == 0
	opts.CompactThreshold = []int{-1, 6}[seed%4/2]
	opts.WALPath = filepath.Join(dir, "s.wal")
	s := NewStore(opts)
	t.Cleanup(func() { s.Close() })

	// Bulk rows repeat on purpose: with Dedup off the copies survive
	// Organize and every later merge must carry them.
	model := map[nt.Triple]bool{}
	var bulk strings.Builder
	for i := 0; i < 40; i++ {
		tr := oracleTriple(rng)
		for k := 1 + rng.Intn(2); k > 0; k-- {
			bulk.WriteString(tr.String() + "\n")
		}
		model[tr] = true
	}
	if _, _, err := s.LoadNTriples(strings.NewReader(bulk.String()), false); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(snap); err != nil {
		t.Fatal(err)
	}
	checkIndexOracle(t, s, model, "after load")

	add := func(tr nt.Triple) {
		if err := s.Add(tr); err != nil {
			t.Fatal(err)
		}
		model[tr] = true
	}
	del := func(tr nt.Triple) {
		if err := s.Delete(tr); err != nil {
			t.Fatal(err)
		}
		delete(model, tr)
	}
	for step := 0; step < 150; step++ {
		where := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(100); {
		case op < 35:
			add(oracleTriple(rng))
		case op < 55:
			del(oracleTriple(rng))
		case op < 60: // delete then re-add within one batch
			tr := oracleTriple(rng)
			del(tr)
			add(tr)
		case op < 65: // NumTriples applies the delete ahead of the refresh
			tr := oracleTriple(rng)
			del(tr)
			s.NumTriples()
			add(tr)
		case op < 70:
			s.NumTriples()
		case op < 88:
			s.Stats()
			checkIndexOracle(t, s, model, where+" refresh")
		case op < 92:
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			checkIndexOracle(t, s, model, where+" compact")
		case op < 96:
			if _, err := s.Organize(); err != nil {
				t.Fatal(err)
			}
			checkIndexOracle(t, s, model, where+" organize")
		default: // close, then reopen: the logged tail replays onto the snapshot
			s.Stats()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			var err error
			if s, err = OpenStore(snap, opts); err != nil {
				t.Fatal(err)
			}
			s.Stats()
			checkIndexOracle(t, s, model, where+" reopen")
		}
	}
	s.Stats()
	checkIndexOracle(t, s, model, "end")
}
