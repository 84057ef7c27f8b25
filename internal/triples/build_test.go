package triples

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"srdf/internal/dict"
)

// refBuild is the comparison-sort reference the radix kernels are
// checked against: every row index sorted by a comparator over the
// permuted triple.
func refBuild(t *Table, p Perm) *Projection {
	idx := make([]int, t.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		ax, bx, cx := p.key(t.At(idx[x]))
		ay, by, cy := p.key(t.At(idx[y]))
		if ax != ay {
			return ax < ay
		}
		if bx != by {
			return bx < by
		}
		return cx < cy
	})
	pr := &Projection{Order: p}
	for _, i := range idx {
		a, b, c := p.key(t.At(i))
		pr.A, pr.B, pr.C = append(pr.A, a), append(pr.B, b), append(pr.C, c)
	}
	return pr
}

// diffProjection reports the first row where two projections differ.
func diffProjection(got, want *Projection) error {
	if got.Order != want.Order {
		return fmt.Errorf("order %v, want %v", got.Order, want.Order)
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("%v: %d rows, want %d", want.Order, got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		ga, gb, gc := got.At(i)
		wa, wb, wc := want.At(i)
		if ga != wa || gb != wb || gc != wc {
			return fmt.Errorf("%v row %d: (%v,%v,%v), want (%v,%v,%v)", want.Order, i, ga, gb, gc, wa, wb, wc)
		}
	}
	return nil
}

// tableShapes generate random tables that stress the radix kernels:
// values spread over many bytes, bit-63 literal OIDs, constant columns,
// and heavy duplication.
var tableShapes = []struct {
	name string
	gen  func(rng *rand.Rand) Triple
}{
	{"small", func(rng *rand.Rand) Triple {
		o := r(uint64(1 + rng.Intn(20)))
		if rng.Intn(2) == 0 {
			o = l(uint64(1 + rng.Intn(30)))
		}
		return Triple{r(uint64(1 + rng.Intn(20))), r(uint64(100 + rng.Intn(5))), o}
	}},
	{"wide", func(rng *rand.Rand) Triple {
		// random widths so some bytes vary and others do not
		v := func() dict.OID { return dict.OID(rng.Uint64() >> uint(rng.Intn(64))) }
		return Triple{v(), v(), v()}
	}},
	{"constS", func(rng *rand.Rand) Triple {
		return Triple{r(7), r(uint64(rng.Intn(300))), l(uint64(rng.Intn(1 << 20)))}
	}},
	{"constP_literals", func(rng *rand.Rand) Triple {
		return Triple{r(uint64(rng.Intn(1 << 16))), r(3), l(uint64(rng.Intn(1 << 40)))}
	}},
	{"allSame", func(rng *rand.Rand) Triple { return Triple{r(1), r(2), l(3)} }},
}

// genTable draws n rows of a shape, re-emitting earlier rows often so
// the table carries duplicates.
func genTable(rng *rand.Rand, n int, gen func(*rand.Rand) Triple) *Table {
	t := NewTable(n)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(5) == 0 {
			t.AppendTriple(t.At(rng.Intn(i)))
			continue
		}
		t.AppendTriple(gen(rng))
	}
	return t
}

func TestBuildMatchesReference(t *testing.T) {
	for _, sh := range tableShapes {
		for _, n := range []int{0, 1, 2, 17, 700} {
			for seed := int64(0); seed < 4; seed++ {
				tb := genTable(rand.New(rand.NewSource(seed)), n, sh.gen)
				all := BuildAll(tb)
				for _, p := range AllPerms {
					want := refBuild(tb, p)
					if err := diffProjection(Build(tb, p), want); err != nil {
						t.Fatalf("%s n=%d seed=%d Build: %v", sh.name, n, seed, err)
					}
					if err := diffProjection(all.Get(p), want); err != nil {
						t.Fatalf("%s n=%d seed=%d BuildAll: %v", sh.name, n, seed, err)
					}
				}
			}
		}
	}
}

func TestDedupMatchesReference(t *testing.T) {
	for _, sh := range tableShapes {
		for _, n := range []int{0, 1, 300} {
			tb := genTable(rand.New(rand.NewSource(int64(n))), n, sh.gen)
			ref := refBuild(tb, SPO)
			want := NewTable(0)
			for i := 0; i < ref.Len(); i++ {
				if tr := ref.Triple(i); i == 0 || tr != ref.Triple(i-1) {
					want.AppendTriple(tr)
				}
			}
			if removed := tb.Dedup(); removed != n-want.Len() {
				t.Fatalf("%s n=%d: Dedup removed %d, want %d", sh.name, n, removed, n-want.Len())
			}
			if err := diffProjection(&Projection{Order: SPO, A: tb.S, B: tb.P, C: tb.O},
				&Projection{Order: SPO, A: want.S, B: want.P, C: want.O}); err != nil {
				t.Fatalf("%s n=%d: %v", sh.name, n, err)
			}
		}
	}
}

// TestMergeMatchesFullBuild checks merge(old, adds, dels) against a full
// build of the edited table, and that the old index set is untouched.
func TestMergeMatchesFullBuild(t *testing.T) {
	for _, sh := range tableShapes {
		for _, n := range []int{0, 1, 40, 600} {
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(seed*31 + int64(n)))
				old := genTable(rng, n, sh.gen)
				idx := BuildAll(old)
				before := BuildAll(old)

				// Deletes: present triples (possibly duplicated in the
				// table) and absent ones.
				delSet := map[Triple]bool{}
				for k := rng.Intn(6); k > 0 && n > 0; k-- {
					delSet[old.At(rng.Intn(n))] = true
				}
				for k := rng.Intn(3); k > 0; k-- {
					delSet[sh.gen(rng)] = true
				}
				var dels []Triple
				for d := range delSet {
					dels = append(dels, d)
				}
				// Adds: fresh rows, copies of present rows, re-adds of
				// deleted triples, and rows sorting before the first and
				// after the last row of every projection.
				adds := NewTable(0)
				for k := rng.Intn(8); k > 0; k-- {
					adds.AppendTriple(sh.gen(rng))
				}
				if n > 0 {
					adds.AppendTriple(old.At(rng.Intn(n)))
				}
				for _, d := range dels[:len(dels)/2] {
					adds.AppendTriple(d)
					adds.AppendTriple(d)
				}
				adds.AppendTriple(Triple{0, 0, 0})
				adds.AppendTriple(Triple{^dict.OID(0), ^dict.OID(0), ^dict.OID(0)})

				want := NewTable(0)
				for i := 0; i < n; i++ {
					if !delSet[old.At(i)] {
						want.AppendTriple(old.At(i))
					}
				}
				for i := 0; i < adds.Len(); i++ {
					want.AppendTriple(adds.At(i))
				}

				got := idx.Merge(adds, dels)
				for _, p := range AllPerms {
					if err := diffProjection(got.Get(p), refBuild(want, p)); err != nil {
						t.Fatalf("%s n=%d seed=%d: %v", sh.name, n, seed, err)
					}
					if err := diffProjection(idx.Get(p), before.Get(p)); err != nil {
						t.Fatalf("%s n=%d seed=%d: merge changed its input: %v", sh.name, n, seed, err)
					}
				}
				// An empty batch reproduces the index.
				same := idx.Merge(NewTable(0), nil)
				for _, p := range AllPerms {
					if err := diffProjection(same.Get(p), idx.Get(p)); err != nil {
						t.Fatalf("%s n=%d seed=%d empty merge: %v", sh.name, n, seed, err)
					}
				}
			}
		}
	}
}
