// Package triples implements the dictionary-encoded triple table and the
// ordered projections (SPO, SOP, PSO, POS, OSP) that the MonetDB+HSP
// prototype — the paper's baseline — keeps for exhaustive indexing.
// All downstream machinery (CS detection, subject clustering, both
// query-plan families) operates on these structures.
package triples

import (
	"fmt"
	"sort"

	"srdf/internal/dict"
)

// Triple is a dictionary-encoded statement.
type Triple struct {
	S, P, O dict.OID
}

// Table is the base triple table in parse (insertion) order, stored
// column-wise like MonetDB BATs.
type Table struct {
	S, P, O []dict.OID
}

// NewTable returns an empty table with the given capacity hint.
func NewTable(capHint int) *Table {
	return &Table{
		S: make([]dict.OID, 0, capHint),
		P: make([]dict.OID, 0, capHint),
		O: make([]dict.OID, 0, capHint),
	}
}

// Len returns the number of triples.
func (t *Table) Len() int { return len(t.S) }

// Append adds one triple.
func (t *Table) Append(s, p, o dict.OID) {
	t.S = append(t.S, s)
	t.P = append(t.P, p)
	t.O = append(t.O, o)
}

// AppendTriple adds one triple.
func (t *Table) AppendTriple(tr Triple) { t.Append(tr.S, tr.P, tr.O) }

// At returns the i-th triple in parse order.
func (t *Table) At(i int) Triple { return Triple{t.S[i], t.P[i], t.O[i]} }

// Remap rewrites every OID through the supplied function. Used by the
// subject-clustering reorganizer after dictionary renumbering.
func (t *Table) Remap(f func(dict.OID) dict.OID) {
	for i := range t.S {
		t.S[i] = f(t.S[i])
		t.P[i] = f(t.P[i])
		t.O[i] = f(t.O[i])
	}
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	c := NewTable(t.Len())
	c.S = append(c.S, t.S...)
	c.P = append(c.P, t.P...)
	c.O = append(c.O, t.O...)
	return c
}

// Dedup sorts the table in SPO order and removes exact duplicate triples,
// returning the number removed. RDF graphs are sets; bulk loads of dirty
// data commonly carry duplicates.
func (t *Table) Dedup() int {
	n := t.Len()
	if n == 0 {
		return 0
	}
	spo := Build(t, SPO)
	w := 0
	for i := 0; i < n; i++ {
		if i > 0 && spo.A[i] == spo.A[w-1] && spo.B[i] == spo.B[w-1] && spo.C[i] == spo.C[w-1] {
			continue
		}
		spo.A[w], spo.B[w], spo.C[w] = spo.A[i], spo.B[i], spo.C[i]
		w++
	}
	t.S, t.P, t.O = spo.A[:w], spo.B[:w], spo.C[:w]
	return n - w
}

// Perm names one of the sort orders of a projection.
type Perm uint8

// The five permutations of (subject, predicate, object) the store
// indexes. OPS is not among them: no access path reads it.
const (
	SPO Perm = iota
	SOP
	PSO
	POS
	OSP
)

// AllPerms lists every projection order.
var AllPerms = [5]Perm{SPO, SOP, PSO, POS, OSP}

func (p Perm) String() string {
	if int(p) < len(AllPerms) {
		return [...]string{"SPO", "SOP", "PSO", "POS", "OSP"}[p]
	}
	return fmt.Sprintf("Perm(%d)", uint8(p))
}

// permCols gives, per permutation, the triple component (0=S, 1=P, 2=O)
// held in a projection's A, B and C columns.
var permCols = [...][3]int{
	SPO: {0, 1, 2},
	SOP: {0, 2, 1},
	PSO: {1, 0, 2},
	POS: {1, 2, 0},
	OSP: {2, 0, 1},
}

// key returns t's components in permutation order.
func (p Perm) key(t Triple) (dict.OID, dict.OID, dict.OID) {
	c, pc := [3]dict.OID{t.S, t.P, t.O}, permCols[p]
	return c[pc[0]], c[pc[1]], c[pc[2]]
}

// Projection is a copy of the triple table sorted in one permutation
// order, with binary-search range access on its (1st), (1st,2nd) and
// (1st,2nd,3rd) prefixes. A/B/C hold the permuted components.
type Projection struct {
	Order   Perm
	A, B, C []dict.OID
}

// Len returns the number of rows.
func (pr *Projection) Len() int { return len(pr.A) }

// At returns row i in permuted component order.
func (pr *Projection) At(i int) (a, b, c dict.OID) { return pr.A[i], pr.B[i], pr.C[i] }

// Triple reconstructs the original (S,P,O) triple at row i.
func (pr *Projection) Triple(i int) Triple {
	var c [3]dict.OID
	pc := permCols[pr.Order]
	c[pc[0]], c[pc[1]], c[pc[2]] = pr.A[i], pr.B[i], pr.C[i]
	return Triple{c[0], c[1], c[2]}
}

// Range1 returns [lo,hi) of rows whose first component equals a.
func (pr *Projection) Range1(a dict.OID) (int, int) {
	lo := sort.Search(len(pr.A), func(i int) bool { return pr.A[i] >= a })
	hi := sort.Search(len(pr.A), func(i int) bool { return pr.A[i] > a })
	return lo, hi
}

// Range2 returns [lo,hi) of rows with first component a and second b.
func (pr *Projection) Range2(a, b dict.OID) (int, int) {
	lo1, hi1 := pr.Range1(a)
	lo := lo1 + sort.Search(hi1-lo1, func(i int) bool { return pr.B[lo1+i] >= b })
	hi := lo1 + sort.Search(hi1-lo1, func(i int) bool { return pr.B[lo1+i] > b })
	return lo, hi
}

// Range2Between returns [lo,hi) of rows with first component a and second
// component in [bLo,bHi]. Because literal OIDs are value-ordered after
// reorganization, this implements value range predicates on O directly
// over the POS projection (paper §II-B).
func (pr *Projection) Range2Between(a, bLo, bHi dict.OID) (int, int) {
	lo1, hi1 := pr.Range1(a)
	lo := lo1 + sort.Search(hi1-lo1, func(i int) bool { return pr.B[lo1+i] >= bLo })
	hi := lo1 + sort.Search(hi1-lo1, func(i int) bool { return pr.B[lo1+i] > bHi })
	return lo, hi
}

// Range3 returns [lo,hi) of rows exactly matching (a,b,c).
func (pr *Projection) Range3(a, b, c dict.OID) (int, int) {
	lo2, hi2 := pr.Range2(a, b)
	lo := lo2 + sort.Search(hi2-lo2, func(i int) bool { return pr.C[lo2+i] >= c })
	hi := lo2 + sort.Search(hi2-lo2, func(i int) bool { return pr.C[lo2+i] > c })
	return lo, hi
}

// Contains reports whether the exact triple is present.
func (pr *Projection) Contains(t Triple) bool {
	a, b, c := pr.Order.key(t)
	lo, hi := pr.Range3(a, b, c)
	return hi > lo
}

// IndexSet bundles the projections, the "exhaustive indexing" approach
// of RDF-3X and MonetDB+HSP that the paper critiques for its lack of
// locality — and that the reorganized store still needs for the
// irregular residue and for non-star access paths.
type IndexSet struct {
	ByPerm [len(AllPerms)]*Projection
}

// Get returns the projection for a permutation.
func (s *IndexSet) Get(p Perm) *Projection { return s.ByPerm[p] }

// Distinct1 iterates the distinct values of the first component of pr,
// calling fn with each value and its row range.
func (pr *Projection) Distinct1(fn func(v dict.OID, lo, hi int)) {
	n := pr.Len()
	for lo := 0; lo < n; {
		v := pr.A[lo]
		hi := lo + 1
		for hi < n && pr.A[hi] == v {
			hi++
		}
		fn(v, lo, hi)
		lo = hi
	}
}

// Distinct2 iterates distinct (first,second) pairs within [lo,hi),
// calling fn with the pair's row range.
func (pr *Projection) Distinct2(lo, hi int, fn func(b dict.OID, l, h int)) {
	for l := lo; l < hi; {
		v := pr.B[l]
		h := l + 1
		for h < hi && pr.B[h] == v {
			h++
		}
		fn(v, l, h)
		l = h
	}
}
