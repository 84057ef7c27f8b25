package plan

import (
	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/relational"
	"srdf/internal/sparql"
	"srdf/internal/triples"
)

// valRange accumulates a value interval for one variable.
type valRange struct {
	lo, hi             dict.Value
	hasLo, hasHi       bool
	loStrict, hiStrict bool
}

func (r *valRange) addLo(v dict.Value, strict bool) {
	if !r.hasLo || dict.Compare(v, r.lo) > 0 || (dict.Compare(v, r.lo) == 0 && strict) {
		r.lo, r.loStrict, r.hasLo = v, strict, true
	}
}

func (r *valRange) addHi(v dict.Value, strict bool) {
	if !r.hasHi || dict.Compare(v, r.hi) < 0 || (dict.Compare(v, r.hi) == 0 && strict) {
		r.hi, r.hiStrict, r.hasHi = v, strict, true
	}
}

// pushFilters derives per-variable value ranges from the query's FILTER
// conjuncts and attaches them as OID ranges to the owning star
// properties. Filters stay in the query and are re-checked after the
// joins, so pushdown is purely an access-path optimization and can never
// change results.
func (b *builder) pushFilters(stars []*star) {
	if !b.sv.LiteralsOrdered {
		return // literal OIDs are not value-ordered
	}
	ranges := map[string]*valRange{}
	for _, f := range b.q.Filters {
		for _, conj := range conjuncts(f) {
			v, val, op, ok := varCmpLit(conj)
			if !ok {
				continue
			}
			r := ranges[v]
			if r == nil {
				r = &valRange{}
				ranges[v] = r
			}
			switch op {
			case sparql.OpEq:
				r.addLo(val, false)
				r.addHi(val, false)
			case sparql.OpGe:
				r.addLo(val, false)
			case sparql.OpGt:
				r.addLo(val, true)
			case sparql.OpLe:
				r.addHi(val, false)
			case sparql.OpLt:
				r.addHi(val, true)
			}
		}
	}
	if len(ranges) == 0 {
		return
	}
	for _, st := range stars {
		for i := range st.props {
			p := &st.props[i]
			if p.ObjVar == "" {
				continue
			}
			r, ok := ranges[p.ObjVar]
			if !ok {
				continue
			}
			lo := dict.LiteralOID(1)
			hi := dict.LiteralOID(uint64(b.sv.Dict.NumLiterals()))
			if b.sv.Dict.NumLiterals() == 0 {
				continue
			}
			if r.hasLo {
				c, ok := b.sv.Dict.LiteralCeil(r.lo, r.loStrict)
				if !ok {
					// nothing qualifies: impossible range
					p.HasRange, p.Lo, p.Hi = true, 1, 0
					continue
				}
				lo = c
			}
			if r.hasHi {
				f, ok := b.sv.Dict.LiteralFloor(r.hi, r.hiStrict)
				if !ok {
					p.HasRange, p.Lo, p.Hi = true, 1, 0
					continue
				}
				hi = f
			}
			p.HasRange, p.Lo, p.Hi = true, lo, hi
		}
	}
}

// conjuncts flattens the top-level && chain of an expression.
func conjuncts(e sparql.Expr) []sparql.Expr {
	if b, ok := e.(*sparql.ExBin); ok && b.Op == sparql.OpAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []sparql.Expr{e}
}

// varCmpLit recognizes `?v OP literal` / `literal OP ?v` conjuncts.
func varCmpLit(e sparql.Expr) (string, dict.Value, sparql.Op, bool) {
	b, ok := e.(*sparql.ExBin)
	if !ok {
		return "", dict.Value{}, 0, false
	}
	switch b.Op {
	case sparql.OpEq, sparql.OpGe, sparql.OpGt, sparql.OpLe, sparql.OpLt:
	default:
		return "", dict.Value{}, 0, false
	}
	if v, ok := b.L.(*sparql.ExVar); ok {
		if lit, ok := b.R.(*sparql.ExLit); ok && lit.Term.Kind == dict.KindLiteral {
			return v.Name, lit.Val, b.Op, true
		}
	}
	if v, ok := b.R.(*sparql.ExVar); ok {
		if lit, ok := b.L.(*sparql.ExLit); ok && lit.Term.Kind == dict.KindLiteral {
			return v.Name, lit.Val, flipOp(b.Op), true
		}
	}
	return "", dict.Value{}, 0, false
}

func flipOp(op sparql.Op) sparql.Op {
	switch op {
	case sparql.OpLt:
		return sparql.OpGt
	case sparql.OpLe:
		return sparql.OpGe
	case sparql.OpGt:
		return sparql.OpLt
	case sparql.OpGe:
		return sparql.OpLe
	default:
		return op
	}
}

// crossTablePushdown implements the paper's zone-map foreign-key trick:
// a range restriction on the sort key of table B translates into a
// contiguous subject-OID window of B; any star A joining to B through an
// FK column can then restrict that column to the window, letting A's
// RDFscan skip blocks via the FK column's zone map ("a restriction on
// shipdate can be pushed to ORDERS, and vice versa a restriction on
// orderdate restricts LINEITEM").
//
// The window is only a complete description of B's matches when star B
// is covered by exactly one table and none of its predicates occur in
// the irregular residue — checked here, so the rewrite is always exact.
func (b *builder) crossTablePushdown(stars []*star) {
	if !b.opts.ZoneMaps || !b.sv.Organized || !b.sv.LiteralsOrdered || b.sv.Cat == nil {
		return
	}
	bysubj := map[string]*star{}
	for _, st := range stars {
		bysubj[st.subjVar] = st
	}
	for _, stA := range stars {
		for i := range stA.props {
			pA := &stA.props[i]
			if pA.ObjVar == "" {
				continue
			}
			stB, ok := bysubj[pA.ObjVar]
			if !ok || len(stB.tables) != 1 {
				continue
			}
			tb := stB.tables[0]
			if !b.residualFree(stB) {
				continue
			}
			lo, hi, restricted := b.subjectWindow(stB, tb)
			if !restricted {
				continue
			}
			// intersect with any existing range on the FK column
			if pA.HasRange {
				if lo < pA.Lo {
					lo = pA.Lo
				}
				if hi > pA.Hi {
					hi = pA.Hi
				}
			}
			pA.HasRange, pA.Lo, pA.Hi = true, lo, hi
		}
	}
}

// residualFree reports that none of the star's predicates occur in the
// irregular store or in a link table, so table rows are the complete
// answer set.
func (b *builder) residualFree(st *star) bool {
	for i := range st.props {
		for _, lt := range b.sv.Cat.Links {
			if lt.Pred == st.props[i].Pred && len(lt.Subj) > 0 {
				return false
			}
		}
	}
	if b.sv.Cat.Irregular.Len() == 0 {
		return true
	}
	pso := b.sv.Cat.IrregularIdx.Get(triples.PSO)
	for i := range st.props {
		if lo, hi := pso.Range1(st.props[i].Pred); hi > lo {
			return false
		}
	}
	return true
}

// subjectWindow computes the subject-OID window of table rows that can
// satisfy the star's range constraint on the table's sort key. Returns
// restricted=false when the star has no such constraint.
func (b *builder) subjectWindow(st *star, t *relational.Table) (dict.OID, dict.OID, bool) {
	if t.SortPred == dict.Nil {
		return 0, 0, false
	}
	// Live updates break the window's completeness: unsealed delta rows
	// carry subject OIDs outside the dense range, and a compacted table
	// (extra rows appended, holes punched) no longer keeps its sort-key
	// column ascending. Tombstones alone are fine — stale sealed entries
	// only widen the window.
	if t.SortDisturbed || t.DeltaLen() > 0 {
		return 0, 0, false
	}
	var rangeProp *exec.StarProp
	for i := range st.props {
		p := &st.props[i]
		if p.Pred == t.SortPred && (p.HasRange || p.ObjConst != dict.Nil) {
			rangeProp = p
			break
		}
	}
	if rangeProp == nil {
		return 0, 0, false
	}
	lo, hi := rangeProp.Lo, rangeProp.Hi
	if rangeProp.ObjConst != dict.Nil {
		lo, hi = rangeProp.ObjConst, rangeProp.ObjConst
	}
	col := t.Col(t.SortPred)
	if col == nil {
		return 0, 0, false
	}
	// The column is ascending with NULLs at the tail (sub-ordering put
	// keyed subjects first); binary search the compressed segments.
	rowLo, rowHi := col.Data.AscendingWindow(lo, hi)
	if rowLo >= rowHi {
		return 1, 0, true // provably empty window
	}
	return dict.ResourceOID(t.Base + uint64(rowLo)), dict.ResourceOID(t.Base + uint64(rowHi-1)), true
}
