package exec

import (
	"srdf/internal/dict"
)

// sharedVars returns the variables common to both relations.
func sharedVars(l, r *Rel) []string {
	var out []string
	for _, v := range l.Vars {
		if r.ColIdx(v) >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// HashJoin joins two relations on all their shared variables (natural
// join). If there are none, it returns the cross product.
func HashJoin(ctx *Ctx, l, r *Rel) *Rel {
	// Build on the smaller side.
	if r.Len() < l.Len() {
		l, r = r, l
	}
	shared := sharedVars(l, r)
	lIdx := make([]int, len(shared))
	rIdx := make([]int, len(shared))
	for i, v := range shared {
		lIdx[i] = l.ColIdx(v)
		rIdx[i] = r.ColIdx(v)
	}
	// Output schema: all of l, then r's non-shared.
	outVars := append([]string{}, l.Vars...)
	var rExtra []int
	for i, v := range r.Vars {
		if l.ColIdx(v) < 0 {
			outVars = append(outVars, v)
			rExtra = append(rExtra, i)
		}
	}
	out := NewRel(outVars...)

	type key string
	build := make(map[key][]int32, l.Len())
	var kb []byte
	mkKey := func(rel *Rel, idx []int, row int) key {
		kb = kb[:0]
		for _, ci := range idx {
			kb = appendOIDKey(kb, rel.Cols[ci][row])
		}
		return key(kb)
	}
	for i := 0; i < l.Len(); i++ {
		k := mkKey(l, lIdx, i)
		build[k] = append(build[k], int32(i))
	}
	buf := make([]dict.OID, 0, len(outVars))
	for j := 0; j < r.Len(); j++ {
		k := mkKey(r, rIdx, j)
		for _, i := range build[k] {
			buf = l.Row(int(i), buf)
			for _, ci := range rExtra {
				buf = append(buf, r.Cols[ci][j])
			}
			out.AppendRow(buf...)
		}
	}
	return out
}

// SemiJoinRange filters rel to rows whose keyVar column lies inside the
// OID range [lo,hi] by a pass over already-materialized rows. The
// planner does not use it: range restrictions, cross-table ones
// included, run inside the scan as selection-vector predicates. It is
// the filter-the-copy baseline of BenchmarkScan_SelectivePredicate.
func SemiJoinRange(rel *Rel, keyVar string, lo, hi dict.OID) *Rel {
	ci := rel.ColIdx(keyVar)
	if ci < 0 {
		return rel
	}
	var keep []int32
	for i := 0; i < rel.Len(); i++ {
		v := rel.Cols[ci][i]
		if v >= lo && v <= hi {
			keep = append(keep, int32(i))
		}
	}
	return rel.Select(keep)
}

// Union concatenates relations with identical schemas (column order may
// differ; vars are matched by name).
func Union(rels ...*Rel) *Rel {
	var first *Rel
	for _, r := range rels {
		if r != nil {
			first = r
			break
		}
	}
	if first == nil {
		return NewRel()
	}
	out := NewRel(first.Vars...)
	for _, r := range rels {
		if r == nil || r.Len() == 0 {
			continue
		}
		perm := make([]int, len(out.Vars))
		for i, v := range out.Vars {
			perm[i] = r.ColIdx(v)
		}
		for i := 0; i < r.Len(); i++ {
			for ci, p := range perm {
				if p < 0 {
					out.Cols[ci] = append(out.Cols[ci], dict.Nil)
				} else {
					out.Cols[ci] = append(out.Cols[ci], r.Cols[p][i])
				}
			}
		}
	}
	return out
}
