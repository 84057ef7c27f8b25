package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/rdfh"
)

// term is one result cell as a SPARQL JSON result carries it. Type is
// "uri", "literal" or "bnode"; Datatype is empty for plain strings; an
// unbound cell is the zero term.
type term struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype"`
}

// answer is a query result in variable order.
type answer struct {
	Vars []string
	Rows [][]term
}

// col returns the index of variable v, or -1.
func (a *answer) col(v string) int {
	for i, n := range a.Vars {
		if n == v {
			return i
		}
	}
	return -1
}

// termOfDict converts a library-side term to its JSON-result form.
func termOfDict(t dict.Term) term {
	switch t.Kind {
	case dict.KindIRI:
		return term{Type: "uri", Value: t.Value}
	case dict.KindBlank:
		return term{Type: "bnode", Value: t.Value}
	}
	dt := t.Datatype
	if dt == dict.XSDString {
		dt = ""
	}
	return term{Type: "literal", Value: t.Value, Datatype: dt}
}

// termOfValue converts a computed value (aggregate, arithmetic), which
// carries no dictionary OID, the way a SPARQL serializer types it.
func termOfValue(v dict.Value) term {
	switch v.Kind {
	case dict.VInvalid:
		return term{}
	case dict.VBool:
		return term{Type: "literal", Value: v.Lexical(), Datatype: dict.XSDBool}
	case dict.VInt:
		return term{Type: "literal", Value: v.Lexical(), Datatype: dict.XSDInt}
	case dict.VFloat:
		return term{Type: "literal", Value: v.Lexical(), Datatype: dict.XSDDouble}
	case dict.VDate:
		return term{Type: "literal", Value: v.Lexical(), Datatype: dict.XSDDate}
	case dict.VDateTime:
		return term{Type: "literal", Value: v.Lexical(), Datatype: dict.XSDDateTm}
	}
	return term{Type: "literal", Value: v.Str}
}

// shape is one kind of read request.
type shape int

const (
	shQ1 shape = iota
	shQ3
	shQ5
	shQ6
	shPoint
	shSelect
	numShapes
)

var shapeNames = [numShapes]string{"Q1", "Q3", "Q5", "Q6", "point", "select"}

func (s shape) String() string { return shapeNames[s] }

// mixWeights is the read mix in requests per 100. Q1 is exec-heavy
// (tens of ms), so it is rare, but frequent enough that the p99 lands
// inside its latency band rather than on its edge. Point lookups are so
// large a share that the median request is a point lookup nothing
// delayed even on serve-trickle, where a rebuild stalls every reader for
// about a fifth of the time and the other shapes run several times
// slower once the store has a delta layer.
var mixWeights = [numShapes]int{shQ1: 2, shQ3: 2, shQ5: 2, shQ6: 2, shPoint: 88, shSelect: 4}

// selMinQty makes the row-heavy selection return about 6% of the
// lineitems (about a thousand rows at the benchmark's scale).
const selMinQty = 48

// selectQuery is the row-heavy lineitem selection.
var selectQuery = fmt.Sprintf(`PREFIX rdfh: <%s>
SELECT ?li ?q ?ep WHERE { ?li rdfh:lineitem_quantity ?q . ?li rdfh:lineitem_extendedprice ?ep . FILTER (?q >= %d) }`,
	rdfh.NS, selMinQty)

// pointQuery returns every property of one subject.
func pointQuery(iri string) string {
	return "SELECT ?p ?v WHERE { <" + iri + "> ?p ?v }"
}

// request is one entry of the seeded read sequence.
type request struct {
	shape shape
	key   int // order key of a point lookup
	text  string
	query string // URL-escaped text
}

// buildMix draws n requests. Every block of 100 consecutive requests
// holds exactly mixWeights of each shape in seeded order, so a phase's
// share of heavy queries does not depend on the draw. Point lookups draw
// their order key from a Zipf distribution over a seeded permutation of
// the keys, so hot keys repeat (plan-cache hits) and cold keys are fresh
// query texts (misses).
func buildMix(seed int64, n, nOrders int) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	perm := rng.Perm(nOrders)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(nOrders-1))
	var block []shape
	for s, w := range mixWeights {
		for k := 0; k < w; k++ {
			block = append(block, shape(s))
		}
	}
	fixed := [numShapes]string{shQ1: rdfh.Q1(), shQ3: rdfh.Q3(), shQ5: rdfh.Q5(), shQ6: rdfh.Q6(), shSelect: selectQuery}
	var escaped [numShapes]string
	for s, t := range fixed {
		escaped[s] = url.QueryEscape(t)
	}
	out := make([]request, n)
	for i := range out {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		s := block[i%len(block)]
		r := request{shape: s, text: fixed[s], query: escaped[s]}
		if s == shPoint {
			r.key = perm[zipf.Uint64()] + 1
			r.text = pointQuery(rdfh.OrderIRI(r.key))
			r.query = url.QueryEscape(r.text)
		}
		out[i] = r
	}
	return out
}

// oracle holds the expected answers of one generated database.
type oracle struct {
	d        *rdfh.Data
	q1       []rdfh.Q1Row
	q3       []rdfh.Q3Row
	q5       []rdfh.Q5Row
	q6       float64
	selCount int
}

func newOracle(d *rdfh.Data) *oracle {
	o := &oracle{d: d, q1: rdfh.RefQ1(d), q3: rdfh.RefQ3(d), q5: rdfh.RefQ5(d), q6: rdfh.RefQ6(d)}
	for i := range d.Lineitems {
		if d.Lineitems[i].Quantity >= selMinQty {
			o.selCount++
		}
	}
	return o
}

// check validates one answer; the error says what was wrong.
func (o *oracle) check(r request, a *answer) error {
	switch r.shape {
	case shQ1:
		return o.checkQ1(a)
	case shQ3:
		return o.checkQ3(a)
	case shQ5:
		return o.checkQ5(a)
	case shQ6:
		return o.checkQ6(a)
	case shPoint:
		return checkProps(a, orderProps(&o.d.Orders[r.key-1]))
	case shSelect:
		return o.checkSelect(a)
	}
	return fmt.Errorf("unknown shape %d", r.shape)
}

// near compares floats to a relative tolerance that absorbs summation
// order (the store aggregates in clustered order, the reference in
// generation order).
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
}

// cells fetches the named columns, failing on a missing variable.
func cells(a *answer, vars ...string) ([]int, error) {
	idx := make([]int, len(vars))
	for i, v := range vars {
		if idx[i] = a.col(v); idx[i] < 0 {
			return nil, fmt.Errorf("result lacks ?%s (vars %v)", v, a.Vars)
		}
	}
	return idx, nil
}

func num(t term) (float64, error) { return strconv.ParseFloat(t.Value, 64) }

func (o *oracle) checkQ1(a *answer) error {
	c, err := cells(a, "rf", "ls", "sum_qty", "sum_base", "sum_disc", "n")
	if err != nil {
		return err
	}
	if len(a.Rows) != len(o.q1) {
		return fmt.Errorf("Q1: %d groups, want %d", len(a.Rows), len(o.q1))
	}
	for i, row := range a.Rows {
		w := o.q1[i]
		qty, e1 := num(row[c[2]])
		base, e2 := num(row[c[3]])
		disc, e3 := num(row[c[4]])
		n, e4 := num(row[c[5]])
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil {
			return fmt.Errorf("Q1 row %d: non-numeric aggregate %v", i, row)
		}
		if row[c[0]].Value != w.ReturnFlag || row[c[1]].Value != w.LineStatus ||
			int64(qty) != w.SumQty || int(n) != w.Count || !near(base, w.SumBase) || !near(disc, w.SumDisc) {
			return fmt.Errorf("Q1 row %d: got %v, want %+v", i, row, w)
		}
	}
	return nil
}

func (o *oracle) checkQ3(a *answer) error {
	c, err := cells(a, "o", "revenue", "od")
	if err != nil {
		return err
	}
	if len(a.Rows) != len(o.q3) {
		return fmt.Errorf("Q3: %d rows, want %d", len(a.Rows), len(o.q3))
	}
	for i, row := range a.Rows {
		w := o.q3[i]
		rev, err := num(row[c[1]])
		if err != nil || row[c[0]].Value != rdfh.OrderIRI(w.OrderKey) ||
			row[c[2]].Value != dict.FormatDate(w.OrderDate) || !near(rev, w.Revenue) {
			return fmt.Errorf("Q3 row %d: got %v, want %+v", i, row, w)
		}
	}
	return nil
}

func (o *oracle) checkQ5(a *answer) error {
	c, err := cells(a, "nn", "revenue")
	if err != nil {
		return err
	}
	if len(a.Rows) != len(o.q5) {
		return fmt.Errorf("Q5: %d rows, want %d", len(a.Rows), len(o.q5))
	}
	for i, row := range a.Rows {
		w := o.q5[i]
		rev, err := num(row[c[1]])
		if err != nil || row[c[0]].Value != w.Nation || !near(rev, w.Revenue) {
			return fmt.Errorf("Q5 row %d: got %v, want %+v", i, row, w)
		}
	}
	return nil
}

func (o *oracle) checkQ6(a *answer) error {
	c, err := cells(a, "revenue")
	if err != nil {
		return err
	}
	if len(a.Rows) != 1 {
		return fmt.Errorf("Q6: %d rows, want 1", len(a.Rows))
	}
	rev, err := num(a.Rows[0][c[0]])
	if err != nil || !near(rev, o.q6) {
		return fmt.Errorf("Q6: got %v, want %v", a.Rows[0][c[0]], o.q6)
	}
	return nil
}

func (o *oracle) checkSelect(a *answer) error {
	c, err := cells(a, "li", "q", "ep")
	if err != nil {
		return err
	}
	if len(a.Rows) != o.selCount {
		return fmt.Errorf("select: %d rows, want %d", len(a.Rows), o.selCount)
	}
	for i, row := range a.Rows {
		q, err := num(row[c[1]])
		if err != nil || q < selMinQty || row[c[0]].Type != "uri" {
			return fmt.Errorf("select row %d: %v fails ?q >= %d", i, row, selMinQty)
		}
	}
	return nil
}

// prop is one (predicate, object) pair of a subject.
type prop struct {
	P string
	O term
}

func propOf(t nt.Triple) prop { return prop{P: t.P.Value, O: termOfDict(t.O)} }

// orderProps is the property set rdfh emits for an order.
func orderProps(o *rdfh.Order) []prop {
	date := dict.DateLit(dict.FormatDate(o.OrderDate))
	oi := dict.IRI(rdfh.OrderIRI(o.Key))
	ts := []nt.Triple{
		{S: oi, P: dict.IRI(rdfh.POrdCust), O: dict.IRI(rdfh.CustomerIRI(o.CustKey))},
		{S: oi, P: dict.IRI(rdfh.POrdStatus), O: dict.StringLit(o.Status)},
		{S: oi, P: dict.IRI(rdfh.POrdTotal), O: dict.FloatLit(o.TotalPrice)},
		{S: oi, P: dict.IRI(rdfh.POrdDate), O: date},
		{S: oi, P: dict.IRI(rdfh.POrdPriority), O: dict.StringLit(o.Priority)},
		{S: oi, P: dict.IRI(rdfh.POrdShipPri), O: dict.IntLit(int64(o.ShipPriority))},
	}
	out := make([]prop, len(ts))
	for i, t := range ts {
		out[i] = propOf(t)
	}
	return out
}

// lineitemTriples is the full property set rdfh emits for a lineitem.
func lineitemTriples(l *rdfh.Lineitem) []nt.Triple {
	s := dict.IRI(rdfh.LineitemIRI(l.OrderKey, l.LineNumber))
	date := func(days int64) dict.Term { return dict.DateLit(dict.FormatDate(days)) }
	po := func(p string, o dict.Term) nt.Triple { return nt.Triple{S: s, P: dict.IRI(p), O: o} }
	return []nt.Triple{
		po(rdfh.PLiOrder, dict.IRI(rdfh.OrderIRI(l.OrderKey))),
		po(rdfh.PLiPart, dict.IRI(rdfh.PartIRI(l.PartKey))),
		po(rdfh.PLiSupp, dict.IRI(rdfh.SupplierIRI(l.SuppKey))),
		po(rdfh.PLiLineNo, dict.IntLit(int64(l.LineNumber))),
		po(rdfh.PLiQty, dict.IntLit(int64(l.Quantity))),
		po(rdfh.PLiPrice, dict.FloatLit(l.ExtendedPrice)),
		po(rdfh.PLiDiscount, dict.FloatLit(l.Discount)),
		po(rdfh.PLiTax, dict.FloatLit(l.Tax)),
		po(rdfh.PLiRetFlag, dict.StringLit(l.ReturnFlag)),
		po(rdfh.PLiStatus, dict.StringLit(l.LineStatus)),
		po(rdfh.PLiShipDate, date(l.ShipDate)),
		po(rdfh.PLiCommit, date(l.CommitDate)),
		po(rdfh.PLiReceipt, date(l.ReceiptDate)),
		po(rdfh.PLiShipMode, dict.StringLit(l.ShipMode)),
	}
}

// checkProps requires the ?p ?v answer to be exactly the property set.
func checkProps(a *answer, want []prop) error {
	c, err := cells(a, "p", "v")
	if err != nil {
		return err
	}
	got := make([]prop, len(a.Rows))
	for i, row := range a.Rows {
		got[i] = prop{P: row[c[0]].Value, O: row[c[1]]}
	}
	less := func(ps []prop) func(i, j int) bool {
		return func(i, j int) bool {
			if ps[i].P != ps[j].P {
				return ps[i].P < ps[j].P
			}
			return ps[i].O.Value < ps[j].O.Value
		}
	}
	w := append([]prop(nil), want...)
	sort.Slice(got, less(got))
	sort.Slice(w, less(w))
	if len(got) != len(w) {
		return fmt.Errorf("%d properties, want %d: %v", len(got), len(w), got)
	}
	for i := range w {
		if got[i] != w[i] {
			return fmt.Errorf("property %d: got %+v, want %+v", i, got[i], w[i])
		}
	}
	return nil
}
