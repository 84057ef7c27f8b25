package core

import (
	"fmt"
	"strings"
	"testing"

	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/plan"
)

const (
	sizeIRI = "http://w/size"
	madeIRI = "http://w/made"
)

// typedSizeStore is an organized store with one typed table whose
// automatic sort key is the date column e:made; a workload that filters
// e:size should move the key to size.
func typedSizeStore(t *testing.T) *Store {
	t.Helper()
	var b strings.Builder
	b.WriteString("@prefix e: <http://w/> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "e:x%d a e:Thing ; e:made \"19%02d-01-01\"^^xsd:date ; e:size %d .\n", i, 90+(i%9), (i*37)%100)
	}
	s := newTestStore(t, b.String(), 3)
	rep, err := s.Organize()
	if err != nil {
		t.Fatal(err)
	}
	if got := sizeTableKey(t, s, rep); got != madeIRI {
		t.Fatalf("before any workload the sort key is %q, want the automatic %q", got, madeIRI)
	}
	return s
}

// sizeTableKey returns the sort key Organize reported for the table
// holding e:size.
func sizeTableKey(t *testing.T, s *Store, rep OrganizeReport) string {
	t.Helper()
	for _, tab := range s.Catalog().Visible() {
		if tab.ColByName("size") != nil {
			return rep.SortKeys[tab.Name]
		}
	}
	t.Fatal("no table has a size column")
	return ""
}

// runWorkload issues q five times and re-Organizes, returning the sort
// key chosen for the size table.
func runWorkload(t *testing.T, s *Store, q string) string {
	t.Helper()
	for i := 0; i < 5; i++ {
		if _, err := s.Query(q, QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Organize()
	if err != nil {
		t.Fatal(err)
	}
	return sizeTableKey(t, s, rep)
}

// TestWorkloadIgnoresIRIConstant: `?s a e:Thing` constrains rdf:type to
// a resource, not a value; only the FILTERed size column is a workload
// signal, so the type column must not win the sort key.
func TestWorkloadIgnoresIRIConstant(t *testing.T) {
	s := typedSizeStore(t)
	q := `PREFIX e: <http://w/> SELECT ?s WHERE { ?s a e:Thing . ?s e:size ?z . ?s e:made ?m . FILTER (?z >= 40 && ?z < 60) }`
	if got := runWorkload(t, s, q); got != sizeIRI {
		t.Errorf("sort key = %q, want %q", got, sizeIRI)
	}
}

// TestWorkloadSurvivesUnorderedLiterals: a trickle insert that mints
// literals turns range pushdown off, but the FILTERs still count as
// workload on size.
func TestWorkloadSurvivesUnorderedLiterals(t *testing.T) {
	s := typedSizeStore(t)
	x := dict.IRI("http://w/x40")
	for _, tr := range []nt.Triple{
		{S: x, P: dict.IRI(dict.RDFType), O: dict.IRI("http://w/Thing")},
		{S: x, P: dict.IRI(madeIRI), O: dict.DateLit("2001-01-01")},
		{S: x, P: dict.IRI(sizeIRI), O: dict.IntLit(1000)},
	} {
		if err := s.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	if s.literalsOrdered {
		t.Fatal("minting literals after Organize left literalsOrdered set")
	}
	q := `PREFIX e: <http://w/> SELECT ?s WHERE { ?s e:size ?z . ?s e:made ?m . FILTER (?z >= 40 && ?z < 60) }`
	if got := runWorkload(t, s, q); got != sizeIRI {
		t.Errorf("sort key = %q, want %q", got, sizeIRI)
	}
}

// TestWorkloadLiteralConstantCounts: `?s e:size 37` is the same value
// constraint as `?s e:size ?z FILTER(?z = 37)` and steers the sort key
// and the query log's filter columns the same way.
func TestWorkloadLiteralConstantCounts(t *testing.T) {
	for name, q := range map[string]string{
		"constant": `PREFIX e: <http://w/> SELECT ?s ?m WHERE { ?s e:size 37 . ?s e:made ?m . }`,
		"filter":   `PREFIX e: <http://w/> SELECT ?s ?m WHERE { ?s e:size ?z . ?s e:made ?m . FILTER (?z = 37) }`,
	} {
		t.Run(name, func(t *testing.T) {
			s := typedSizeStore(t)
			if got := runWorkload(t, s, q); got != sizeIRI {
				t.Errorf("sort key = %q, want %q", got, sizeIRI)
			}
			fc := s.WorkloadProfile().FilterColumns
			if len(fc) != 1 || fc[sizeIRI] != 5 {
				t.Errorf("filter columns = %v, want only %s x5", fc, sizeIRI)
			}
		})
	}
}
