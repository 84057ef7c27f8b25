package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"testing"

	"srdf"
	"srdf/internal/nt"
	"srdf/internal/rdfh"
)

func clone(a *answer) *answer {
	c := &answer{Vars: a.Vars}
	for _, row := range a.Rows {
		c.Rows = append(c.Rows, append([]term(nil), row...))
	}
	return c
}

func TestOracleAcceptsTheStoreAndRejectsPerturbedAnswers(t *testing.T) {
	d := rdfh.Generate(0.001, 7)
	o := newOracle(d)
	st := srdf.New(srdf.Defaults())
	d.Emit(func(tr nt.Triple) { st.Add(tr) })
	if _, err := st.Organize(); err != nil {
		t.Fatal(err)
	}
	answers := map[shape]*answer{}
	reqs := map[shape]request{}
	for sh := shape(0); sh < numShapes; sh++ {
		req := fixedRequest(sh)
		if sh == shPoint {
			req = request{shape: shPoint, key: 3, text: pointQuery(rdfh.OrderIRI(3))}
		}
		a, err := libQuery(context.Background(), st, req.text)
		if err != nil {
			t.Fatalf("%s: %v", sh, err)
		}
		if err := o.check(req, a); err != nil {
			t.Fatalf("%s: the store's answer fails the oracle: %v", sh, err)
		}
		answers[sh], reqs[sh] = a, req
	}
	if len(answers[shQ3].Rows) < 2 || len(answers[shSelect].Rows) == 0 {
		t.Fatalf("data too small to perturb: Q3 %d rows, select %d rows", len(answers[shQ3].Rows), len(answers[shSelect].Rows))
	}

	scale := func(tm *term, f float64) {
		v, _ := strconv.ParseFloat(tm.Value, 64)
		tm.Value = strconv.FormatFloat(v*f, 'g', -1, 64)
	}
	perturb := map[string]struct {
		sh shape
		f  func(a *answer)
	}{
		"Q6 revenue +0.1%":  {shQ6, func(a *answer) { scale(&a.Rows[0][0], 1.001) }},
		"Q1 count +1":       {shQ1, func(a *answer) { a.Rows[0][a.col("n")].Value = "1" + a.Rows[0][a.col("n")].Value }},
		"Q1 group missing":  {shQ1, func(a *answer) { a.Rows = a.Rows[1:] }},
		"Q3 rows swapped":   {shQ3, func(a *answer) { a.Rows[0], a.Rows[1] = a.Rows[1], a.Rows[0] }},
		"Q5 nation renamed": {shQ5, func(a *answer) { a.Rows[0][a.col("nn")].Value += "X" }},
		"point value wrong": {shPoint, func(a *answer) { a.Rows[0][a.col("v")].Value += "0" }},
		"point prop lost":   {shPoint, func(a *answer) { a.Rows = a.Rows[1:] }},
		"select row lost":   {shSelect, func(a *answer) { a.Rows = a.Rows[1:] }},
	}
	for name, p := range perturb {
		a := clone(answers[p.sh])
		p.f(a)
		if err := o.check(reqs[p.sh], a); err == nil {
			t.Errorf("%s: oracle accepted the perturbed answer", name)
		}
	}
}

func TestWritesAreVisibleAndLeaveTheReadMixUnchanged(t *testing.T) {
	d := rdfh.Generate(0.001, 3)
	o := newOracle(d)
	st := srdf.New(srdf.Defaults())
	d.Emit(func(tr nt.Triple) { st.Add(tr) })
	if _, err := st.Organize(); err != nil {
		t.Fatal(err)
	}
	before := st.NumTriples()
	r := &run{seed: 3, metrics: map[string]metric{}}
	read := func(text string) (*answer, error) { return libQuery(context.Background(), st, text) }
	ws := r.probeWrites(st, d, read)
	if r.failed.Load() != 0 || len(ws.visible) != probeWrites {
		t.Fatalf("%d of %d writes failed to become visible", r.failed.Load(), probeWrites)
	}
	r.checkFinalTriples(st, before, ws.applied)
	if r.failed.Load() != 0 {
		t.Fatalf("triple count off after %d writes", ws.applied)
	}
	for sh := shape(0); sh < numShapes; sh++ {
		req := fixedRequest(sh)
		if sh == shPoint {
			req = request{shape: shPoint, key: 5, text: pointQuery(rdfh.OrderIRI(5))}
		}
		a, err := read(req.text)
		if err == nil {
			err = o.check(req, a)
		}
		if err != nil {
			t.Errorf("%s after writes: %v", sh, err)
		}
	}
}

func TestMixIsSeeded(t *testing.T) {
	a, b, c := buildMix(4, 500, 100), buildMix(4, 500, 100), buildMix(5, 500, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different mix")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same mix")
	}
	for start := 0; start+100 <= len(a); start += 100 {
		var n [numShapes]int
		for _, r := range a[start : start+100] {
			n[r.shape]++
		}
		if n != mixWeights {
			t.Fatalf("requests %d..%d hold %v, want %v", start, start+99, n, mixWeights)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metric
// names equal to what the program runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(spec.Workloads), workloads},
		{"end_to_end", names(spec.EndToEnd), e2eMetrics},
		{"per_layer", names(spec.PerLayer), layerMetrics},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, program has %v", c.what, c.got, c.want)
		}
	}
}
