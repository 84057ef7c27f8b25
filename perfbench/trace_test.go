package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{ID: 1, Name: "loadgen.request", Start: 0, End: 100 * us},
		// overlapping children count once
		{ID: 2, Parent: 1, Name: "server.handler", Start: 10 * us, End: 30 * us},
		{ID: 3, Parent: 1, Name: "server.handler", Start: 20 * us, End: 50 * us},
		// a child running past its parent counts only inside it
		{ID: 4, Parent: 1, Name: "core.open", Start: 90 * us, End: 120 * us},
		{ID: 5, Parent: 3, Name: "exec.drain", Start: 25 * us, End: 45 * us},
		{ID: 6, Name: "nt.parse", Start: 200 * us, End: 260 * us},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 50 * us, 2: 20 * us, 3: 10 * us, 4: 30 * us, 5: 20 * us, 6: 60 * us} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
	layers := layerSelf(spans)
	for l, want := range map[string]time.Duration{"loadgen": 50 * us, "server": 30 * us, "core": 30 * us, "exec": 20 * us, "nt": 60 * us} {
		if layers[l] != want {
			t.Errorf("layer %s: self %v, want %v", l, layers[l], want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin("core.open", "r1", 0)
	if d := sp.end(); d != 0 || tr.snapshot() != nil {
		t.Fatalf("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("loadgen.request", "r1", 0)
	child := tr.begin("server.handler", "r1", root.id)
	child.end()
	root.end()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Parent != spans[1].ID || spans[0].Req != "r1" {
		t.Fatalf("spans %+v: want a handler child of the request", spans)
	}
}
