package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: Name is "<layer>.<call>", Parent
// the id of the span that caused it (0 for a root), Req the request the
// span belongs to. Start and End are offsets from the tracer's origin.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay only a nil check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	nextID int64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a span that has started but not ended.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	req    string
	start  time.Time
}

// begin starts a span; end it with openSpan.end.
func (t *tracer) begin(name, req string, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return openSpan{t: t, id: id, parent: parent, name: name, req: req, start: time.Now()}
}

// end records the span and returns its duration (0 on a nil tracer).
func (o openSpan) end() time.Duration {
	if o.t == nil {
		return 0
	}
	now := time.Now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, span{
		ID: o.id, Parent: o.parent, Name: o.name, Req: o.req,
		Start: o.start.Sub(o.t.origin), End: now.Sub(o.t.origin),
	})
	o.t.mu.Unlock()
	return now.Sub(o.start)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children count once; a child
// running past its parent counts only inside the parent), keyed by id.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		curLo, curHi := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// layerOf is the layer prefix of a span name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[layerOf(s.Name)] += self[s.ID]
	}
	return out
}
