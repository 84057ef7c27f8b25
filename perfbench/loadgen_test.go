package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock only moves when a sleep or a request advances it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestOpenLoopCountsFromDueTimeThroughAStall(t *testing.T) {
	c := &fakeClock{now: time.Unix(1000, 0)}
	ms := time.Millisecond
	// 100 requests/s for 100ms: one due every 10ms. Request 2 stalls
	// for 55ms; the requests due during the stall are sent late.
	got := openLoop(c, 100, 100*ms, 1, func(i int, due time.Time) bool {
		if i == 2 {
			c.advance(55 * ms)
		} else {
			c.advance(ms)
		}
		return i != 9
	})
	want := []time.Duration{1 * ms, 1 * ms, 55 * ms, 46 * ms, 37 * ms, 28 * ms, 19 * ms, 10 * ms, 1 * ms, 1 * ms}
	if got.Sent != 10 || got.OK != 9 || got.Failed != 1 {
		t.Fatalf("sent=%d ok=%d failed=%d, want 10, 9, 1", got.Sent, got.OK, got.Failed)
	}
	for i, d := range got.Lat {
		if got.Seq[i] != i || d != want[i] {
			t.Errorf("request %d (seq %d): latency %v, want %v", i, got.Seq[i], d, want[i])
		}
	}
	if got.LagMax != 45*ms {
		t.Errorf("lag max %v, want 45ms (request 3, due at 30ms, sent at 75ms)", got.LagMax)
	}
	if got.Elapsed != 91*ms {
		t.Errorf("elapsed %v, want 91ms", got.Elapsed)
	}
}

func TestClosedLoopSendsBackToBack(t *testing.T) {
	c := &fakeClock{now: time.Unix(1000, 0)}
	got := closedLoop(c, 10*time.Millisecond, 1, func(i int, _ time.Time) bool {
		c.advance(2 * time.Millisecond)
		return true
	})
	if got.Sent != 5 || got.OK != 5 || got.LagMax != 0 {
		t.Fatalf("sent=%d ok=%d lag=%v, want 5 back-to-back requests", got.Sent, got.OK, got.LagMax)
	}
	for i, d := range got.Lat {
		if d != 2*time.Millisecond || got.Seq[i] != i {
			t.Errorf("request %d: latency %v seq %d", i, d, got.Seq[i])
		}
	}
}
