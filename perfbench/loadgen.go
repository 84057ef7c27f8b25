package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the load generators; tests substitute a
// fake one to inject stalls deterministically.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// op is one request: i is its position in the seeded sequence, due the
// time it was scheduled for (zero in a closed loop). It reports whether
// the request succeeded and returned the right answer.
type op func(i int, due time.Time) bool

// loadStats is what one load phase did.
type loadStats struct {
	Sent, OK, Failed int
	// Lat holds one latency per request: from the due time in an open
	// loop, from the send in a closed loop.
	Lat []time.Duration
	// Seq holds each latency's request number.
	Seq []int
	// LagMax is how far the generator fell behind: in an open loop, the
	// most any request started after its due time; in a closed loop, the
	// longest a client took to send its next request after the previous
	// one completed.
	LagMax  time.Duration
	Elapsed time.Duration
}

func (s *loadStats) merge(o loadStats) {
	s.Sent += o.Sent
	s.OK += o.OK
	s.Failed += o.Failed
	s.Lat = append(s.Lat, o.Lat...)
	s.Seq = append(s.Seq, o.Seq...)
	s.LagMax = max(s.LagMax, o.LagMax)
}

// openLoop offers requests at a fixed rate for dur, whatever the system
// does: request i is due at start + i/rate. At most workers requests are
// in flight; a request due while every worker is busy is sent late, and
// its latency still counts from its due time, so a stall shows in every
// request it delays.
func openLoop(c clock, rate float64, dur time.Duration, workers int, do op) loadStats {
	start := c.Now()
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	per := make([]loadStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(st *loadStats) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				c.SleepUntil(due)
				if lag := c.Now().Sub(due); lag > st.LagMax {
					st.LagMax = lag
				}
				ok := do(i, due)
				st.Lat = append(st.Lat, c.Now().Sub(due))
				st.Seq = append(st.Seq, i)
				st.Sent++
				if ok {
					st.OK++
				} else {
					st.Failed++
				}
			}
		}(&per[w])
	}
	wg.Wait()
	var out loadStats
	for _, p := range per {
		out.merge(p)
	}
	out.Elapsed = c.Now().Sub(start)
	return out
}

// closedLoop runs workers clients for dur; each sends its next request
// as soon as the previous one completes. Requests are numbered in one
// shared sequence.
func closedLoop(c clock, dur time.Duration, workers int, do op) loadStats {
	start := c.Now()
	end := start.Add(dur)
	var next atomic.Int64
	per := make([]loadStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(st *loadStats) {
			defer wg.Done()
			var done time.Time
			for c.Now().Before(end) {
				i := int(next.Add(1) - 1)
				t0 := c.Now()
				if !done.IsZero() {
					st.LagMax = max(st.LagMax, t0.Sub(done))
				}
				ok := do(i, time.Time{})
				done = c.Now()
				st.Lat = append(st.Lat, done.Sub(t0))
				st.Seq = append(st.Seq, i)
				st.Sent++
				if ok {
					st.OK++
				} else {
					st.Failed++
				}
			}
		}(&per[w])
	}
	wg.Wait()
	var out loadStats
	for _, p := range per {
		out.merge(p)
	}
	out.Elapsed = c.Now().Sub(start)
	return out
}
