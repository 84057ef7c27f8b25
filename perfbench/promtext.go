package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// series maps a Prometheus series, labels included (as printed, e.g.
// `srdf_queries_total{status="ok"}`), to its value.
type series map[string]float64

// parseMetrics reads the Prometheus text exposition format.
func parseMetrics(text string) (series, error) {
	out := series{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrape fetches /metrics from the public endpoint.
func scrape(hc *http.Client, base string) (series, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(b.String())
}

// delta is after[name] - before[name].
func delta(before, after series, name string) float64 { return after[name] - before[name] }

// phaseCounters are the counter deltas of one load phase.
type phaseCounters struct {
	CacheHits, CacheMisses   float64
	ScanRows, ResultRows     float64
	PoolFaults, PoolEvicts   float64
	OK, Rejected, OtherFails float64
}

func countersBetween(before, after series) phaseCounters {
	c := phaseCounters{
		CacheHits:   delta(before, after, "srdf_plan_cache_hits_total"),
		CacheMisses: delta(before, after, "srdf_plan_cache_misses_total"),
		ScanRows:    delta(before, after, "srdf_exec_scan_rows_total"),
		ResultRows:  delta(before, after, "srdf_result_rows_total"),
		PoolFaults:  delta(before, after, "srdf_pool_faults_total"),
		PoolEvicts:  delta(before, after, "srdf_pool_evictions_total"),
		OK:          delta(before, after, `srdf_queries_total{status="ok"}`),
		Rejected:    delta(before, after, `srdf_queries_total{status="rejected"}`),
	}
	for name := range after {
		if strings.HasPrefix(name, "srdf_queries_total{") &&
			name != `srdf_queries_total{status="ok"}` && name != `srdf_queries_total{status="rejected"}` {
			c.OtherFails += delta(before, after, name)
		}
	}
	return c
}

func (c *phaseCounters) add(o phaseCounters) {
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.ScanRows += o.ScanRows
	c.ResultRows += o.ResultRows
	c.PoolFaults += o.PoolFaults
	c.PoolEvicts += o.PoolEvicts
	c.OK += o.OK
	c.Rejected += o.Rejected
	c.OtherFails += o.OtherFails
}

// String gives every ratio with its base and every count as a count.
func (c phaseCounters) String() string {
	lookups := c.CacheHits + c.CacheMisses
	return fmt.Sprintf("plan_cache hit_ratio=%.4f (hits=%.0f of lookups=%.0f) scan_rows_per_result_row=%.2f (scan_rows=%.0f result_rows=%.0f) pool faults=%.0f evictions=%.0f queries ok=%.0f rejected=%.0f other_failed=%.0f",
		ratio(c.CacheHits, lookups), c.CacheHits, lookups,
		ratio(c.ScanRows, c.ResultRows), c.ScanRows, c.ResultRows,
		c.PoolFaults, c.PoolEvicts, c.OK, c.Rejected, c.OtherFails)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
