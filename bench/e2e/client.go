package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxConns caps the load generator's connections to the host's two
// cores: the client shares the machine with the servers it measures.
const maxConns = 2

// client is the benchmark's single HTTP client. It records the count and
// total client-side time of every call per path, which the traced run
// sets against the server's own handler time.
type client struct {
	hc *http.Client

	mu    sync.Mutex
	calls map[string]*callStat
}

type callStat struct {
	n     int
	total time.Duration
}

func newClient() *client {
	return &client{
		hc: &http.Client{
			Timeout: 150 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     maxConns,
				MaxIdleConnsPerHost: maxConns,
				DisableCompression:  true,
			},
		},
		calls: map[string]*callStat{},
	}
}

// do sends one request and decodes a 2xx JSON body into out (when out is
// non-nil). stat names the path the call is accounted under.
func (c *client) do(ctx context.Context, method, url, stat string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	elapsed := time.Since(start)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, stat, err)
	}
	c.mu.Lock()
	cs := c.calls[stat]
	if cs == nil {
		cs = &callStat{}
		c.calls[stat] = cs
	}
	cs.n++
	cs.total += elapsed
	c.mu.Unlock()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, stat, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, stat, err)
		}
	}
	return nil
}

// callTotals returns the summed call count and client time over paths.
func (c *client) callTotals(paths []string) (int, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int
	var total time.Duration
	for _, p := range paths {
		if cs := c.calls[p]; cs != nil {
			n += cs.n
			total += cs.total
		}
	}
	return n, total
}

// scrape is one parsed Prometheus text exposition: series (name plus
// label set, as printed) to value.
type scrape map[string]float64

// getMetrics fetches and parses base/metrics.
func (c *client) getMetrics(ctx context.Context, base string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads Prometheus text format; comments and histogram
// buckets (which the benchmark never reads) are skipped.
func parseMetrics(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		series := line[:i]
		if strings.Contains(series, "_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s[series] = v
	}
	return s, sc.Err()
}

// sum adds the values of every series of metric name whose labels
// include all of the given key="value" pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range s {
		base, lbl, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta returns after minus before for every series in after.
func delta(before, after scrape) scrape {
	d := scrape{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// merge adds the scrapes of several processes series by series.
func merge(all ...scrape) scrape {
	m := scrape{}
	for _, s := range all {
		for k, v := range s {
			m[k] += v
		}
	}
	return m
}
