package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ensemblekit/internal/campaign"
)

// client is the load generator's view of one server: one connection for
// POST/GET and one for the SSE stream, so the load never opens more
// connections than a 2-core host has cores.
type client struct {
	base string
	api  *http.Client
	sse  *http.Client
}

func newClient(base string) *client {
	conn := func() *http.Client {
		return &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	return &client{base: base, api: conn(), sse: conn()}
}

// close drops the idle connections.
func (c *client) close() {
	c.api.CloseIdleConnections()
	c.sse.CloseIdleConnections()
}

// jobEvent is one SSE job event with the time the client received it.
type jobEvent struct {
	campaign.JobEvent
	recv time.Time
}

// campaignRun is what the client saw of one campaign.
type campaignRun struct {
	body []byte
	jobs int // jobs the request expands to
	id   string

	refused bool // POST answered 503

	start    time.Time // POST sent
	posted   time.Time // POST answered
	summary  time.Time // SSE summary received
	resulted time.Time // result GET answered

	events []jobEvent
	sum    campaign.CampaignSummary
	status campaign.CampaignStatus

	calls []call // every HTTP call made for the campaign
}

// call is one timed HTTP call; layer names the module serving it.
type call struct {
	name, layer string
	start, end  time.Time
	bytes       int
}

// record notes a call that started at start and just finished.
func (r *campaignRun) record(name, layer string, start time.Time, bytes int) {
	r.calls = append(r.calls, call{name: name, layer: layer, start: start, end: time.Now(), bytes: bytes})
}

// terminal returns the terminal event of every job, in arrival order.
func (r *campaignRun) terminal() []jobEvent {
	var out []jobEvent
	for _, ev := range r.events {
		if ev.Terminal() {
			out = append(out, ev)
		}
	}
	return out
}

// failedJobs counts the campaign's jobs that did not complete: all of
// them when it was refused, else the failed and cancelled ones.
func (r *campaignRun) failedJobs() int {
	if r.refused {
		return r.jobs
	}
	n := 0
	for _, ev := range r.terminal() {
		if ev.Status == string(campaign.StatusFailed) || ev.Status == string(campaign.StatusCancelled) {
			n++
		}
	}
	return n
}

// run drives one campaign: POST it, follow its SSE stream to the summary
// event, and GET its result.
func (c *client) run(body []byte, jobs int) (*campaignRun, error) {
	r := &campaignRun{body: body, jobs: jobs, start: time.Now()}
	resp, err := c.api.Post(c.base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("POST /v1/campaigns: %w", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.posted = time.Now()
	r.record("POST /v1/campaigns", "campaign.http", r.start, len(b))
	if err != nil {
		return nil, fmt.Errorf("POST /v1/campaigns: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusServiceUnavailable:
		r.refused = true
		return r, nil
	default:
		return nil, fmt.Errorf("POST /v1/campaigns: %s: %s", resp.Status, b)
	}
	var st campaign.CampaignStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("POST /v1/campaigns: %w", err)
	}
	r.id = st.ID
	if err := c.follow(r); err != nil {
		return nil, err
	}
	r.record("GET /v1/campaigns/{id}/events", "campaign.events", r.posted, 0)
	b, err = c.timedGet(r, "/v1/campaigns/"+r.id, "GET /v1/campaigns/{id}", "campaign.http")
	if err != nil {
		return nil, err
	}
	r.resulted = time.Now()
	if err := json.Unmarshal(b, &r.status); err != nil {
		return nil, fmt.Errorf("GET /v1/campaigns/%s: %w", r.id, err)
	}
	if r.status.Status != "done" || r.status.Result == nil {
		return nil, fmt.Errorf("campaign %s ended %q: %s", r.id, r.status.Status, r.status.Error)
	}
	return r, nil
}

// follow reads the campaign's event stream up to its summary event.
func (c *client) follow(r *campaignRun) error {
	resp, err := c.sse.Get(c.base + "/v1/campaigns/" + r.id + "/events")
	if err != nil {
		return fmt.Errorf("GET events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET events: %s: %s", resp.Status, b)
	}
	br := bufio.NewReader(resp.Body)
	var event string
	var data []byte
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("campaign %s: event stream ended before its summary: %w", r.id, err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if event == "" {
				continue
			}
			now := time.Now()
			switch event {
			case "job":
				var ev campaign.JobEvent
				if err := json.Unmarshal(data, &ev); err != nil {
					return fmt.Errorf("campaign %s: job event: %w", r.id, err)
				}
				r.events = append(r.events, jobEvent{JobEvent: ev, recv: now})
			case "summary":
				r.summary = now
				if err := json.Unmarshal(data, &r.sum); err != nil {
					return fmt.Errorf("campaign %s: summary event: %w", r.id, err)
				}
				_, _ = io.Copy(io.Discard, br) // let the connection be reused
				return nil
			default:
				return fmt.Errorf("campaign %s: %s event: %s", r.id, event, data)
			}
			event, data = "", nil
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data, line[len("data: "):]...)
		}
	}
}

// get fetches path over the API connection and returns the body.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.api.Get(c.base + path)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, b)
	}
	return b, nil
}

// timedGet is get, recorded as one of r's calls.
func (c *client) timedGet(r *campaignRun, path, name, layer string) ([]byte, error) {
	start := time.Now()
	b, err := c.get(path)
	r.record(name, layer, start, len(b))
	return b, err
}

func (c *client) getJSON(path string, v any) error {
	b, err := c.get(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// stats is the subset of GET /v1/stats the benchmark reads.
type stats struct {
	Submitted    int64 `json:"submitted"`
	CacheHits    int64 `json:"cacheHits"`
	DiskHits     int64 `json:"diskHits"`
	FleetHits    int64 `json:"fleetHits"`
	CacheMisses  int64 `json:"cacheMisses"`
	Dedups       int64 `json:"dedups"`
	Rejected     int64 `json:"rejected"`
	CacheCorrupt int64 `json:"cacheCorrupt"`
	Workers      int   `json:"workers"`
	CacheBytes   int64 `json:"cacheBytes"`
}

// sub returns the counter deltas s - o (gauges keep s's value).
func (s stats) sub(o stats) stats {
	s.Submitted -= o.Submitted
	s.CacheHits -= o.CacheHits
	s.DiskHits -= o.DiskHits
	s.FleetHits -= o.FleetHits
	s.CacheMisses -= o.CacheMisses
	s.Dedups -= o.Dedups
	s.Rejected -= o.Rejected
	s.CacheCorrupt -= o.CacheCorrupt
	return s
}

// families sums every sample of each metric family in a Prometheus text
// scrape, over all label sets. Histogram series keep their _bucket,
// _sum and _count suffixes as family names.
func families(scrape []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(scrape), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[name] += v
	}
	if len(out) == 0 {
		return nil, errors.New("metrics: empty scrape")
	}
	return out, nil
}
