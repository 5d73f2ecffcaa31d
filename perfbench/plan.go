package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"ensemblekit/internal/campaign"
)

// mix is a share of submissions per cache outcome.
type mix struct{ memory, disk, miss float64 }

// plan is a workload bound to a seed: what the server is started with
// and which request bodies it receives, in order.
type plan struct {
	workload string
	seed     int64
	why      string
	flagsDoc string

	durable  bool     // -state-dir and a sized memory tier
	prime    []byte   // POSTed as part of every set-up (warm-resubmit)
	warmup   [][]byte // POSTed before the timed load, untimed (durable-mixed)
	intended *mix     // the cache mix the seeds are chosen for

	cacheBytes int64 // durable-mixed's -cache-bytes
	next       func(k int) campaign.CampaignRequest
}

// whys are the one-line reasons each workload exists (also in
// BENCHMARK.json).
var whys = map[string]string{
	coldSweep:    "Every job misses the cache: DES, tracing bridge, derivation and ledger do the work; fast-path-shaped jobs show fast-path policy changes.",
	warmResubmit: "Every job is a memory-tier hit: no simulation, so decode, hash, cache lookup, ledger-on-hit, bookkeeping and SSE are the whole cost.",
	durableMixed: "Journal fsyncs, disk-cache envelopes, eviction, faults and resilience; jitter and faults bypass the fast path; 1/2 miss, 1/4 memory, 1/4 disk.",
}

// newPlan binds a workload name to a seed.
func newPlan(workload string, seed int64) (*plan, error) {
	p := &plan{workload: workload, seed: seed, why: whys[workload], flagsDoc: "-addr 127.0.0.1:<free port>"}
	switch workload {
	case coldSweep:
		p.next = func(k int) campaign.CampaignRequest { return coldRequest(seed, k) }
	case warmResubmit:
		req := warmRequest(seed)
		p.prime = encode(req)
		p.next = func(int) campaign.CampaignRequest { return req }
		p.flagsDoc += "; set-up includes one priming POST of the campaign"
	case durableMixed:
		p.durable = true
		for _, req := range durablePriming(seed) {
			p.warmup = append(p.warmup, encode(req))
		}
		p.intended = &mix{memory: 0.25, disk: 0.25, miss: 0.5}
		p.next = func(k int) campaign.CampaignRequest { return durableRequest(seed, k) }
		p.flagsDoc += fmt.Sprintf(" -state-dir <fresh dir> -cache-bytes <%d results>; %d untimed priming campaigns",
			durableMemEntries, len(p.warmup))
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", workload, coldSweep, warmResubmit, durableMixed)
	}
	return p, nil
}

// campaign returns the body of timed campaign k and its job count.
func (p *plan) campaign(k int) ([]byte, int, error) {
	req := p.next(k)
	n, err := jobCount(req)
	if err != nil {
		return nil, 0, fmt.Errorf("generated campaign %d: %w", k, err)
	}
	return encode(req), n, nil
}

// serverArgs returns the deployment flags for a server whose durable
// state, if any, lives in stateDir.
func (p *plan) serverArgs(stateDir string) ([]string, error) {
	if !p.durable {
		return nil, nil
	}
	if p.cacheBytes == 0 {
		b, err := calibrateCacheBytes(p.seed)
		if err != nil {
			return nil, err
		}
		p.cacheBytes = b
	}
	return []string{"-state-dir", stateDir, "-cache-bytes", strconv.FormatInt(p.cacheBytes, 10)}, nil
}

// calibrateCacheBytes sizes durable-mixed's memory tier to hold
// durableMemEntries results, using the byte estimate the service itself
// charges: it runs the first priming campaign of each stream through an
// in-process service and reads the memory tier's bytes per entry.
func calibrateCacheBytes(seed int64) (int64, error) {
	svc, err := campaign.NewService(campaign.Config{})
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	for _, k := range []int{-2 * durableDepth, -2*durableDepth + 1} {
		if _, err := campaign.RunCampaign(context.Background(), svc, durableRequest(seed, k).Sweep); err != nil {
			return 0, fmt.Errorf("calibrating the memory tier: %w", err)
		}
	}
	st := svc.Stats()
	if st.CacheEntries == 0 {
		return 0, errors.New("calibrating the memory tier: nothing cached")
	}
	return st.CacheBytes / int64(st.CacheEntries) * durableMemEntries, nil
}

// runUntimed drives a priming or warm-up campaign, which must complete
// with every job done.
func (p *plan) runUntimed(c *client, body []byte) (*campaignRun, error) {
	req, err := decode(body)
	if err != nil {
		return nil, err
	}
	n, err := jobCount(req)
	if err != nil {
		return nil, err
	}
	r, err := c.run(body, n)
	if err != nil {
		return nil, err
	}
	if r.refused || r.failedJobs() > 0 || r.status.Result.Failed > 0 {
		return nil, fmt.Errorf("campaign %s did not complete cleanly", r.id)
	}
	return r, nil
}

// verify checks one campaign's result against the reference
// fingerprint, plus the pinned orderings on Table 2/4 campaigns.
func (p *plan) verify(r *campaignRun, want string) error {
	req, err := decode(r.body)
	if err != nil {
		return err
	}
	return verify(r.status.Result, want, pinned(p.workload, req))
}

// orderNote names the ordering check in the correctness line.
func (p *plan) orderNote() string {
	switch p.workload {
	case warmResubmit:
		return "; every campaign keeps the pinned Table 2/4 orderings"
	case durableMixed:
		return "; fault-free campaigns keep the pinned Table 2/4 orderings"
	}
	return ""
}
