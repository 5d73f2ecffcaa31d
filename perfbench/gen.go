package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"ensemblekit/internal/campaign"
	"ensemblekit/internal/cluster"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
)

// Workload names, as passed to --workload.
const (
	coldSweep    = "cold-sweep"
	warmResubmit = "warm-resubmit"
	durableMixed = "durable-mixed"
)

// Shape of the generated campaigns. The sizes keep one campaign well
// under a second on a 2-core host, so a 15 s run holds enough
// campaigns (and more than 1000 jobs) for a median and a p99 with ten
// samples beyond it.
const (
	// coldPlacements is the number of random placements per cold-sweep
	// campaign; each runs once (one seed). The server's span store keeps
	// at most 8192 spans per trace (one trace per campaign) and DES
	// bridging makes ~800 spans per job, so fewer, larger campaigns
	// keep the server's memory in check.
	coldPlacements = 64
	// coldMaxNodes bounds the nodes a random placement may use; the
	// paper's two-member configurations use at most three.
	coldMaxNodes = 3
	// warmSeeds is the trial count per configuration in warm-resubmit:
	// 15 Table 2/4 configurations x 8 seeds = 120 jobs.
	warmSeeds = 8
	// durableDepth is how many same-stream campaigns back a durable-mixed
	// disk-hit seed was last used. The memory tier holds about
	// durableMemEntries results: a memory-hit seed has at most ~180
	// newer entries in front of it, a disk-hit seed at least ~450 (see
	// durableRequest), so both sides keep a 1.5x margin.
	durableDepth      = 8
	durableMemEntries = 300
)

// faultPlanName labels the recoverable fault plan of durable-mixed.
const faultPlanName = "flaky-straggler"

// durableFaults is durable-mixed's recoverable fault plan: DIMES staging
// operations fail at a 2% rate and member 0's simulation runs 25%
// slow. Plan.Seed stays 0 so each job's seed draws its own failures.
func durableFaults() *faults.Plan {
	return &faults.Plan{
		Name:       faultPlanName,
		Staging:    []faults.StagingFault{{Tier: runtime.TierDimes, Rate: 0.02}},
		Stragglers: []faults.Straggler{{Component: "m0.sim", Factor: 1.25}},
	}
}

// durableResilience retries failed staging operations and drops a
// member that exhausts its budget instead of failing the ensemble. Six
// retries at a 2% failure rate make a drop vanishingly rare (2%^7 per
// operation), so every fault job completes with every member.
func durableResilience() runtime.Resilience {
	return runtime.Resilience{StagingRetries: 6, RetryBackoff: 0.05, Mode: runtime.DropMember}
}

// mixSeed derives a job seed from the run seed and a position, so seeds
// are distinct across runs, streams and campaigns.
func mixSeed(parts ...int64) int64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	return int64(h.Sum64() >> 2) // non-negative, fits a JSON number exactly
}

// paperConfigs returns Table 2 followed by Table 4 (15 configurations).
func paperConfigs() []placement.Placement {
	return append(placement.ConfigsTable2(), placement.ConfigsTable4()...)
}

// randomPlacement draws a Table 2/4-shaped placement: two members, each
// a 16-core simulation with one or two 8-core analyses, every component
// on one of coldMaxNodes nodes. Nodes are relabelled in first-use order
// so the fitted machine has no idle nodes, and draws that oversubscribe
// a node are redrawn, so every result passes placement.Validate.
func randomPlacement(rng *rand.Rand, name string) placement.Placement {
	comp := func(cores int) placement.Component {
		return placement.Component{Nodes: []int{rng.Intn(coldMaxNodes)}, Cores: cores}
	}
	for {
		p := placement.Placement{Name: name}
		for m := 0; m < 2; m++ {
			mem := placement.Member{Simulation: comp(placement.SimCores)}
			for a := 1 + rng.Intn(2); a > 0; a-- {
				mem.Analyses = append(mem.Analyses, comp(placement.AnalysisCores))
			}
			p.Members = append(p.Members, mem)
		}
		p = p.Canonical()
		p.Name = name
		if p.Validate(cluster.Cori(p.M())) == nil {
			return p
		}
	}
}

// coldRequest is the k-th cold-sweep campaign: coldPlacements fresh
// random placements, fault-free, jitter 0, the paper's 37 steps. Every
// placement name is unique in the run, so every job hash is too.
func coldRequest(seed int64, k int) campaign.CampaignRequest {
	rng := rand.New(rand.NewSource(mixSeed(seed, int64(k))))
	sw := campaign.Sweep{
		Name:  fmt.Sprintf("%s/%d/%d", coldSweep, seed, k),
		Steps: runtime.PaperSteps,
		Sim:   campaign.SimConfig{Seed: seed},
	}
	for i := 0; i < coldPlacements; i++ {
		sw.Placements = append(sw.Placements, randomPlacement(rng, fmt.Sprintf("R%d.%d", k, i)))
	}
	return campaign.CampaignRequest{Sweep: sw}
}

// warmRequest is the one warm-resubmit campaign: Table 2 + Table 4 x
// warmSeeds seeds at jitter 0.02 (120 jobs).
func warmRequest(seed int64) campaign.CampaignRequest {
	sw := campaign.Sweep{
		Name:       fmt.Sprintf("%s/%d", warmResubmit, seed),
		Placements: paperConfigs(),
		Steps:      runtime.PaperSteps,
		Sim:        campaign.SimConfig{Jitter: 0.02},
	}
	for i := 0; i < warmSeeds; i++ {
		sw.Seeds = append(sw.Seeds, mixSeed(seed, int64(i)))
	}
	return campaign.CampaignRequest{Sweep: sw}
}

// durableRequest is durable-mixed campaign k (k < 0: priming). Even
// campaigns form the fault-free stream, odd ones the faulted stream;
// campaign k is number i = k/2 of its stream. Its four seeds per
// configuration are two fresh ones, the first fresh seed of the stream's
// previous campaign (still in the memory tier) and the second fresh seed
// of the campaign durableDepth back in the stream (evicted from memory,
// served from disk): 1/2 misses, 1/4 memory hits, 1/4 disk hits. The
// 2*durableDepth priming campaigns carry only their fresh seeds, so the
// first timed campaigns find their hits.
func durableRequest(seed int64, k int) campaign.CampaignRequest {
	stream, i := k&1, k>>1 // floor division keeps priming streams apart
	fresh := func(i, j int) int64 { return mixSeed(seed, int64(stream), int64(i), int64(j)) }
	sw := campaign.Sweep{
		Name:       fmt.Sprintf("%s/%d/%d", durableMixed, seed, k),
		Placements: paperConfigs(),
		Steps:      runtime.PaperSteps,
		Sim:        campaign.SimConfig{Jitter: 0.05},
		Seeds:      []int64{fresh(i, 0), fresh(i, 1)},
	}
	if k >= 0 {
		sw.Seeds = append(sw.Seeds, fresh(i-1, 0), fresh(i-durableDepth, 1))
	}
	if stream == 1 {
		sw.FaultPlans = []*faults.Plan{durableFaults()}
		sw.Sim.Resilience = durableResilience()
	}
	return campaign.CampaignRequest{Sweep: sw}
}

// durablePriming lists the priming campaigns, oldest first.
func durablePriming(seed int64) []campaign.CampaignRequest {
	var out []campaign.CampaignRequest
	for k := -2 * durableDepth; k < 0; k++ {
		out = append(out, durableRequest(seed, k))
	}
	return out
}

// pinned reports whether a campaign must keep the paper's orderings:
// the fault-free Table 2/4 campaigns.
func pinned(workload string, req campaign.CampaignRequest) bool {
	return workload != coldSweep && len(req.FaultPlans) == 0
}

// encode renders a request as the POST body. encoding/json emits struct
// fields in declaration order, so equal requests give equal bytes.
func encode(req campaign.CampaignRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a generated request: %v", err))
	}
	return b
}

// decode parses a POST body the way the server does: unknown fields are
// an error. The generator never uses named configs, so the sweep is
// complete as decoded.
func decode(body []byte) (campaign.CampaignRequest, error) {
	var req campaign.CampaignRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if len(req.Configs) > 0 {
		return req, fmt.Errorf("perfbench: request names configs %v; the benchmark inlines placements", req.Configs)
	}
	return req, nil
}

// jobCount is the number of jobs a request expands to.
func jobCount(req campaign.CampaignRequest) (int, error) {
	cands, err := req.Sweep.Jobs()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, c := range cands {
		n += len(c.Specs)
	}
	return n, nil
}
