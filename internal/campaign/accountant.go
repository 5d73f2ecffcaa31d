package campaign

import (
	"sync"

	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/runtime"
)

// How a finished job's result reached this service, recorded on the job
// by runRouted and consulted by finish for ledger attribution.
const (
	// servedLocal: executed by this node's own worker (also the
	// fabric-less default).
	servedLocal = ""
	// servedFleet: answered by the owning peer's cache — the fleet tier.
	servedFleet = "fleet"
	// servedForward: executed by the owning peer on our behalf. The
	// campaign is charged here; the cores are accounted on the owner.
	servedForward = "forward"
)

// accountant owns the service's resource ledgers: one per campaign
// (attributing every submission of the campaign, wherever it resolved)
// and one for the node (attributing executions and cache serves that
// happened here — the scope pool federation sums). It also carries the
// RunInfo side channel from defaultRun to finish, keyed by result hash,
// because the runFn signature cannot grow an extra return.
type accountant struct {
	node *accounting.Ledger

	mu        sync.Mutex
	campaigns map[string]*accounting.Ledger
	runInfo   map[string]runtime.RunInfo
}

func newAccountant() *accountant {
	return &accountant{
		node:      accounting.NewLedger(),
		campaigns: make(map[string]*accounting.Ledger),
		runInfo:   make(map[string]runtime.RunInfo),
	}
}

// campaign returns the ledger for a campaign ID, creating it on first
// use; nil for untagged submissions (tracked on the node ledger only).
func (a *accountant) campaign(id string) *accounting.Ledger {
	if id == "" {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	l, ok := a.campaigns[id]
	if !ok {
		l = accounting.NewLedger()
		a.campaigns[id] = l
	}
	return l
}

// lookup returns the ledger for an existing campaign without creating it.
func (a *accountant) lookup(id string) (*accounting.Ledger, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	l, ok := a.campaigns[id]
	return l, ok
}

// drop forgets a campaign's ledger; the HTTP server calls it when it
// evicts a finished campaign.
func (a *accountant) drop(id string) {
	a.mu.Lock()
	delete(a.campaigns, id)
	a.mu.Unlock()
}

// noteRunInfo stashes how an execution was served (fast path, plan
// reuse) until the job's finish — or the forward handler — claims it.
func (a *accountant) noteRunInfo(hash string, info runtime.RunInfo) {
	a.mu.Lock()
	a.runInfo[hash] = info
	a.mu.Unlock()
}

// takeRunInfo claims (and removes) the stashed RunInfo for a hash.
func (a *accountant) takeRunInfo(hash string) (runtime.RunInfo, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	info, ok := a.runInfo[hash]
	if ok {
		delete(a.runInfo, hash)
	}
	return info, ok
}

// acctSpent charges one executed submission: always to the campaign
// ledger; and — when the cores burned on this node (onNode) — to the
// node ledger and the campaign_core_seconds_total metric family. A
// forwarded execution passes onNode=false: the owner accounts the cores
// through its own ExecuteForwardedJSON.
func (s *Service) acctSpent(campaignID, hash string, jl accounting.JobLedger, onNode bool) {
	if l := s.acct.campaign(campaignID); l != nil {
		l.RecordSpent(hash, jl)
	}
	if !onNode {
		return
	}
	s.acct.node.RecordSpent(hash, jl)
	classes := accounting.Classes()
	for i, sp := range jl.Splits() {
		s.metrics.coreSeconds.With(classes[i], "busy").Add(sp.Busy)
		s.metrics.coreSeconds.With(classes[i], "idle").Add(sp.Idle)
	}
}

// acctSaved credits one avoided submission to tier, on the campaign and
// node ledgers and the campaign_core_seconds_saved_total family. The
// node scope is the node the submission resolved on — the one whose
// cache (or closed form) did the avoiding.
func (s *Service) acctSaved(campaignID, hash string, jl accounting.JobLedger, tier string) {
	if l := s.acct.campaign(campaignID); l != nil {
		l.RecordSaved(hash, jl, tier)
	}
	s.acct.node.RecordSaved(hash, jl, tier)
	s.metrics.coreSaved.With(tier).Add(jl.Total())
}

// acctWall accumulates worker-execution and queue-wait wall seconds.
func (s *Service) acctWall(campaignID string, workerSec, waitSec float64) {
	if l := s.acct.campaign(campaignID); l != nil {
		l.RecordWall(workerSec, waitSec)
	}
	s.acct.node.RecordWall(workerSec, waitSec)
}

// acctRetryWaste accumulates wall seconds burned by a failed attempt
// that the retry policy re-enqueued.
func (s *Service) acctRetryWaste(campaignID string, sec float64) {
	if l := s.acct.campaign(campaignID); l != nil {
		l.RecordRetryWaste(sec)
	}
	s.acct.node.RecordRetryWaste(sec)
}

// acctFinish attributes a terminal job. Called by finish after the job
// mutex is released and before the service lock is taken; the ledgers
// have their own locks and the snapshot summation is order-independent,
// so concurrent completions need no extra serialization.
func (s *Service) acctFinish(j *Job, res *Result, status Status, started bool, served string, execSec, waitSec float64) {
	if started {
		s.acctWall(j.campaign, execSec, waitSec)
	}
	// Claim the RunInfo stash regardless of outcome so a cancelled-
	// mid-run completion cannot leak its entry.
	info, hasInfo := s.acct.takeRunInfo(j.Hash)
	if status != StatusDone || res == nil {
		return
	}
	jl := accounting.FromTrace(res.Trace)
	switch served {
	case servedFleet:
		s.acctSaved(j.campaign, j.Hash, jl, accounting.TierFleet)
	case servedForward:
		s.acctSpent(j.campaign, j.Hash, jl, false)
	default:
		s.acctSpent(j.campaign, j.Hash, jl, true)
		if hasInfo {
			if info.FastPath {
				s.acctSaved(j.campaign, j.Hash, jl, accounting.TierFastPath)
			}
			if info.PlanReused {
				s.acctSaved(j.campaign, j.Hash, jl, accounting.TierPlanCache)
			}
		}
	}
}

// CampaignAccounting returns the resource-ledger snapshot of one
// campaign: every submission carrying that campaign tag, attributed as
// spent (executed, locally or via a peer) or saved (served by a cache
// tier), plus overlapping plan-cache and fast-path credits and the
// wall-clock cost. ok is false for a campaign the ledger has never seen.
func (s *Service) CampaignAccounting(id string) (accounting.Snapshot, bool) {
	l, ok := s.acct.lookup(id)
	if !ok {
		return accounting.Snapshot{}, false
	}
	return l.Snapshot(), true
}

// NodeAccounting returns this node's resource-ledger snapshot: the
// core-seconds executed on this node's workers (including forwarded
// work it performed for peers) and the core-seconds its tiers avoided.
// Pool federation sums these per-node snapshots into the fleet rollup.
func (s *Service) NodeAccounting() accounting.Snapshot {
	return s.acct.node.Snapshot()
}
