package main

import (
	"encoding/json"
	"strings"
	"testing"

	"ensemblekit/internal/campaign"
	"ensemblekit/internal/runtime"
)

// table24 is a one-seed Table 2 + Table 4 campaign: small enough for a
// unit test, and subject to the pinned orderings.
func table24(t *testing.T) ([]byte, *campaign.CampaignResult) {
	t.Helper()
	body := encode(campaign.CampaignRequest{Sweep: campaign.Sweep{
		Name: "check-test", Placements: paperConfigs(), Steps: runtime.PaperSteps,
	}})
	res, err := runReference(body)
	if err != nil {
		t.Fatal(err)
	}
	return body, res
}

// roundTrip returns a deep copy of res as a client decodes it.
func roundTrip(t *testing.T, res *campaign.CampaignResult) *campaign.CampaignResult {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var out campaign.CampaignResult
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestCheckFailsTamperedResult(t *testing.T) {
	body, res := table24(t)
	want, err := newReference().of(body)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan{workload: warmResubmit}
	run := func(r *campaign.CampaignResult) *campaignRun {
		return &campaignRun{body: body, jobs: r.Jobs, id: "c-1",
			status: campaign.CampaignStatus{Status: "done", Result: r}}
	}

	if err := p.verify(run(roundTrip(t, res)), want); err != nil {
		t.Fatalf("untampered result (after a JSON round trip) fails its check: %v", err)
	}

	tampered := roundTrip(t, res)
	tampered.Candidates[3].Objective *= 1.0000001
	ld := &load{runs: []*campaignRun{run(roundTrip(t, res)), run(tampered)}}
	chk, err := (&bench{plan: p}).check(newReference(), ld, "test")
	if err != nil {
		t.Fatal(err)
	}
	if chk.ok() || len(chk.bad) != 1 || !strings.Contains(chk.bad[0], "fingerprint") {
		t.Fatalf("tampered objective not caught: %+v", chk)
	}
	if chk.badJobs != tampered.Jobs {
		t.Fatalf("failed check counts %d jobs, want the campaign's %d", chk.badJobs, tampered.Jobs)
	}
}

func TestCheckOrderings(t *testing.T) {
	_, res := table24(t)
	if err := checkOrderings(res.Ranking); err != nil {
		t.Fatalf("reference ranking fails the pinned orderings: %v", err)
	}
	swap := func(a, b string) *campaign.CampaignResult {
		r := roundTrip(t, res)
		var ia, ib int
		for i, x := range r.Ranking {
			switch x.Name {
			case a:
				ia = i
			case b:
				ib = i
			}
		}
		r.Ranking[ia], r.Ranking[ib] = r.Ranking[ib], r.Ranking[ia]
		return r
	}
	for _, pair := range [][2]string{{"C1.5", "C1.4"}, {"C1.4", "C1.1"}, {"C2.8", "C2.1"}} {
		bad := swap(pair[0], pair[1])
		// Verify against the tampered result's own fingerprint, so only
		// the ordering check can catch it.
		fp, err := bad.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if err := verify(bad, fp, true); err == nil {
			t.Errorf("swapping %s and %s passes the ordering check", pair[0], pair[1])
		}
	}
}
