package campaign

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ensemblekit/internal/placement"
)

// getCode returns the HTTP status of GET path on ts.
func getCode(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// blockingSeed is the seed whose executions the retention tests hold
// until released, so a job or campaign stays live while others finish.
const blockingSeed = 100

// holdingService returns a service whose runs of blockingSeed signal
// started (when non-nil) and then wait for release; every other spec
// executes normally. It also returns the service's HTTP server.
func holdingService(t *testing.T, workers int, started chan<- struct{}, release <-chan struct{}) (*Service, *Server, *httptest.Server) {
	t.Helper()
	svc, err := NewService(Config{
		Workers: workers,
		runFn: func(ctx context.Context, spec JobSpec) (*Result, error) {
			if spec.Sim.Seed == blockingSeed {
				if started != nil {
					started <- struct{}{}
				}
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return Execute(spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := NewServer(svc)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return svc, srv, ts
}

func TestTerminalJobsEvictedOldestFirst(t *testing.T) {
	svc, _, ts := holdingService(t, 1, nil, nil)
	svc.terminal = retention{max: 3}

	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		j, err := svc.SubmitWait(context.Background(), jobFor(t, seed), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// A cache hit is a terminal record too: it displaces the next oldest.
	hit, err := svc.Submit(context.Background(), jobFor(t, 4), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, hit.ID)

	for i, id := range ids {
		want := http.StatusOK
		if i < 2 {
			want = http.StatusNotFound
		}
		if code := getCode(t, ts, "/v1/jobs/"+id); code != want {
			t.Errorf("GET /v1/jobs/%s (terminal #%d) = %d, want %d", id, i+1, code, want)
		}
	}
}

func TestLiveJobsNeverEvicted(t *testing.T) {
	started, release := make(chan struct{}, 1), make(chan struct{})
	svc, _, ts := holdingService(t, 1, started, release)
	svc.terminal = retention{max: 1}

	warm, err := svc.SubmitWait(context.Background(), jobFor(t, 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	running, err := svc.Submit(context.Background(), jobFor(t, blockingSeed), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(context.Background(), jobFor(t, 2), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Far more terminal records than the bound arrive while both wait.
	for i := 0; i < 5; i++ {
		if _, err := svc.Submit(context.Background(), jobFor(t, 1), SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if code := getCode(t, ts, "/v1/jobs/"+warm.ID); code != http.StatusNotFound {
		t.Errorf("oldest terminal job %s: GET = %d, want 404", warm.ID, code)
	}
	for _, j := range []*Job{running, queued} {
		if code := getCode(t, ts, "/v1/jobs/"+j.ID); code != http.StatusOK {
			t.Errorf("%s job %s evicted: GET = %d", j.Status(), j.ID, code)
		}
	}
	if queued.Status() != StatusQueued {
		t.Fatalf("second job is %s, want queued behind the held run", queued.Status())
	}

	close(release)
	for _, j := range []*Job{running, queued} {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Once terminal they are ordinary records: the later one displaced
	// the earlier.
	if _, ok := svc.Job(running.ID); ok {
		t.Errorf("finished job %s kept past the bound", running.ID)
	}
	if _, ok := svc.Job(queued.ID); !ok {
		t.Errorf("most recent terminal job %s evicted", queued.ID)
	}
}

// campaignBody is a one-candidate campaign request at the given seed.
func campaignBody(seed int64) string {
	return fmt.Sprintf(`{"name":"ret","configs":["C1.5"],"steps":4,"seeds":[%d]}`, seed)
}

func TestFinishedCampaignEvicted(t *testing.T) {
	svc, srv, ts := holdingService(t, 2, nil, nil)
	srv.finished = retention{max: 1}

	first := postCampaign(t, ts, campaignBody(1))
	if st := pollCampaign(t, ts, first.ID); st.Status != "done" {
		t.Fatalf("campaign %s: %s", first.ID, st.Status)
	}
	second := postCampaign(t, ts, campaignBody(2))
	if st := pollCampaign(t, ts, second.ID); st.Status != "done" {
		t.Fatalf("campaign %s: %s", second.ID, st.Status)
	}
	for _, path := range []string{"/v1/campaigns/" + first.ID, "/v1/campaigns/" + first.ID + "/accounting"} {
		if code := getCode(t, ts, path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404 after eviction", path, code)
		}
	}
	if _, ok := svc.CampaignAccounting(first.ID); ok {
		t.Errorf("evicted campaign %s kept its ledger", first.ID)
	}
	for _, path := range []string{"/v1/campaigns/" + second.ID, "/v1/campaigns/" + second.ID + "/accounting"} {
		if code := getCode(t, ts, path); code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, code)
		}
	}
	// The kept result is served without the per-seed payloads.
	srv.mu.Lock()
	run := srv.campaigns[second.ID]
	srv.mu.Unlock()
	for _, c := range run.status().Result.Candidates {
		if c.Results != nil || c.Specs != nil {
			t.Errorf("kept campaign %s still pins %d results and %d specs", second.ID, len(c.Results), len(c.Specs))
		}
	}
}

func TestRunningCampaignNeverEvicted(t *testing.T) {
	release := make(chan struct{})
	_, srv, ts := holdingService(t, 2, nil, release)
	srv.finished = retention{max: 1}

	held := postCampaign(t, ts, campaignBody(blockingSeed))
	var done []string
	for seed := int64(1); seed <= 3; seed++ {
		st := postCampaign(t, ts, campaignBody(seed))
		if st := pollCampaign(t, ts, st.ID); st.Status != "done" {
			t.Fatalf("campaign %s: %s", st.ID, st.Status)
		}
		done = append(done, st.ID)
	}
	for _, path := range []string{"/v1/campaigns/" + held.ID, "/v1/campaigns/" + held.ID + "/accounting"} {
		if code := getCode(t, ts, path); code != http.StatusOK {
			t.Errorf("running campaign: GET %s = %d, want 200", path, code)
		}
	}
	if code := getCode(t, ts, "/v1/campaigns/"+done[0]); code != http.StatusNotFound {
		t.Errorf("oldest finished campaign %s: GET = %d, want 404", done[0], code)
	}

	close(release)
	if st := pollCampaign(t, ts, held.ID); st.Status != "done" {
		t.Fatalf("held campaign: %s", st.Status)
	}
	if code := getCode(t, ts, "/v1/campaigns/"+done[2]); code != http.StatusNotFound {
		t.Errorf("campaign %s outlived the bound once the held one finished", done[2])
	}
}

// TestRunCampaignKeepsResultsAndSpecs pins the library contract the
// server's trimming must not leak into: RunCampaign returns every
// candidate's per-seed results and specs.
func TestRunCampaignKeepsResultsAndSpecs(t *testing.T) {
	svc, err := NewService(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	res, err := RunCampaign(context.Background(), svc, Sweep{
		Placements: []placement.Placement{placement.C15(), placement.C14()},
		Seeds:      []int64{1, 2},
		Steps:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if len(c.Results) != 2 || len(c.Specs) != 2 {
			t.Fatalf("%s: %d results, %d specs, want 2 each", c.Label, len(c.Results), len(c.Specs))
		}
		for i, r := range c.Results {
			if r == nil || r.Trace == nil {
				t.Fatalf("%s: seed %d has no result", c.Label, i)
			}
		}
	}
}
