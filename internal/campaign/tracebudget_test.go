package campaign

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/telemetry"
	"ensemblekit/internal/telemetry/tracing"
)

// TestTracedCampaignKeepsEveryJob runs a 60-job traced campaign whose
// DES detail (~800 spans per 37-step job) far exceeds one trace's span
// cap. The subtree budget must keep the service spans of every job, so
// each job still has a critical path and the campaign span is retained,
// while the first jobs keep their full DES subtree.
func TestTracedCampaignKeepsEveryJob(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts, svc := newTracedServer(t, Config{Metrics: reg})

	st := postCampaign(t, ts, `{"configs":["table2","table4"],"seeds":[1,2,3,4],"steps":37}`)
	final := pollCampaign(t, ts, st.ID)
	if final.Status != "done" || final.Result == nil {
		t.Fatalf("campaign: %+v", final)
	}
	var jobIDs []string
	for _, c := range final.Result.Candidates {
		jobIDs = append(jobIDs, c.JobIDs...)
	}
	if len(jobIDs) != 60 {
		t.Fatalf("campaign ran %d jobs, want 60", len(jobIDs))
	}
	for _, id := range jobIDs {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/critical-path")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /v1/jobs/%s/critical-path: HTTP %d, want 200", id, resp.StatusCode)
		}
	}

	spans := getSpans(t, ts, jobIDs[0], "campaign")
	children := map[tracing.SpanID][]tracing.SpanData{}
	for _, d := range spans {
		children[d.Parent] = append(children[d.Parent], d)
	}
	// hasStage reports whether execute span id carries the
	// execute -> component -> stage:* subtree (job depth >= 4).
	hasStage := func(id tracing.SpanID) bool {
		for _, c := range children[id] {
			if c.Kind != "component" {
				continue
			}
			for _, s := range children[c.SpanID] {
				if strings.HasPrefix(s.Kind, "stage:") {
					return true
				}
			}
		}
		return false
	}
	var execs, bridged int
	var first tracing.SpanData
	for _, d := range spans {
		if d.Kind != "execute" {
			continue
		}
		execs++
		if first.Kind == "" || d.Start.Before(first.Start) {
			first = d
		}
		b, ok := attrBool(d, "des.bridged")
		if !ok {
			t.Errorf("execute span %s has no des.bridged attribute", d.SpanID)
			continue
		}
		if b != hasStage(d.SpanID) {
			t.Errorf("execute span %s: des.bridged=%v but stage spans present=%v", d.SpanID, b, !b)
		}
		if b {
			bridged++
		}
	}
	if execs != 60 {
		t.Fatalf("trace holds %d execute spans, want 60", execs)
	}
	if b, _ := attrBool(first, "des.bridged"); !b {
		t.Error("the first job to execute has no DES subtree")
	}
	if bridged == 0 || bridged == execs {
		t.Fatalf("%d of %d jobs bridged; the budget should keep some and close", bridged, execs)
	}
	if got := tracing.Depth(spans); got < 4 {
		t.Errorf("span tree depth %d, want >= 4", got)
	}
	if st := svc.Tracer().Store(); st.Dropped() == 0 {
		t.Error("the refused subtree was not counted as dropped")
	}
	if got, want := svc.metrics.desUnbridged.Value(), float64(execs-bridged); got != want {
		t.Errorf("campaign_des_unbridged_total = %v, want %v", got, want)
	}
}

func attrBool(d tracing.SpanData, key string) (v, ok bool) {
	for _, a := range d.Attrs {
		if a.Key == key {
			v, ok = a.Value.(bool)
			return v, ok
		}
	}
	return false, false
}

// missSpec is the 37-step C1.5 job the traced-miss guards execute.
func missSpec(tb testing.TB) JobSpec {
	tb.Helper()
	p := placement.C15()
	js, err := NewJob(cluster.Cori(2), p, runtime.SpecForPlacement(p, 37), runtime.SimOptions{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return js
}

// closedBudget returns a tracer and a job context in a trace whose
// subtree budget is already closed, as it is for the later jobs of a
// large traced campaign.
func closedBudget(tb testing.TB) (*tracing.Tracer, context.Context) {
	tb.Helper()
	tr := tracing.NewTracer(tracing.NewStore(0, 0))
	ctx, job := tr.StartSpan(context.Background(), "job", "job")
	sc := job.Context()
	sub := tr.NewSubtree(sc, 0)
	now := time.Now()
	for i := 0; i <= tracing.DefaultMaxSpansPerTrace/2; i++ {
		sub.SpanAt(sc, "c", "component", now, now)
	}
	if sub.Commit() != 0 || tr.SubtreeRoom(sc) != 0 {
		tb.Fatal("oversized subtree did not close the budget")
	}
	return tr, ctx
}

// tracedMiss executes spec as a worker does: under a fresh execute span
// of ctx's trace (untraced when tr is nil).
func tracedMiss(tb testing.TB, ctx context.Context, tr *tracing.Tracer, spec JobSpec, h execHints) bool {
	ctx, span := tr.StartSpan(ctx, "execute", "execute")
	_, _, unbridged, err := executeTracedHinted(ctx, tr, spec, h)
	span.End()
	if err != nil {
		tb.Fatal(err)
	}
	return unbridged
}

// BenchmarkTracedMiss measures one traced cache miss of the 37-step C1.5
// job: into a fresh trace (recorder attached, DES subtree bridged), into
// a trace whose subtree budget is closed (the untraced run plus the
// execute span's attributes), and untraced.
func BenchmarkTracedMiss(b *testing.B) {
	spec := missSpec(b)
	h := execHints{world: runtime.NewWorld()}
	b.Run("fresh-trace", func(b *testing.B) {
		tr := tracing.NewTracer(tracing.NewStore(0, 0))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx, job := tr.StartSpan(context.Background(), "job", "job")
			if tracedMiss(b, ctx, tr, spec, h) {
				b.Fatal("a fresh trace refused the DES subtree")
			}
			job.End()
		}
	})
	b.Run("closed-budget", func(b *testing.B) {
		tr, ctx := closedBudget(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tracedMiss(b, ctx, tr, spec, h)
		}
	})
	b.Run("untraced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tracedMiss(b, context.Background(), nil, spec, h)
		}
	})
}

// tracedMissAllocMargin bounds how many more allocations a traced miss
// into a closed subtree budget may make than the same miss untraced: the
// execute span and its attributes (measured: 180 against 173, Go 1.24,
// linux/amd64). Recording and bridging DES spans the store would refuse
// costs thousands more. Under -race, sync.Pool drops pooled items at
// random and the difference varies (5 to 11 measured), so the race
// build gets a wider margin.
const (
	tracedMissAllocMargin     = 16
	tracedMissAllocMarginRace = 32
)

func TestTracedMissClosedBudgetAllocs(t *testing.T) {
	spec := missSpec(t)
	h := execHints{world: runtime.NewWorld()}
	tr, ctx := closedBudget(t)
	if !tracedMiss(t, ctx, tr, spec, h) {
		t.Fatal("a traced DES run into a closed budget was not reported unbridged")
	}
	untraced := testing.AllocsPerRun(20, func() { tracedMiss(t, context.Background(), nil, spec, h) })
	closed := testing.AllocsPerRun(20, func() { tracedMiss(t, ctx, tr, spec, h) })
	margin := tracedMissAllocMargin
	if raceEnabled {
		margin = tracedMissAllocMarginRace
	}
	if closed > untraced+float64(margin) {
		t.Fatalf("traced miss into a closed budget allocates %.0f times, untraced %.0f, margin %d",
			closed, untraced, margin)
	}
	t.Logf("traced miss, closed budget: %.0f allocs; untraced: %.0f (margin %d)", closed, untraced, margin)
}
