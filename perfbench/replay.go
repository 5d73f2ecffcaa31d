package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ensemblekit/internal/campaign"
	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/campaign/journal"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/scheduler"
	"ensemblekit/internal/telemetry/tracing"
	"ensemblekit/internal/trace"
)

// tracer holds the traced run's state: the benchmark's spans, the
// per-layer accumulators, and the in-process stand-ins for the layers
// the replay calls (a shared World, a broadcaster with one draining
// subscriber, a scratch journal for durable workloads).
type tracer struct {
	b     *bench
	c     *client
	ref   *reference
	spans spanLog

	world  *runtime.World
	bridge *tracing.Tracer // receives the DES->span bridge output
	events *campaign.Broadcaster
	sub    chan struct{} // closed when the draining subscriber exits
	wal    *journal.Journal

	acc       accum
	firstJob  *trace.EnsembleTrace // a replayed job's trace, written next to the spans for traceview
	failures  []string             // replayed objectives that differ from the reference, journal errors
	famBefore map[string]float64
	famLast   map[string]float64

	// The reference result of the last body, reused while the body
	// repeats (warm-resubmit sends one body throughout).
	lastBody []byte
	lastRef  *campaign.CampaignResult
}

// accum sums what the replay and the counter reads measured.
type accum struct {
	campaigns, jobs, executed int

	decode, expand, hash, canonical, run, bridge, derive time.Duration
	fromTrace, appendT, publish                          time.Duration
	hashes, fromTraces, appends, publishes               int
	desEvents, bridged, planReused, fpEligible           int64

	postMS, resultMS, scrapeMS, lagMS, waitMS, execMS []float64
	scrapeBytes, sseEvents                            int
	spentCoreS                                        float64
	campaignWall                                      time.Duration
}

// tracedRun makes an untraced run and then a traced run of the same
// campaigns on a fresh server, reports the per-layer metrics of the
// traced run, and prints the tracing overhead (traced minus untraced
// end-to-end values).
func (b *bench) tracedRun() (*result, error) {
	srv, c, setup, err := b.start()
	if err != nil {
		return nil, err
	}
	err = b.warmup(c)
	var plain *load
	if err == nil {
		plain, err = b.load(srv, c, 0, nil)
	}
	c.close()
	srv.stop()
	if err != nil {
		return nil, err
	}

	srv, c, setup2, err := b.start()
	if err != nil {
		return nil, err
	}
	t, err := newTracer(b, c)
	if err == nil {
		err = b.warmup(c)
	}
	var traced *load
	if err == nil {
		t.famBefore, err = t.scrape(nil)
	}
	if err == nil {
		traced, err = b.load(srv, c, len(plain.runs), t.after)
	}
	c.close()
	srv.stop()
	if t != nil {
		t.close()
	}
	if err != nil {
		return nil, err
	}

	chk, err := b.check(t.ref, plain, "untraced load")
	if err != nil {
		return nil, err
	}
	chk2, err := b.check(t.ref, traced, "traced load")
	if err != nil {
		return nil, err
	}
	for _, m := range t.failures {
		chk2.bad = append(chk2.bad, m)
		fmt.Printf("  CHECK FAILED: %s\n", m)
	}
	base, err := endToEnd(plain, chk, setup.Seconds())
	if err != nil {
		return nil, err
	}
	withTrace, err := endToEnd(traced, chk2, setup2.Seconds())
	if err != nil {
		return nil, err
	}
	base.print(b.plan, 1)
	printOverhead(b.plan.workload, base, withTrace)

	printLayerTable(t.layerRows())
	metrics, err := t.metrics(traced)
	if err != nil {
		return nil, err
	}
	printLayerMetrics(metrics)
	if b.plan.intended != nil {
		printMix(b.plan.intended, traced.statsDelta)
	}
	shape := shapeChecks(b.plan.workload, metrics)
	for _, s := range shape {
		fmt.Printf("  CHECK FAILED: %s\n", s)
	}
	if err := t.writeArtifacts(); err != nil {
		return nil, err
	}
	return &result{
		Correct:   chk.ok() && chk2.ok() && len(shape) == 0,
		Attempted: withTrace.attempted,
		Failed:    withTrace.failed,
		Metrics:   metrics,
	}, nil
}

func newTracer(b *bench, c *client) (*tracer, error) {
	t := &tracer{
		b: b, c: c, ref: newReference(),
		world:  runtime.NewWorld(),
		bridge: tracing.NewTracer(tracing.NewStore(16, 0)),
		events: campaign.NewBroadcaster(4096, 256), // the service defaults
		sub:    make(chan struct{}),
	}
	// One subscriber drains the stream, as the SSE handler does.
	_, ch, _ := t.events.Subscribe()
	go func() {
		defer close(t.sub)
		for range ch {
		}
	}()
	if b.plan.durable {
		wal, _, err := journal.Open(filepath.Join(b.dir, "replay.wal"), 0)
		if err != nil {
			t.close()
			return nil, err
		}
		t.wal = wal
	}
	return t, nil
}

// close stops the subscriber and closes the scratch journal.
func (t *tracer) close() {
	t.events.Close()
	<-t.sub
	if t.wal != nil {
		if err := t.wal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: closing the replay journal: %v\n", err)
		}
	}
}

// scrape reads /metrics, recording the call as one of r's when r is
// set, and returns the summed families.
func (t *tracer) scrape(r *campaignRun) (map[string]float64, error) {
	start := time.Now()
	b, err := t.c.get("/metrics")
	if err != nil {
		return nil, err
	}
	if r != nil {
		r.record("GET /metrics", "telemetry", start, len(b))
		t.acc.scrapeMS = append(t.acc.scrapeMS, ms(time.Since(start)))
		t.acc.scrapeBytes += len(b)
	}
	return families(b)
}

// after runs between two campaigns of the traced load: it reads the
// server's counters, runs the reference, and replays the campaign.
func (t *tracer) after(r *campaignRun) error {
	if r.refused {
		return nil
	}
	t.acc.campaigns++
	t.acc.campaignWall += r.resulted.Sub(r.start)
	var err error
	if _, err = t.c.timedGet(r, "/v1/stats", "GET /v1/stats", "campaign.service"); err != nil {
		return err
	}
	if t.famLast, err = t.scrape(r); err != nil {
		return err
	}
	b, err := t.c.timedGet(r, "/v1/campaigns/"+r.id+"/accounting", "GET /v1/campaigns/{id}/accounting", "campaign.accounting")
	if err != nil {
		return err
	}
	var snap accounting.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return fmt.Errorf("accounting: %w", err)
	}
	t.acc.spentCoreS += snap.Simulated.SpentTotal

	rootIdx, root := t.spans.root("campaign "+r.id, r.start)
	for _, cl := range r.calls {
		t.spans.at(root, cl.name, cl.layer, cl.start, cl.end, tracing.String(sideAttr, sideClient))
		switch cl.name {
		case "POST /v1/campaigns":
			t.acc.postMS = append(t.acc.postMS, ms(cl.end.Sub(cl.start)))
		case "GET /v1/campaigns/{id}":
			t.acc.resultMS = append(t.acc.resultMS, ms(cl.end.Sub(cl.start)))
		}
	}
	for _, ev := range r.events {
		t.acc.sseEvents++
		t.acc.lagMS = append(t.acc.lagMS, ms(ev.recv.Sub(ev.Time)))
		if ev.Terminal() && !ev.CacheHit && ev.Status == string(campaign.StatusDone) {
			t.acc.waitMS = append(t.acc.waitMS, ev.WaitSec*1000)
			t.acc.execMS = append(t.acc.execMS, ev.ExecSec*1000)
		}
	}

	if !bytes.Equal(r.body, t.lastBody) {
		i, _ := t.spans.begin(root, "reference RunCampaign", kindReference)
		t.lastRef, err = runReference(r.body)
		t.spans.end(i)
		if err != nil {
			return err
		}
		if err := t.ref.note(r.body, t.lastRef); err != nil {
			return err
		}
		t.lastBody = r.body
	}
	err = t.replay(root, r, t.lastRef)
	t.spans.setEnd(rootIdx, time.Now())
	return err
}

// replay runs one campaign's request through each layer's public
// functions, one span per call, parented per job: decode and expansion,
// then per job validation and hashing, and for the jobs the server
// executed (its SSE stream says which) the simulation, the span bridge,
// derivation, the ledger, the journal records and the events; jobs it
// served from the cache get the ledger and the event only, as on the
// server.
func (t *tracer) replay(root tracing.SpanID, r *campaignRun, ref *campaign.CampaignResult) error {
	sl := &t.spans
	ri, rid := sl.begin(root, "replay "+r.id, kindReplay)
	defer sl.end(ri)

	executed := make(map[string]bool)
	for _, ev := range r.events {
		if ev.Terminal() {
			executed[ev.Hash] = ev.Status == string(campaign.StatusDone) && !ev.CacheHit
		}
	}
	refResults := make(map[string]*campaign.Result)
	for _, c := range ref.Candidates {
		for i, h := range c.Hashes {
			refResults[h] = c.Results[i]
		}
	}

	i, _ := sl.begin(rid, "CampaignRequest decode", "campaign.http")
	req, err := decode(r.body)
	sl.end(i)
	t.acc.decode += sl.spans[i].Duration()
	if err != nil {
		return err
	}
	i, _ = sl.begin(rid, "Sweep.Jobs", "campaign.planner")
	cands, err := req.Sweep.Jobs()
	sl.end(i)
	t.acc.expand += sl.spans[i].Duration()
	if err != nil {
		return err
	}
	if t.wal != nil {
		t.appendRecord(rid, journal.Record{Type: journal.TypeCampaign, ID: r.id, Name: req.Name, Request: r.body})
	}
	for _, cand := range cands {
		for _, spec := range cand.Specs {
			if err := t.replayJob(rid, r, cand, spec, executed, refResults); err != nil {
				return err
			}
		}
	}
	if t.wal != nil {
		t.appendRecord(rid, journal.Record{Type: journal.TypeCampaignDone, ID: r.id, Status: "done"})
	}
	return nil
}

func (t *tracer) replayJob(parent tracing.SpanID, r *campaignRun, cand campaign.Candidate, spec campaign.JobSpec,
	executed map[string]bool, refResults map[string]*campaign.Result) error {
	sl := &t.spans
	ji, jid := sl.begin(parent, "job "+cand.Label, kindJob)
	defer sl.end(ji)
	t.acc.jobs++

	timed := func(name, kind string, f func() error) (time.Duration, error) {
		i, _ := sl.begin(jid, name, kind)
		err := f()
		sl.end(i)
		return sl.spans[i].Duration(), err
	}
	if _, err := timed("JobSpec.Validate", "campaign.spec", spec.Validate); err != nil {
		return err
	}
	var hash string
	d, err := timed("JobSpec.Hash", "campaign.spec", func() (err error) { hash, err = spec.Hash(); return })
	if err != nil {
		return err
	}
	t.acc.hash += d
	t.acc.hashes++
	var canon []byte
	d, err = timed("JobSpec.CanonicalJSON", "campaign.spec", func() (err error) { canon, err = spec.CanonicalJSON(); return })
	if err != nil {
		return err
	}
	t.acc.canonical += d

	ran, ok := executed[hash]
	if !ok {
		return fmt.Errorf("campaign %s: no terminal event for job %s", r.id, hash)
	}
	want := refResults[hash]
	if want == nil {
		return fmt.Errorf("campaign %s: reference has no result for job %s", r.id, hash)
	}
	ev := campaign.JobEvent{Campaign: r.id, Hash: hash, Label: cand.Label}
	if !ran {
		t.ledger(jid, want.Trace)
		t.publish(jid, ev, campaign.EventCached)
		return nil
	}
	t.acc.executed++
	if t.wal != nil {
		t.appendRecord(jid, journal.Record{Type: journal.TypeEnqueue, Hash: hash, Label: cand.Label, Campaign: r.id, Spec: canon})
	}
	t.publish(jid, ev, string(campaign.StatusQueued))
	t.publish(jid, ev, string(campaign.StatusRunning))

	rec := obs.NewRecorder(nil)
	opts := spec.Sim.Options()
	opts.Faults = spec.Faults
	opts.World = t.world
	opts.Recorder = rec
	var tr *trace.EnsembleTrace
	var info runtime.RunInfo
	anchor := time.Now()
	d, err = timed("runtime.RunSimulatedInfo", "runtime", func() (err error) {
		tr, info, err = runtime.RunSimulatedInfo(spec.Cluster, spec.Placement, spec.Ensemble, opts)
		return
	})
	if err != nil {
		return err
	}
	t.acc.run += d
	t.acc.desEvents += info.DESEvents
	if info.PlanReused {
		t.acc.planReused++
	}
	// The fast path only counts eligibility here; it is not the
	// shipped default.
	probe := spec.Sim.Options()
	probe.Faults = spec.Faults
	probe.World = t.world
	probe.FastPath = true
	if _, err := timed("runtime.RunSimulatedInfo fastpath probe", "runtime", func() error {
		_, pinfo, err := runtime.RunSimulatedInfo(spec.Cluster, spec.Placement, spec.Ensemble, probe)
		if pinfo.FastPath {
			t.acc.fpEligible++
		}
		return err
	}); err != nil {
		return err
	}

	scale := 1.0
	if mk := tr.Makespan(); mk > 0 {
		scale = d.Seconds() / mk
	}
	d, _ = timed("obs.BridgeSpans", "obs+telemetry/tracing", func() error {
		t.acc.bridged += int64(obs.BridgeSpans(t.bridge, sl.context(ji), rec.Events(), anchor, scale))
		return nil
	})
	t.acc.bridge += d

	var objective float64
	d, err = timed("scheduler.Efficiencies+indicators.FullReport", "indicators+core", func() error {
		effs, err := scheduler.Efficiencies(tr)
		if err != nil {
			return err
		}
		rep, err := indicators.FullReport(spec.Placement, effs)
		objective = rep.PerStage[indicators.StageUAP.String()]
		return err
	})
	if err != nil {
		return err
	}
	t.acc.derive += d
	if objective != want.Objective {
		t.failures = append(t.failures, fmt.Sprintf("campaign %s job %s: replayed F(P) %v, reference %v",
			r.id, cand.Label, objective, want.Objective))
	}
	t.ledger(jid, tr)
	if t.wal != nil {
		t.appendRecord(jid, journal.Record{Type: journal.TypeTerminal, Hash: hash, Status: string(campaign.StatusDone)})
	}
	t.publish(jid, ev, string(campaign.StatusDone))
	return nil
}

// ledger times accounting.FromTrace, which the service runs on every
// execution and every cache hit.
func (t *tracer) ledger(parent tracing.SpanID, tr *trace.EnsembleTrace) {
	if t.firstJob == nil {
		t.firstJob = tr
	}
	i, _ := t.spans.begin(parent, "accounting.FromTrace", "campaign.accounting")
	accounting.FromTrace(tr)
	t.spans.end(i)
	t.acc.fromTrace += t.spans.spans[i].Duration()
	t.acc.fromTraces++
}

// publish times one Broadcaster.Publish.
func (t *tracer) publish(parent tracing.SpanID, ev campaign.JobEvent, status string) {
	ev.Status = status
	ev.Time = time.Now()
	i, _ := t.spans.begin(parent, "Broadcaster.Publish", "campaign.events")
	t.events.Publish(ev)
	t.spans.end(i)
	t.acc.publish += t.spans.spans[i].Duration()
	t.acc.publishes++
}

// appendRecord times one fsync'd journal append on the scratch WAL.
func (t *tracer) appendRecord(parent tracing.SpanID, rec journal.Record) {
	i, _ := t.spans.begin(parent, "journal.Append", "campaign.journal")
	err := t.wal.Append(rec)
	t.spans.end(i)
	if err != nil {
		t.failures = append(t.failures, fmt.Sprintf("replay journal append: %v", err))
		return
	}
	t.acc.appendT += t.spans.spans[i].Duration()
	t.acc.appends++
}

// layerRows is the self-time table plus the rows only the server's
// counters describe (queue wait and execution of campaign.service, SSE
// lag of campaign.events).
func (t *tracer) layerRows() map[string]*layerTime {
	rows := selfTimes(t.spans.spans)
	svc := rows["campaign.service"]
	if svc == nil {
		svc = &layerTime{}
		rows["campaign.service"] = svc
	}
	svc.calls += len(t.acc.execMS)
	svc.self += msDur(sum(t.acc.execMS))
	svc.wait += msDur(sum(t.acc.waitMS))
	if ev := rows["campaign.events"]; ev != nil {
		ev.wait += msDur(sum(t.acc.lagMS))
	}
	return rows
}

// metrics computes every per-layer metric of the traced load.
func (t *tracer) metrics(ld *load) (map[string]metric, error) {
	a := &t.acc
	if a.campaigns == 0 || a.jobs == 0 {
		return nil, errors.New("traced run replayed nothing")
	}
	jobs := float64(a.jobs)
	st := ld.statsDelta
	sub := float64(st.Submitted)
	fam := func(name string) float64 { return t.famLast[name] - t.famBefore[name] }
	busy := 0.0
	if w := float64(st.Workers) * a.campaignWall.Seconds(); w > 0 {
		busy = fam("campaign_worker_busy_seconds_total") / w
	}
	vals := map[string]float64{
		"http.post_ms":                    median(a.postMS),
		"http.result_get_ms":              median(a.resultMS),
		"http.request_decode_us":          us(a.decode) / float64(a.campaigns),
		"planner.expand_us_per_job":       us(a.expand) / jobs,
		"spec.hash_us":                    us(a.hash) / float64(a.hashes),
		"spec.canonical_json_us":          us(a.canonical) / float64(a.hashes),
		"cache.memory_hit_ratio":          ratio(float64(st.CacheHits-st.DiskHits-st.FleetHits), sub),
		"cache.disk_hit_ratio":            ratio(float64(st.DiskHits), sub),
		"cache.miss_ratio":                ratio(float64(st.CacheMisses), sub),
		"cache.dedup_ratio":               ratio(float64(st.Dedups), sub),
		"cache.bytes":                     float64(st.CacheBytes),
		"cache.corrupt":                   float64(st.CacheCorrupt),
		"queue.wait_ms_p50":               median(a.waitMS),
		"queue.wait_ms_p99":               quantile(a.waitMS, 0.99),
		"service.exec_ms_p50":             median(a.execMS),
		"service.exec_ms_p99":             quantile(a.execMS, 0.99),
		"worker.busy_frac":                busy,
		"queue.rejected":                  float64(st.Rejected),
		"runtime.run_us_per_job":          us(a.run) / jobs,
		"runtime.des_events_per_job":      float64(a.desEvents) / jobs,
		"runtime.plan_reuse_ratio":        ratio(float64(a.planReused), float64(a.executed)),
		"runtime.fastpath_eligible_ratio": ratio(float64(a.fpEligible), float64(a.executed)),
		"sim.ns_per_event":                ratio(float64(a.run.Nanoseconds()), float64(a.desEvents)),
		"tracing.bridge_us_per_job":       us(a.bridge) / jobs,
		"tracing.spans_per_job":           float64(a.bridged) / jobs,
		"indicators.derive_us_per_job":    us(a.derive) / jobs,
		"accounting.fromtrace_us":         ratio(us(a.fromTrace), float64(a.fromTraces)),
		"accounting.spent_core_s":         a.spentCoreS / float64(a.campaigns),
		"journal.append_us":               ratio(us(a.appendT), float64(a.appends)),
		"journal.appends_per_job":         fam("campaign_journal_appends_total") / jobs,
		"journal.compactions":             fam("campaign_journal_compactions_total"),
		"events.publish_us":               ratio(us(a.publish), float64(a.publishes)),
		"sse.events_per_job":              float64(a.sseEvents) / jobs,
		"sse.lag_ms_p99":                  quantile(a.lagMS, 0.99),
		"events.dropped":                  fam("campaign_event_subscribers_dropped_total"),
		"telemetry.scrape_ms":             median(a.scrapeMS),
		"telemetry.scrape_bytes":          float64(a.scrapeBytes) / float64(len(a.scrapeMS)),
	}
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", m.name)
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out, nil
}

// shapeChecks enforces the counts that make each workload what it says
// it is; a violation fails the run.
func shapeChecks(workload string, m map[string]metric) []string {
	type want struct {
		name string
		ok   func(float64) bool
		desc string
	}
	checks := []want{
		{"cache.corrupt", func(v float64) bool { return v == 0 }, "= 0"},
		{"events.dropped", func(v float64) bool { return v == 0 }, "= 0"},
	}
	switch workload {
	case warmResubmit:
		checks = append(checks,
			want{"runtime.des_events_per_job", func(v float64) bool { return v == 0 }, "= 0"},
			want{"cache.memory_hit_ratio", func(v float64) bool { return v == 1 }, "= 1"})
	case coldSweep:
		checks = append(checks, want{"cache.miss_ratio", func(v float64) bool { return v == 1 }, "= 1"})
	case durableMixed:
		checks = append(checks,
			want{"runtime.fastpath_eligible_ratio", func(v float64) bool { return v == 0 }, "= 0"},
			want{"journal.appends_per_job", func(v float64) bool { return v > 0 }, "> 0"})
	}
	var bad []string
	for _, c := range checks {
		if v := m[c.name].Value; !c.ok(v) {
			bad = append(bad, fmt.Sprintf("%s: %s = %v, want %s", workload, c.name, v, c.desc))
		}
	}
	return bad
}

// printOverhead prints traced minus untraced end-to-end values.
func printOverhead(workload string, base, traced *e2e) {
	d := func(name string, a, b float64) string {
		return fmt.Sprintf("%s %+.4f (%+.1f%%)", name, b-a, 100*(b-a)/a)
	}
	fmt.Printf("  tracing overhead %s (traced - untraced, same campaigns): %s, %s, %s, %s, %s\n", workload,
		d("jobs_per_s", base.jobsPerS, traced.jobsPerS),
		d("campaign_ms_p50", base.campaignP50, traced.campaignP50),
		d("job_ms_p50", base.jobP50, traced.jobP50),
		d("job_ms_p99", base.jobP99, traced.jobP99),
		d("cpu_ms_per_job", base.cpuPerJob, traced.cpuPerJob))
}

// printLayerMetrics prints each per-layer metric with its prediction.
func printLayerMetrics(m map[string]metric) {
	fmt.Printf("  per-layer metrics (layer, value, the end-to-end metric it should move, most / least work):\n")
	for _, l := range layerMetrics {
		fmt.Printf("    %-22s %-32s %14.4f %-7s moves %-16s most %s / least %s\n",
			l.layer, l.name, m[l.name].Value, l.unit, l.moves, l.most, l.least)
	}
}

// writeArtifacts writes the spans (OTLP/JSON) and one replayed job's
// trace, the pair cmd/traceview -spans opens.
func (t *tracer) writeArtifacts() error {
	spansPath := filepath.Join(t.b.dir, "spans.otlp.json")
	if err := t.spans.write(spansPath); err != nil {
		return err
	}
	fmt.Printf("  trace artifact: %s (%d spans)\n", spansPath, len(t.spans.spans))
	if t.firstJob == nil {
		return nil
	}
	tracePath := filepath.Join(t.b.dir, "job-trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := t.firstJob.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  open with: go run ./cmd/traceview -spans %s %s\n", spansPath, tracePath)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
