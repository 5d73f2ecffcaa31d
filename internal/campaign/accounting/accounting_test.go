package accounting

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"ensemblekit/internal/cluster"
	"ensemblekit/internal/faults"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/trace"
)

// syntheticTrace builds one member with known stage durations and core
// counts: a 2-core simulation running S=10, W=2, I^S=3 per step and a
// 1-core analysis running R=1, A=5, I^A=0.5 per step, for two steps.
func syntheticTrace() *trace.EnsembleTrace {
	mkSteps := func(stages []trace.Stage, durs []float64, origin float64) []trace.StepRecord {
		var steps []trace.StepRecord
		t := origin
		for i := 0; i < 2; i++ {
			var recs []trace.StageRecord
			for j, s := range stages {
				recs = append(recs, trace.StageRecord{Stage: s, Start: t, Duration: durs[j]})
				t += durs[j]
			}
			steps = append(steps, trace.StepRecord{Index: i, Stages: recs})
		}
		return steps
	}
	sim := &trace.ComponentTrace{
		Name: "m0.sim", Kind: trace.KindSimulation, Nodes: []int{0}, Cores: 2,
		Start: 0, End: 30,
		Steps: mkSteps([]trace.Stage{trace.StageS, trace.StageW, trace.StageIS}, []float64{10, 2, 3}, 0),
	}
	an := &trace.ComponentTrace{
		Name: "m0.a0", Kind: trace.KindAnalysis, Nodes: []int{1}, Cores: 1,
		Start: 0, End: 13,
		Steps: mkSteps([]trace.Stage{trace.StageR, trace.StageA, trace.StageIA}, []float64{1, 5, 0.5}, 0),
	}
	return &trace.EnsembleTrace{Members: []*trace.MemberTrace{{
		Index: 0, Simulation: sim, Analyses: []*trace.ComponentTrace{an},
	}}}
}

func TestFromTraceClassAttribution(t *testing.T) {
	l := FromTrace(syntheticTrace())
	// Two steps, durations scaled by component cores.
	want := JobLedger{
		Simulation: Split{Busy: 2 * 10 * 2, Idle: 2 * 3 * 2},
		Analysis:   Split{Busy: 2 * 5 * 1, Idle: 2 * 0.5 * 1},
		Staging:    Split{Busy: 2 * 2 * 2},
		Network:    Split{Busy: 2 * 1 * 1},
	}
	if l != want {
		t.Fatalf("ledger = %+v, want %+v", l, want)
	}
	if got, wantTotal := l.Total(), 40.0+12+10+1+8+2; got != wantTotal {
		t.Fatalf("Total() = %v, want %v", got, wantTotal)
	}
	if l.Busy()+l.Idle() != l.Total() {
		t.Fatalf("Busy+Idle = %v, want %v", l.Busy()+l.Idle(), l.Total())
	}
	// The cache-hit path recomputes the ledger on every hit, so the fold
	// must not allocate.
	tr := syntheticTrace()
	if n := testing.AllocsPerRun(10, func() { FromTrace(tr) }); n != 0 {
		t.Fatalf("FromTrace allocates %v times per call, want 0", n)
	}
}

// TestFromTraceNodelessComponentHoldsNoCores pins the no-nodes rule: a
// component that occupies no node acquires no cores, so its stages
// charge nothing however many cores it declares.
func TestFromTraceNodelessComponentHoldsNoCores(t *testing.T) {
	tr := syntheticTrace()
	want := FromTrace(tr)
	an := *tr.Members[0].Analyses[0]
	an.Name, an.Nodes, an.Cores = "m0.a1", nil, 8
	tr.Members[0].Analyses = append(tr.Members[0].Analyses, &an)
	if got := FromTrace(tr); got != want {
		t.Fatalf("ledger with a node-less component = %+v, want %+v", got, want)
	}
	if got := referenceLedger(tr); got != want {
		t.Fatalf("reference ledger with a node-less component = %+v, want %+v", got, want)
	}
}

// collector is the reference ledger: it folds the trace's obs event
// stream (obs.FromTrace) through per-(class, state) obs.Utilization
// timelines, raised on StageBegin and lowered on StageEnd by the
// component's cores, and reads each class's core-seconds back as the
// timeline's integral. obs.FromTrace's stable ordering puts a
// component's ResourceAcquire (carrying its core count) immediately
// before its ProcStart at the same timestamp.
type collector struct {
	pendingCores float64
	cores        map[string]float64 // component name -> cores
	acc          [4][2]obs.Utilization
}

func (c *collector) observe(e obs.Event) {
	switch e.Kind {
	case obs.ResourceAcquire:
		c.pendingCores = e.Value
	case obs.ProcStart:
		c.cores[e.Subject] = c.pendingCores
		c.pendingCores = 0
	case obs.StageBegin:
		if u := c.accFor(e.Detail); u != nil {
			u.Add(e.T, c.cores[e.Subject])
		}
	case obs.StageEnd:
		if u := c.accFor(e.Detail); u != nil {
			u.Add(e.T, -c.cores[e.Subject])
		}
	}
}

// accFor returns the timeline a stage name charges, or nil.
func (c *collector) accFor(detail string) *obs.Utilization {
	for s := trace.StageS; s <= trace.StageIA; s++ {
		if s.String() != detail {
			continue
		}
		class, busy, ok := classState(s)
		if !ok {
			return nil
		}
		state := 1
		if busy {
			state = 0
		}
		return &c.acc[class][state]
	}
	return nil
}

// referenceLedger computes a job ledger the event-stream way.
func referenceLedger(tr *trace.EnsembleTrace) JobLedger {
	c := &collector{cores: make(map[string]float64)}
	for _, e := range obs.FromTrace(tr) {
		c.observe(e)
	}
	integral := func(u *obs.Utilization) float64 {
		t0, t1 := u.Span()
		return u.MeanOver(t0, t1) * (t1 - t0)
	}
	var l JobLedger
	dst := l.classes()
	for i := range c.acc {
		dst[i].Busy = integral(&c.acc[i][0])
		dst[i].Idle = integral(&c.acc[i][1])
	}
	return l
}

// TestFromTraceMatchesEventReference requires the direct stage-record
// fold to agree with the event-stream reference on every ledger field,
// within 1e-9 relative, across the Table 2 and Table 4 placements, two
// seeds, three jitter levels, and with and without a 5% DIMES staging
// fault rate recovered by three backed-off retries and member drops.
func TestFromTraceMatchesEventReference(t *testing.T) {
	var configs []placement.Placement
	configs = append(configs, placement.ConfigsTable2()...)
	configs = append(configs, placement.ConfigsTable4()...)
	plans := []*faults.Plan{nil, {
		Name:    "dimes-flaky",
		Staging: []faults.StagingFault{{Tier: runtime.TierDimes, Rate: 0.05}},
	}}
	fields, exact, faulted := 0, 0, 0
	worst := 0.0
	for _, p := range configs {
		spec := cluster.Cori(1)
		for _, n := range p.UsedNodes() {
			if n+1 > spec.Nodes {
				spec.Nodes = n + 1
			}
		}
		es := runtime.SpecForPlacement(p, runtime.PaperSteps)
		for _, seed := range []int64{1, 2} {
			for _, jitter := range []float64{0, 0.02, 0.05} {
				var clean JobLedger
				for _, plan := range plans {
					opts := runtime.SimOptions{Jitter: jitter, Seed: seed, Faults: plan}
					if plan != nil {
						opts.Resilience = runtime.Resilience{StagingRetries: 3, RetryBackoff: 0.05, Mode: runtime.DropMember}
					}
					name := fmt.Sprintf("%s/seed=%d/jitter=%g/faults=%v", p.Name, seed, jitter, plan != nil)
					tr, err := runtime.RunSimulated(spec, p, es, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					l := FromTrace(tr)
					if plan == nil {
						clean = l
					} else if l != clean {
						faulted++
					}
					got, want := l.Splits(), referenceLedger(tr).Splits()
					for i := range got {
						for _, pair := range [2][2]float64{{got[i].Busy, want[i].Busy}, {got[i].Idle, want[i].Idle}} {
							fields++
							if pair[0] == pair[1] {
								exact++
								continue
							}
							rel := math.Abs(pair[0]-pair[1]) / math.Max(math.Abs(pair[0]), math.Abs(pair[1]))
							worst = math.Max(worst, rel)
							if rel > 1e-9 {
								t.Errorf("%s: %s = %v, reference %v (rel %.3g)",
									name, Classes()[i], pair[0], pair[1], rel)
							}
						}
					}
				}
			}
		}
	}
	if faulted == 0 {
		t.Fatal("the staging fault plan changed no ledger; the fault dimension exercised nothing")
	}
	t.Logf("%d ledger fields, %d bit-identical, worst relative difference %.3g; %d faulted runs moved the ledger",
		fields, exact, worst, faulted)
}

func TestFromTraceNilAndEmpty(t *testing.T) {
	if l := FromTrace(nil); l != (JobLedger{}) {
		t.Fatalf("nil trace ledger = %+v, want zero", l)
	}
	if l := FromTrace(&trace.EnsembleTrace{}); l != (JobLedger{}) {
		t.Fatalf("empty trace ledger = %+v, want zero", l)
	}
}

// TestSnapshotOrderIndependence records the same outcomes in two
// different completion orders and requires bit-identical snapshots —
// the property the per-campaign ledgers rely on for byte-identical JSON.
func TestSnapshotOrderIndependence(t *testing.T) {
	jl1 := FromTrace(syntheticTrace())
	jl2 := jl1
	jl2.Simulation.Busy *= 1.7 // a second, different job

	a := NewLedger()
	a.RecordSpent("h1", jl1)
	a.RecordSpent("h2", jl2)
	a.RecordSaved("h1", jl1, TierMemory)
	a.RecordSaved("h2", jl2, TierFleet)

	b := NewLedger()
	b.RecordSaved("h2", jl2, TierFleet)
	b.RecordSpent("h2", jl2)
	b.RecordSaved("h1", jl1, TierMemory)
	b.RecordSpent("h1", jl1)

	aj, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("snapshots differ:\n%s\n%s", aj, bj)
	}
}

func TestSnapshotCountsAndIdentity(t *testing.T) {
	jl := FromTrace(syntheticTrace())
	l := NewLedger()
	l.RecordSpent("h1", jl)
	l.RecordSaved("h1", jl, TierMemory)
	l.RecordSaved("h1", jl, TierMemory)
	l.RecordSaved("h1", jl, TierDisk)
	l.RecordSaved("h1", jl, TierFastPath) // overlapping credit, not cache-served
	l.RecordWall(2.5, 0.5)
	l.RecordRetryWaste(0.25)

	s := l.Snapshot()
	if s.Jobs != 1 || s.Executed != 1 || s.CacheServed != 3 {
		t.Fatalf("counts = jobs %d executed %d cacheServed %d, want 1/1/3", s.Jobs, s.Executed, s.CacheServed)
	}
	if s.Simulated.SpentTotal != jl.Total() {
		t.Fatalf("SpentTotal = %v, want %v", s.Simulated.SpentTotal, jl.Total())
	}
	wantSaved := 3 * jl.Total()
	if s.Simulated.SavedCacheTotal != wantSaved {
		t.Fatalf("SavedCacheTotal = %v, want %v", s.Simulated.SavedCacheTotal, wantSaved)
	}
	if s.Simulated.Saved.FastPath != jl.Total() {
		t.Fatalf("Saved.FastPath = %v, want %v", s.Simulated.Saved.FastPath, jl.Total())
	}
	// spent + cache-saved == cost of the 4 cache-relevant submissions uncached.
	if got, want := s.Simulated.SpentTotal+s.Simulated.SavedCacheTotal, 4*jl.Total(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("spent+savedCache = %v, want %v", got, want)
	}
	if s.WallClock.WorkerSeconds != 2.5 || s.WallClock.QueueWaitSeconds != 0.5 || s.WallClock.RetryWastedSeconds != 0.25 {
		t.Fatalf("wall clock = %+v", s.WallClock)
	}
}

func TestMergeSumsSnapshots(t *testing.T) {
	jl := FromTrace(syntheticTrace())
	l1, l2 := NewLedger(), NewLedger()
	l1.RecordSpent("h1", jl)
	l1.RecordWall(1, 0.5)
	l2.RecordSpent("h2", jl)
	l2.RecordSaved("h1", jl, TierFleet)
	s1, s2 := l1.Snapshot(), l2.Snapshot()
	m := Merge([]Snapshot{s1, s2})
	if m.Jobs != 3 || m.Executed != 2 || m.CacheServed != 1 {
		t.Fatalf("merged counts = %d/%d/%d", m.Jobs, m.Executed, m.CacheServed)
	}
	if m.Simulated.SpentTotal != s1.Simulated.SpentTotal+s2.Simulated.SpentTotal {
		t.Fatalf("merged SpentTotal = %v", m.Simulated.SpentTotal)
	}
	if m.Simulated.Saved.Fleet != jl.Total() {
		t.Fatalf("merged Saved.Fleet = %v, want %v", m.Simulated.Saved.Fleet, jl.Total())
	}
	if m.WallClock.WorkerSeconds != 1 || m.WallClock.QueueWaitSeconds != 0.5 {
		t.Fatalf("merged wall = %+v", m.WallClock)
	}
}

func TestRecordSavedUnknownTierIgnored(t *testing.T) {
	l := NewLedger()
	l.RecordSaved("h1", JobLedger{}, "warp-drive")
	if s := l.Snapshot(); s.Jobs != 0 || s.CacheServed != 0 {
		t.Fatalf("unknown tier recorded: %+v", s)
	}
}
