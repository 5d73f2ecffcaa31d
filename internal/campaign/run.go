package campaign

import (
	"context"
	"fmt"
	"math"
	"time"

	"ensemblekit/internal/core"
	"ensemblekit/internal/indicators"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/telemetry/tracing"
	"ensemblekit/internal/trace"
)

// execHints carries the service's execution tuning into a single run:
// the campaign-shared World, the member-parallelism degree, and the
// steady-state fast path with its optional cross-check. Hints never
// change results — they are deliberately excluded from JobSpec and its
// hash (see runtime.SimOptions) — so hinted and unhinted executions of
// the same spec are interchangeable, cache-compatible, and produce the
// same campaign fingerprint.
type execHints struct {
	world    *runtime.World
	members  int
	fastPath bool
	verify   bool
}

// Execute runs one job to completion in the calling goroutine — the serial
// path the service parallelizes. The returned result is exactly what a
// direct runtime.RunSimulated of the same inputs produces (the trace is
// byte-identical), plus the derived indicator quantities.
func Execute(spec JobSpec) (*Result, error) {
	res, _, err := executeHinted(spec, execHints{})
	return res, err
}

// executeHinted is Execute with execution hints applied, reporting how
// the run was served.
func executeHinted(spec JobSpec, h execHints) (*Result, runtime.RunInfo, error) {
	hash, err := spec.Hash()
	if err != nil {
		return nil, runtime.RunInfo{}, err
	}
	tr, info, err := runSpec(spec, nil, h)
	if err != nil {
		return nil, info, err
	}
	res, err := derive(hash, spec.Placement, tr)
	return res, info, err
}

// runSpec dispatches the spec to its backend: runtime.RunReal when the
// spec carries a RealConfig, runtime.RunSimulated otherwise. The fault
// plan and resilience policy are shared between backends; rec, when
// non-nil, attaches the live obs recorder. Hints apply only to the
// simulated backend.
func runSpec(spec JobSpec, rec *obs.Recorder, h execHints) (*trace.EnsembleTrace, runtime.RunInfo, error) {
	if spec.Real != nil {
		ro := spec.Real.Options()
		ro.Faults = spec.Faults
		ro.Resilience = spec.Sim.Resilience
		ro.Recorder = rec
		tr, err := runtime.RunReal(spec.Placement, ro)
		return tr, runtime.RunInfo{}, err
	}
	opts := spec.Sim.Options()
	opts.Faults = spec.Faults
	opts.Recorder = rec
	opts.World = h.world
	opts.MemberParallelism = h.members
	opts.FastPath = h.fastPath
	return runtime.RunSimulatedInfo(spec.Cluster, spec.Placement, spec.Ensemble, opts)
}

// executeTraced is Execute with the DES run observed: when ctx carries a
// recording span (the worker's execute span), the run attaches a live
// obs recorder and replays its event stream as child spans — component,
// stage, DTL, flow, and fault — under that span. The affine map
// wall = anchor + scale·virtual with scale = wallDuration/makespan
// tiles the simulated timeline onto the measured execution window, so
// the critical path's stage durations sum to the job's real latency.
// The map's parameters are recorded on the execute span
// (des.anchorUnixNano, des.scale, des.makespanSec) so exporters can
// invert it. Untraced calls (nil tracer, no span) fall through to
// Execute; the recorder never alters the simulation itself — the trace
// stays byte-identical (see TestSimulatedRecorderBitIdentical).
func executeTraced(ctx context.Context, tracer *tracing.Tracer, spec JobSpec) (*Result, error) {
	res, _, _, err := executeTracedHinted(ctx, tracer, spec, execHints{})
	return res, err
}

// executeTracedHinted is executeTraced with execution hints applied. The
// execute span additionally records members.parallelism (the effective
// degree, 0 = joint path), des.fastpath, and des.bridged (whether the
// DES subtree was stored). The recorder is attached only while the
// trace has subtree room (tracing.Tracer.SubtreeRoom): once the trace's
// budget for DES detail is spent the run takes exactly the untraced
// path, and only the service spans and the affine map are recorded.
// Fast-path runs dispatch no DES events, so there is nothing to bridge.
// unbridged reports a traced DES run whose subtree was not stored.
func executeTracedHinted(ctx context.Context, tracer *tracing.Tracer, spec JobSpec, h execHints) (res *Result, info runtime.RunInfo, unbridged bool, err error) {
	span := tracing.SpanFromContext(ctx)
	if tracer == nil || !span.Recording() {
		res, info, err = executeHinted(spec, h)
		return res, info, false, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, runtime.RunInfo{}, false, err
	}
	var rec *obs.Recorder
	if tracer.SubtreeRoom(span.Context()) > 0 {
		rec = obs.NewRecorder(nil)
	}
	anchor := time.Now()
	tr, info, err := runSpec(spec, rec, h)
	wallSec := time.Since(anchor).Seconds()
	if err != nil {
		span.SetAttr(tracing.Float("des.makespanSec", 0), tracing.Bool("des.bridged", false))
		return nil, info, false, err
	}
	makespan := tr.Makespan()
	scale := 1.0
	if makespan > 0 && wallSec > 0 {
		scale = wallSec / makespan
	}
	bridged := false
	if rec != nil && !info.FastPath {
		bridged = obs.BridgeSpans(tracer, span.Context(), rec.Events(), anchor, scale) > 0
	}
	span.SetAttr(
		tracing.Int64("des.anchorUnixNano", anchor.UnixNano()),
		tracing.Float("des.scale", scale),
		tracing.Float("des.makespanSec", makespan),
		tracing.Int("members.parallelism", info.MemberParallelism),
		tracing.Bool("des.fastpath", info.FastPath),
		tracing.Bool("des.bridged", bridged))
	res, err = derive(hash, spec.Placement, tr)
	return res, info, !info.FastPath && !bridged, err
}

// fpVerifyTol is the relative tolerance of the fast-path cross-check.
// The closed form replicates the engine's float arithmetic, so agreement
// is in practice bit-exact; the tolerance absorbs only the derived
// quantities' reduction order.
const fpVerifyTol = 1e-9

// verifyFastPath cross-checks a fast-path result against the DES: it
// re-runs the spec with the fast path disabled (same hints otherwise)
// and asserts that the derived Eq. 5-9 quantities — makespan, member
// efficiencies, the full indicator report, the objective — and every
// member's extracted steady state (Eq. 1-3 inputs) agree within
// fpVerifyTol. A disagreement is a model bug, never a transient.
func verifyFastPath(spec JobSpec, fast *Result, h execHints) error {
	h.fastPath = false
	h.verify = false
	ref, _, err := executeHinted(spec, h)
	if err != nil {
		return fmt.Errorf("campaign: fast-path verify: DES re-run: %w", err)
	}
	if !relEq(fast.Makespan, ref.Makespan) {
		return fmt.Errorf("campaign: fast-path verify: makespan %v != DES %v", fast.Makespan, ref.Makespan)
	}
	if !relEq(fast.Objective, ref.Objective) {
		return fmt.Errorf("campaign: fast-path verify: objective %v != DES %v", fast.Objective, ref.Objective)
	}
	if len(fast.Efficiencies) != len(ref.Efficiencies) {
		return fmt.Errorf("campaign: fast-path verify: %d efficiencies != DES %d",
			len(fast.Efficiencies), len(ref.Efficiencies))
	}
	for i, e := range fast.Efficiencies {
		if !relEq(e, ref.Efficiencies[i]) {
			return fmt.Errorf("campaign: fast-path verify: member %d efficiency %v != DES %v",
				i, e, ref.Efficiencies[i])
		}
	}
	if len(fast.Report.PerStage) != len(ref.Report.PerStage) {
		return fmt.Errorf("campaign: fast-path verify: report has %d stages, DES %d",
			len(fast.Report.PerStage), len(ref.Report.PerStage))
	}
	for stage, v := range fast.Report.PerStage {
		rv, ok := ref.Report.PerStage[stage]
		if !ok || !relEq(v, rv) {
			return fmt.Errorf("campaign: fast-path verify: indicator %s %v != DES %v", stage, v, rv)
		}
	}
	for i := range fast.Trace.Members {
		fss, err := core.FromMemberTrace(fast.Trace.Members[i], core.ExtractOptions{})
		if err != nil {
			return fmt.Errorf("campaign: fast-path verify: member %d: %w", i, err)
		}
		rss, err := core.FromMemberTrace(ref.Trace.Members[i], core.ExtractOptions{})
		if err != nil {
			return fmt.Errorf("campaign: fast-path verify: member %d (DES): %w", i, err)
		}
		if !fss.ApproxEqual(rss, fpVerifyTol) {
			return fmt.Errorf("campaign: fast-path verify: member %d steady state %+v != DES %+v", i, fss, rss)
		}
	}
	return nil
}

// relEq compares two derived quantities at fpVerifyTol relative
// tolerance.
func relEq(a, b float64) bool {
	return math.Abs(a-b) <= fpVerifyTol*math.Max(math.Abs(a), math.Abs(b))
}

// derive computes the paper's quantities from a finished trace: surviving
// efficiencies (Eq. 3), the full indicator report, and F(P^{U,A,P}).
func derive(hash string, p placement.Placement, tr *trace.EnsembleTrace) (*Result, error) {
	surviving := placement.Placement{Name: p.Name}
	var effs []float64
	dropped := 0
	for i, m := range tr.Members {
		if m.Dropped() {
			dropped++
			continue
		}
		ss, err := core.FromMemberTrace(m, core.ExtractOptions{})
		if err != nil {
			return nil, fmt.Errorf("campaign: member %d: %w", i, err)
		}
		e, err := ss.Efficiency()
		if err != nil {
			return nil, fmt.Errorf("campaign: member %d: %w", i, err)
		}
		surviving.Members = append(surviving.Members, p.Members[i])
		effs = append(effs, e)
	}
	res := &Result{
		Hash:     hash,
		Trace:    tr,
		Makespan: tr.Makespan(),
		Dropped:  dropped,
	}
	if len(effs) == 0 {
		return nil, fmt.Errorf("campaign: no surviving members in %q", p.Name)
	}
	rep, err := indicators.FullReport(surviving, effs)
	if err != nil {
		return nil, err
	}
	res.Efficiencies = effs
	res.Report = rep
	res.Objective = rep.PerStage[indicators.StageUAP.String()]
	return res, nil
}
