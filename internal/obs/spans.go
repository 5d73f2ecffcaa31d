package obs

import (
	"io"
	"sort"
	"time"

	"ensemblekit/internal/telemetry/tracing"
)

// Span bridge: replays an obs event stream (virtual clock) as completed
// child spans under a parent span (wall clock), so every simulated
// component, stage, DTL transfer, and network flow lands in the job's
// distributed trace. The affine map wall = anchor + scale·virtual
// places the bridged spans inside the parent's window; with
// scale = parentWallDuration / makespan the DES spans tile the parent
// exactly, which is what makes the critical-path stage durations sum to
// the job's measured latency.

// interval is one paired begin/end from the event stream.
type interval struct {
	name, kind string
	subject    string // owning component for stages
	start, end float64
	attrs      []tracing.Attr
}

// stageKey pairs a stage end with its begin: one component's stage.
type stageKey struct{ subject, stage string }

// dtlKey pairs a DTL end with its begin: same op, tier, and endpoints.
type dtlKey struct {
	get         bool
	tier        string
	node, node2 int
}

// dtlName names a DTL span: its op and tier.
type dtlName struct {
	get  bool
	tier string
}

// BridgeSpans converts events into spans under parent using tr,
// mapping virtual seconds t to anchor + scale·t. Component spans
// (proc-start/end) become parents of their stage spans; DTL, flow, and
// fault events become direct children of parent. Unclosed begins are
// closed at the stream horizon. The spans are stored as one subtree,
// whole or not at all (see tracing.Subtree), and nothing is built when
// parent's trace has no subtree room left. Returns the number of spans
// stored; a nil tracer stores nothing.
func BridgeSpans(tr *tracing.Tracer, parent tracing.SpanContext, events []Event, anchor time.Time, scale float64) int {
	if tr == nil || len(events) == 0 || tr.SubtreeRoom(parent) == 0 {
		return 0
	}
	if scale <= 0 {
		scale = 1
	}
	wall := func(t float64) time.Time {
		return anchor.Add(time.Duration(t * scale * float64(time.Second)))
	}

	horizon := 0.0
	var nComps, nStages, nRest int
	for _, ev := range events {
		if ev.T > horizon {
			horizon = ev.T
		}
		switch ev.Kind {
		case ProcStart:
			nComps++
		case StageBegin:
			nStages++
		case PutBegin, GetBegin, FlowStart, FaultInject, RetryAttempt, ComponentRestart, MemberDrop:
			nRest++
		}
	}

	comps := make([]interval, 0, nComps)
	stages := make([]interval, 0, nStages)
	rest := make([]interval, 0, nRest)
	compOpen := map[string]int{}      // subject -> index into comps (open)
	stageOpen := map[stageKey][]int{} // stack of open stage indices
	dtlOpen := map[dtlKey][]int{}     // FIFO of open DTL indices into rest
	flowOpen := map[string][]int{}    // link -> FIFO of open flow indices into rest
	stageKinds := map[string]string{} // stage -> "stage:"+stage, built once
	dtlNames := map[dtlName]string{}  // op+":"+tier, built once
	// Every interval's attributes share one backing array: 1 per
	// component, 2 per stage plus a slot for bytes, 2 per other span.
	attrBuf := make([]tracing.Attr, 0, nComps+3*nStages+2*nRest)
	attrs := func(spare int, as ...tracing.Attr) []tracing.Attr {
		i := len(attrBuf)
		attrBuf = append(attrBuf, as...)
		j := len(attrBuf)
		for range spare {
			attrBuf = append(attrBuf, tracing.Attr{})
		}
		return attrBuf[i : j : j+spare]
	}

	for _, ev := range events {
		switch ev.Kind {
		case ProcStart:
			compOpen[ev.Subject] = len(comps)
			comps = append(comps, interval{name: ev.Subject, kind: "component", subject: ev.Subject,
				start: ev.T, end: -1, attrs: attrs(0, tracing.Int("node", ev.Node))})
		case ProcEnd:
			if i, ok := compOpen[ev.Subject]; ok {
				comps[i].end = ev.T
				delete(compOpen, ev.Subject)
			}
		case StageBegin:
			kind, ok := stageKinds[ev.Detail]
			if !ok {
				kind = "stage:" + ev.Detail
				stageKinds[ev.Detail] = kind
			}
			key := stageKey{ev.Subject, ev.Detail}
			stageOpen[key] = append(stageOpen[key], len(stages))
			stages = append(stages, interval{name: ev.Detail, kind: kind,
				subject: ev.Subject, start: ev.T, end: -1,
				attrs: attrs(1, tracing.String("component", ev.Subject), tracing.Int("node", ev.Node))})
		case StageEnd:
			key := stageKey{ev.Subject, ev.Detail}
			if st := stageOpen[key]; len(st) > 0 {
				i := st[len(st)-1]
				stageOpen[key] = st[:len(st)-1]
				stages[i].end = ev.T
				if ev.Value > 0 {
					stages[i].attrs = append(stages[i].attrs, tracing.Float("bytes", ev.Value))
				}
			}
		case PutBegin, GetBegin:
			get := ev.Kind == GetBegin
			kind := "dtl:put"
			if get {
				kind = "dtl:get"
			}
			name, ok := dtlNames[dtlName{get, ev.Detail}]
			if !ok {
				name = kind[len("dtl:"):] + ":" + ev.Detail
				dtlNames[dtlName{get, ev.Detail}] = name
			}
			key := dtlKey{get, ev.Detail, ev.Node, ev.Node2}
			dtlOpen[key] = append(dtlOpen[key], len(rest))
			rest = append(rest, interval{name: name, kind: kind,
				start: ev.T, end: -1,
				attrs: attrs(0, tracing.String("tier", ev.Detail), tracing.Float("bytes", ev.Value))})
		case PutEnd, GetEnd:
			key := dtlKey{ev.Kind == GetEnd, ev.Detail, ev.Node, ev.Node2}
			if q := dtlOpen[key]; len(q) > 0 {
				dtlOpen[key] = q[1:]
				rest[q[0]].end = ev.T
			}
		case FlowStart:
			flowOpen[ev.Subject] = append(flowOpen[ev.Subject], len(rest))
			rest = append(rest, interval{name: ev.Subject, kind: "net:flow",
				start: ev.T, end: -1,
				attrs: attrs(0, tracing.String("link", ev.Subject), tracing.Float("bytes", ev.Value))})
		case FlowEnd:
			if q := flowOpen[ev.Subject]; len(q) > 0 {
				flowOpen[ev.Subject] = q[1:]
				rest[q[0]].end = ev.T
			}
		case FaultInject, RetryAttempt, ComponentRestart, MemberDrop:
			name := ev.Kind.String()
			if ev.Detail != "" {
				name += ":" + ev.Detail
			}
			rest = append(rest, interval{name: name, kind: "fault",
				start: ev.T, end: ev.T,
				attrs: attrs(0, tracing.String("subject", ev.Subject), tracing.Float("value", ev.Value))})
		}
	}

	close := func(ivs []interval) {
		for i := range ivs {
			if ivs[i].end < 0 {
				ivs[i].end = horizon
			}
		}
	}
	close(comps)
	close(stages)
	close(rest)

	// Emit components first so their contexts exist to parent the
	// stages; a stage whose component never emitted proc events hangs
	// directly off the parent.
	sub := tr.NewSubtree(parent, len(comps)+len(stages)+len(rest))
	compCtx := make(map[string]tracing.SpanContext, len(comps))
	for _, c := range comps {
		sc := sub.SpanAt(parent, c.name, c.kind, wall(c.start), wall(c.end), c.attrs...)
		if _, dup := compCtx[c.subject]; !dup {
			compCtx[c.subject] = sc
		}
	}
	for _, s := range stages {
		p, ok := compCtx[s.subject]
		if !ok {
			p = parent
		}
		sub.SpanAt(p, s.name, s.kind, wall(s.start), wall(s.end), s.attrs...)
	}
	for _, r := range rest {
		sub.SpanAt(parent, r.name, r.kind, wall(r.start), wall(r.end), r.attrs...)
	}
	return sub.Commit()
}

// serviceSpanKinds are the span kinds merged into the Perfetto export;
// the DES-level kinds are skipped because the obs events already render
// them.
var serviceSpanKinds = map[string]bool{
	"server": true, "campaign": true, "job": true, "queue": true, "execute": true,
}

// WriteChromeTraceWithSpans is WriteChromeTrace plus a "service"
// process carrying the service-level spans (request, campaign, job,
// queue, execute), so traceview renders the serving-tier and DES-tier
// timelines in one view. toVirtual maps a span's wall-clock instant
// into virtual seconds (the inverse of the bridge's affine map); spans
// whose kind is DES-level are skipped — the obs events already cover
// them. Each span gets its own thread: service spans overlap (the
// request ends before the campaign), which the trace format's per-track
// LIFO nesting cannot express on one track.
func WriteChromeTraceWithSpans(w io.Writer, events []Event, spans []tracing.SpanData, toVirtual func(time.Time) float64) error {
	doc := buildChrome(events)

	var svc []tracing.SpanData
	for _, d := range spans {
		if serviceSpanKinds[d.Kind] {
			svc = append(svc, d)
		}
	}
	if len(svc) == 0 || toVirtual == nil {
		return encodeChrome(w, doc)
	}
	sort.SliceStable(svc, func(i, k int) bool {
		if !svc[i].Start.Equal(svc[k].Start) {
			return svc[i].Start.Before(svc[k].Start)
		}
		return svc[i].SpanID.String() < svc[k].SpanID.String()
	})

	maxNode := -1
	for _, ev := range events {
		if ev.Node > maxNode {
			maxNode = ev.Node
		}
		if ev.Node2 > maxNode {
			maxNode = ev.Node2
		}
	}
	servicePID := maxNode + 7

	var meta, evs []chromeEvent
	meta = append(meta, chromeEvent{
		Name: "process_name", Ph: "M", TS: 0, Pid: servicePID, Tid: 0,
		Args: &chromeArgs{Name: "service"},
	})
	for i, d := range svc {
		tid := i + 1
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", TS: 0, Pid: servicePID, Tid: tid,
			Args: &chromeArgs{Name: d.Kind + " " + d.Name},
		})
		start, end := toVirtual(d.Start), toVirtual(d.End)
		if end < start {
			end = start
		}
		evs = append(evs,
			chromeEvent{Name: d.Name, Cat: d.Kind, Ph: "B", TS: secondsToTS(start), Pid: servicePID, Tid: tid},
			chromeEvent{Name: d.Name, Cat: d.Kind, Ph: "E", TS: secondsToTS(end), Pid: servicePID, Tid: tid},
		)
	}

	var metaOut, evOut []chromeEvent
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			metaOut = append(metaOut, ev)
		} else {
			evOut = append(evOut, ev)
		}
	}
	metaOut = append(metaOut, meta...)
	evOut = append(evOut, evs...)
	sort.SliceStable(evOut, func(i, k int) bool { return evOut[i].TS < evOut[k].TS })
	doc.TraceEvents = append(metaOut, evOut...)
	return encodeChrome(w, doc)
}
