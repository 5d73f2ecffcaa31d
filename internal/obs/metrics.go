package obs

import (
	"fmt"
	"sort"
)

// Sample is one point of a piecewise-constant timeline: Level holds from T
// until the next sample.
type Sample struct {
	T     float64
	Level float64
}

// Utilization is a time-weighted accumulator over a piecewise-constant
// level (cores in use, flows in flight, queue depth). It integrates
// level*dt so mean utilization is exact regardless of sampling cadence,
// tracks the peak, and keeps the full timeline for export.
type Utilization struct {
	// Capacity is the level ceiling used for normalization (0 = unknown).
	Capacity float64

	level   float64
	started bool
	first   float64
	last    float64
	area    float64 // integral of level dt
	busy    float64 // time with level > 0
	peak    float64
	samples []Sample
}

// advance integrates the current level up to time t.
func (u *Utilization) advance(t float64) {
	if !u.started {
		u.started = true
		u.first = t
		u.last = t
		return
	}
	if t < u.last {
		t = u.last // clamp: timelines never run backwards
	}
	dt := t - u.last
	u.area += u.level * dt
	if u.level > 0 {
		u.busy += dt
	}
	u.last = t
}

// Set moves the level to v at time t.
func (u *Utilization) Set(t, v float64) {
	u.advance(t)
	u.level = v
	if v > u.peak {
		u.peak = v
	}
	u.samples = append(u.samples, Sample{T: t, Level: v})
}

// Add shifts the level by delta at time t.
func (u *Utilization) Add(t, delta float64) { u.Set(t, u.level+delta) }

// Level returns the current level.
func (u *Utilization) Level() float64 { return u.level }

// Peak returns the maximum level observed.
func (u *Utilization) Peak() float64 { return u.peak }

// Span returns the observed time window [first, last].
func (u *Utilization) Span() (float64, float64) { return u.first, u.last }

// Samples returns a copy of the recorded timeline (piecewise-constant
// changes). Callers may sort or mutate the returned slice freely without
// corrupting the accumulator.
func (u *Utilization) Samples() []Sample {
	out := make([]Sample, len(u.samples))
	copy(out, u.samples)
	return out
}

// MeanOver returns the time-weighted mean level over [t0, t1], counting
// the final level as holding from the last change to t1.
func (u *Utilization) MeanOver(t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	area := u.area
	if t1 > u.last {
		area += u.level * (t1 - u.last)
	}
	return area / (t1 - t0)
}

// Mean returns the time-weighted mean level over the observed window.
func (u *Utilization) Mean() float64 { return u.MeanOver(u.first, u.last) }

// BusyFraction returns the fraction of [t0, t1] with a positive level.
func (u *Utilization) BusyFraction(t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	busy := u.busy
	if t1 > u.last && u.level > 0 {
		busy += t1 - u.last
	}
	return busy / (t1 - t0)
}

// NodeUsage aggregates the occupancy of one node.
type NodeUsage struct {
	// Node is the node index.
	Node int
	// Cores is the core-occupancy timeline.
	Cores Utilization
}

// LinkUsage aggregates one directed fabric link (src->dst pair observed in
// flow events).
type LinkUsage struct {
	// Link is the label ("n0->n1").
	Link string
	// Src and Dst are the endpoint indexes.
	Src, Dst int
	// Flows is the flows-in-flight timeline.
	Flows Utilization
	// Bytes is the total bytes delivered over the link.
	Bytes float64
	// Transfers counts completed flows.
	Transfers int
}

// StageTotal accumulates time and bytes per (component, stage).
type StageTotal struct {
	Component string
	Stage     string
	Node      int
	Count     int
	Seconds   float64
	Bytes     float64
}

// DTLStat aggregates one direction of staging traffic on one tier.
type DTLStat struct {
	Tier    string
	Op      string // "put" or "get"
	Count   int
	Bytes   float64
	Seconds float64 // summed operation latency
}

// Metrics is the registry built from an event stream: per-node core
// occupancy, link utilization, queue-depth timelines, per-stage totals,
// and DTL traffic. Build one with Analyze.
type Metrics struct {
	// End is the largest timestamp seen (the horizon for means).
	End float64
	// Nodes maps node index to its usage (sorted access via NodeList).
	Nodes map[int]*NodeUsage
	// Links maps link label to its usage.
	Links map[string]*LinkUsage
	// Queues maps queue label to its depth timeline.
	Queues map[string]*Utilization
	// Stages maps "component/stage" to its totals.
	Stages map[string]*StageTotal
	// DTL maps "tier/op" to staging totals.
	DTL map[string]*DTLStat
	// Gauges maps "subject/name" to the sampled timeline.
	Gauges map[string]*Utilization
	// Faults counts resilience events by kind name ("fault:staging",
	// "retry", "restart", "member-drop").
	Faults map[string]int
	// Counters holds the latest sample of each monotonic named counter
	// (CounterSet events, e.g. the campaign service's cache statistics).
	Counters map[string]float64
	// Events counts the events analyzed.
	Events int
}

// stageOpen tracks an unmatched StageBegin (or Put/Get begin).
type stageOpen struct {
	t     float64
	bytes float64
}

// Analyze folds an event stream into the metrics registry. Events must be
// in emission order (the recorder's natural order); timestamps within the
// stream are expected to be non-decreasing, as produced by a virtual-clock
// recorder.
func Analyze(events []Event) *Metrics {
	m := &Metrics{
		Nodes:    make(map[int]*NodeUsage),
		Links:    make(map[string]*LinkUsage),
		Queues:   make(map[string]*Utilization),
		Stages:   make(map[string]*StageTotal),
		DTL:      make(map[string]*DTLStat),
		Gauges:   make(map[string]*Utilization),
		Faults:   make(map[string]int),
		Counters: make(map[string]float64),
		Events:   len(events),
	}
	node := func(i int) *NodeUsage {
		n, ok := m.Nodes[i]
		if !ok {
			n = &NodeUsage{Node: i}
			m.Nodes[i] = n
		}
		return n
	}
	link := func(label string, src, dst int) *LinkUsage {
		l, ok := m.Links[label]
		if !ok {
			l = &LinkUsage{Link: label, Src: src, Dst: dst}
			m.Links[label] = l
		}
		return l
	}
	openStages := make(map[string]stageOpen) // "component/stage"
	openOps := make(map[string]stageOpen)    // "tier/op"

	for _, ev := range events {
		if ev.T > m.End {
			m.End = ev.T
		}
		switch ev.Kind {
		case ResourceAcquire:
			if ev.Node != NoNode {
				node(ev.Node).Cores.Add(ev.T, ev.Value)
			}
		case ResourceRelease:
			if ev.Node != NoNode {
				node(ev.Node).Cores.Add(ev.T, -ev.Value)
			}
		case QueueDepth:
			q, ok := m.Queues[ev.Subject]
			if !ok {
				q = &Utilization{}
				m.Queues[ev.Subject] = q
			}
			q.Set(ev.T, ev.Value)
		case FlowStart:
			link(ev.Subject, ev.Node, ev.Node2).Flows.Add(ev.T, 1)
		case FlowEnd:
			l := link(ev.Subject, ev.Node, ev.Node2)
			l.Flows.Add(ev.T, -1)
			l.Bytes += ev.Value
			l.Transfers++
		case StageBegin:
			openStages[ev.Subject+"/"+ev.Detail] = stageOpen{t: ev.T}
		case StageEnd:
			key := ev.Subject + "/" + ev.Detail
			st, ok := m.Stages[key]
			if !ok {
				st = &StageTotal{Component: ev.Subject, Stage: ev.Detail, Node: ev.Node}
				m.Stages[key] = st
			}
			if open, ok := openStages[key]; ok {
				st.Seconds += ev.T - open.t
				delete(openStages, key)
			}
			st.Count++
			st.Bytes += ev.Value
		case PutBegin:
			openOps[ev.Detail+"/put"] = stageOpen{t: ev.T, bytes: ev.Value}
		case PutEnd:
			m.dtlEnd(ev.Detail, "put", ev, openOps)
		case GetBegin:
			openOps[ev.Detail+"/get"] = stageOpen{t: ev.T, bytes: ev.Value}
		case GetEnd:
			m.dtlEnd(ev.Detail, "get", ev, openOps)
		case GaugeSet:
			key := ev.Subject + "/" + ev.Detail
			g, ok := m.Gauges[key]
			if !ok {
				g = &Utilization{}
				m.Gauges[key] = g
			}
			g.Set(ev.T, ev.Value)
		case FaultInject:
			m.Faults["fault:"+ev.Detail]++
		case RetryAttempt:
			m.Faults["retry"]++
		case ComponentRestart:
			m.Faults["restart"]++
		case MemberDrop:
			m.Faults["member-drop"]++
		case CounterSet:
			m.Counters[ev.Subject] = ev.Value
		}
	}
	// Close every timeline at the horizon so means cover the full run.
	for _, n := range m.Nodes {
		n.Cores.advance(m.End)
	}
	for _, l := range m.Links {
		l.Flows.advance(m.End)
	}
	for _, q := range m.Queues {
		q.advance(m.End)
	}
	for _, g := range m.Gauges {
		g.advance(m.End)
	}
	return m
}

// dtlEnd folds a Put/Get end event into the DTL stats.
func (m *Metrics) dtlEnd(tier, op string, ev Event, open map[string]stageOpen) {
	key := tier + "/" + op
	d, ok := m.DTL[key]
	if !ok {
		d = &DTLStat{Tier: tier, Op: op}
		m.DTL[key] = d
	}
	d.Count++
	d.Bytes += ev.Value
	if o, ok := open[key]; ok {
		d.Seconds += ev.T - o.t
		delete(open, key)
	}
}

// NodeList returns the node usages sorted by node index.
func (m *Metrics) NodeList() []*NodeUsage {
	out := make([]*NodeUsage, 0, len(m.Nodes))
	for _, n := range m.Nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// LinkList returns the link usages sorted by label.
func (m *Metrics) LinkList() []*LinkUsage {
	out := make([]*LinkUsage, 0, len(m.Links))
	for _, l := range m.Links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Link < out[j].Link })
	return out
}

// StageList returns the stage totals sorted by component then stage.
func (m *Metrics) StageList() []*StageTotal {
	out := make([]*StageTotal, 0, len(m.Stages))
	for _, s := range m.Stages {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Component != out[j].Component {
			return out[i].Component < out[j].Component
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// DTLList returns the staging stats sorted by tier then op.
func (m *Metrics) DTLList() []*DTLStat {
	out := make([]*DTLStat, 0, len(m.DTL))
	for _, d := range m.DTL {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tier != out[j].Tier {
			return out[i].Tier < out[j].Tier
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// QueueList returns queue labels sorted.
func (m *Metrics) QueueList() []string {
	out := make([]string, 0, len(m.Queues))
	for q := range m.Queues {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// CounterList returns the counter names sorted.
func (m *Metrics) CounterList() []string {
	out := make([]string, 0, len(m.Counters))
	for k := range m.Counters {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FaultList returns the resilience-event keys sorted.
func (m *Metrics) FaultList() []string {
	out := make([]string, 0, len(m.Faults))
	for k := range m.Faults {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// LinkLabel builds the canonical label for a directed link.
func LinkLabel(src, dst int) string { return fmt.Sprintf("n%d->n%d", src, dst) }
