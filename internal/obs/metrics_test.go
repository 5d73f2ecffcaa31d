package obs

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestUtilizationAccumulator(t *testing.T) {
	var u Utilization
	u.Set(0, 2)  // 2 cores over [0,4)
	u.Set(4, 6)  // 6 cores over [4,6)
	u.Add(6, -6) // idle over [6,10)
	u.advance(10)

	if !almost(u.Peak(), 6) {
		t.Errorf("peak = %v, want 6", u.Peak())
	}
	// Integral: 2*4 + 6*2 = 20 over 10s -> mean 2.
	if got := u.MeanOver(0, 10); !almost(got, 2) {
		t.Errorf("mean = %v, want 2", got)
	}
	// Busy over [0,6) of 10.
	if got := u.BusyFraction(0, 10); !almost(got, 0.6) {
		t.Errorf("busy = %v, want 0.6", got)
	}
	if n := len(u.Samples()); n != 3 {
		t.Errorf("samples = %d, want 3", n)
	}
	if first, last := u.Span(); first != 0 || last != 10 {
		t.Errorf("span = [%v,%v], want [0,10]", first, last)
	}
}

func TestUtilizationExtendsPastLastChange(t *testing.T) {
	var u Utilization
	u.Set(0, 4)
	// Horizon beyond the last sample: level holds.
	if got := u.MeanOver(0, 8); !almost(got, 4) {
		t.Errorf("mean = %v, want 4", got)
	}
	if got := u.BusyFraction(0, 8); !almost(got, 1) {
		t.Errorf("busy = %v, want 1", got)
	}
	if u.MeanOver(5, 5) != 0 {
		t.Error("degenerate window should be 0")
	}
}

// TestUtilizationEdgeWindows pins the accumulator's behavior on the
// degenerate windows the resource ledgers can hand it: an accumulator
// that never saw a sample, zero-width and inverted windows, and a
// window entirely beyond the last sample.
func TestUtilizationEdgeWindows(t *testing.T) {
	var empty Utilization
	if got := empty.MeanOver(0, 10); got != 0 {
		t.Errorf("empty MeanOver = %v, want 0", got)
	}
	if got := empty.BusyFraction(0, 10); got != 0 {
		t.Errorf("empty BusyFraction = %v, want 0", got)
	}
	if got := empty.area; got != 0 {
		t.Errorf("empty area = %v, want 0", got)
	}
	if n := len(empty.Samples()); n != 0 {
		t.Errorf("empty Samples = %d entries, want 0", n)
	}

	var u Utilization
	u.Set(0, 3)
	u.Set(4, 0)
	// Zero-width and inverted windows are 0, not NaN or negative.
	for _, w := range [][2]float64{{2, 2}, {7, 3}} {
		if got := u.MeanOver(w[0], w[1]); got != 0 {
			t.Errorf("MeanOver(%v, %v) = %v, want 0", w[0], w[1], got)
		}
		if got := u.BusyFraction(w[0], w[1]); got != 0 {
			t.Errorf("BusyFraction(%v, %v) = %v, want 0", w[0], w[1], got)
		}
	}
	// Window entirely beyond the last sample: the final (zero) level
	// extrapolates, diluting the recorded area over the wider window.
	if got := u.MeanOver(0, 12); !almost(got, 1) {
		t.Errorf("MeanOver past last sample = %v, want 1", got)
	}
	if got := u.BusyFraction(0, 12); !almost(got, 4.0/12) {
		t.Errorf("BusyFraction past last sample = %v, want 1/3", got)
	}
	// A final positive level keeps accruing busy time past the last sample.
	var v Utilization
	v.Set(0, 2)
	if got := v.BusyFraction(0, 10); !almost(got, 1) {
		t.Errorf("BusyFraction with held positive level = %v, want 1", got)
	}
}

// TestUtilizationSamplesIsACopy guards against the aliasing leak the
// accessor used to have: mutating or appending to the returned slice
// must not corrupt the accumulator's own timeline.
func TestUtilizationSamplesIsACopy(t *testing.T) {
	var u Utilization
	u.Set(0, 1)
	u.Set(2, 5)

	s := u.Samples()
	s[0].Level = 99
	_ = append(s, Sample{T: 3, Level: 7})

	again := u.Samples()
	if len(again) != 2 {
		t.Fatalf("samples = %d entries after caller append, want 2", len(again))
	}
	if again[0].Level != 1 || again[1].Level != 5 {
		t.Fatalf("samples mutated through the accessor: %+v", again)
	}
}

// TestUtilizationArea pins the exact integral the accumulator keeps:
// area equals MeanOver times the window without the division round-trip.
func TestUtilizationArea(t *testing.T) {
	var u Utilization
	u.Add(1, 4)  // 4 cores over [1,3)
	u.Add(3, -4) // idle from 3
	u.advance(10)
	if got := u.area; !almost(got, 8) {
		t.Errorf("area = %v, want 8", got)
	}
	if got, want := u.area, u.MeanOver(1, 10)*9; !almost(got, want) {
		t.Errorf("area = %v, MeanOver*width = %v", got, want)
	}
}

func TestAnalyzeNodeAndLinkTimelines(t *testing.T) {
	events := []Event{
		{T: 0, Kind: ResourceAcquire, Subject: "n0.cores", Node: 0, Node2: NoNode, Value: 16},
		{T: 0, Kind: ResourceAcquire, Subject: "n1.cores", Node: 1, Node2: NoNode, Value: 8},
		{T: 1, Kind: FlowStart, Subject: "n0->n1", Node: 0, Node2: 1, Value: 1000},
		{T: 2, Kind: QueueDepth, Subject: "m0.queue", Node: NoNode, Node2: NoNode, Value: 3},
		{T: 3, Kind: FlowEnd, Subject: "n0->n1", Node: 0, Node2: 1, Value: 1000},
		{T: 4, Kind: ResourceRelease, Subject: "n1.cores", Node: 1, Node2: NoNode, Value: 8},
		{T: 8, Kind: ResourceRelease, Subject: "n0.cores", Node: 0, Node2: NoNode, Value: 16},
	}
	m := Analyze(events)
	if m.End != 8 || m.Events != len(events) {
		t.Fatalf("horizon = %v events = %d", m.End, m.Events)
	}
	nodes := m.NodeList()
	if len(nodes) != 2 || nodes[0].Node != 0 || nodes[1].Node != 1 {
		t.Fatalf("unexpected node list: %+v", nodes)
	}
	if got := nodes[0].Cores.MeanOver(0, 8); !almost(got, 16) {
		t.Errorf("node0 mean cores = %v, want 16", got)
	}
	if got := nodes[1].Cores.MeanOver(0, 8); !almost(got, 4) {
		t.Errorf("node1 mean cores = %v, want 4 (8 cores over half the run)", got)
	}
	links := m.LinkList()
	if len(links) != 1 || links[0].Transfers != 1 || !almost(links[0].Bytes, 1000) {
		t.Fatalf("unexpected links: %+v", links)
	}
	// One flow over [1,3) of an 8s horizon.
	if got := links[0].Flows.MeanOver(0, 8); !almost(got, 0.25) {
		t.Errorf("link mean flows = %v, want 0.25", got)
	}
	if q := m.Queues["m0.queue"]; q == nil || q.Peak() != 3 {
		t.Errorf("queue timeline missing or wrong: %+v", q)
	}
}

func TestAnalyzeStagesAndDTL(t *testing.T) {
	events := []Event{
		{T: 0, Kind: StageBegin, Subject: "m0.sim", Detail: "S", Node: 0, Node2: NoNode},
		{T: 5, Kind: StageEnd, Subject: "m0.sim", Detail: "S", Node: 0, Node2: NoNode},
		{T: 5, Kind: PutBegin, Subject: "dtl", Detail: "dimes", Node: 0, Node2: NoNode, Value: 100},
		{T: 6, Kind: PutEnd, Subject: "dtl", Detail: "dimes", Node: 0, Node2: NoNode, Value: 100},
		{T: 6, Kind: GetBegin, Subject: "dtl", Detail: "dimes", Node: 0, Node2: 1, Value: 100},
		{T: 8, Kind: GetEnd, Subject: "dtl", Detail: "dimes", Node: 0, Node2: 1, Value: 100},
		{T: 8, Kind: StageBegin, Subject: "m0.sim", Detail: "S", Node: 0, Node2: NoNode},
		{T: 10, Kind: StageEnd, Subject: "m0.sim", Detail: "S", Node: 0, Node2: NoNode},
	}
	m := Analyze(events)
	stages := m.StageList()
	if len(stages) != 1 {
		t.Fatalf("stages = %+v", stages)
	}
	if stages[0].Count != 2 || !almost(stages[0].Seconds, 7) {
		t.Errorf("stage S: count=%d seconds=%v, want 2 and 7", stages[0].Count, stages[0].Seconds)
	}
	dtl := m.DTLList()
	if len(dtl) != 2 {
		t.Fatalf("dtl = %+v", dtl)
	}
	// Sorted: get before put.
	if dtl[0].Op != "get" || !almost(dtl[0].Seconds, 2) || !almost(dtl[0].Bytes, 100) {
		t.Errorf("get stats wrong: %+v", dtl[0])
	}
	if dtl[1].Op != "put" || !almost(dtl[1].Seconds, 1) || dtl[1].Count != 1 {
		t.Errorf("put stats wrong: %+v", dtl[1])
	}
}

func TestAnalyzeGauges(t *testing.T) {
	m := Analyze([]Event{
		{T: 0, Kind: GaugeSet, Subject: "node0", Detail: "membw", Node: 0, Node2: NoNode, Value: 0.25},
		{T: 4, Kind: GaugeSet, Subject: "node0", Detail: "membw", Node: 0, Node2: NoNode, Value: 0.75},
	})
	g := m.Gauges["node0/membw"]
	if g == nil {
		t.Fatal("gauge missing")
	}
	if !almost(g.Peak(), 0.75) || !almost(g.MeanOver(0, 4), 0.25) {
		t.Errorf("gauge peak=%v mean=%v", g.Peak(), g.MeanOver(0, 4))
	}
}

func TestLinkLabel(t *testing.T) {
	if LinkLabel(0, 3) != "n0->n3" {
		t.Errorf("LinkLabel = %q", LinkLabel(0, 3))
	}
}
