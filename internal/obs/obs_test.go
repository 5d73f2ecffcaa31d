package obs

import (
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder should report disabled")
	}
	// Every method must be a no-op on the nil receiver.
	r.ProcStart("p", 0)
	r.ProcEnd("p", 0)
	r.StageBegin("p", "S", 0)
	r.StageEnd("p", "S", 0, 10)
	r.ResourceAcquire("cores", 0, 8)
	r.ResourceRelease("cores", 0, 8)
	r.QueueDepth("q", 3)
	r.PutBegin("dimes", 0, 100)
	r.PutEnd("dimes", 0, 100)
	r.GetBegin("dimes", 0, 1, 100)
	r.GetEnd("dimes", 0, 1, 100)
	r.FlowStart("n0->n1", 0, 1, 100)
	r.FlowEnd("n0->n1", 0, 1, 100)
	r.Gauge("node0", "membw", 0, 0.5)
	r.Emit(Event{})
	r.EmitNow(Event{})
	r.Reset()
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder must hold no events")
	}
}

func TestRecorderStampsClock(t *testing.T) {
	now := 0.0
	r := NewRecorder(func() float64 { return now })
	r.ProcStart("m0.sim", 0)
	now = 1.5
	r.StageBegin("m0.sim", "S", 0)
	now = 2.5
	r.StageEnd("m0.sim", "S", 0, 0)
	r.ProcEnd("m0.sim", 0)

	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	wantT := []float64{0, 1.5, 2.5, 2.5}
	wantK := []Kind{ProcStart, StageBegin, StageEnd, ProcEnd}
	for i, ev := range evs {
		if ev.T != wantT[i] || ev.Kind != wantK[i] {
			t.Errorf("event %d = {T:%v Kind:%v}, want {T:%v Kind:%v}", i, ev.T, ev.Kind, wantT[i], wantK[i])
		}
	}
	if evs[1].Subject != "m0.sim" || evs[1].Detail != "S" {
		t.Errorf("stage event mislabeled: %+v", evs[1])
	}
	r.Reset()
	if r.Len() != 0 {
		t.Error("Reset should drop events")
	}
}

func TestRecorderNoClock(t *testing.T) {
	r := NewRecorder(nil)
	r.QueueDepth("q", 2)
	if r.Events()[0].T != 0 {
		t.Error("clockless recorder should stamp zero")
	}
	if !r.Enabled() {
		t.Error("non-nil recorder should report enabled")
	}
}

func TestKindString(t *testing.T) {
	if ProcStart.String() != "proc-start" || GetEnd.String() != "get-end" {
		t.Errorf("unexpected kind names: %v %v", ProcStart, GetEnd)
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Error("unknown kind should include its number")
	}
	if Kind(200).Valid() {
		t.Error("Kind(200) should be invalid")
	}
	for k := Kind(0); k.Valid(); k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
}

// fakeSink records forwarded telemetry calls.
type fakeSink struct {
	counts map[string]float64
	queues map[string]int
	gauges map[string]float64
}

func (s *fakeSink) Count(name string, total float64)   { s.counts[name] = total }
func (s *fakeSink) QueueDepth(queue string, depth int) { s.queues[queue] = depth }
func (s *fakeSink) Gauge(subject, name string, _ int, v float64) {
	s.gauges[subject+"/"+name] = v
}

func TestRecorderForwardsToSink(t *testing.T) {
	s := &fakeSink{
		counts: map[string]float64{},
		queues: map[string]int{},
		gauges: map[string]float64{},
	}
	r := NewRecorder(nil)
	r.SetSink(s)
	r.Count("campaign.cache.hits", 3)
	r.Count("campaign.cache.hits", 5) // latest total wins
	r.QueueDepth("campaign.queue", 4)
	r.Gauge("node0", "membw", 0, 0.75)

	if s.counts["campaign.cache.hits"] != 5 {
		t.Errorf("count forwarded %v, want 5", s.counts["campaign.cache.hits"])
	}
	if s.queues["campaign.queue"] != 4 {
		t.Errorf("queue depth forwarded %v, want 4", s.queues["campaign.queue"])
	}
	if s.gauges["node0/membw"] != 0.75 {
		t.Errorf("gauge forwarded %v, want 0.75", s.gauges["node0/membw"])
	}
	// The event log records everything the sink saw.
	if r.Len() != 4 {
		t.Errorf("recorder kept %d events, want 4", r.Len())
	}

	// A nil sink on a live recorder must be a no-op, not a panic.
	r.SetSink(nil)
	r.Count("campaign.cache.hits", 6)
	if s.counts["campaign.cache.hits"] != 5 {
		t.Error("cleared sink still received forwards")
	}
}

// TestSinkRecorderKeepsNoEvents pins the sink-only recorder a long-lived
// service bridges its counters through: every counter, queue-depth, and
// gauge emission reaches the sink, and no emission of any kind is kept.
func TestSinkRecorderKeepsNoEvents(t *testing.T) {
	s := &fakeSink{
		counts: map[string]float64{},
		queues: map[string]int{},
		gauges: map[string]float64{},
	}
	r := NewSinkRecorder(s)
	for i := 1; i <= 1000; i++ {
		r.Count("campaign.submitted", float64(i))
		r.QueueDepth("campaign.queue", i%7)
		r.Gauge("campaign", "running", NoNode, float64(i%3))
		r.StageBegin("m0.sim", "S", 0)
		r.Emit(Event{Kind: ProcStart, Subject: "m0.sim"})
	}
	if s.counts["campaign.submitted"] != 1000 || s.queues["campaign.queue"] != 1000%7 ||
		s.gauges["campaign/running"] != 1000%3 {
		t.Errorf("sink saw counts %v queues %v gauges %v", s.counts, s.queues, s.gauges)
	}
	if n := len(r.Events()); n != 0 || r.Len() != 0 {
		t.Fatalf("sink-only recorder kept %d events", n)
	}
}
