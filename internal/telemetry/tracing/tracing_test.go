package tracing

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestTracer() *Tracer { return NewTracer(NewStore(0, 0)) }

func TestTraceparentRoundTrip(t *testing.T) {
	tr := newTestTracer()
	_, s := tr.StartSpan(context.Background(), "root", "server")
	h := s.Context().Traceparent()
	sc, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if sc != s.Context() {
		t.Fatalf("round trip: got %+v want %+v", sc, s.Context())
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"00-00000000000000000000000000000000-0000000000000000-01", // all-zero IDs
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7x01", // bad separator
		"00-ZZf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // non-hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01extra",
	}
	for _, h := range bad {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", h)
		}
	}
	// A longer header with a valid continuation separator parses.
	ok := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-anything"
	if _, err := ParseTraceparent(ok); err != nil {
		t.Errorf("ParseTraceparent(%q): %v", ok, err)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.StartSpan(context.Background(), "x", "server")
	if s != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil tracer polluted the context")
	}
	// All span methods are no-ops on nil.
	s.SetAttr(String("k", "v"))
	s.SetError(context.Canceled)
	s.End()
	if s.TraceID() != "" || s.SpanID() != "" {
		t.Fatal("nil span has non-empty IDs")
	}
	if s.Recording() {
		t.Fatal("nil span claims to record")
	}
	if tr.SubtreeRoom(SpanContext{}) != 0 {
		t.Fatal("nil tracer reports subtree room")
	}
	sub := tr.NewSubtree(SpanContext{}, 4)
	if sub != nil {
		t.Fatal("nil tracer returned a non-nil subtree")
	}
	if sub.SpanAt(SpanContext{}, "x", "k", time.Now(), time.Now()).IsValid() {
		t.Fatal("nil subtree SpanAt returned a valid context")
	}
	if sub.Commit() != 0 {
		t.Fatal("nil subtree committed spans")
	}
	var st *Store
	if st.Spans(TraceID{1}) != nil || st.Len() != 0 || st.Dropped() != 0 {
		t.Fatal("nil store not inert")
	}
}

func TestSpanParenting(t *testing.T) {
	tr := newTestTracer()
	ctx, root := tr.StartSpan(context.Background(), "root", "server")
	ctx2, child := tr.StartSpan(ctx, "child", "campaign")
	_, grand := tr.StartSpan(ctx2, "grand", "job")

	if child.Context().TraceID != root.Context().TraceID {
		t.Fatal("child switched traces")
	}
	if grand.Context().TraceID != root.Context().TraceID {
		t.Fatal("grandchild switched traces")
	}
	grand.End()
	child.End()
	root.End()

	spans := tr.Store().Spans(root.Context().TraceID)
	if len(spans) != 3 {
		t.Fatalf("stored %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, d := range spans {
		byName[d.Name] = d
	}
	if byName["child"].Parent != root.Context().SpanID {
		t.Fatal("child not parented to root")
	}
	if byName["grand"].Parent != child.Context().SpanID {
		t.Fatal("grandchild not parented to child")
	}
	if byName["root"].Parent.IsValid() {
		t.Fatal("root has a parent")
	}
	if got := Depth(spans); got != 3 {
		t.Fatalf("Depth = %d, want 3", got)
	}
}

func TestRemoteParent(t *testing.T) {
	tr := newTestTracer()
	remote, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithRemote(context.Background(), remote)
	_, s := tr.StartSpan(ctx, "server", "server")
	if s.Context().TraceID != remote.TraceID {
		t.Fatal("remote trace ID not adopted")
	}
	s.End()
	spans := tr.Store().Spans(remote.TraceID)
	if len(spans) != 1 || spans[0].Parent != remote.SpanID {
		t.Fatalf("span not parented to remote context: %+v", spans)
	}
}

func TestEndIdempotentAndOrdering(t *testing.T) {
	tr := newTestTracer()
	_, s := tr.StartSpan(context.Background(), "x", "job")
	s.SetError(context.DeadlineExceeded)
	s.End()
	s.End() // second End must not double-store
	spans := tr.Store().Spans(s.Context().TraceID)
	if len(spans) != 1 {
		t.Fatalf("stored %d spans, want 1", len(spans))
	}
	if !spans[0].IsError || spans[0].Status != context.DeadlineExceeded.Error() {
		t.Fatalf("error status lost: %+v", spans[0])
	}
	if spans[0].End.Before(spans[0].Start) {
		t.Fatal("end before start")
	}
}

func TestSpanAtBridgesUnderParent(t *testing.T) {
	tr := newTestTracer()
	_, root := tr.StartSpan(context.Background(), "exec", "execute")
	t0 := root.Context()
	base := time.Unix(100, 0)
	sub := tr.NewSubtree(t0, 2)
	comp := sub.SpanAt(t0, "sim[0]", "component", base, base.Add(2*time.Second))
	sub.SpanAt(comp, "S", "stage:S", base, base.Add(time.Second))
	if n := len(tr.Store().Spans(t0.TraceID)); n != 0 {
		t.Fatalf("%d spans stored before Commit", n)
	}
	if n := sub.Commit(); n != 2 {
		t.Fatalf("Commit stored %d spans, want 2", n)
	}
	if n := sub.Commit(); n != 0 {
		t.Fatalf("second Commit stored %d spans, want 0", n)
	}
	root.End()
	spans := tr.Store().Spans(t0.TraceID)
	if len(spans) != 3 {
		t.Fatalf("stored %d spans, want 3", len(spans))
	}
	if got := Depth(spans); got != 3 {
		t.Fatalf("Depth = %d, want 3", got)
	}
}

func TestStoreBounds(t *testing.T) {
	st := NewStore(2, 3)
	tr := NewTracer(st)
	var traces []TraceID
	for i := 0; i < 3; i++ {
		ctx, s := tr.StartSpan(context.Background(), "root", "server")
		traces = append(traces, s.Context().TraceID)
		for k := 0; k < 5; k++ {
			_, c := tr.StartSpan(ctx, "c", "job")
			c.End()
		}
		s.End()
	}
	if st.Len() != 2 {
		t.Fatalf("store retained %d traces, want 2 (FIFO bound)", st.Len())
	}
	if st.Spans(traces[0]) != nil {
		t.Fatal("oldest trace not evicted")
	}
	for _, id := range traces[1:] {
		if n := len(st.Spans(id)); n != 3 {
			t.Fatalf("trace retained %d spans, want 3 (per-trace cap)", n)
		}
	}
	if st.Dropped() == 0 {
		t.Fatal("dropped counter not advanced")
	}
}

// subtreeOf builds an uncommitted subtree of n flat spans under parent.
func subtreeOf(tr *Tracer, parent SpanContext, n int) *Subtree {
	sub := tr.NewSubtree(parent, n)
	base := time.Unix(100, 0)
	for i := 0; i < n; i++ {
		sub.SpanAt(parent, "c", "component", base, base.Add(time.Second))
	}
	return sub
}

func TestSubtreeEvictsOldestTrace(t *testing.T) {
	st := NewStore(2, 0)
	tr := NewTracer(st)
	var traces []TraceID
	for i := 0; i < 3; i++ {
		_, s := tr.StartSpan(context.Background(), "exec", "execute")
		traces = append(traces, s.Context().TraceID)
		if n := subtreeOf(tr, s.Context(), 4).Commit(); n != 4 {
			t.Fatalf("trace %d: Commit stored %d spans, want 4", i, n)
		}
	}
	if st.Len() != 2 {
		t.Fatalf("store retained %d traces, want 2 (FIFO bound)", st.Len())
	}
	if st.Spans(traces[0]) != nil {
		t.Fatal("oldest trace not evicted")
	}
	for _, id := range traces[1:] {
		if n := len(st.Spans(id)); n != 4 {
			t.Fatalf("trace retained %d spans, want 4", n)
		}
	}
}

func TestSubtreeBudget(t *testing.T) {
	const limit = 10 // subtrees may fill 5
	st := NewStore(0, limit)
	tr := NewTracer(st)
	ctx, root := tr.StartSpan(context.Background(), "job", "job")
	sc := root.Context()
	if got := tr.SubtreeRoom(sc); got != limit/2 {
		t.Fatalf("fresh trace room %d, want %d", got, limit/2)
	}

	// Whole: a subtree that fits is stored entire.
	if n := subtreeOf(tr, sc, 3).Commit(); n != 3 {
		t.Fatalf("fitting subtree stored %d spans, want 3", n)
	}
	if got := tr.SubtreeRoom(sc); got != 2 {
		t.Fatalf("room after 3 of 5: %d, want 2", got)
	}
	// Or nothing: 3 more would pass half the cap, so none is stored.
	if n := subtreeOf(tr, sc, 3).Commit(); n != 0 {
		t.Fatalf("oversized subtree stored %d spans, want 0", n)
	}
	if n := len(st.Spans(sc.TraceID)); n != 3 {
		t.Fatalf("trace holds %d spans after the refusal, want 3", n)
	}
	if got := st.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want the 3 refused spans", got)
	}
	// The refusal closes the budget: even a subtree that would fit the
	// remaining 2 is refused, and counted.
	if got := tr.SubtreeRoom(sc); got != 0 {
		t.Fatalf("room after a refusal: %d, want 0", got)
	}
	if n := subtreeOf(tr, sc, 1).Commit(); n != 0 {
		t.Fatalf("subtree after the budget closed stored %d spans", n)
	}
	if got := st.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}

	// StartSpan spans still fill the rest of the cap.
	for i := 0; i < limit; i++ {
		_, s := tr.StartSpan(ctx, "queue", "queue")
		s.End()
	}
	root.End()
	spans := st.Spans(sc.TraceID)
	if len(spans) != limit {
		t.Fatalf("trace holds %d spans, want the cap %d", len(spans), limit)
	}
	kinds := map[string]int{}
	for _, d := range spans {
		kinds[d.Kind]++
	}
	if kinds["component"] != 3 || kinds["queue"] != limit-3 {
		t.Fatalf("span kinds %v, want 3 subtree spans and the rest live spans", kinds)
	}
}

func TestSubtreeNeverExceedsHalfCap(t *testing.T) {
	const limit = 64
	st := NewStore(0, limit)
	tr := NewTracer(st)
	_, root := tr.StartSpan(context.Background(), "job", "job")
	sc := root.Context()
	stored := 0
	for tr.SubtreeRoom(sc) > 0 {
		stored += subtreeOf(tr, sc, 7).Commit()
	}
	if stored > limit/2 {
		t.Fatalf("subtrees stored %d spans, more than half of the cap %d", stored, limit)
	}
	if stored != 28 {
		t.Fatalf("subtrees stored %d spans, want 4 whole subtrees of 7", stored)
	}
	if n := len(st.Spans(sc.TraceID)); n != stored {
		t.Fatalf("trace holds %d spans, want %d", n, stored)
	}
}

func TestSubtreeRoomRespectsTotalCap(t *testing.T) {
	const limit = 8
	st := NewStore(0, limit)
	tr := NewTracer(st)
	ctx, root := tr.StartSpan(context.Background(), "job", "job")
	for i := 0; i < limit-2; i++ {
		_, s := tr.StartSpan(ctx, "queue", "queue")
		s.End()
	}
	// Live spans took all but 2 slots, under the subtree half of 4.
	if got := tr.SubtreeRoom(root.Context()); got != 2 {
		t.Fatalf("room %d, want the 2 slots left under the total cap", got)
	}
	if n := subtreeOf(tr, root.Context(), 3).Commit(); n != 0 {
		t.Fatalf("subtree past the total cap stored %d spans", n)
	}
	if n := len(st.Spans(root.Context().TraceID)); n != limit-2 {
		t.Fatalf("trace holds %d spans, want %d", n, limit-2)
	}
}

func TestStoreConcurrent(t *testing.T) {
	tr := newTestTracer()
	_, root := tr.StartSpan(context.Background(), "root", "server")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, s := tr.StartSpan(ContextWithSpan(context.Background(), root), "w", "job")
				s.SetAttr(Int("i", i))
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if n := len(tr.Store().Spans(root.Context().TraceID)); n != 8*200+1 {
		t.Fatalf("stored %d spans, want %d", n, 8*200+1)
	}
}

func TestIDUniqueness(t *testing.T) {
	tr := newTestTracer()
	seen := make(map[SpanID]bool)
	for i := 0; i < 10000; i++ {
		id := tr.newSpanID()
		if !id.IsValid() {
			t.Fatal("generated zero span ID")
		}
		if seen[id] {
			t.Fatalf("duplicate span ID after %d draws", i)
		}
		seen[id] = true
	}
}

func TestOTLPRoundTrip(t *testing.T) {
	tr := newTestTracer()
	ctx, root := tr.StartSpan(context.Background(), "req", "server", String("http.route", "/v1/campaigns"))
	_, child := tr.StartSpan(ctx, "job", "job", Int("priority", 5), Float("objective", 1.25), Bool("cacheHit", false))
	child.SetError(context.Canceled)
	child.End()
	root.End()

	spans := tr.Store().Spans(root.Context().TraceID)
	var buf bytes.Buffer
	if err := WriteOTLP(&buf, "ensembled", spans); err != nil {
		t.Fatalf("WriteOTLP: %v", err)
	}
	if !strings.Contains(buf.String(), `"resourceSpans"`) || !strings.Contains(buf.String(), `"ensembled"`) {
		t.Fatalf("OTLP document missing envelope:\n%s", buf.String())
	}

	got, err := ReadOTLP(&buf)
	if err != nil {
		t.Fatalf("ReadOTLP: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip returned %d spans, want 2", len(got))
	}
	byName := map[string]SpanData{}
	for _, d := range got {
		byName[d.Name] = d
	}
	j := byName["job"]
	if j.Kind != "job" || j.Parent != root.Context().SpanID || !j.IsError {
		t.Fatalf("job span mangled: %+v", j)
	}
	if j.Status != context.Canceled.Error() {
		t.Fatalf("status message lost: %q", j.Status)
	}
	var prio, obj, hit bool
	for _, a := range j.Attrs {
		switch a.Key {
		case "priority":
			prio = a.Value == int64(5)
		case "objective":
			obj = a.Value == 1.25
		case "cacheHit":
			hit = a.Value == false
		}
	}
	if !prio || !obj || !hit {
		t.Fatalf("attribute values mangled: %+v", j.Attrs)
	}
	r := byName["req"]
	if r.Kind != "server" || r.Parent.IsValid() {
		t.Fatalf("root span mangled: %+v", r)
	}
	// Times survive at nanosecond resolution.
	if !r.Start.Equal(byName["req"].Start) || r.End.Sub(r.Start) < 0 {
		t.Fatal("timestamps mangled")
	}
}

func TestWriteOTLPDeterministic(t *testing.T) {
	tr := newTestTracer()
	_, root := tr.StartSpan(context.Background(), "root", "server")
	base := time.Unix(50, 0)
	sub := tr.NewSubtree(root.Context(), 5)
	for i := 0; i < 5; i++ {
		sub.SpanAt(root.Context(), "c", "job", base.Add(time.Duration(i)*time.Second), base.Add(time.Duration(i+1)*time.Second))
	}
	sub.Commit()
	root.End()
	spans := tr.Store().Spans(root.Context().TraceID)
	var a, b bytes.Buffer
	if err := WriteOTLP(&a, "svc", spans); err != nil {
		t.Fatal(err)
	}
	if err := WriteOTLP(&b, "svc", spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteOTLP not deterministic for fixed input")
	}
}
