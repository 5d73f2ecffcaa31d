// Package tracing is a dependency-free (stdlib-only) distributed-tracing
// core: 128-bit trace IDs, 64-bit span IDs, W3C traceparent propagation,
// an in-process span store with OTLP-shaped JSON export, and per-trace
// critical-path extraction.
//
// Like the rest of the telemetry tier, the package is nil-safe by
// design: every method on a nil *Tracer or nil *Span returns
// immediately (StartSpan on a nil tracer hands back a nil span whose
// End is a no-op), so instrumented code threads handles unconditionally
// and an untraced service pays one branch per call site — see
// BenchmarkTracingOverhead at the repository root.
//
// The package deliberately imports nothing from the rest of the module:
// internal/telemetry and internal/obs both build on top of it, so any
// internal import here would close a cycle.
package tracing

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit trace identifier (W3C trace-context trace-id).
type TraceID [16]byte

// IsValid reports whether the ID is non-zero (the all-zero ID is the
// W3C "invalid" sentinel).
func (t TraceID) IsValid() bool { return t != TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is a 64-bit span identifier (W3C trace-context parent-id).
type SpanID [8]byte

// IsValid reports whether the ID is non-zero.
func (s SpanID) IsValid() bool { return s != SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated identity of a span: which trace it
// belongs to and which span is the direct parent of anything started
// under it.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// IsValid reports whether both IDs are non-zero.
func (sc SpanContext) IsValid() bool { return sc.TraceID.IsValid() && sc.SpanID.IsValid() }

// Traceparent renders the context as a W3C traceparent header value
// (version 00, sampled flag set).
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value. It accepts
// any version byte except "ff", requires the version-00 field layout,
// and rejects all-zero IDs, per the trace-context spec.
func ParseTraceparent(h string) (SpanContext, error) {
	var sc SpanContext
	if len(h) < 55 {
		return sc, fmt.Errorf("traceparent too short: %d bytes", len(h))
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return sc, fmt.Errorf("traceparent malformed: %q", h)
	}
	if h[:2] == "ff" {
		return sc, fmt.Errorf("traceparent version ff is invalid")
	}
	if len(h) > 55 && h[55] != '-' {
		return sc, fmt.Errorf("traceparent malformed after flags: %q", h)
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(h[3:35])); err != nil {
		return sc, fmt.Errorf("traceparent trace-id: %w", err)
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(h[36:52])); err != nil {
		return sc, fmt.Errorf("traceparent parent-id: %w", err)
	}
	if _, err := hex.Decode(make([]byte, 1), []byte(h[53:55])); err != nil {
		return sc, fmt.Errorf("traceparent flags: %w", err)
	}
	if !sc.IsValid() {
		return sc, fmt.Errorf("traceparent has all-zero IDs")
	}
	return sc, nil
}

// Attr is one span attribute. Values are JSON-encoded on export;
// strings, bools, ints, and floats render as native OTLP value kinds,
// anything else is stringified.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: int64(v)} }

// Int64 builds an integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool builds a bool attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Span is one live span. All methods are safe on a nil receiver and
// safe for concurrent use; End is idempotent (the first call wins).
type Span struct {
	tracer *Tracer
	sc     SpanContext
	parent SpanID

	mu      sync.Mutex
	name    string
	kind    string
	start   time.Time
	end     time.Time // zero until End
	attrs   []Attr
	status  string // "" = unset/ok, otherwise error message
	isError bool
}

// Context returns the span's propagation context (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the span's trace ID as hex, or "" for nil spans.
// The string form feeds log correlation without importing this package
// into the logger.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceID.String()
}

// SpanID returns the span's own ID as hex, or "" for nil spans.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.sc.SpanID.String()
}

// Recording reports whether operations on the span will be retained.
func (s *Span) Recording() bool { return s != nil }

// SetAttr attaches attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// SetError marks the span failed with the error's message. A nil error
// is ignored, so call sites can pass their return error unconditionally.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.isError = true
	s.status = err.Error()
	s.mu.Unlock()
}

// SetStatus marks the span failed (or not) with an explicit message.
func (s *Span) SetStatus(isError bool, msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.isError = isError
	s.status = msg
	s.mu.Unlock()
}

// End completes the span at the current wall clock and hands it to the
// tracer's store. Only the first call has effect.
func (s *Span) End() { s.EndAt(time.Time{}) }

// EndAt completes the span at a caller-chosen instant (zero means now).
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.end.IsZero() {
		s.mu.Unlock()
		return
	}
	if at.IsZero() {
		at = time.Now()
	}
	if at.Before(s.start) {
		at = s.start
	}
	s.end = at
	data := s.snapshotLocked()
	s.mu.Unlock()
	s.tracer.store.add(data)
}

// snapshotLocked copies the span into its exported form; s.mu held.
func (s *Span) snapshotLocked() SpanData {
	return SpanData{
		TraceID: s.sc.TraceID,
		SpanID:  s.sc.SpanID,
		Parent:  s.parent,
		Name:    s.name,
		Kind:    s.kind,
		Start:   s.start,
		End:     s.end,
		Attrs:   append([]Attr(nil), s.attrs...),
		IsError: s.isError,
		Status:  s.status,
	}
}

// SpanData is a completed span as stored and exported.
type SpanData struct {
	TraceID TraceID
	SpanID  SpanID
	Parent  SpanID // zero for root spans
	Name    string
	Kind    string // span taxonomy: "server", "campaign", "job", "queue", "execute", "component", "stage:S", "dtl:put", ...
	Start   time.Time
	End     time.Time
	Attrs   []Attr
	IsError bool
	Status  string
}

// Duration returns End-Start.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Tracer creates spans and retains completed ones in a bounded store.
// A nil *Tracer is a valid no-op tracer. Safe for concurrent use.
type Tracer struct {
	store *Store
	// idState seeds splitmix64; advanced atomically so ID generation is
	// lock-free. Seeded from crypto/rand at construction.
	idState atomic.Uint64
}

// NewTracer returns a tracer retaining completed spans in store (which
// must be non-nil; use NewStore).
func NewTracer(store *Store) *Tracer {
	t := &Tracer{store: store}
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		t.idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		t.idState.Store(uint64(time.Now().UnixNano()))
	}
	return t
}

// Store returns the tracer's span store (nil for a nil tracer).
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

// nextID advances splitmix64 and returns a well-mixed 64-bit value.
func (t *Tracer) nextID() uint64 {
	for {
		z := t.idState.Add(0x9e3779b97f4a7c15)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], t.nextID())
	binary.BigEndian.PutUint64(id[8:], t.nextID())
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], t.nextID())
	return id
}

// StartSpan starts a span named name with the given kind. The parent is
// resolved from ctx: an in-process span (ContextWithSpan) wins, then a
// remote context (ContextWithRemote); with neither, a new trace is
// rooted. Returns the derived context carrying the new span, and the
// span. On a nil tracer both are pass-throughs (ctx unchanged, nil
// span).
func (t *Tracer) StartSpan(ctx context.Context, name, kind string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var sc SpanContext
	var parent SpanID
	if p := SpanFromContext(ctx); p != nil {
		sc.TraceID = p.sc.TraceID
		parent = p.sc.SpanID
	} else if r := remoteFromContext(ctx); r.IsValid() {
		sc.TraceID = r.TraceID
		parent = r.SpanID
	} else {
		sc.TraceID = t.newTraceID()
	}
	sc.SpanID = t.newSpanID()
	s := &Span{
		tracer: t,
		sc:     sc,
		parent: parent,
		name:   name,
		kind:   kind,
		start:  time.Now(),
		attrs:  attrs,
	}
	return ContextWithSpan(ctx, s), s
}

// SubtreeRoom reports how many pre-timed spans a Subtree under sc may
// still store in sc's trace: the rest of the trace's subtree budget
// (half its span cap), or 0 once the budget has closed. Callers use it
// to skip producing detail that the store would refuse. A nil tracer
// has no room.
func (t *Tracer) SubtreeRoom(sc SpanContext) int {
	if t == nil {
		return 0
	}
	return t.store.subtreeRoom(sc.TraceID)
}

// Subtree buffers completed spans with caller-supplied timestamps under
// one parent and stores them in a single all-or-nothing Commit. It is
// the bridge entry point: obs events (virtual clock) are replayed as
// finished spans with wall-clock times mapped by the caller. Methods on
// a nil *Subtree are no-ops. Not safe for concurrent use.
type Subtree struct {
	tracer *Tracer
	trace  TraceID
	spans  []SpanData
}

// NewSubtree starts a subtree in parent's trace, with room for sizeHint
// spans before it grows; a parent without a trace has no subtree room,
// so Commit stores nothing. A nil tracer returns a nil subtree.
func (t *Tracer) NewSubtree(parent SpanContext, sizeHint int) *Subtree {
	if t == nil {
		return nil
	}
	return &Subtree{tracer: t, trace: parent.TraceID, spans: make([]SpanData, 0, max(sizeHint, 0))}
}

// SpanAt buffers a completed span under parent (the subtree's parent or
// a context SpanAt returned earlier) and returns its context. A nil
// subtree records nothing and returns the zero context.
func (s *Subtree) SpanAt(parent SpanContext, name, kind string, start, end time.Time, attrs ...Attr) SpanContext {
	if s == nil {
		return SpanContext{}
	}
	if end.Before(start) {
		end = start
	}
	sc := SpanContext{TraceID: s.trace, SpanID: s.tracer.newSpanID()}
	s.spans = append(s.spans, SpanData{
		TraceID: sc.TraceID,
		SpanID:  sc.SpanID,
		Parent:  parent.SpanID,
		Name:    name,
		Kind:    kind,
		Start:   start,
		End:     end,
		Attrs:   attrs,
	})
	return sc
}

// Commit stores every buffered span, or none when they exceed the
// trace's remaining subtree room (which closes the trace's subtree
// budget and counts the spans in Store.Dropped), and empties the
// buffer. Returns the number of spans stored.
func (s *Subtree) Commit() int {
	if s == nil || len(s.spans) == 0 {
		return 0
	}
	n := len(s.spans)
	ok := s.tracer.store.addSubtree(s.trace, s.spans)
	s.spans = nil
	if !ok {
		return 0
	}
	return n
}

type ctxKey int

const (
	spanKey ctxKey = iota
	remoteKey
)

// ContextWithSpan returns ctx carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, s)
}

// SpanFromContext returns the current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// ContextWithRemote returns ctx carrying a remote parent context (from
// an incoming traceparent header). StartSpan consults it only when no
// in-process span is present.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.IsValid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey, sc)
}

func remoteFromContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(remoteKey).(SpanContext)
	return sc
}
