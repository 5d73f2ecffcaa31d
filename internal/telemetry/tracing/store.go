package tracing

import "sync"

// Store retains completed spans grouped by trace, bounded two ways:
// at most maxTraces traces (oldest trace evicted whole, FIFO) and at
// most maxSpansPerTrace spans per trace (later spans dropped, counted).
// Whole-trace eviction keeps every retained trace internally complete —
// a partially evicted trace would break critical-path extraction.
//
// Pre-timed subtrees (the DES detail the obs bridge replays under a
// job's execute span) are stored whole or not at all, and together may
// fill at most half of maxSpansPerTrace; the other half stays free for
// the live service spans. The first subtree a trace refuses closes that
// trace's subtree budget, so later jobs skip building detail that could
// not be stored. A nil *Store drops everything. Safe for concurrent use.
type Store struct {
	mu               sync.Mutex
	maxTraces        int
	maxSpansPerTrace int
	traces           map[TraceID]*traceEntry
	order            []TraceID // insertion order for FIFO eviction
	dropped          uint64    // spans dropped by the per-trace cap
}

type traceEntry struct {
	spans   []SpanData
	dropped int
	subtree int  // spans stored through addSubtree
	closed  bool // a subtree was refused: no further subtrees are taken
}

// DefaultMaxTraces bounds retained traces when NewStore is given 0.
const DefaultMaxTraces = 128

// DefaultMaxSpansPerTrace bounds spans per trace when NewStore is given 0.
const DefaultMaxSpansPerTrace = 8192

// NewStore returns a bounded span store; zero limits select the
// defaults.
func NewStore(maxTraces, maxSpansPerTrace int) *Store {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	if maxSpansPerTrace <= 0 {
		maxSpansPerTrace = DefaultMaxSpansPerTrace
	}
	return &Store{
		maxTraces:        maxTraces,
		maxSpansPerTrace: maxSpansPerTrace,
		traces:           make(map[TraceID]*traceEntry),
	}
}

// entryLocked returns the trace's entry, creating it (and evicting the
// oldest traces past maxTraces) when absent; st.mu held.
func (st *Store) entryLocked(id TraceID) *traceEntry {
	e := st.traces[id]
	if e == nil {
		for len(st.order) >= st.maxTraces {
			oldest := st.order[0]
			st.order = st.order[1:]
			delete(st.traces, oldest)
		}
		e = &traceEntry{}
		st.traces[id] = e
		st.order = append(st.order, id)
	}
	return e
}

// add appends a completed span to its trace, applying both bounds.
func (st *Store) add(d SpanData) {
	if st == nil || !d.TraceID.IsValid() {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.entryLocked(d.TraceID)
	if len(e.spans) >= st.maxSpansPerTrace {
		e.dropped++
		st.dropped++
		return
	}
	e.spans = append(e.spans, d)
}

// roomLocked is how many more subtree spans trace e may take: the rest
// of the subtree half of the cap, limited by the total cap; 0 once the
// budget has closed. A nil e is a trace with nothing stored yet.
func (st *Store) roomLocked(e *traceEntry) int {
	budget := st.maxSpansPerTrace / 2
	if e == nil {
		return budget
	}
	if e.closed {
		return 0
	}
	return max(0, min(budget-e.subtree, st.maxSpansPerTrace-len(e.spans)))
}

// subtreeRoom reports how many subtree spans trace id may still take.
func (st *Store) subtreeRoom(id TraceID) int {
	if st == nil || !id.IsValid() {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.roomLocked(st.traces[id])
}

// addSubtree stores every span of a subtree in trace id, or none of
// them: a subtree larger than the trace's remaining room is refused,
// its spans are counted as dropped, and the trace's subtree budget
// closes. Reports whether the spans were stored.
func (st *Store) addSubtree(id TraceID, spans []SpanData) bool {
	if st == nil || !id.IsValid() {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.entryLocked(id)
	if len(spans) > st.roomLocked(e) {
		e.closed = true
		e.dropped += len(spans)
		st.dropped += uint64(len(spans))
		return false
	}
	e.spans = append(e.spans, spans...)
	e.subtree += len(spans)
	return true
}

// Spans returns a copy of every retained span of the trace, in
// completion order (children before parents, since a parent ends
// last). Returns nil for unknown traces or a nil store.
func (st *Store) Spans(id TraceID) []SpanData {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.traces[id]
	if e == nil {
		return nil
	}
	return append([]SpanData(nil), e.spans...)
}

// Dropped returns the total spans dropped by the per-trace cap or in
// refused subtrees.
func (st *Store) Dropped() uint64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.dropped
}

// Len returns the number of retained traces.
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.traces)
}
