package tracing

import "sync"

// Store retains completed spans grouped by trace, bounded two ways:
// at most maxTraces traces (oldest trace evicted whole, FIFO) and at
// most maxSpansPerTrace spans per trace (later spans dropped, counted).
// Whole-trace eviction keeps every retained trace internally complete —
// a partially evicted trace would break critical-path extraction.
// A nil *Store drops everything. Safe for concurrent use.
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

// add appends a completed span to its trace, applying both bounds.
func (st *Store) add(d SpanData) {
	if st == nil || !d.TraceID.IsValid() {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.traces[d.TraceID]
	if e == nil {
		for len(st.order) >= st.maxTraces {
			oldest := st.order[0]
			st.order = st.order[1:]
			delete(st.traces, oldest)
		}
		e = &traceEntry{}
		st.traces[d.TraceID] = e
		st.order = append(st.order, d.TraceID)
	}
	if len(e.spans) >= st.maxSpansPerTrace {
		e.dropped++
		st.dropped++
		return
	}
	e.spans = append(e.spans, d)
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

// Dropped returns the total spans dropped by the per-trace cap.
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
