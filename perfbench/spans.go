package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"time"

	"ensemblekit/internal/telemetry/tracing"
)

// Span kinds are the repository modules, so the self-time table reads
// by layer. Client spans wrap the benchmark's own HTTP calls: their time
// is time the client waited on the server, reported as the layer's wait.
const (
	kindCampaign  = "bench.campaign"  // one root per campaign
	kindReplay    = "bench.replay"    // the in-process replay of a campaign
	kindJob       = "job"             // one replayed job (traceview roots here)
	kindReference = "bench.reference" // the in-process reference run
	sideAttr      = "bench.side"
	sideClient    = "client"
)

// spanLog keeps the benchmark's spans in memory until the run ends. It
// is used from one goroutine.
type spanLog struct {
	spans []tracing.SpanData
	trace tracing.TraceID
	next  uint64
}

func (l *spanLog) newID() tracing.SpanID {
	l.next++
	var id tracing.SpanID
	binary.BigEndian.PutUint64(id[:], l.next)
	return id
}

// root opens a new trace with a root span covering [start, end]; end may
// be extended later with setEnd.
func (l *spanLog) root(name string, start time.Time) (int, tracing.SpanID) {
	l.next++
	binary.BigEndian.PutUint64(l.trace[:8], uint64(time.Now().UnixNano()))
	binary.BigEndian.PutUint64(l.trace[8:], l.next)
	return l.at(tracing.SpanID{}, name, kindCampaign, start, start)
}

// at records a span with known times and returns its index and ID.
func (l *spanLog) at(parent tracing.SpanID, name, kind string, start, end time.Time, attrs ...tracing.Attr) (int, tracing.SpanID) {
	id := l.newID()
	l.spans = append(l.spans, tracing.SpanData{
		TraceID: l.trace, SpanID: id, Parent: parent,
		Name: name, Kind: kind, Start: start, End: end, Attrs: attrs,
	})
	return len(l.spans) - 1, id
}

// begin opens a span now; end closes it.
func (l *spanLog) begin(parent tracing.SpanID, name, kind string) (int, tracing.SpanID) {
	now := time.Now()
	return l.at(parent, name, kind, now, now)
}

func (l *spanLog) end(i int) { l.spans[i].End = time.Now() }

func (l *spanLog) setEnd(i int, t time.Time) { l.spans[i].End = t }

// context returns the span context of span i, for bridging under it.
func (l *spanLog) context(i int) tracing.SpanContext {
	return tracing.SpanContext{TraceID: l.spans[i].TraceID, SpanID: l.spans[i].SpanID}
}

// write stores the spans as an OTLP/JSON document.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracing.WriteOTLP(f, "perfbench", l.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is one row of the self-time table.
type layerTime struct {
	calls int
	self  time.Duration // replay spans: duration minus time covered by child spans
	wait  time.Duration // client spans plus the waits the server reports
}

// selfTimes folds the spans into per-kind rows. A span's self time is
// its duration minus the union of its children's intervals clipped to
// it; client spans count as wait, not self time.
func selfTimes(spans []tracing.SpanData) map[string]*layerTime {
	children := make(map[tracing.SpanID][]int)
	for i, s := range spans {
		if s.Parent.IsValid() {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rows := make(map[string]*layerTime)
	for _, s := range spans {
		row := rows[s.Kind]
		if row == nil {
			row = &layerTime{}
			rows[s.Kind] = row
		}
		if isClient(s) {
			row.wait += s.Duration()
			continue
		}
		row.calls++
		row.self += s.Duration() - covered(s, spans, children[s.SpanID])
	}
	return rows
}

func isClient(s tracing.SpanData) bool {
	for _, a := range s.Attrs {
		if a.Key == sideAttr && a.Value == sideClient {
			return true
		}
	}
	return false
}

// covered returns how much of parent's interval the given child spans
// cover (their union, clipped to the parent).
func covered(parent tracing.SpanData, spans []tracing.SpanData, kids []int) time.Duration {
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			total += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}

// printLayerTable prints count, self time and wait per layer, in the
// order of the repository's layers.
func printLayerTable(rows map[string]*layerTime) {
	order := []string{kindCampaign, kindReference, kindReplay, kindJob, "campaign.http", "campaign.planner", "campaign.spec",
		"campaign.service", "runtime", "obs+telemetry/tracing", "indicators+core",
		"campaign.accounting", "campaign.journal", "campaign.events", "telemetry"}
	fmt.Printf("  per-layer self time (traced run; wait = client time on the layer's endpoints + server-reported waits):\n")
	fmt.Printf("    %-24s %8s %12s %12s %12s\n", "layer", "calls", "self_ms", "self_us/call", "wait_ms")
	for _, k := range order {
		r := rows[k]
		if r == nil {
			continue
		}
		per := 0.0
		if r.calls > 0 {
			per = float64(r.self.Microseconds()) / float64(r.calls)
		}
		fmt.Printf("    %-24s %8d %12.3f %12.3f %12.3f\n", k, r.calls, ms(r.self), per, ms(r.wait))
	}
}
