package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"ensemblekit/internal/telemetry/tracing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesLayers(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark computes %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		got := bj.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, got, m.name, m.unit, m.better)
		}
	}
	for _, w := range bj.Workloads {
		if whys[w.Name] != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, benchmark prints %q", w.Name, w.Why, whys[w.Name])
		}
	}
	var names []string
	for _, m := range bj.EndToEnd {
		names = append(names, m.Name)
	}
	var want []string
	for name := range (&e2e{}).metrics() {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("end_to_end metrics %v, the benchmark reports %v", names, want)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(s, e int) (time.Time, time.Time) {
		return t0.Add(time.Duration(s) * time.Millisecond), t0.Add(time.Duration(e) * time.Millisecond)
	}
	var l spanLog
	_, root := l.root("campaign", t0)
	l.setEnd(0, t0.Add(100*time.Millisecond))
	s, e := at(10, 40)
	_, job := l.at(root, "job", kindJob, s, e)
	s, e = at(10, 20)
	l.at(job, "hash", "campaign.spec", s, e)
	s, e = at(15, 30) // overlaps the first child
	l.at(job, "hash", "campaign.spec", s, e)
	s, e = at(35, 50) // runs past its parent
	l.at(job, "run", "runtime", s, e)
	s, e = at(50, 90)
	l.at(root, "POST", "campaign.http", s, e, tracing.String(sideAttr, sideClient))

	rows := selfTimes(l.spans)
	check := func(kind string, calls int, self, wait time.Duration) {
		t.Helper()
		r := rows[kind]
		if r == nil || r.calls != calls || r.self != self || r.wait != wait {
			t.Errorf("%s = %+v, want calls %d self %v wait %v", kind, r, calls, self, wait)
		}
	}
	check(kindJob, 1, 5*time.Millisecond, 0)          // 30 ms minus [10,30] and [35,40]
	check(kindCampaign, 1, 30*time.Millisecond, 0)    // 100 ms minus the job and the client span
	check("campaign.spec", 2, 25*time.Millisecond, 0) // no children
	check("campaign.http", 0, 0, 40*time.Millisecond) // client time is wait
	check("runtime", 1, 15*time.Millisecond, 0)
}
