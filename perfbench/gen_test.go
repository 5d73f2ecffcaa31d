package main

import (
	"bytes"
	"testing"

	"ensemblekit/internal/cluster"
)

// bodies lists the request bodies a workload sends for seed: priming
// and warm-up first, then the first n timed campaigns.
func bodies(t *testing.T, workload string, seed int64, n int) [][]byte {
	t.Helper()
	p, err := newPlan(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	if p.prime != nil {
		out = append(out, p.prime)
	}
	out = append(out, p.warmup...)
	for k := 0; k < n; k++ {
		b, _, err := p.campaign(k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, w := range []string{coldSweep, warmResubmit, durableMixed} {
		a, b := bodies(t, w, 7, 6), bodies(t, w, 7, 6)
		other := bodies(t, w, 8, 6)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: body %d differs between two generations with seed 7", w, i)
			}
			if bytes.Equal(a[i], other[i]) {
				t.Errorf("%s: body %d is the same for seeds 7 and 8", w, i)
			}
		}
	}
}

func TestGeneratedPlacementsValidate(t *testing.T) {
	for _, w := range []string{coldSweep, warmResubmit, durableMixed} {
		for i, body := range bodies(t, w, 3, 20) {
			req, err := decode(body)
			if err != nil {
				t.Fatalf("%s body %d: %v", w, i, err)
			}
			for _, p := range req.Placements {
				if err := p.Validate(cluster.Cori(p.M())); err != nil {
					t.Errorf("%s body %d: placement %s: %v", w, i, p.Name, err)
				}
			}
			// Expansion validates every JobSpec as the server does.
			if _, err := jobCount(req); err != nil {
				t.Errorf("%s body %d: %v", w, i, err)
			}
		}
	}
}

func TestColdSweepHashesUnique(t *testing.T) {
	// A 15 s run on a 2-core host makes about 140 cold-sweep campaigns.
	seen := make(map[string]int)
	for k := 0; k < 300; k++ {
		cands, err := coldRequest(11, k).Sweep.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			for _, spec := range c.Specs {
				h, err := spec.Hash()
				if err != nil {
					t.Fatal(err)
				}
				if prev, dup := seen[h]; dup {
					t.Fatalf("campaign %d repeats a job hash of campaign %d", k, prev)
				}
				seen[h] = k
			}
		}
	}
}

func TestDurableSeedSchedule(t *testing.T) {
	// Each seed is fresh exactly once, reused once at most, and every
	// timed campaign is half fresh seeds, a quarter reused from the
	// previous campaign of its stream and a quarter from durableDepth
	// campaigns back.
	firstUse := make(map[int64]int)
	for k := -2 * durableDepth; k < 40; k++ {
		seeds := durableRequest(5, k).Seeds
		for j, s := range seeds {
			prev, seen := firstUse[s]
			switch {
			case j < 2 && seen:
				t.Fatalf("campaign %d: fresh seed %d already used by campaign %d", k, s, prev)
			case j == 2 && (!seen || prev != k-2):
				t.Fatalf("campaign %d: memory-hit seed first used by campaign %d, want %d", k, prev, k-2)
			case j == 3 && (!seen || prev != k-2*durableDepth):
				t.Fatalf("campaign %d: disk-hit seed first used by campaign %d, want %d", k, prev, k-2*durableDepth)
			}
			if !seen {
				firstUse[s] = k
			}
		}
		if want := map[bool]int{true: 4, false: 2}[k >= 0]; len(seeds) != want {
			t.Fatalf("campaign %d has %d seeds, want %d", k, len(seeds), want)
		}
	}
}
