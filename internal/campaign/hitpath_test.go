package campaign

import (
	"context"
	"testing"
)

// warmService returns an untraced service whose memory tier already holds
// spec's result, so every further Submit of spec is a cache hit.
func warmService(tb testing.TB, spec JobSpec) *Service {
	tb.Helper()
	svc, err := NewService(Config{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(svc.Close)
	j, err := svc.SubmitWait(context.Background(), spec, SubmitOptions{Campaign: "warm"})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return svc
}

// BenchmarkSubmitCacheHit measures one memory-tier hit end to end inside
// the service: validate, hash, cache lookup, ledger credit, job record,
// and event publish.
func BenchmarkSubmitCacheHit(b *testing.B) {
	spec := jobFor(b, 1)
	svc := warmService(b, spec)
	opts := SubmitOptions{Campaign: "warm"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := svc.Submit(context.Background(), spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !j.CacheHit {
			b.Fatal("submission missed the cache")
		}
	}
}

// hitAllocCeiling bounds the allocations of one untraced cache-hit Submit
// of jobFor's spec: the measured count is 29 (Go 1.24, linux/amd64) and
// the ceiling leaves a small margin. An allocating walk over the cached
// trace, such as rebuilding its obs event stream to derive the ledger
// (86 allocations per hit even on this 4-step trace), fails the test.
// Under -race the count varies between 36 and 38, so the race build
// gets its own margin.
const (
	hitAllocCeiling     = 36
	hitAllocCeilingRace = 46
)

func TestCacheHitAllocCeiling(t *testing.T) {
	spec := jobFor(t, 1)
	svc := warmService(t, spec)
	opts := SubmitOptions{Campaign: "warm"}
	allocs := testing.AllocsPerRun(200, func() {
		j, err := svc.Submit(context.Background(), spec, opts)
		if err != nil || !j.CacheHit {
			t.Fatalf("warm submit: hit=%v err=%v", j != nil && j.CacheHit, err)
		}
	})
	ceiling := hitAllocCeiling
	if raceEnabled {
		ceiling = hitAllocCeilingRace
	}
	if allocs > float64(ceiling) {
		t.Fatalf("cache-hit Submit allocates %.0f times, ceiling %d", allocs, ceiling)
	}
	t.Logf("cache-hit Submit: %.0f allocs (ceiling %d)", allocs, ceiling)
}
