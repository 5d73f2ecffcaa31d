// Command perfbench is the repository benchmark: one client process
// drives a real ensembled binary over loopback HTTP through a closed
// loop of campaigns (one campaign in flight), checks every campaign's
// result against an in-process reference, and prints the end-to-end
// metrics. With --trace 1 it also makes a separate traced run of the
// same workload and seed that reports per-layer metrics, measured from
// outside the program: client spans around every HTTP call, the
// counters the server exports, and an in-process replay of each
// campaign through the layers' public functions.
//
// Usage (perfbench/run.sh builds both binaries first):
//
//	perfbench -ensembled BIN -out DIR --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero
// when a result fails its fingerprint or ordering check.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	gort "runtime"
	"sort"
	"time"
)

// setups is how many times a run starts the server to time its set-up;
// setup_s is their median. A start takes a few milliseconds and varies
// by tens of percent with fsync and page-cache state, so the median
// needs many samples.
const setups = 11

func main() {
	var (
		bin      = flag.String("ensembled", "", "ensembled binary to benchmark")
		outRoot  = flag.String("out", ".bench_build/runs", "directory for server logs, state dirs and the trace artifact")
		workload = flag.String("workload", "", "workload: cold-sweep, warm-resubmit or durable-mixed")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 15, "length of the timed load in seconds")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if *bin == "" || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -ensembled BIN --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	p, err := newPlan(*workload, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	dir := filepath.Join(*outRoot, fmt.Sprintf("%s-s%d-t%d", *workload, *seed, *traced))
	if err := os.RemoveAll(dir); err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b := &bench{bin: *bin, dir: dir, plan: p, seconds: *seconds}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d\n",
		*workload, *seed, *seconds, *traced, gort.NumCPU(), gort.GOMAXPROCS(0))
	fmt.Printf("  why: %s\n  server flags: %s\n", p.why, p.flagsDoc)

	var out *result
	if *traced == 1 {
		out, err = b.tracedRun()
	} else {
		out, err = b.timedRun()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench holds one invocation's settings.
type bench struct {
	bin     string
	dir     string
	plan    *plan
	seconds float64
	nserver int // servers started so far (names their logs and state dirs)
}

// start launches a fresh server with the workload's deployment flags,
// primes it when the workload's set-up includes priming, and returns it
// with its set-up time.
func (b *bench) start() (*server, *client, time.Duration, error) {
	b.nserver++
	name := fmt.Sprintf("server-%d", b.nserver)
	state := filepath.Join(b.dir, name+".state")
	args, err := b.plan.serverArgs(state)
	if err != nil {
		return nil, nil, 0, err
	}
	srv, setup, err := startServer(b.bin, filepath.Join(b.dir, name+".log"), args)
	if err != nil {
		return nil, nil, 0, err
	}
	if b.plan.durable {
		srv.state = state
	}
	c := newClient(srv.base)
	if b.plan.prime != nil {
		t0 := time.Now()
		if _, err := b.plan.runUntimed(c, b.plan.prime); err != nil {
			c.close()
			srv.stop()
			return nil, nil, 0, fmt.Errorf("priming: %w", err)
		}
		setup += time.Since(t0)
	}
	return srv, c, setup, nil
}

// timedRun is the untraced run: it times set-up several times, then
// runs the closed-loop load for the configured seconds on the last
// server it started, and reports the end-to-end metrics.
func (b *bench) timedRun() (*result, error) {
	var setupTimes []float64
	var srv *server
	var c *client
	for i := 0; i < setups; i++ {
		s, cl, d, err := b.start()
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		if i < setups-1 {
			cl.close()
			s.stop()
			continue
		}
		srv, c = s, cl
	}
	err := b.warmup(c)
	var ld *load
	if err == nil {
		ld, err = b.load(srv, c, 0, nil)
	}
	c.close()
	srv.stop()
	if err != nil {
		return nil, err
	}
	chk, err := b.check(newReference(), ld, "timed load")
	if err != nil {
		return nil, err
	}
	e2e, err := endToEnd(ld, chk, median(setupTimes))
	if err != nil {
		return nil, err
	}
	e2e.print(b.plan, setups)
	if b.plan.intended != nil {
		printMix(b.plan.intended, ld.statsDelta)
	}
	return &result{
		Correct:   chk.ok(),
		Attempted: e2e.attempted,
		Failed:    e2e.failed,
		Metrics:   e2e.metrics(),
	}, nil
}

// load is one timed closed-loop load.
type load struct {
	runs       []*campaignRun
	wall       time.Duration // summed time of the campaigns' request paths
	cpuSec     float64       // server CPU time over the load
	rssMB      float64       // server peak RSS at the end of the load
	statsDelta stats         // /v1/stats counters over the load
}

// warmup runs the workload's untimed warm-up campaigns.
func (b *bench) warmup(c *client) error {
	for _, body := range b.plan.warmup {
		if _, err := b.plan.runUntimed(c, body); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// load drives campaigns 0, 1, ... through c, one in flight, until the
// timed part reaches b.seconds, or exactly n campaigns when n > 0.
// after, when set, runs between campaigns outside the timed part (the
// traced run's counter reads and replay).
func (b *bench) load(srv *server, c *client, n int, after func(*campaignRun) error) (*load, error) {
	var before stats
	if err := c.getJSON("/v1/stats", &before); err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	ld := &load{}
	for k := 0; ; k++ {
		if (n > 0 && k == n) || (n == 0 && ld.wall.Seconds() >= b.seconds) {
			break
		}
		body, jobs, err := b.plan.campaign(k)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		r, err := c.run(body, jobs)
		if err == nil && b.plan.durable && !r.refused {
			// durable-mixed reads the service's own telemetry and the
			// campaign's ledger once per campaign, as an operator would.
			_, err = c.timedGet(r, "/metrics", "GET /metrics", "telemetry")
			if err == nil {
				_, err = c.timedGet(r, "/v1/campaigns/"+r.id+"/accounting",
					"GET /v1/campaigns/{id}/accounting", "campaign.accounting")
			}
		}
		ld.wall += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("campaign %d: %w", k, err)
		}
		ld.runs = append(ld.runs, r)
		if after != nil {
			if err := after(r); err != nil {
				return nil, err
			}
		}
	}
	cpu1, err := cpuSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	ld.cpuSec = cpu1 - cpu0
	if ld.rssMB, err = peakRSSMB(srv.pid()); err != nil {
		return nil, err
	}
	var end stats
	if err := c.getJSON("/v1/stats", &end); err != nil {
		return nil, err
	}
	ld.statsDelta = end.sub(before)
	return ld, nil
}

// checks records the outcome of the correctness gate.
type checks struct {
	campaigns int
	bad       []string // one line per campaign that failed its check
	badJobs   int      // jobs of those campaigns
}

func (c *checks) ok() bool { return len(c.bad) == 0 }

// check verifies every campaign of the load against the reference.
func (b *bench) check(ref *reference, ld *load, label string) (*checks, error) {
	chk := &checks{}
	for _, r := range ld.runs {
		if r.refused {
			continue
		}
		chk.campaigns++
		want, err := ref.of(r.body)
		if err != nil {
			return nil, err
		}
		if err := b.plan.verify(r, want); err != nil {
			chk.bad = append(chk.bad, fmt.Sprintf("campaign %s (%s): %v", r.id, r.sum.Name, err))
			chk.badJobs += r.jobs
		}
	}
	for _, line := range chk.bad {
		fmt.Printf("  CHECK FAILED: %s\n", line)
	}
	fmt.Printf("  correctness (%s): %d/%d campaigns match the in-process reference fingerprint%s\n",
		label, chk.campaigns-len(chk.bad), chk.campaigns, b.plan.orderNote())
	return chk, nil
}

// e2e holds the end-to-end figures of one load.
type e2e struct {
	jobsPerS, campaignP50, jobP50, jobP99, cpuPerJob, rssMB, setupS, failedFrac float64

	campaigns, jobSamples, aboveP99 int
	attempted, failed               int
}

// endToEnd computes the end-to-end metrics of a load.
func endToEnd(ld *load, chk *checks, setupS float64) (*e2e, error) {
	out := &e2e{rssMB: ld.rssMB, setupS: setupS}
	var campMS, jobMS []float64
	terminal, failed := 0, 0
	for _, r := range ld.runs {
		out.attempted += r.jobs
		failed += r.failedJobs()
		if r.refused {
			continue
		}
		campMS = append(campMS, ms(r.summary.Sub(r.start)))
		for _, ev := range r.terminal() {
			terminal++
			jobMS = append(jobMS, ms(ev.recv.Sub(r.start)))
		}
	}
	if terminal == 0 || len(campMS) == 0 {
		return nil, errors.New("the load brought no job to a terminal state")
	}
	out.failed = failed + chk.badJobs
	out.failedFrac = float64(out.failed) / float64(out.attempted)
	out.jobsPerS = float64(terminal) / ld.wall.Seconds()
	out.cpuPerJob = ld.cpuSec * 1000 / float64(terminal)
	out.campaigns = len(campMS)
	out.campaignP50 = median(campMS)
	out.jobSamples = len(jobMS)
	out.jobP50 = median(jobMS)
	out.jobP99 = quantile(jobMS, 0.99)
	for _, v := range jobMS {
		if v > out.jobP99 {
			out.aboveP99++
		}
	}
	if out.aboveP99 < 10 {
		return nil, fmt.Errorf("job_ms_p99 rests on %d samples with %d above it; the run needs at least 10 above",
			out.jobSamples, out.aboveP99)
	}
	return out, nil
}

// metrics returns the end_to_end metrics of BENCHMARK.json.
func (e *e2e) metrics() map[string]metric {
	return map[string]metric{
		"jobs_per_s":      {e.jobsPerS, "jobs/s"},
		"campaign_ms_p50": {e.campaignP50, "ms"},
		"job_ms_p50":      {e.jobP50, "ms"},
		"job_ms_p99":      {e.jobP99, "ms"},
		"cpu_ms_per_job":  {e.cpuPerJob, "ms"},
		"peak_rss_mb":     {e.rssMB, "MB"},
		"setup_s":         {e.setupS, "s"},
	}
}

// print writes all eight end-to-end metrics with their units and the
// sample counts behind each percentile.
func (e *e2e) print(p *plan, nsetups int) {
	fmt.Printf("  end-to-end (%s, closed loop, one campaign in flight):\n", p.workload)
	row := func(name string, v float64, unit, note string) {
		fmt.Printf("    %-16s %14.4f %-7s %s\n", name, v, unit, note)
	}
	row("jobs_per_s", e.jobsPerS, "jobs/s", fmt.Sprintf("%d terminal jobs", e.jobSamples))
	row("campaign_ms_p50", e.campaignP50, "ms", fmt.Sprintf("n=%d campaigns", e.campaigns))
	row("job_ms_p50", e.jobP50, "ms", fmt.Sprintf("n=%d jobs", e.jobSamples))
	row("job_ms_p99", e.jobP99, "ms", fmt.Sprintf("n=%d jobs, %d above", e.jobSamples, e.aboveP99))
	row("cpu_ms_per_job", e.cpuPerJob, "ms", "server utime+stime over the load")
	row("peak_rss_mb", e.rssMB, "MB", "server VmHWM")
	row("setup_s", e.setupS, "s", fmt.Sprintf("median of %d set-ups", nsetups))
	row("failed_frac", e.failedFrac, "ratio", fmt.Sprintf("%d of %d jobs failed, refused or unverified", e.failed, e.attempted))
}

// printMix prints durable-mixed's intended cache mix next to the mix
// /v1/stats observed over the load.
func printMix(want *mix, d stats) {
	if d.Submitted == 0 {
		return
	}
	n := float64(d.Submitted)
	got := mix{
		memory: float64(d.CacheHits-d.DiskHits-d.FleetHits) / n,
		disk:   float64(d.DiskHits) / n,
		miss:   float64(d.CacheMisses) / n,
	}
	fmt.Printf("  cache mix intended memory/disk/miss = %.3f/%.3f/%.3f, observed = %.3f/%.3f/%.3f (%d submissions)\n",
		want.memory, want.disk, want.miss, got.memory, got.disk, got.miss, d.Submitted)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
