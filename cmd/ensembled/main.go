// Command ensembled serves the campaign service over HTTP: a bounded
// worker pool evaluating ensemble placements with a content-addressed
// result cache, exposed as a JSON API with Prometheus metrics, live
// server-sent-events campaign streams, structured JSON logs, and
// (opt-in) pprof profiling.
//
// Usage:
//
//	ensembled [-addr :8080] [-workers N] [-queue N]
//	          [-cache-bytes N] [-cache-dir DIR]
//	          [-state-dir DIR] [-retry N] [-exec-delay DUR]
//	          [-node-id ID] [-advertise URL] [-join URL,URL] [-heartbeat DUR]
//	          [-log-level info] [-pprof] [-no-trace]
//	          [-trace-traces N] [-trace-spans N]
//	          [-smoke] [-smoke-chaos] [-smoke-pool] [-artifacts-dir DIR]
//
// With -state-dir the service is crash-safe: every campaign, job
// enqueue, and terminal job state is fsync'd to an append-only journal
// (DIR/journal.wal) before it is acknowledged, and results persist in a
// checksummed disk cache (DIR/cache unless -cache-dir overrides it). On
// startup the journal is replayed: finished jobs resolve from the cache,
// unfinished ones re-enter the queue, and open campaigns relaunch under
// their original IDs — a SIGKILL'd service resumes exactly where it
// stopped. -retry bounds executions per job (transient failures back off
// and re-enqueue; default 3; 1 disables retries).
//
// Endpoints:
//
//	POST /v1/campaigns               submit a sweep ({"configs":["table2"]})
//	GET  /v1/campaigns               list campaigns
//	GET  /v1/campaigns/{id}          poll a campaign (F(P) ranking once done)
//	GET  /v1/campaigns/{id}/events   live SSE stream: one event per job state
//	                                 transition plus a terminal summary
//	GET  /v1/jobs/{id}               one job's status (incl. trace ID, reason)
//	GET  /v1/jobs/{id}/trace         Perfetto (Chrome JSON) trace of a done job
//	GET  /v1/jobs/{id}/spans         distributed-trace spans (OTLP JSON)
//	GET  /v1/jobs/{id}/critical-path per-job critical path with stage breakdown
//	GET  /v1/stats                   cache hit rate, queue depth, worker counters
//	GET  /healthz                    liveness (200 while the process serves)
//	GET  /readyz                     readiness (503 when draining/saturated/journal unwritable)
//	GET  /metrics                    Prometheus text exposition (service + obs)
//	GET  /debug/pprof/*              runtime profiles (only with -pprof)
//
// Distributed tracing is on by default (-no-trace disables it): every
// request gets a server span, campaigns and jobs become child spans, and
// each job's DES run is bridged in as stage-level spans, queryable via
// the /spans and /critical-path endpoints or correlated with logs via
// trace_id.
//
// -smoke starts the server on a loopback listener, POSTs the paper's
// Table 2 campaign to it twice (cold then warm cache), scrapes /metrics,
// checks /healthz and /readyz, consumes one SSE stream end to end,
// verifies the distributed trace of a job (span depth and critical-path
// accounting), prints the ranking and the cache stats, and exits — the
// self-test behind `make serve`. With -artifacts-dir the smoke test
// writes the fetched spans and critical path there as JSON files (CI
// uploads them as artifacts).
//
// -smoke-chaos is the crash-recovery self-test: it re-executes this
// binary as a server with a state dir and slowed executions, POSTs a
// Table 2 campaign, kills the server with SIGKILL mid-flight, restarts
// it against the same state dir, waits for the resumed campaign to
// finish, and asserts its result fingerprint is identical to an
// uninterrupted in-process run of the same sweep.
//
// Any of -node-id, -advertise, or -join enables the distributed
// campaign fabric: the process joins (or seeds) a peer pool that routes
// every job by its content hash to a deterministic owner, consults the
// owner's cache before executing, and forwards execution when the hash
// belongs elsewhere, so N ensembled processes serve one logical
// campaign service with one fleet-wide cache. -node-id and -advertise
// default to the bound listen address; -join lists seed peer base URLs.
// The pool mounts under /v1/pool/ and exports pool_* metrics; /readyz
// stays 503 until a joining node reaches a seed. On SIGTERM a pool
// member forwards its still-queued jobs to ring successors before
// exiting instead of journaling them for a local restart.
//
// -smoke-pool is the fabric self-test: it launches three ensembled
// processes as one localhost pool, runs a campaign against node 1 while
// SIGKILLing node 3 mid-flight, asserts the fingerprint still matches
// an uninterrupted in-process run, then re-submits the sweep on node 2
// and asserts the fleet cache tier answered across nodes (pool metric
// pool_cache_hits_total > 0, pool_forwards_total > 0).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ensemblekit/internal/campaign"
	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/campaign/pool"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/placement"
	"ensemblekit/internal/telemetry"
	"ensemblekit/internal/telemetry/tracing"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "job queue depth (0 = default 256)")
		cacheBytes  = flag.Int64("cache-bytes", 0, "in-memory result-cache budget (0 = default 256 MiB)")
		cacheDir    = flag.String("cache-dir", "", "optional on-disk result cache directory")
		stateDir    = flag.String("state-dir", "", "durable state directory: journal (DIR/journal.wal) + default disk cache (DIR/cache)")
		retry       = flag.Int("retry", 3, "max executions per job; transient failures back off and re-enqueue (1 disables retries)")
		execDelay   = flag.Duration("exec-delay", 0, "artificially stretch each execution (chaos/load testing only)")
		memberPar   = flag.Int("member-parallelism", 0, "simulate eligible jobs' independent members on up to this many cores each (0 = joint path; results are bit-identical)")
		fastPath    = flag.Bool("fastpath", false, "answer fault-free steady-state-eligible jobs from the Eq. 1-9 closed forms instead of the DES (bit-identical)")
		verifyFP    = flag.Bool("verify-fastpath", false, "cross-check every fast-path hit against a DES re-run (implies -fastpath; validation mode)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		pprofOn     = flag.Bool("pprof", false, "expose GET /debug/pprof/* runtime profiles")
		noTrace     = flag.Bool("no-trace", false, "disable distributed tracing")
		traceTraces = flag.Int("trace-traces", 0, "max retained traces (0 = default 128)")
		traceSpans  = flag.Int("trace-spans", 0, "max retained spans per trace (0 = default 8192); DES detail spans use at most half of it")
		nodeID      = flag.String("node-id", "", "pool identity of this node (enables the fabric; default: the bound listen address)")
		advertise   = flag.String("advertise", "", "base URL peers reach this node at (enables the fabric; default: http://<bound address>)")
		join        = flag.String("join", "", "comma-separated seed peer base URLs to join (enables the fabric)")
		heartbeat   = flag.Duration("heartbeat", 0, "pool heartbeat interval (0 = default 1s)")
		smoke       = flag.Bool("smoke", false, "run the Table 2 self-test against a loopback server and exit")
		smokeChaos  = flag.Bool("smoke-chaos", false, "run the kill -9 / resume self-test and exit")
		smokePool   = flag.Bool("smoke-pool", false, "run the 3-node pool self-test and exit")
		artifacts   = flag.String("artifacts-dir", "", "smoke only: write fetched spans and critical path here")
		addrFile    = flag.String("addr-file", "", "write the bound listen address to this file (used by the chaos harness)")
	)
	flag.Parse()
	cfg := serverConfig{
		addr: *addr, workers: *workers, queue: *queue,
		cacheBytes: *cacheBytes, cacheDir: *cacheDir, logLevel: *logLevel,
		stateDir: *stateDir, retry: *retry, execDelay: *execDelay,
		memberPar: *memberPar, fastPath: *fastPath, verifyFP: *verifyFP,
		nodeID: *nodeID, advertise: *advertise, join: *join, heartbeat: *heartbeat,
		pprofOn: *pprofOn, noTrace: *noTrace,
		traceTraces: *traceTraces, traceSpans: *traceSpans,
		smoke: *smoke, smokeChaos: *smokeChaos, smokePool: *smokePool,
		artifactsDir: *artifacts,
		addrFile:     *addrFile,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ensembled: %v\n", err)
		os.Exit(1)
	}
}

// serverConfig carries the parsed flags.
type serverConfig struct {
	addr               string
	workers, queue     int
	cacheBytes         int64
	cacheDir, logLevel string
	stateDir           string
	retry              int
	execDelay          time.Duration
	memberPar          int
	fastPath, verifyFP bool
	nodeID             string
	advertise          string
	join               string
	heartbeat          time.Duration
	pprofOn, noTrace   bool
	traceTraces        int
	traceSpans         int
	smoke, smokeChaos  bool
	smokePool          bool
	artifactsDir       string
	addrFile           string
}

// poolEnabled reports whether any fabric flag was given.
func (c serverConfig) poolEnabled() bool {
	return c.nodeID != "" || c.advertise != "" || c.join != ""
}

func run(cfg serverConfig) error {
	if cfg.smokeChaos {
		return smokeChaos(cfg.stateDir)
	}
	if cfg.smokePool {
		return smokePool(cfg.stateDir)
	}
	level, ok := telemetry.ParseLevel(cfg.logLevel)
	if !ok {
		return fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", cfg.logLevel)
	}
	log := telemetry.NewLogger(os.Stderr, level)
	reg := telemetry.NewRegistry()

	// -state-dir bundles durability: the journal plus (unless overridden)
	// a disk cache, so replayed jobs resolve without re-executing.
	journalPath := ""
	if cfg.stateDir != "" {
		if err := os.MkdirAll(cfg.stateDir, 0o755); err != nil {
			return fmt.Errorf("state dir: %w", err)
		}
		journalPath = filepath.Join(cfg.stateDir, "journal.wal")
		if cfg.cacheDir == "" {
			cfg.cacheDir = filepath.Join(cfg.stateDir, "cache")
		}
	}

	// The sink-only obs recorder bridges the service's counters into the
	// Prometheus registry (so one scrape covers both telemetry tiers)
	// without keeping an event log that would grow with every submit.
	rec := obs.NewSinkRecorder(telemetry.NewObsSink(reg))

	var tracer *tracing.Tracer
	if !cfg.noTrace {
		tracer = tracing.NewTracer(tracing.NewStore(cfg.traceTraces, cfg.traceSpans))
	}

	svc, err := campaign.NewService(campaign.Config{
		Workers:     cfg.workers,
		QueueDepth:  cfg.queue,
		CacheBytes:  cfg.cacheBytes,
		CacheDir:    cfg.cacheDir,
		JournalPath: journalPath,
		Retry:       campaign.RetryPolicy{MaxAttempts: cfg.retry},
		ExecDelay:   cfg.execDelay,

		MemberParallelism: cfg.memberPar,
		FastPath:          cfg.fastPath,
		VerifyFastPath:    cfg.verifyFP,

		Recorder: rec,
		Metrics:  reg,
		Logger:   log,
		Tracer:   tracer,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	api := campaign.NewServer(svc)

	addr := cfg.addr
	if cfg.smoke {
		addr = "127.0.0.1:0" // the self-test picks its own port
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}

	// The fabric is wired before Resume so journal-replayed jobs route
	// through the ring from their first execution. -node-id and
	// -advertise default to the bound address, so a bare -join suffices
	// on localhost.
	var pl *pool.Pool
	if cfg.poolEnabled() {
		selfID := cfg.nodeID
		if selfID == "" {
			selfID = ln.Addr().String()
		}
		adv := cfg.advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		var seeds []string
		for _, s := range strings.Split(cfg.join, ",") {
			if s = strings.TrimSpace(s); s != "" {
				seeds = append(seeds, s)
			}
		}
		pl, err = pool.New(pool.Config{
			SelfID:    selfID,
			Advertise: adv,
			Join:      seeds,
			Heartbeat: cfg.heartbeat,
			Local:     svc,
			Permanent: campaign.IsPermanent,
			Metrics:   reg,
			Logger:    log,
			Tracer:    tracer,
		})
		if err != nil {
			return err
		}
		defer pl.Close()
		svc.SetFabric(pl)
		api.AddReadyCheck(pl.Ready)
		log.Info("pool fabric enabled", "node", selfID, "advertise", adv, "seeds", len(seeds))
	}

	api.Resume() // relaunch campaigns left open in the journal

	mux := http.NewServeMux()
	mux.Handle("/v1/", api.Handler())
	mux.Handle("GET /healthz", api.Handler())
	mux.Handle("GET /readyz", api.Handler())
	mux.Handle("GET /metrics", reg.Handler())
	if pl != nil {
		mux.Handle("/v1/pool/", pl.Handler())
		pl.Start() // heartbeats + seed joins (retried until first contact)
	}
	if cfg.pprofOn {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	srv := &http.Server{Handler: mux}
	if cfg.addrFile != "" {
		// Tmp-then-rename so a watcher never reads a half-written address.
		tmp := cfg.addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, cfg.addrFile); err != nil {
			return err
		}
	}

	if cfg.smoke {
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		return smokeTest("http://"+ln.Addr().String(), tracer != nil, cfg.artifactsDir)
	}

	log.Info("ensembled listening",
		"addr", ln.Addr().String(), "workers", svc.Stats().Workers,
		"queue", svc.Stats().QueueCapacity, "pprof", cfg.pprofOn,
		"tracing", tracer != nil, "pool", pl != nil)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Info("shutting down")
		api.SetDraining(true) // readiness fails first, so LBs stop routing
		if pl != nil {
			// Graceful drain: still-queued jobs move to ring successors
			// now instead of waiting in the journal for a local restart.
			drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			handed := svc.DrainQueuedToPeers(drainCtx)
			cancel()
			if handed > 0 {
				log.Info("drained queued jobs to peers", "jobs", handed)
			}
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// smokeTest drives the HTTP API end to end: it submits the paper's
// Table 2 campaign twice (verifying the second run is answered entirely
// from the cache), scrapes /metrics, consumes one SSE event stream
// through its terminal summary, and — when tracing is on — verifies a
// job's distributed trace (span-tree depth, critical-path accounting),
// writing the fetched payloads to artifactsDir when set.
func smokeTest(base string, traced bool, artifactsDir string) error {
	ranking, err := runTable2(base)
	if err != nil {
		return err
	}
	fmt.Println("Table 2 campaign ranking (F at P^{U,A,P}):")
	for i, r := range ranking {
		fmt.Printf("  %d. %-5s %.4f\n", i+1, r.Name, r.Value)
	}

	// Second submission: every job's hash is now cached.
	if _, err := runTable2(base); err != nil {
		return fmt.Errorf("warm re-run: %w", err)
	}
	var stats struct {
		campaign.Stats
		HitRate float64 `json:"hitRate"`
	}
	if err := getJSON(base+"/v1/stats", &stats); err != nil {
		return err
	}
	fmt.Printf("cache: %d hits / %d misses (hit rate %.0f%%), %d jobs completed\n",
		stats.CacheHits, stats.CacheMisses, 100*stats.HitRate, stats.Completed)
	if stats.CacheHits == 0 {
		return errors.New("smoke: warm re-run produced no cache hits")
	}

	if err := smokeHealth(base); err != nil {
		return err
	}
	if err := smokeMetrics(base); err != nil {
		return err
	}
	if err := smokeSSE(base); err != nil {
		return err
	}
	if traced {
		if err := smokeTrace(base, artifactsDir); err != nil {
			return err
		}
	}
	fmt.Println("smoke test passed")
	return nil
}

// smokeTrace runs one fresh (uncached, so actually executed) job and
// verifies its distributed trace end to end: the span tree must reach
// at least 4 levels (request → campaign → job → execute → stage chain)
// and the critical-path segments must sum to the job's measured latency
// within 1%. With artifactsDir set, the OTLP spans and the critical
// path are written there for CI to upload.
func smokeTrace(base, artifactsDir string) error {
	// steps:6 differs from the Table 2 runs above, so the job misses the
	// cache and produces execute + DES spans.
	body, _ := json.Marshal(map[string]any{
		"name":    "trace-smoke",
		"configs": []string{"C1.5"},
		"steps":   6,
	})
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var st campaign.CampaignStatus
	if err := decodeJSON(resp, &st); err != nil {
		return err
	}
	deadline := time.Now().Add(2 * time.Minute)
	for st.Status == "running" {
		if time.Now().After(deadline) {
			return fmt.Errorf("smoke: trace campaign %s timed out", st.ID)
		}
		time.Sleep(25 * time.Millisecond)
		if err := getJSON(base+"/v1/campaigns/"+st.ID, &st); err != nil {
			return err
		}
	}
	if st.Status != "done" {
		return fmt.Errorf("smoke: trace campaign %s: %s", st.ID, st.Error)
	}
	if len(st.Result.Candidates) == 0 || len(st.Result.Candidates[0].JobIDs) == 0 {
		return errors.New("smoke: trace campaign produced no jobs")
	}
	jobID := st.Result.Candidates[0].JobIDs[0]

	// The campaign span lands in the store asynchronously right after the
	// poll flips to done; retry briefly until the full chain is present.
	var spans []tracing.SpanData
	var rawSpans []byte
	depth := 0
	for {
		sr, err := http.Get(base + "/v1/jobs/" + jobID + "/spans")
		if err != nil {
			return err
		}
		rawSpans, err = io.ReadAll(sr.Body)
		sr.Body.Close()
		if err != nil {
			return err
		}
		if sr.StatusCode != http.StatusOK {
			return fmt.Errorf("smoke: GET /spans: HTTP %d: %s", sr.StatusCode, rawSpans)
		}
		spans, err = tracing.ReadOTLP(bytes.NewReader(rawSpans))
		if err != nil {
			return fmt.Errorf("smoke: decoding OTLP spans: %w", err)
		}
		depth = tracing.Depth(spans)
		if depth >= 4 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("smoke: span tree depth %d, want >= 4 (%d spans)", depth, len(spans))
		}
		time.Sleep(25 * time.Millisecond)
	}

	var cp tracing.CriticalPath
	cr, err := http.Get(base + "/v1/jobs/" + jobID + "/critical-path")
	if err != nil {
		return err
	}
	rawCP, err := io.ReadAll(cr.Body)
	cr.Body.Close()
	if err != nil {
		return err
	}
	if cr.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke: GET /critical-path: HTTP %d: %s", cr.StatusCode, rawCP)
	}
	if err := json.Unmarshal(rawCP, &cp); err != nil {
		return fmt.Errorf("smoke: decoding critical path: %w", err)
	}
	sum := 0.0
	for _, seg := range cp.Segments {
		sum += seg.Sec
	}
	if cp.TotalSec <= 0 {
		return fmt.Errorf("smoke: degenerate critical path: total %.9fs", cp.TotalSec)
	}
	if diff := sum - cp.TotalSec; diff > 0.01*cp.TotalSec || diff < -0.01*cp.TotalSec {
		return fmt.Errorf("smoke: critical-path segments sum %.9fs vs job latency %.9fs (>1%% off)", sum, cp.TotalSec)
	}

	if artifactsDir != "" {
		if err := os.MkdirAll(artifactsDir, 0o755); err != nil {
			return err
		}
		for name, data := range map[string][]byte{
			jobID + "-spans.json":         rawSpans,
			jobID + "-critical-path.json": rawCP,
		} {
			if err := os.WriteFile(filepath.Join(artifactsDir, name), data, 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("trace artifacts written to %s\n", artifactsDir)
	}

	kinds := map[string]bool{}
	for _, d := range spans {
		kinds[d.Kind] = true
	}
	fmt.Printf("trace: job %s, %d spans, depth %d, critical path %.3fs across %d segments (top kind %s)\n",
		jobID, len(spans), depth, cp.TotalSec, len(cp.Segments), cp.ByKind[0].Kind)
	return nil
}

// smokeHealth checks liveness and readiness: both endpoints must answer
// 200 on a healthy, non-draining server.
func smokeHealth(base string) error {
	var health struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons,omitempty"`
	}
	if err := getJSON(base+"/healthz", &health); err != nil {
		return fmt.Errorf("smoke: GET /healthz: %w", err)
	}
	if health.Status != "ok" {
		return fmt.Errorf("smoke: /healthz status %q, want ok", health.Status)
	}
	if err := getJSON(base+"/readyz", &health); err != nil {
		return fmt.Errorf("smoke: GET /readyz: %w", err)
	}
	if health.Status != "ready" {
		return fmt.Errorf("smoke: /readyz status %q (reasons %v), want ready",
			health.Status, health.Reasons)
	}
	fmt.Println("health: live and ready")
	return nil
}

// smokeMetrics scrapes /metrics and sanity-checks the exposition: the
// service and HTTP families must be present and every sample line must
// have the name{labels} value shape.
func smokeMetrics(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke: GET /metrics: HTTP %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	samples := 0
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			return fmt.Errorf("smoke: malformed metrics line %q", line)
		}
		samples++
	}
	for _, want := range []string{
		"campaign_cache_hits_total", "campaign_queue_depth",
		"campaign_execute_seconds_bucket", "http_requests_total",
		"obs_counter_total",
		"campaign_core_seconds_total", "campaign_core_seconds_saved_total",
	} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("smoke: /metrics missing %s", want)
		}
	}
	fmt.Printf("metrics: %d samples scraped\n", samples)
	return nil
}

// smokeSSE submits a (fully cached) Table 2 campaign and consumes its SSE
// stream: one terminal event per job, then the summary.
func smokeSSE(base string) error {
	body, _ := json.Marshal(map[string]any{
		"name":    "table2-sse",
		"configs": []string{"table2"},
		"steps":   8,
	})
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var st campaign.CampaignStatus
	if err := decodeJSON(resp, &st); err != nil {
		return err
	}

	stream, err := http.Get(base + "/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		return err
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		return fmt.Errorf("smoke: SSE content type %q", ct)
	}

	jobEvents, terminal := 0, 0
	var summary campaign.CampaignSummary
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "job":
				var ev campaign.JobEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return fmt.Errorf("smoke: SSE job event: %w", err)
				}
				jobEvents++
				if ev.Terminal() {
					terminal++
				}
			case "summary":
				if err := json.Unmarshal([]byte(data), &summary); err != nil {
					return fmt.Errorf("smoke: SSE summary event: %w", err)
				}
			case "error":
				return fmt.Errorf("smoke: SSE stream errored: %s", data)
			}
		}
		if summary.Campaign != "" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if summary.Status != "done" {
		return fmt.Errorf("smoke: SSE summary status %q, want done", summary.Status)
	}
	if terminal != summary.Jobs {
		return fmt.Errorf("smoke: SSE delivered %d terminal events for %d jobs", terminal, summary.Jobs)
	}
	fmt.Printf("sse: %d job events (%d terminal), summary best=%s F=%.4f\n",
		jobEvents, terminal, summary.Best, summary.Objective)
	return nil
}

// runTable2 POSTs the Table 2 campaign and polls it to completion.
func runTable2(base string) ([]indicatorRanked, error) {
	body, _ := json.Marshal(map[string]any{
		"name":    "table2-smoke",
		"configs": []string{"table2"},
		"steps":   8,
	})
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var st campaign.CampaignStatus
	if err := decodeJSON(resp, &st); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if err := getJSON(base+"/v1/campaigns/"+st.ID, &st); err != nil {
			return nil, err
		}
		switch st.Status {
		case "done":
			out := make([]indicatorRanked, len(st.Result.Ranking))
			for i, r := range st.Result.Ranking {
				out[i] = indicatorRanked{Name: r.Name, Value: r.Value}
			}
			return out, nil
		case "failed":
			return nil, fmt.Errorf("campaign failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("campaign %s timed out (%d/%d jobs)", st.ID, st.Done, st.Total)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// indicatorRanked mirrors indicators.Ranked for JSON decoding.
type indicatorRanked struct {
	Name  string  `json:"Name"`
	Value float64 `json:"Value"`
}

// smokeChaos is the crash-recovery self-test behind -smoke-chaos: it
// proves a SIGKILL'd server resumes its campaign from the journal and
// produces results identical to a run that was never interrupted.
//
//  1. Run the chaos sweep uninterrupted, in process, and fingerprint it.
//  2. Re-exec this binary as a server with -state-dir and slowed
//     executions, POST the same sweep, and SIGKILL the server once the
//     campaign is mid-flight (some jobs done, some not).
//  3. Restart the server on the same state dir; the journal replay
//     re-enqueues the unfinished jobs, the disk cache answers the
//     finished ones, and Resume relaunches campaign c-1.
//  4. Wait for c-1 to finish and compare its result fingerprint (labels,
//     hashes, objectives, efficiencies, makespans, ranking) against the
//     uninterrupted run's.
func smokeChaos(stateDir string) error {
	if stateDir == "" {
		dir, err := os.MkdirTemp("", "ensembled-chaos-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		stateDir = dir
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	refFP, refJobs, _, err := chaosReference()
	if err != nil {
		return fmt.Errorf("chaos: uninterrupted reference run: %w", err)
	}
	fmt.Printf("chaos: reference fingerprint %s (%d jobs)\n", refFP[:16], refJobs)

	// First server: accept the campaign, then die hard mid-flight.
	base, child, err := startChaosChild(exe, stateDir)
	if err != nil {
		return err
	}
	defer func() {
		if child.Process != nil {
			_ = child.Process.Kill()
			_ = child.Wait()
		}
	}()
	body, _ := json.Marshal(chaosSweepRequest())
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var st campaign.CampaignStatus
	if err := decodeJSON(resp, &st); err != nil {
		return err
	}
	if st.ID != "c-1" {
		return fmt.Errorf("chaos: campaign id %q, want c-1", st.ID)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if err := getJSON(base+"/v1/campaigns/"+st.ID, &st); err != nil {
			return err
		}
		if st.Done >= 1 && st.Done < st.Total {
			break
		}
		if st.Status != "running" || time.Now().After(deadline) {
			return fmt.Errorf("chaos: never caught campaign mid-flight (status %s, %d/%d jobs)",
				st.Status, st.Done, st.Total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	fmt.Printf("chaos: killing server at %d/%d jobs\n", st.Done, st.Total)
	if err := child.Process.Kill(); err != nil { // SIGKILL: no cleanup, no goodbye
		return err
	}
	_ = child.Wait()

	// Second server, same state dir: replay + resume.
	base2, child2, err := startChaosChild(exe, stateDir)
	if err != nil {
		return fmt.Errorf("chaos: restart: %w", err)
	}
	defer func() {
		_ = child2.Process.Kill()
		_ = child2.Wait()
	}()
	for {
		if err := getJSON(base2+"/v1/campaigns/c-1", &st); err != nil {
			return fmt.Errorf("chaos: polling resumed campaign: %w", err)
		}
		if st.Status != "running" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: resumed campaign timed out (%d/%d jobs)", st.Done, st.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Status != "done" {
		return fmt.Errorf("chaos: resumed campaign %s: %s", st.Status, st.Error)
	}
	gotFP, err := st.Result.Fingerprint()
	if err != nil {
		return err
	}
	if gotFP != refFP {
		return fmt.Errorf("chaos: resumed fingerprint %s != uninterrupted %s", gotFP, refFP)
	}
	var stats struct {
		campaign.Stats
		HitRate float64 `json:"hitRate"`
	}
	if err := getJSON(base2+"/v1/stats", &stats); err != nil {
		return err
	}
	if stats.JournalReplayed == 0 {
		return errors.New("chaos: restart replayed no jobs from the journal")
	}
	fmt.Printf("chaos: resumed campaign done, fingerprint matches (%d jobs replayed, %d cache hits)\n",
		stats.JournalReplayed, stats.CacheHits)
	fmt.Println("chaos smoke passed")
	return nil
}

// chaosSweepRequest is the sweep both the reference run and the chaos
// servers evaluate: the Table 2 configurations at a reduced step count.
func chaosSweepRequest() map[string]any {
	return map[string]any{
		"name":    "chaos",
		"configs": []string{"table2"},
		"steps":   8,
	}
}

// chaosReference evaluates the chaos sweep in process, uninterrupted,
// and returns its fingerprint — the ground truth the resumed campaign
// must reproduce — plus its resource-ledger snapshot, the accounting
// ground truth a distributed run of the same sweep must reconcile with.
func chaosReference() (string, int, accounting.Snapshot, error) {
	svc, err := campaign.NewService(campaign.Config{Workers: 2})
	if err != nil {
		return "", 0, accounting.Snapshot{}, err
	}
	defer svc.Close()
	res, err := campaign.RunCampaign(context.Background(), svc, campaign.Sweep{
		Name:       "chaos",
		Placements: placement.ConfigsTable2(),
		Steps:      8,
		Campaign:   "ref",
	})
	if err != nil {
		return "", 0, accounting.Snapshot{}, err
	}
	fp, err := res.Fingerprint()
	acct, _ := svc.CampaignAccounting("ref")
	return fp, res.Jobs, acct, err
}

// startChaosChild launches this binary as a chaos-harness server: two
// workers and slowed executions keep the campaign in flight long enough
// to kill it mid-run, and -addr-file publishes the ephemeral port. It
// returns once the child answers /healthz.
func startChaosChild(exe, stateDir string) (string, *exec.Cmd, error) {
	return startChild(exe, stateDir)
}

// startChild launches this binary as a harness server with the shared
// baseline flags (ephemeral loopback port, the given state dir, two
// workers, slowed executions) plus any extra flags, and returns the
// base URL once the child answers /healthz.
func startChild(exe, stateDir string, extra ...string) (string, *exec.Cmd, error) {
	addrFile := filepath.Join(stateDir, fmt.Sprintf("addr-%d.txt", time.Now().UnixNano()))
	args := []string{
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-state-dir", stateDir,
		"-workers", "2",
		"-exec-delay", "30ms",
		"-retry", "3",
		"-log-level", "warn",
	}
	args = append(args, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			base := "http://" + strings.TrimSpace(string(b))
			if r, err := http.Get(base + "/healthz"); err == nil {
				r.Body.Close()
				if r.StatusCode == http.StatusOK {
					return base, cmd, nil
				}
			}
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return "", nil, errors.New("chaos: server never became healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// smokePool is the distributed-fabric self-test behind -smoke-pool: it
// proves three real processes serve one logical campaign service.
//
//  1. Run the chaos sweep uninterrupted, in process, and fingerprint it.
//  2. Launch three ensembled processes as a localhost pool (n2 and n3
//     join n1) and wait until every node sees three alive peers.
//  3. POST the sweep to n1 and SIGKILL n3 once the campaign is
//     mid-flight: its jobs re-route to the survivors and the finished
//     campaign's fingerprint must equal the uninterrupted reference.
//  4. Re-submit the same sweep on n2: results cached across the
//     survivors answer through the fleet cache tier, and the pool
//     metrics must show cross-node cache hits and forwards.
func smokePool(stateDir string) error {
	if stateDir == "" {
		dir, err := os.MkdirTemp("", "ensembled-pool-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		stateDir = dir
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	refFP, refJobs, refAcct, err := chaosReference()
	if err != nil {
		return fmt.Errorf("pool: uninterrupted reference run: %w", err)
	}
	fmt.Printf("pool: reference fingerprint %s (%d jobs)\n", refFP[:16], refJobs)

	type poolNode struct {
		id   string
		base string
		cmd  *exec.Cmd
	}
	var nodes []*poolNode
	defer func() {
		for _, n := range nodes {
			if n.cmd.Process != nil {
				_ = n.cmd.Process.Kill()
				_ = n.cmd.Wait()
			}
		}
	}()
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("n%d", i)
		dir := filepath.Join(stateDir, id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		extra := []string{"-node-id", id, "-heartbeat", "100ms"}
		if len(nodes) > 0 {
			extra = append(extra, "-join", nodes[0].base)
		}
		base, cmd, err := startChild(exe, dir, extra...)
		if err != nil {
			return fmt.Errorf("pool: starting %s: %w", id, err)
		}
		nodes = append(nodes, &poolNode{id: id, base: base, cmd: cmd})
	}

	deadline := time.Now().Add(30 * time.Second)
	for _, n := range nodes {
		for {
			if poolAlivePeers(n.base) == len(nodes) && isReady(n.base) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("pool: %s never converged on %d alive peers", n.id, len(nodes))
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	fmt.Println("pool: 3 nodes converged, all ready")

	// Cold campaign on n1, with n3 SIGKILLed mid-flight.
	body, _ := json.Marshal(chaosSweepRequest())
	resp, err := http.Post(nodes[0].base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var st campaign.CampaignStatus
	if err := decodeJSON(resp, &st); err != nil {
		return err
	}
	for {
		if err := getJSON(nodes[0].base+"/v1/campaigns/"+st.ID, &st); err != nil {
			return err
		}
		if st.Done >= 1 && st.Done < st.Total {
			break
		}
		if st.Status != "running" || time.Now().After(deadline) {
			return fmt.Errorf("pool: never caught campaign mid-flight (status %s, %d/%d jobs)",
				st.Status, st.Done, st.Total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	fmt.Printf("pool: SIGKILLing n3 at %d/%d jobs\n", st.Done, st.Total)
	if err := nodes[2].cmd.Process.Kill(); err != nil {
		return err
	}
	_ = nodes[2].cmd.Wait()

	deadline = time.Now().Add(2 * time.Minute)
	for st.Status == "running" {
		if time.Now().After(deadline) {
			return fmt.Errorf("pool: campaign timed out after peer loss (%d/%d jobs)", st.Done, st.Total)
		}
		time.Sleep(25 * time.Millisecond)
		if err := getJSON(nodes[0].base+"/v1/campaigns/"+st.ID, &st); err != nil {
			return err
		}
	}
	if st.Status != "done" {
		return fmt.Errorf("pool: campaign %s after peer loss: %s", st.Status, st.Error)
	}
	fp, err := st.Result.Fingerprint()
	if err != nil {
		return err
	}
	if fp != refFP {
		return fmt.Errorf("pool: fingerprint after peer loss %s != reference %s", fp, refFP)
	}
	fmt.Println("pool: campaign survived peer SIGKILL, fingerprint matches")

	// Warm re-submission on n2: jobs owned by n1 answer from its cache
	// through the fleet tier.
	resp, err = http.Post(nodes[1].base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var st2 campaign.CampaignStatus
	if err := decodeJSON(resp, &st2); err != nil {
		return err
	}
	for st2.Status == "running" {
		if time.Now().After(deadline) {
			return fmt.Errorf("pool: warm campaign timed out (%d/%d jobs)", st2.Done, st2.Total)
		}
		time.Sleep(25 * time.Millisecond)
		if err := getJSON(nodes[1].base+"/v1/campaigns/"+st2.ID, &st2); err != nil {
			return err
		}
	}
	if st2.Status != "done" {
		return fmt.Errorf("pool: warm campaign %s: %s", st2.Status, st2.Error)
	}
	fp2, err := st2.Result.Fingerprint()
	if err != nil {
		return err
	}
	if fp2 != refFP {
		return fmt.Errorf("pool: warm fingerprint %s != reference %s", fp2, refFP)
	}

	// Job statuses expose the executing node.
	withNode := 0
	for _, c := range st2.Result.Candidates {
		for _, id := range c.JobIDs {
			var js struct {
				Node string `json:"node"`
			}
			if err := getJSON(nodes[1].base+"/v1/jobs/"+id, &js); err != nil {
				return err
			}
			if js.Node != "" {
				withNode++
			}
		}
	}
	if withNode == 0 {
		return errors.New("pool: no job status reported an executing node")
	}

	// The pool metrics on the survivors must show the fabric actually
	// carried work: forwarded executions and cross-node cache hits.
	var hits, forwards float64
	for _, n := range nodes[:2] {
		b, err := httpGetBody(n.base + "/metrics")
		if err != nil {
			return err
		}
		hits += metricSum(b, "pool_cache_hits_total")
		forwards += metricSum(b, "pool_forwards_total")
	}
	if forwards == 0 {
		return errors.New("pool: pool_forwards_total is 0; no execution was forwarded")
	}
	if hits == 0 {
		return errors.New("pool: pool_cache_hits_total is 0; no cross-node cache hit")
	}
	fmt.Printf("pool: %d cross-node cache hits, %d forwarded executions, %d jobs report their node\n",
		int(hits), int(forwards), withNode)

	// Federated metrics: every live node's samples carry its node label,
	// and the SIGKILLed n3 surfaces as federation errors, not samples.
	fedBody, err := httpGetBody(nodes[0].base + "/v1/pool/metrics")
	if err != nil {
		return err
	}
	for _, n := range nodes[:2] {
		if !strings.Contains(fedBody, `node="`+n.id+`"`) {
			return fmt.Errorf("pool: federated metrics missing node=%q samples", n.id)
		}
	}
	if metricSum(fedBody, "pool_federation_errors_total") == 0 {
		return errors.New("pool: dead n3 not counted on pool_federation_errors_total")
	}
	for _, fam := range []string{"campaign_core_seconds_total", "campaign_core_seconds_saved_total"} {
		if !strings.Contains(fedBody, fam) {
			return fmt.Errorf("pool: federated metrics missing %s", fam)
		}
	}
	fmt.Println("pool: federated metrics carry per-node labels, dead peer counted")

	// Fleet accounting: the rollup must equal the sum of the per-node
	// ledgers it reports.
	var fleet struct {
		Nodes map[string]accounting.Snapshot `json:"nodes"`
		Fleet accounting.Snapshot            `json:"fleet"`
	}
	if err := getJSON(nodes[0].base+"/v1/pool/accounting", &fleet); err != nil {
		return err
	}
	if len(fleet.Nodes) != 2 {
		return fmt.Errorf("pool: fleet accounting reports %d nodes, want the 2 survivors", len(fleet.Nodes))
	}
	var sumSpent, sumSaved float64
	sumJobs := 0
	for _, s := range fleet.Nodes {
		sumSpent += s.Simulated.SpentTotal
		sumSaved += s.Simulated.SavedCacheTotal
		sumJobs += s.Jobs
	}
	if fleet.Fleet.Jobs != sumJobs ||
		!relClose(fleet.Fleet.Simulated.SpentTotal, sumSpent) ||
		!relClose(fleet.Fleet.Simulated.SavedCacheTotal, sumSaved) {
		return fmt.Errorf("pool: fleet rollup %+v != sum of node ledgers (%d jobs, spent %v, saved %v)",
			fleet.Fleet, sumJobs, sumSpent, sumSaved)
	}

	// Campaign accounting: spent plus cache-avoided core-seconds of both
	// distributed campaigns must reconcile with the uncached single-node
	// reference — the paper's "what would this ensemble have cost" view.
	refCost := refAcct.Simulated.SpentTotal + refAcct.Simulated.SavedCacheTotal
	if refCost <= 0 {
		return errors.New("pool: reference accounting is empty")
	}
	for _, c := range []struct{ base, id, name string }{
		{nodes[0].base, st.ID, "cold"},
		{nodes[1].base, st2.ID, "warm"},
	} {
		var ca struct {
			Campaign string `json:"campaign"`
			accounting.Snapshot
		}
		if err := getJSON(c.base+"/v1/campaigns/"+c.id+"/accounting", &ca); err != nil {
			return fmt.Errorf("pool: %s campaign accounting: %w", c.name, err)
		}
		got := ca.Simulated.SpentTotal + ca.Simulated.SavedCacheTotal
		if !relClose(got, refCost) {
			return fmt.Errorf("pool: %s campaign spent+saved %v != reference %v", c.name, got, refCost)
		}
	}
	fmt.Printf("pool: fleet accounting reconciles; spent+saved matches reference (%.3f core-seconds)\n", refCost)
	fmt.Println("pool smoke passed")
	return nil
}

// relClose reports a ≈ b within 1e-9 relative tolerance — the same
// tolerance the fast-path verifier uses for simulated quantities.
func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// poolAlivePeers returns how many peers base reports alive (0 on any
// error, so callers can poll it).
func poolAlivePeers(base string) int {
	var view struct {
		Members []struct {
			State string `json:"state"`
		} `json:"members"`
	}
	if err := getJSON(base+"/v1/pool/peers", &view); err != nil {
		return 0
	}
	alive := 0
	for _, m := range view.Members {
		if m.State == "alive" {
			alive++
		}
	}
	return alive
}

// isReady reports whether /readyz answers 200.
func isReady(base string) bool {
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// httpGetBody fetches a URL and returns its body as a string.
func httpGetBody(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return string(b), nil
}

// metricSum sums every sample of a Prometheus family in a text
// exposition (labels collapse into one total).
func metricSum(body, name string) float64 {
	total := 0.0
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		switch {
		case strings.HasPrefix(rest, "{"):
			i := strings.LastIndex(rest, "} ")
			if i < 0 {
				continue
			}
			rest = rest[i+2:]
		case strings.HasPrefix(rest, " "):
			rest = rest[1:]
		default:
			continue // longer family name sharing the prefix
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			total += v
		}
	}
	return total
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	return decodeJSON(resp, v)
}

func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
