package campaign

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	gort "runtime"
	"runtime/debug"
	"sync"
	"time"

	"ensemblekit/internal/campaign/accounting"
	"ensemblekit/internal/campaign/journal"
	"ensemblekit/internal/obs"
	"ensemblekit/internal/runtime"
	"ensemblekit/internal/telemetry"
	"ensemblekit/internal/telemetry/tracing"
)

// Service errors.
var (
	// ErrQueueFull is returned by Submit when the job queue is at capacity:
	// backpressure is explicit rather than blocking the caller forever.
	ErrQueueFull = errors.New("campaign: job queue full")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("campaign: service closed")
)

// Config sizes the service.
type Config struct {
	// Workers is the number of concurrent simulation workers
	// (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// Submit returns ErrQueueFull beyond it (default 256).
	QueueDepth int
	// CacheBytes is the in-memory result-cache budget (default 256 MiB;
	// negative disables the memory tier).
	CacheBytes int64
	// CacheDir optionally persists results on disk, content-addressed by
	// job hash, so campaigns survive process restarts.
	CacheDir string
	// Recorder optionally receives service telemetry as obs events
	// (queue depth, counters for submissions/hits/misses/dedups). The
	// service snapshots the counters under its own lock but emits after
	// releasing it, serialized on a dedicated recorder mutex, so a slow
	// recorder (or sink) can never stall Submit or job completion.
	Recorder *obs.Recorder
	// Metrics optionally registers the service's Prometheus metrics
	// (queue depth and capacity, worker busy-time, per-status job
	// counts, queue-wait and execute-latency histograms, cache hit/miss/
	// dedup counters, cached bytes). Nil disables instrumentation at the
	// cost of one nil check per operation.
	Metrics *telemetry.Registry
	// Logger optionally receives structured service logs (job lifecycle
	// at debug, drops and rejects at warn).
	Logger *telemetry.Logger
	// Tracer optionally propagates distributed-trace spans through the
	// job lifecycle: every submission opens a job span (parented from the
	// submit context, so an HTTP request or campaign span becomes its
	// ancestor), with queue and execute child spans, and the DES run's
	// obs events bridged in as stage-level grandchildren. Nil disables
	// tracing at the cost of one nil check per site.
	Tracer *tracing.Tracer
	// EventHistory bounds the job-event replay ring of the service's
	// broadcaster (default 4096; negative disables replay).
	EventHistory int
	// EventBuffer is each event subscriber's channel buffer; a
	// subscriber that falls this far behind is dropped (default 256).
	EventBuffer int

	// JournalPath enables the write-ahead log: every job enqueue and
	// terminal state (and, via the HTTP server, every campaign) is
	// fsync'd there before the service acknowledges it, and NewService
	// replays the log — re-enqueueing every non-terminal job — so a
	// killed process resumes exactly where it stopped. Empty disables
	// journaling. Pair it with CacheDir so finished work replays as
	// cache hits instead of re-executing.
	JournalPath string
	// JournalCompactEvery bounds appends between automatic snapshot
	// compactions (0 = default 4096, negative disables).
	JournalCompactEvery int
	// Retry is the transient-failure retry policy applied to every job
	// (zero value = no retries).
	Retry RetryPolicy
	// ExecDelay artificially stretches every execution by this duration
	// (cancellable). It exists for the chaos harness and load tests —
	// real jobs finish too fast to kill a process "mid-flight"
	// reliably — and is a no-op in production configurations.
	ExecDelay time.Duration

	// MemberParallelism simulates eligible jobs' independent ensemble
	// members on separate cores, up to this degree per job (composes
	// with Workers). 0 keeps the joint single-environment path. The
	// trace — and the campaign fingerprint — is bit-identical at every
	// degree (see TestMemberParallelDeterminism).
	MemberParallelism int
	// FastPath answers fault-free steady-state-eligible jobs from the
	// Eq. 1-9 closed forms instead of the DES, bit-identically (see
	// TestFastPathBitIdentical). Ineligible jobs fall through to the
	// DES untouched. Counted by campaign_fastpath_hits_total.
	FastPath bool
	// VerifyFastPath additionally re-runs every fast-path hit through
	// the DES and fails the job if the derived quantities disagree
	// beyond float tolerance (implies FastPath; the cross-check mode
	// for validating the closed forms, not a production setting).
	// Counted by campaign_fastpath_verified_total.
	VerifyFastPath bool

	// runFn overrides job execution (tests count real simulations with
	// it). Nil runs Execute.
	runFn func(context.Context, JobSpec) (*Result, error)
}

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = gort.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.EventHistory == 0 {
		c.EventHistory = 4096
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	c.Retry = c.Retry.normalized()
	if c.VerifyFastPath {
		c.FastPath = true
	}
	// runFn's default is installed by NewService (Service.defaultRun): it
	// needs the service's World and metrics, which don't exist yet here.
	return c
}

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued marks a job waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning marks a job occupying a worker.
	StatusRunning Status = "running"
	// StatusDone marks a completed job with a result.
	StatusDone Status = "done"
	// StatusFailed marks a job whose execution returned an error.
	StatusFailed Status = "failed"
	// StatusCancelled marks a job cancelled before completion.
	StatusCancelled Status = "cancelled"
)

// Job is a submitted evaluation. Wait for its result, Cancel to abandon
// it. Jobs returned for cache hits are already done; jobs returned for
// duplicate submissions are shared with the first submitter.
type Job struct {
	// ID identifies the job within the service ("j-17").
	ID string
	// Hash is the content address of the spec.
	Hash string
	// Label is the submitter's display label.
	Label string
	// Priority orders the queue (higher runs first).
	Priority int
	// CacheHit reports that the job was answered from the cache without
	// queueing.
	CacheHit bool

	spec     JobSpec
	campaign string // campaign tag for the event stream
	seq      int64
	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{}

	svc        *Service
	mu         sync.Mutex
	status     Status
	started    bool // a worker ever popped it (latency fields are valid)
	running    bool // currently occupying a worker (Running gauge owed a decrement)
	attempts   int  // completed retries under the retry policy
	enqueuedAt time.Time
	startedAt  time.Time
	result     *Result
	err        error
	reason     string // human cause for failed/cancelled jobs
	node       string // pool node that executed the job ("" before routing)
	servedVia  string // how the result arrived (servedLocal/servedFleet/servedForward)

	// Trace spans (nil when the service has no tracer). span is the root
	// of the job's subtree; queueSpan covers enqueue → pickup, execSpan
	// pickup → completion. span and queueSpan are set before the job is
	// published; execSpan is set by the worker under j.mu.
	span      *tracing.Span
	queueSpan *tracing.Span
	execSpan  *tracing.Span
}

// Status returns the job's current state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the result and error of a finished job (nil, nil while
// the job is still pending).
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Wait blocks until the job finishes or ctx is done. A ctx expiry leaves
// the job running (other waiters may still want it); use Cancel to
// abandon the work itself.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel abandons the job: a queued job is removed from the queue, a
// running job's result is discarded when the worker returns (the
// cooperative simulation itself is not interruptible mid-run). Cancelled
// jobs never enter the cache. Cancelling a shared (deduplicated) job
// cancels it for every submitter.
func (j *Job) Cancel() {
	j.cancel()
	j.svc.dropQueued(j)
}

// Spec returns the job's spec.
func (j *Job) Spec() JobSpec { return j.spec }

// TraceID returns the hex trace ID of the trace the job belongs to, or
// "" when the service runs untraced.
func (j *Job) TraceID() string { return j.span.TraceID() }

// SpanID returns the hex span ID of the job's root span, or "".
func (j *Job) SpanID() string { return j.span.SpanID() }

// Reason returns the human-readable cause of a failed or cancelled
// job ("cancelled by submitter", "service shutdown", the worker error,
// ...); empty while pending and on success.
func (j *Job) Reason() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.reason
}

// Node returns the ID of the pool node the job ran on (or is running
// on); "" on a fabric-less service or before routing resolved.
func (j *Job) Node() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.node
}

func (j *Job) setNode(id string) {
	j.mu.Lock()
	j.node = id
	j.mu.Unlock()
}

func (j *Job) setServed(via string) {
	j.mu.Lock()
	j.servedVia = via
	j.mu.Unlock()
}

// Stats is a snapshot of the service's counters.
type Stats struct {
	// Submitted counts Submit calls that were admitted (including cache
	// hits and deduplicated attaches).
	Submitted int64 `json:"submitted"`
	// Completed, Failed and Cancelled count finished executions.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	// CacheHits counts submissions answered from the cache; DiskHits and
	// FleetHits are the subsets served by the on-disk tier and by a
	// peer's cache over the pool fabric (the remainder is the in-memory
	// tier). CacheMisses counts submissions that enqueued a new
	// execution.
	CacheHits   int64 `json:"cacheHits"`
	DiskHits    int64 `json:"diskHits"`
	FleetHits   int64 `json:"fleetHits"`
	CacheMisses int64 `json:"cacheMisses"`
	// Dedups counts submissions attached to an identical in-flight job
	// (singleflight).
	Dedups int64 `json:"dedups"`
	// Rejected counts Submit calls bounced with ErrQueueFull.
	Rejected int64 `json:"rejected"`
	// Retries counts re-enqueues of transiently-failed jobs; Quarantined
	// counts jobs failed terminally after exhausting retry attempts.
	Retries     int64 `json:"retries"`
	Quarantined int64 `json:"quarantined"`
	// WorkerPanics counts job panics recovered by the worker pool.
	WorkerPanics int64 `json:"workerPanics"`
	// CacheCorrupt counts disk-cache entries evicted on checksum mismatch.
	CacheCorrupt int64 `json:"cacheCorrupt"`
	// JournalReplayed counts jobs re-enqueued from the journal at startup.
	JournalReplayed int64 `json:"journalReplayed"`
	// FastPathHits counts jobs answered by the closed-form steady-state
	// fast path; FastPathVerified is the subset that additionally passed
	// the DES cross-check (Config.VerifyFastPath).
	FastPathHits     int64 `json:"fastPathHits"`
	FastPathVerified int64 `json:"fastPathVerified"`
	// QueueDepth and Running describe the pool right now; QueueCapacity
	// is the configured bound the depth saturates at.
	QueueDepth    int `json:"queueDepth"`
	QueueCapacity int `json:"queueCapacity"`
	Running       int `json:"running"`
	Workers       int `json:"workers"`
	// CacheEntries and CacheBytes describe the in-memory cache tier.
	CacheEntries int   `json:"cacheEntries"`
	CacheBytes   int64 `json:"cacheBytes"`
}

// HitRate returns the fraction of cache-answerable submissions served
// from the cache (hits / (hits + misses)); 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Service is the concurrent ensemble-evaluation engine: a bounded
// priority queue feeding a worker pool, fronted by a content-addressed
// result cache with singleflight deduplication. All methods are safe for
// concurrent use.
type Service struct {
	cfg     Config
	metrics serviceMetrics
	events  *Broadcaster
	log     *telemetry.Logger

	// world is the campaign's shared immutable simulation state: frozen
	// plans plus the recycled-environment arena. Every worker borrows
	// from it; it is created once in NewService and never replaced.
	world *runtime.World

	// journal is the write-ahead log (nil when Config.JournalPath is
	// empty); replayedCamps holds the campaigns that were open in it at
	// startup, for the HTTP server to resume.
	journal       *journal.Journal
	replayedCamps []journal.Record

	mu          sync.Mutex
	space       *sync.Cond // signalled when queue slots free up
	work        *sync.Cond // signalled when work arrives
	queue       jobQueue
	inflight    map[string]*Job      // hash -> queued or running job
	jobs        map[string]*Job      // id -> every live job and the most recent terminal ones
	terminal    retention            // terminal job IDs kept in jobs, oldest evicted first
	retryTimers map[*Job]*time.Timer // jobs waiting out a retry backoff
	cache       *resultCache
	stats       Stats
	closed      bool
	seq         int64

	// fabric routes executions across the pool when set (see SetFabric);
	// nodeID is this node's advertised pool identity. remoteFlights is
	// the owner-side singleflight for forwarded executions, keyed by
	// spec hash.
	fabric        Fabric
	nodeID        string
	remoteFlights map[string]*remoteFlight

	// acct holds the per-campaign and node resource ledgers (always
	// present; has its own locking).
	acct *accountant

	// recMu serializes obs recorder emissions; it is never held together
	// with s.mu, so a slow recorder cannot stall the hot paths.
	recMu sync.Mutex

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
}

// serviceMetrics bundles the Prometheus handles the hot paths touch.
// Every handle is nil (a no-op) when Config.Metrics is nil.
type serviceMetrics struct {
	submitted      *telemetry.Counter
	rejected       *telemetry.Counter
	dedups         *telemetry.Counter
	cacheHits      *telemetry.Counter
	diskHits       *telemetry.Counter
	fleetHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	finished       *telemetry.CounterVec // by terminal status
	queueDepth     *telemetry.Gauge
	queueCap       *telemetry.Gauge
	running        *telemetry.Gauge
	workers        *telemetry.Gauge
	cacheItems     *telemetry.Gauge
	cacheBytes     *telemetry.Gauge
	busySeconds    *telemetry.Counter
	queueWait      *telemetry.Histogram
	execLatency    *telemetry.Histogram
	events         *telemetry.Counter
	subscribers    *telemetry.Gauge
	subsDropped    *telemetry.Counter
	retries        *telemetry.Counter
	quarantined    *telemetry.Counter
	workerPanics   *telemetry.Counter
	cacheCorrupt   *telemetry.Counter
	journalAppends *telemetry.Counter
	journalReplays *telemetry.Counter
	journalCompact *telemetry.Counter
	fastpathHits   *telemetry.Counter
	fastpathVerify *telemetry.Counter
	coreSeconds    *telemetry.CounterVec // by component class and busy/idle state
	coreSaved      *telemetry.CounterVec // by serving tier
}

func newServiceMetrics(r *telemetry.Registry) serviceMetrics {
	if r == nil {
		return serviceMetrics{}
	}
	return serviceMetrics{
		submitted: r.Counter("campaign_submitted_total",
			"Admitted submissions, including cache hits and dedup attaches."),
		rejected: r.Counter("campaign_queue_rejected_total",
			"Submissions bounced with ErrQueueFull (non-blocking backpressure)."),
		dedups: r.Counter("campaign_dedup_total",
			"Submissions attached to an identical in-flight job (singleflight)."),
		cacheHits: r.Counter("campaign_cache_hits_total",
			"Submissions answered from the result cache."),
		diskHits: r.Counter("campaign_cache_disk_hits_total",
			"Cache hits served by the on-disk tier."),
		fleetHits: r.Counter("campaign_cache_fleet_hits_total",
			"Cache hits served by a peer's cache over the pool fabric."),
		cacheMisses: r.Counter("campaign_cache_misses_total",
			"Submissions that enqueued a new execution."),
		finished: r.CounterVec("campaign_jobs_finished_total",
			"Executed jobs by terminal status.", "status"),
		queueDepth: r.Gauge("campaign_queue_depth",
			"Jobs waiting for a worker."),
		queueCap: r.Gauge("campaign_queue_capacity",
			"Configured queue bound (Submit rejects beyond it)."),
		running: r.Gauge("campaign_running_jobs",
			"Jobs occupying a worker right now."),
		workers: r.Gauge("campaign_workers",
			"Size of the worker pool."),
		cacheItems: r.Gauge("campaign_cache_entries",
			"Entries in the in-memory result-cache tier."),
		cacheBytes: r.Gauge("campaign_cache_bytes",
			"Bytes held by the in-memory result-cache tier."),
		busySeconds: r.Counter("campaign_worker_busy_seconds_total",
			"Cumulative wall time workers spent executing jobs."),
		queueWait: r.Histogram("campaign_queue_wait_seconds",
			"Wall time from enqueue to worker pickup.", nil),
		execLatency: r.Histogram("campaign_execute_seconds",
			"Wall time from worker pickup to job completion.", nil),
		events: r.Counter("campaign_events_published_total",
			"Job state-transition events published on the event stream."),
		subscribers: r.Gauge("campaign_event_subscribers",
			"Live event-stream subscribers."),
		subsDropped: r.Counter("campaign_event_subscribers_dropped_total",
			"Event subscribers dropped for falling behind their buffer."),
		retries: r.Counter("campaign_job_retries_total",
			"Transiently-failed jobs re-enqueued under the retry policy."),
		quarantined: r.Counter("campaign_jobs_quarantined_total",
			"Jobs failed terminally after exhausting retry attempts."),
		workerPanics: r.Counter("campaign_worker_panics_total",
			"Job panics recovered by the worker pool."),
		cacheCorrupt: r.Counter("campaign_cache_corrupt_total",
			"Disk-cache entries evicted on checksum mismatch."),
		journalAppends: r.Counter("campaign_journal_appends_total",
			"Records fsync'd to the write-ahead log."),
		journalReplays: r.Counter("campaign_journal_replayed_total",
			"Jobs re-enqueued from the journal at startup."),
		journalCompact: r.Counter("campaign_journal_compactions_total",
			"Snapshot compactions of the write-ahead log."),
		fastpathHits: r.Counter("campaign_fastpath_hits_total",
			"Jobs answered by the closed-form steady-state fast path."),
		fastpathVerify: r.Counter("campaign_fastpath_verified_total",
			"Fast-path hits that passed the DES cross-check."),
		coreSeconds: r.CounterVec("campaign_core_seconds_total",
			"Simulated core-seconds of jobs executed on this node, by component class and busy/idle state.",
			"class", "state"),
		coreSaved: r.CounterVec("campaign_core_seconds_saved_total",
			"Simulated core-seconds avoided on this node, by serving tier (cache tiers substitute for execution; plancache and fastpath are overlapping credits).",
			"tier"),
	}
}

// setCacheLocked mirrors the memory tier's occupancy; called under s.mu.
func (m *serviceMetrics) setCacheLocked(entries int, bytes int64) {
	m.cacheItems.Set(float64(entries))
	m.cacheBytes.Set(float64(bytes))
}

// NewService starts the worker pool. When Config.JournalPath is set it
// also opens (or recovers) the write-ahead log and synchronously replays
// it: every non-terminal job re-enters the queue — as a disk-cache hit
// when its result survived, as a fresh execution otherwise — before
// NewService returns. Callers must Close it.
func NewService(cfg Config) (*Service, error) {
	cfg = cfg.normalized()
	cache, err := newResultCache(cfg.CacheBytes, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	var jnl *journal.Journal
	var replay journal.State
	if cfg.JournalPath != "" {
		jnl, replay, err = journal.Open(cfg.JournalPath, cfg.JournalCompactEvery)
		if err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:           cfg,
		journal:       jnl,
		inflight:      make(map[string]*Job),
		jobs:          make(map[string]*Job),
		terminal:      retention{max: maxTerminalJobs},
		retryTimers:   make(map[*Job]*time.Timer),
		remoteFlights: make(map[string]*remoteFlight),
		acct:          newAccountant(),
		cache:         cache,
		baseCtx:       ctx,
		baseCancel:    cancel,
	}
	s.space = sync.NewCond(&s.mu)
	s.work = sync.NewCond(&s.mu)
	s.stats.Workers = cfg.Workers
	s.stats.QueueCapacity = cfg.QueueDepth
	s.log = cfg.Logger
	s.metrics = newServiceMetrics(cfg.Metrics)
	s.world = runtime.NewWorld()
	if s.cfg.runFn == nil {
		s.cfg.runFn = s.defaultRun
	}
	s.metrics.workers.Set(float64(cfg.Workers))
	s.metrics.queueCap.Set(float64(cfg.QueueDepth))
	if jnl != nil {
		jnl.OnAppend = func() { s.metrics.journalAppends.Inc() }
		jnl.OnCompact = func() { s.metrics.journalCompact.Inc() }
	}
	// The cache calls this under s.mu (its methods are guarded by it), so
	// it must not retake the service lock.
	cache.onCorrupt = func(hash string, err error) {
		s.stats.CacheCorrupt++
		s.metrics.cacheCorrupt.Inc()
		s.log.Warn("evicted corrupt disk-cache entry",
			"hash", hash, "err", err.Error())
	}
	s.events = NewBroadcaster(cfg.EventHistory, cfg.EventBuffer)
	s.events.OnDrop = func() {
		s.metrics.subsDropped.Inc()
		s.log.Warn("event subscriber dropped for falling behind",
			"buffer", cfg.EventBuffer)
	}
	s.events.OnSubscribers = func(n int) { s.metrics.subscribers.Set(float64(n)) }
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if jnl != nil {
		s.replayedCamps = replay.Campaigns
		s.replayJournal(replay.Jobs)
		// Replay re-appended an enqueue record per pending job; fold the
		// log back to one snapshot so it never grows across restarts.
		if err := jnl.Compact(); err != nil {
			s.log.Warn("journal: post-replay compaction failed", "err", err.Error())
		}
		if st := jnl.Stats(); s.log.Enabled(telemetry.LevelInfo) &&
			(st.Replayed > 0 || st.TruncatedBytes > 0) {
			s.log.Info("journal replayed",
				"records", st.Replayed,
				"pendingJobs", len(replay.Jobs),
				"openCampaigns", len(replay.Campaigns),
				"truncatedBytes", st.TruncatedBytes)
		}
	}
	return s, nil
}

// defaultRun is the production runFn: the hinted serial execution — the
// shared World, the configured member parallelism, and the steady-state
// fast path with its optional DES cross-check — traced when the worker's
// execute span is recording.
func (s *Service) defaultRun(ctx context.Context, spec JobSpec) (*Result, error) {
	if d := s.cfg.ExecDelay; d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
	h := execHints{
		world:    s.world,
		members:  s.cfg.MemberParallelism,
		fastPath: s.cfg.FastPath,
		verify:   s.cfg.VerifyFastPath,
	}
	res, info, err := executeTracedHinted(ctx, s.cfg.Tracer, spec, h)
	if err != nil {
		if ctx.Err() == nil {
			// A simulated run is a pure function of its spec: an identical
			// re-run fails identically, so simulation errors never retry.
			return res, Permanent(err)
		}
		return res, err
	}
	// Stash how the run was served for the ledger: finish (or the
	// forward handler) claims it by result hash and credits the
	// plan-cache and fast-path tiers.
	s.acct.noteRunInfo(res.Hash, info)
	if !info.FastPath {
		return res, nil
	}
	s.metrics.fastpathHits.Inc()
	s.mu.Lock()
	s.stats.FastPathHits++
	s.mu.Unlock()
	if h.verify {
		if verr := verifyFastPath(spec, res, h); verr != nil {
			// A cross-check failure is a model bug: deterministic, never
			// retryable.
			return nil, Permanent(verr)
		}
		s.metrics.fastpathVerify.Inc()
		s.mu.Lock()
		s.stats.FastPathVerified++
		s.mu.Unlock()
	}
	return res, nil
}

// replayJournal re-submits every non-terminal job recorded in the
// journal, in original admission order. Jobs whose results survived in
// the disk cache resolve instantly as cache hits (and get their terminal
// record); the rest re-execute. A job whose recorded spec no longer
// decodes or validates is failed in the journal rather than replayed
// forever.
func (s *Service) replayJournal(pending []journal.Record) {
	for _, rec := range pending {
		var spec JobSpec
		err := json.Unmarshal(rec.Spec, &spec)
		if err == nil {
			_, err = s.submit(context.Background(), spec, SubmitOptions{
				Priority: rec.Priority,
				Label:    rec.Label,
				Campaign: rec.Campaign,
			}, true)
		}
		if err != nil {
			s.log.Warn("journal: dropping unreplayable job",
				"hash", rec.Hash, "err", err.Error())
			if jerr := s.journal.Append(journal.Record{
				Type: journal.TypeTerminal, Hash: rec.Hash,
				Status: string(StatusFailed), Reason: "replay: " + err.Error(),
			}); jerr != nil {
				s.log.Warn("journal: terminal append failed",
					"hash", rec.Hash, "err", jerr.Error())
			}
			continue
		}
		s.mu.Lock()
		s.stats.JournalReplayed++
		s.mu.Unlock()
		s.metrics.journalReplays.Inc()
	}
}

// Events returns the service's job-event broadcaster: every submission,
// worker pickup, and completion publishes a JobEvent on it. The SSE
// endpoint subscribes here.
func (s *Service) Events() *Broadcaster { return s.events }

// Metrics returns the registry the service instruments (nil when
// telemetry is off); the HTTP server shares it for per-route metrics.
func (s *Service) Metrics() *telemetry.Registry { return s.cfg.Metrics }

// Logger returns the service's structured logger (nil when logging is
// off).
func (s *Service) Logger() *telemetry.Logger { return s.log }

// Tracer returns the service's tracer (nil when tracing is off); the
// HTTP server shares it for request spans and the span endpoints.
func (s *Service) Tracer() *tracing.Tracer { return s.cfg.Tracer }

// Journal returns the service's write-ahead log (nil when journaling is
// off); the HTTP server appends campaign records to it.
func (s *Service) Journal() *journal.Journal { return s.journal }

// ReplayedCampaigns returns the campaigns that were open in the journal
// when the service started, in admission order; the HTTP server resumes
// them. Empty without a journal or after a clean shutdown with no open
// campaigns.
func (s *Service) ReplayedCampaigns() []journal.Record {
	return append([]journal.Record(nil), s.replayedCamps...)
}

// Ready reports the conditions currently blocking readiness — empty when
// the service can accept new campaigns. GET /readyz surfaces it.
func (s *Service) Ready() []string {
	s.mu.Lock()
	closed := s.closed
	saturated := len(s.queue.items) >= s.cfg.QueueDepth
	s.mu.Unlock()
	var blocked []string
	if closed {
		blocked = append(blocked, "service closed")
	}
	if saturated {
		blocked = append(blocked, "job queue saturated")
	}
	if err := s.journal.Healthy(); err != nil {
		blocked = append(blocked, "journal unwritable: "+err.Error())
	}
	return blocked
}

// Close stops accepting submissions, cancels queued and running jobs, and
// waits for the workers to exit.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	// Fail the queue: every queued job reports ErrClosed to its waiters.
	// Jobs waiting out a retry backoff are queued jobs too — stop their
	// timers so they fail now instead of resurrecting mid-shutdown. (A
	// timer that already fired loses the s.mu race here and finds its
	// map entry gone; enqueueRetry then does nothing.)
	queued := append([]*Job(nil), s.queue.items...)
	s.queue.items = nil
	for j, t := range s.retryTimers {
		t.Stop()
		queued = append(queued, j)
	}
	s.retryTimers = make(map[*Job]*time.Timer)
	s.work.Broadcast()
	s.space.Broadcast()
	s.mu.Unlock()

	for _, j := range queued {
		s.finish(j, nil, ErrClosed, StatusCancelled)
	}
	s.baseCancel()
	s.wg.Wait()
	s.events.Close()
	// Shutdown cancellations deliberately skipped their terminal journal
	// records (see finish), so everything unfinished stays pending in the
	// log and the next process resumes it.
	if err := s.journal.Close(); err != nil {
		s.log.Warn("journal: close failed", "err", err.Error())
	}
	if s.log.Enabled(telemetry.LevelInfo) {
		st := s.Stats()
		s.log.Info("campaign service closed",
			"completed", st.Completed, "failed", st.Failed,
			"cancelled", st.Cancelled)
	}
}

// SubmitOptions label and order a submission.
type SubmitOptions struct {
	// Priority orders the queue: higher-priority jobs run first; ties run
	// in submission order.
	Priority int
	// Label names the job in listings (defaults to the placement name).
	Label string
	// Campaign tags the job's events with a campaign ID so event-stream
	// subscribers can follow one campaign; RunCampaign sets it from
	// Sweep.Campaign.
	Campaign string
}

// Submit admits a job: served from the cache if its hash is known,
// attached to an identical in-flight job if one exists (singleflight),
// queued otherwise. Returns ErrQueueFull when the queue is at capacity —
// callers own their backpressure policy — and ErrClosed after Close.
func (s *Service) Submit(ctx context.Context, spec JobSpec, opts SubmitOptions) (*Job, error) {
	return s.submit(ctx, spec, opts, false)
}

// SubmitWait is Submit with blocking backpressure: instead of returning
// ErrQueueFull it waits for a queue slot (or ctx expiry). The campaign
// planner and the batch sweeps use it to fan out arbitrarily large
// expansions over the bounded queue.
func (s *Service) SubmitWait(ctx context.Context, spec JobSpec, opts SubmitOptions) (*Job, error) {
	return s.submit(ctx, spec, opts, true)
}

func (s *Service) submit(ctx context.Context, spec JobSpec, opts SubmitOptions, wait bool) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	label := opts.Label
	if label == "" {
		label = spec.Placement.Name
	}

	// ctx cancellation must break SubmitWait out of its cond wait; a
	// watcher goroutine broadcasting on expiry keeps the wait honest.
	if wait {
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.space.Broadcast()
			s.mu.Unlock()
		})
		defer stop()
	}

	// The obs snapshot is captured under s.mu but emitted after it is
	// released (this deferred emitter was registered before the unlock
	// defer, so it runs after it): a slow recorder cannot stall submits.
	var snap *obsSnapshot
	defer func() { s.emitObs(snap) }()
	// Ledger credits for cache hits are likewise recorded after the
	// unlock: the trace walk is pure and needs no service state.
	var acctHit func()
	defer func() {
		if acctHit != nil {
			acctHit()
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.stats.Submitted++
		// Cache tier first: a known hash never queues.
		res, fromDisk, err := s.cache.get(hash)
		if err != nil {
			return nil, err
		}
		if res != nil {
			s.stats.CacheHits++
			s.metrics.submitted.Inc()
			s.metrics.cacheHits.Inc()
			tier := accounting.TierMemory
			if fromDisk {
				s.stats.DiskHits++
				s.metrics.diskHits.Inc()
				tier = accounting.TierDisk
				// A disk hit admits into the memory tier.
				s.metrics.setCacheLocked(s.cache.stats())
			}
			hitRes, hitCamp := res, opts.Campaign
			acctHit = func() {
				s.acctSaved(hitCamp, hash, accounting.FromTrace(hitRes.Trace), tier)
			}
			snap = s.obsSnapshotLocked()
			return s.completedJobLocked(ctx, hash, label, opts.Campaign, res), nil
		}
		// Singleflight: identical concurrent submissions share one run.
		if j, ok := s.inflight[hash]; ok {
			s.stats.Dedups++
			s.metrics.submitted.Inc()
			s.metrics.dedups.Inc()
			snap = s.obsSnapshotLocked()
			return j, nil
		}
		s.stats.CacheMisses++
		if len(s.queue.items) < s.cfg.QueueDepth {
			break
		}
		s.stats.Submitted--
		s.stats.CacheMisses--
		if !wait {
			// The undo above reverses the optimistic miss accounting:
			// nothing was admitted.
			s.stats.Rejected++
			s.metrics.rejected.Inc()
			return nil, ErrQueueFull
		}
		s.space.Wait()
	}

	s.seq++
	s.metrics.submitted.Inc()
	s.metrics.cacheMisses.Inc()
	jctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{
		ID:         fmt.Sprintf("j-%d", s.seq),
		Hash:       hash,
		Label:      label,
		Priority:   opts.Priority,
		spec:       spec,
		campaign:   opts.Campaign,
		seq:        s.seq,
		ctx:        jctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		svc:        s,
		status:     StatusQueued,
		enqueuedAt: time.Now(),
	}
	// The job span parents from the submit context (an HTTP request or
	// campaign span, in-process or remote via traceparent); the queue
	// span opens immediately and is ended by the worker at pickup. Both
	// are nil no-ops on an untraced service.
	_, j.span = s.cfg.Tracer.StartSpan(ctx, "job "+j.ID, "job",
		tracing.String("job.id", j.ID),
		tracing.String("job.hash", hash),
		tracing.String("job.label", label),
		tracing.Int("job.priority", opts.Priority))
	_, j.queueSpan = s.cfg.Tracer.StartSpan(
		tracing.ContextWithSpan(context.Background(), j.span), "queue", "queue")
	heap.Push(&s.queue, j)
	s.inflight[hash] = j
	s.jobs[j.ID] = j
	// Journal the admission before acknowledging it (the fsync happens
	// here, under s.mu, which serializes cold-path submits — cache hits
	// never pay it). A failed append degrades to non-durable operation
	// rather than rejecting the job.
	if s.journal != nil {
		specJSON, jerr := spec.CanonicalJSON()
		if jerr == nil {
			jerr = s.journal.Append(journal.Record{
				Type:     journal.TypeEnqueue,
				Hash:     hash,
				Label:    label,
				Campaign: opts.Campaign,
				Priority: opts.Priority,
				Spec:     specJSON,
			})
		}
		if jerr != nil {
			s.log.Warn("journal: enqueue append failed",
				"hash", hash, "err", jerr.Error())
		}
	}
	s.metrics.queueDepth.Set(float64(len(s.queue.items)))
	snap = s.obsSnapshotLocked()
	s.publish(j, string(StatusQueued), JobEvent{Time: j.enqueuedAt})
	s.work.Signal()
	return j, nil
}

// completedJobLocked wraps a cached result as an already-finished job so
// cache hits and real runs share one call shape. submitCtx carries the
// submitter's trace parent; a cache hit still leaves a (zero-queue,
// zero-execute) job span in the trace so campaigns with warm caches
// remain fully accounted for.
func (s *Service) completedJobLocked(submitCtx context.Context, hash, label, campaign string, res *Result) *Job {
	s.seq++
	j := &Job{
		ID:       fmt.Sprintf("j-%d", s.seq),
		Hash:     hash,
		Label:    label,
		CacheHit: true,
		campaign: campaign,
		ctx:      cancelledCtx,
		cancel:   func() {},
		done:     make(chan struct{}),
		svc:      s,
		status:   StatusDone,
		result:   res,
	}
	_, j.span = s.cfg.Tracer.StartSpan(submitCtx, "job "+j.ID, "job",
		tracing.String("job.id", j.ID),
		tracing.String("job.hash", hash),
		tracing.String("job.label", label),
		tracing.Bool("job.cacheHit", true),
		tracing.Float("job.objective", res.Objective))
	j.span.End()
	close(j.done)
	s.jobs[j.ID] = j
	s.retireLocked(j.ID)
	// A journal-pending job resolving from the cache (the replay path,
	// or a hit racing a restart) is terminal work: record it so the next
	// replay skips it. Ordinary cache hits were never pending and pay no
	// fsync here.
	if s.journal != nil && s.journal.Pending(hash) {
		if err := s.journal.Append(journal.Record{
			Type: journal.TypeTerminal, Hash: hash,
			Status: string(StatusDone), Reason: "cache",
		}); err != nil {
			s.log.Warn("journal: terminal append failed",
				"hash", hash, "err", err.Error())
		}
	}
	s.publish(j, EventCached, JobEvent{Objective: res.Objective, CacheHit: true})
	return j
}

// cancelledCtx is the context of every cache-hit job: already done, so
// a hit costs no context allocation.
var cancelledCtx = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// maxTerminalJobs bounds the terminal job records a Service keeps for
// Job lookups (GET /v1/jobs/{id}); older ones are evicted, and with them
// the results they pin. Queued and running jobs are never evicted.
const maxTerminalJobs = 4096

// retireLocked marks a job terminal for retention, evicting the oldest
// terminal record beyond maxTerminalJobs. Called under s.mu.
func (s *Service) retireLocked(id string) {
	if old, ok := s.terminal.add(id); ok {
		delete(s.jobs, old)
	}
}

// retention remembers the IDs of the most recent terminal records up to
// a fixed bound, in the order they became terminal.
type retention struct {
	ids    []string
	oldest int // index of the oldest ID once ids is full
	max    int
}

// add records id and returns the ID it displaces once the bound is
// reached (ok false while under it).
func (r *retention) add(id string) (evicted string, ok bool) {
	if len(r.ids) < r.max {
		r.ids = append(r.ids, id)
		return "", false
	}
	evicted = r.ids[r.oldest]
	r.ids[r.oldest] = id
	r.oldest = (r.oldest + 1) % len(r.ids)
	return evicted, true
}

// publish fills the job identity fields into base and hands it to the
// broadcaster. Callers may hold s.mu: Publish never blocks.
func (s *Service) publish(j *Job, status string, base JobEvent) {
	base.Job = j.ID
	base.Hash = j.Hash
	base.Label = j.Label
	base.Campaign = j.campaign
	base.Status = status
	if base.Node == "" {
		base.Node = j.Node()
	}
	if base.Time.IsZero() {
		base.Time = time.Now()
	}
	s.metrics.events.Inc()
	s.events.Publish(base)
}

// Job looks up a job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Stats snapshots the counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.QueueDepth = len(s.queue.items)
	st.CacheEntries, st.CacheBytes = s.cache.stats()
	return st
}

// obsSnapshot carries the counter values mirrored onto the obs recorder:
// captured under s.mu, emitted after it is released.
type obsSnapshot struct {
	queueDepth                                         int
	submitted, cacheHits, cacheMisses, dedups, running int64
}

// obsSnapshotLocked captures the recorder-bound counters; nil when no
// recorder is configured. Called under s.mu.
func (s *Service) obsSnapshotLocked() *obsSnapshot {
	if s.cfg.Recorder == nil {
		return nil
	}
	return &obsSnapshot{
		queueDepth:  len(s.queue.items),
		submitted:   s.stats.Submitted,
		cacheHits:   s.stats.CacheHits,
		cacheMisses: s.stats.CacheMisses,
		dedups:      s.stats.Dedups,
		running:     int64(s.stats.Running),
	}
}

// emitObs mirrors a snapshot onto the obs recorder, serialized on recMu
// (the recorder is not itself safe for concurrent use). Never called
// with s.mu held, so a slow recorder or sink cannot stall the service.
func (s *Service) emitObs(sn *obsSnapshot) {
	if sn == nil {
		return
	}
	s.recMu.Lock()
	defer s.recMu.Unlock()
	rec := s.cfg.Recorder
	rec.QueueDepth("campaign.queue", sn.queueDepth)
	rec.Count("campaign.submitted", float64(sn.submitted))
	rec.Count("campaign.cache.hits", float64(sn.cacheHits))
	rec.Count("campaign.cache.misses", float64(sn.cacheMisses))
	rec.Count("campaign.dedups", float64(sn.dedups))
	rec.Gauge("campaign", "running", obs.NoNode, float64(sn.running))
}

// worker runs queued jobs until the service closes.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue.items) == 0 && !s.closed {
			s.work.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*Job)
		s.stats.Running++
		now := time.Now()
		j.mu.Lock()
		j.status = StatusRunning
		j.started = true
		j.running = true
		j.startedAt = now
		enqueued := j.enqueuedAt
		attempt := j.attempts
		j.queueSpan.SetAttr(tracing.Float("waitSec", now.Sub(enqueued).Seconds()))
		j.queueSpan.EndAt(now)
		_, j.execSpan = s.cfg.Tracer.StartSpan(
			tracing.ContextWithSpan(context.Background(), j.span), "execute", "execute")
		if attempt > 0 {
			j.execSpan.SetAttr(tracing.Int("retry.attempt", attempt))
		}
		j.mu.Unlock()
		s.metrics.queueDepth.Set(float64(len(s.queue.items)))
		s.metrics.running.Set(float64(s.stats.Running))
		s.metrics.queueWait.Observe(now.Sub(enqueued).Seconds())
		snap := s.obsSnapshotLocked()
		s.publish(j, string(StatusRunning), JobEvent{
			Time:    now,
			WaitSec: now.Sub(enqueued).Seconds(),
			Attempt: attempt,
		})
		s.space.Signal()
		s.mu.Unlock()
		s.emitObs(snap)

		s.execute(j)
	}
}

// execute runs one job and publishes its outcome — terminal, or back to
// the queue when the retry policy covers the failure.
func (s *Service) execute(j *Job) {
	if err := j.ctx.Err(); err != nil {
		s.finish(j, nil, err, StatusCancelled)
		return
	}
	// The run context carries the execute span so the runner (and its DES
	// obs bridge) parents under it; j.execSpan is stable once the worker
	// sets it, and execute is only ever entered afterwards.
	j.mu.Lock()
	runCtx := tracing.ContextWithSpan(j.ctx, j.execSpan)
	attempt := j.attempts + 1
	j.mu.Unlock()
	res, err := s.runRouted(runCtx, j)
	switch {
	case j.ctx.Err() != nil:
		// Cancelled mid-run: discard whatever the worker produced so a
		// torn or unwanted result never poisons the cache.
		s.finish(j, nil, j.ctx.Err(), StatusCancelled)
	case err != nil:
		s.resolveFailure(j, err, attempt)
	default:
		// A cache-store failure degrades to uncached operation; the
		// result itself is still good.
		s.mu.Lock()
		_ = s.cache.put(j.Hash, res)
		s.metrics.setCacheLocked(s.cache.stats())
		s.mu.Unlock()
		s.finish(j, res, nil, StatusDone)
	}
}

// runShielded invokes the runner behind a recover() shield: a panicking
// job becomes a transient "worker panic" failure (retryable under the
// policy) instead of killing the process, and the worker stays alive.
func (s *Service) runShielded(ctx context.Context, j *Job) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("worker panic: %v", r)
			s.mu.Lock()
			s.stats.WorkerPanics++
			s.mu.Unlock()
			s.metrics.workerPanics.Inc()
			s.log.Error("worker recovered from job panic",
				"job", j.ID, "hash", j.Hash, "panic", fmt.Sprint(r),
				"stack", string(debug.Stack()))
		}
	}()
	return s.cfg.runFn(ctx, j.spec)
}

// resolveFailure decides a failed execution's fate under the retry
// policy: permanent errors fail immediately, transient ones re-enqueue
// after a deterministic backoff, and a job that exhausts MaxAttempts is
// quarantined — failed terminally with an explicit reason — so a poison
// job can never occupy the pool forever.
func (s *Service) resolveFailure(j *Job, err error, attempt int) {
	if !isTransient(err) || s.cfg.Retry.MaxAttempts <= 1 {
		s.finish(j, nil, err, StatusFailed)
		return
	}
	if attempt >= s.cfg.Retry.MaxAttempts {
		s.mu.Lock()
		s.stats.Quarantined++
		s.mu.Unlock()
		s.metrics.quarantined.Inc()
		s.finish(j, nil,
			fmt.Errorf("quarantined after %d attempts: %w", attempt, err),
			StatusFailed)
		return
	}
	s.requeueAfter(j, err, attempt)
}

// requeueAfter schedules retry number attempt of a transiently-failed
// job. The backoff runs on a timer rather than a sleeping worker, so a
// waiting retry never occupies pool capacity; the delay is deterministic
// per (spec hash, attempt), keeping end-to-end behaviour reproducible.
func (s *Service) requeueAfter(j *Job, cause error, attempt int) {
	delay := s.cfg.Retry.Backoff(j.Hash, attempt)
	now := time.Now()
	j.mu.Lock()
	wasted := now.Sub(j.startedAt).Seconds()
	j.attempts = attempt
	j.status = StatusQueued
	j.running = false
	j.enqueuedAt = now
	j.execSpan.SetError(cause)
	j.execSpan.EndAt(now)
	// The backoff wait gets its own queue-kind span so retries read as
	// attempt → backoff → attempt chains in the trace.
	_, j.queueSpan = s.cfg.Tracer.StartSpan(
		tracing.ContextWithSpan(context.Background(), j.span),
		fmt.Sprintf("retry-backoff %d", attempt), "queue",
		tracing.Int("retry.attempt", attempt),
		tracing.Float("backoffSec", delay.Seconds()))
	j.mu.Unlock()
	s.acctRetryWaste(j.campaign, wasted)

	s.mu.Lock()
	s.stats.Running--
	s.metrics.running.Set(float64(s.stats.Running))
	if s.closed {
		s.mu.Unlock()
		s.finish(j, nil, ErrClosed, StatusCancelled)
		return
	}
	s.stats.Retries++
	s.metrics.retries.Inc()
	s.retryTimers[j] = time.AfterFunc(delay, func() { s.enqueueRetry(j) })
	snap := s.obsSnapshotLocked()
	s.publish(j, EventRetrying, JobEvent{
		Time:       now,
		Error:      cause.Error(),
		Reason:     fmt.Sprintf("retry %d/%d", attempt, s.cfg.Retry.MaxAttempts-1),
		Attempt:    attempt,
		BackoffSec: delay.Seconds(),
	})
	s.mu.Unlock()
	s.emitObs(snap)
	if s.log.Enabled(telemetry.LevelDebug) {
		s.log.Debug("job retrying",
			"job", j.ID, "attempt", attempt,
			"backoff", delay.String(), "err", cause.Error())
	}
}

// enqueueRetry returns a backed-off job to the queue when its timer
// fires. Retries bypass queue-capacity admission — the job was admitted
// once and never left the service.
func (s *Service) enqueueRetry(j *Job) {
	s.mu.Lock()
	if _, ok := s.retryTimers[j]; !ok {
		// Cancelled or shut down while the firing timer raced for s.mu;
		// whoever removed the entry owns the job's fate.
		s.mu.Unlock()
		return
	}
	delete(s.retryTimers, j)
	if s.closed {
		s.mu.Unlock()
		s.finish(j, nil, ErrClosed, StatusCancelled)
		return
	}
	now := time.Now()
	j.mu.Lock()
	j.enqueuedAt = now // waitSec measures queue time, not the backoff
	attempt := j.attempts
	j.mu.Unlock()
	heap.Push(&s.queue, j)
	s.metrics.queueDepth.Set(float64(len(s.queue.items)))
	snap := s.obsSnapshotLocked()
	s.publish(j, string(StatusQueued), JobEvent{Time: now, Attempt: attempt})
	s.work.Signal()
	s.mu.Unlock()
	s.emitObs(snap)
}

// finish publishes a job outcome exactly once.
func (s *Service) finish(j *Job, res *Result, err error, status Status) {
	now := time.Now()
	reason := s.reasonFor(err, status)
	j.mu.Lock()
	if j.status == StatusDone || j.status == StatusFailed || j.status == StatusCancelled {
		j.mu.Unlock()
		return
	}
	started := j.started
	wasRunning := j.running
	served := j.servedVia
	j.running = false
	j.status = status
	j.result = res
	j.err = err
	j.reason = reason
	ev := JobEvent{Time: now, Attempt: j.attempts}
	if started {
		ev.WaitSec = j.startedAt.Sub(j.enqueuedAt).Seconds()
		ev.ExecSec = now.Sub(j.startedAt).Seconds()
	}
	// Close the job's span subtree. A never-picked-up job still holds an
	// open queue span; an abandoned run holds an open execute span. The
	// root job span absorbs the terminal status and objective.
	if err != nil {
		j.execSpan.SetError(err)
		j.span.SetStatus(true, reason)
	}
	j.execSpan.EndAt(now)
	j.queueSpan.EndAt(now)
	j.span.SetAttr(tracing.String("job.status", string(status)))
	if res != nil {
		j.span.SetAttr(tracing.Float("job.objective", res.Objective))
	}
	j.span.EndAt(now)
	j.mu.Unlock()

	if err != nil {
		ev.Error = err.Error()
		ev.Reason = reason
	}
	if res != nil {
		ev.Objective = res.Objective
	}
	if started {
		s.metrics.execLatency.Observe(ev.ExecSec)
		s.metrics.busySeconds.Add(ev.ExecSec)
	}
	s.metrics.finished.With(string(status)).Inc()
	s.acctFinish(j, res, status, started, served, ev.ExecSec, ev.WaitSec)

	// Journal the terminal state — except shutdown cancellations: those
	// jobs are not abandoned, they are exactly what the next process must
	// resume, so they stay pending in the log.
	if s.journal != nil && reason != reasonShutdown {
		if jerr := s.journal.Append(journal.Record{
			Type: journal.TypeTerminal, Hash: j.Hash,
			Status: string(status), Reason: reason,
		}); jerr != nil {
			s.log.Warn("journal: terminal append failed",
				"job", j.ID, "err", jerr.Error())
		}
	}

	s.mu.Lock()
	if s.inflight[j.Hash] == j {
		delete(s.inflight, j.Hash)
	}
	s.retireLocked(j.ID)
	if wasRunning {
		s.stats.Running--
		s.metrics.running.Set(float64(s.stats.Running))
	}
	switch status {
	case StatusDone:
		s.stats.Completed++
	case StatusFailed:
		s.stats.Failed++
	case StatusCancelled:
		s.stats.Cancelled++
	}
	snap := s.obsSnapshotLocked()
	s.publish(j, string(status), ev)
	s.mu.Unlock()
	s.emitObs(snap)
	if s.log.Enabled(telemetry.LevelDebug) {
		s.log.WithTrace(j.span.TraceID(), j.span.SpanID()).Debug("job finished",
			"job", j.ID, "label", j.Label, "status", string(status),
			"execSec", ev.ExecSec, "err", ev.Error, "reason", reason)
	}
	close(j.done)
}

// reasonShutdown marks jobs cancelled because the process is stopping.
// finish treats it specially: such jobs keep their pending journal
// records so the next process resumes them.
const reasonShutdown = "service shutdown"

// reasonFor maps a terminal (status, error) pair to the human-readable
// cause surfaced on job status JSON, the SSE terminal event, and the
// job span. Successful jobs have no reason.
func (s *Service) reasonFor(err error, status Status) string {
	switch status {
	case StatusFailed:
		if err != nil {
			return err.Error()
		}
		return "execution failed"
	case StatusCancelled:
		switch {
		case errors.Is(err, ErrClosed):
			return reasonShutdown
		case errors.Is(err, context.DeadlineExceeded):
			return "job deadline exceeded"
		case errors.Is(err, context.Canceled):
			// A submitter's Cancel and a service Close both surface
			// context.Canceled on the job context; disambiguate on the
			// service's own state.
			if s.isClosed() {
				return reasonShutdown
			}
			return "cancelled by submitter"
		case err != nil:
			return err.Error()
		}
		return "cancelled"
	}
	return ""
}

// isClosed reports whether Close has begun.
func (s *Service) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// queueSaturated reports whether the queue is at capacity right now — the
// HTTP layer's admission check for whole-campaign submissions.
func (s *Service) queueSaturated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue.items) >= s.cfg.QueueDepth
}

// rejectQueueFull records a queue-full rejection made on the service's
// behalf by a front end (the HTTP server bounces whole campaigns with
// 503 when the queue is saturated).
func (s *Service) rejectQueueFull() {
	s.mu.Lock()
	s.stats.Rejected++
	s.mu.Unlock()
	s.metrics.rejected.Inc()
}

// dropQueued removes a cancelled job from the queue — or from its retry
// backoff — if it has not started.
func (s *Service) dropQueued(j *Job) {
	s.mu.Lock()
	removed := false
	for i, q := range s.queue.items {
		if q == j {
			heap.Remove(&s.queue, i)
			removed = true
			break
		}
	}
	if removed {
		s.metrics.queueDepth.Set(float64(len(s.queue.items)))
		s.space.Signal()
	} else if t, ok := s.retryTimers[j]; ok {
		// Waiting out a backoff: claim the map entry so a concurrently
		// firing timer backs off (enqueueRetry finds it gone and yields).
		t.Stop()
		delete(s.retryTimers, j)
		removed = true
	}
	s.mu.Unlock()
	if removed {
		s.finish(j, nil, context.Canceled, StatusCancelled)
	}
}

// jobQueue is a max-heap on (priority, -seq): higher priority first, FIFO
// within a priority level.
type jobQueue struct{ items []*Job }

func (q jobQueue) Len() int { return len(q.items) }
func (q jobQueue) Less(i, k int) bool {
	if q.items[i].Priority != q.items[k].Priority {
		return q.items[i].Priority > q.items[k].Priority
	}
	return q.items[i].seq < q.items[k].seq
}
func (q jobQueue) Swap(i, k int) { q.items[i], q.items[k] = q.items[k], q.items[i] }
func (q *jobQueue) Push(x any)   { q.items = append(q.items, x.(*Job)) }
func (q *jobQueue) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return it
}
