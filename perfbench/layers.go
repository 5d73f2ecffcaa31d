package main

// layerMetric is one per-layer metric of the traced run, with the
// prediction written down before measuring: the end-to-end metric the
// layer should move, and the workloads where the layer does the most and
// the least work.
type layerMetric struct {
	name, unit, better string
	layer              string // the repository module measured
	moves              string // end-to-end metric it should move
	most, least        string
}

// layerMetrics lists every per-layer metric; BENCHMARK.json's per_layer
// section lists the same names, units and directions (see
// TestBenchmarkJSONMatchesLayers).
var layerMetrics = []layerMetric{
	{"http.post_ms", "ms", "lower", "campaign.http", "campaign_ms_p50", warmResubmit, coldSweep},
	{"http.result_get_ms", "ms", "lower", "campaign.http", "campaign_ms_p50", warmResubmit, coldSweep},
	{"http.request_decode_us", "us", "lower", "campaign.http", "campaign_ms_p50", warmResubmit, coldSweep},
	{"planner.expand_us_per_job", "us", "lower", "campaign.planner", "campaign_ms_p50", warmResubmit, coldSweep},
	{"spec.hash_us", "us", "lower", "campaign.spec", "cpu_ms_per_job", warmResubmit + "," + durableMixed, coldSweep},
	{"spec.canonical_json_us", "us", "lower", "campaign.spec", "cpu_ms_per_job", warmResubmit + "," + durableMixed, coldSweep},
	{"cache.memory_hit_ratio", "ratio", "higher", "campaign.cache", "jobs_per_s", durableMixed, coldSweep},
	{"cache.disk_hit_ratio", "ratio", "higher", "campaign.cache", "jobs_per_s", durableMixed, coldSweep},
	{"cache.miss_ratio", "ratio", "lower", "campaign.cache", "jobs_per_s", durableMixed, coldSweep},
	{"cache.dedup_ratio", "ratio", "higher", "campaign.cache", "jobs_per_s", durableMixed, coldSweep},
	{"cache.bytes", "bytes", "lower", "campaign.cache", "jobs_per_s", durableMixed, coldSweep},
	{"cache.corrupt", "count", "lower", "campaign.cache", "jobs_per_s", durableMixed, coldSweep},
	{"queue.wait_ms_p50", "ms", "lower", "campaign.service", "job_ms_p99", coldSweep, warmResubmit},
	{"queue.wait_ms_p99", "ms", "lower", "campaign.service", "job_ms_p99", coldSweep, warmResubmit},
	{"service.exec_ms_p50", "ms", "lower", "campaign.service", "jobs_per_s", coldSweep, warmResubmit},
	{"service.exec_ms_p99", "ms", "lower", "campaign.service", "job_ms_p99", coldSweep, warmResubmit},
	{"worker.busy_frac", "ratio", "higher", "campaign.service", "jobs_per_s", coldSweep, warmResubmit},
	{"queue.rejected", "count", "lower", "campaign.service", "jobs_per_s", coldSweep, warmResubmit},
	{"runtime.run_us_per_job", "us", "lower", "runtime", "cpu_ms_per_job", coldSweep, warmResubmit},
	{"runtime.des_events_per_job", "events", "lower", "runtime", "cpu_ms_per_job", coldSweep, warmResubmit},
	{"runtime.plan_reuse_ratio", "ratio", "higher", "runtime", "jobs_per_s", coldSweep, warmResubmit},
	{"runtime.fastpath_eligible_ratio", "ratio", "higher", "runtime", "jobs_per_s", coldSweep, warmResubmit},
	{"sim.ns_per_event", "ns", "lower", "sim", "cpu_ms_per_job", coldSweep, warmResubmit},
	{"tracing.bridge_us_per_job", "us", "lower", "obs+telemetry/tracing", "cpu_ms_per_job", coldSweep, warmResubmit},
	{"tracing.spans_per_job", "spans", "lower", "obs+telemetry/tracing", "cpu_ms_per_job", coldSweep, warmResubmit},
	{"indicators.derive_us_per_job", "us", "lower", "indicators+core", "cpu_ms_per_job", coldSweep, warmResubmit},
	{"accounting.fromtrace_us", "us", "lower", "campaign.accounting", "campaign_ms_p50", warmResubmit, "-"},
	{"accounting.spent_core_s", "core_s", "lower", "campaign.accounting", "cpu_ms_per_job", warmResubmit, "-"},
	{"journal.append_us", "us", "lower", "campaign.journal", "jobs_per_s", durableMixed, coldSweep + "," + warmResubmit},
	{"journal.appends_per_job", "count", "lower", "campaign.journal", "campaign_ms_p50", durableMixed, coldSweep + "," + warmResubmit},
	{"journal.compactions", "count", "lower", "campaign.journal", "jobs_per_s", durableMixed, coldSweep + "," + warmResubmit},
	{"events.publish_us", "us", "lower", "campaign.events", "job_ms_p50", warmResubmit, coldSweep},
	{"sse.events_per_job", "events", "lower", "campaign.events", "job_ms_p50", warmResubmit, coldSweep},
	{"sse.lag_ms_p99", "ms", "lower", "campaign.events", "job_ms_p50", warmResubmit, coldSweep},
	{"events.dropped", "count", "lower", "campaign.events", "job_ms_p50", warmResubmit, coldSweep},
	{"telemetry.scrape_ms", "ms", "lower", "telemetry", "cpu_ms_per_job", durableMixed, coldSweep + "," + warmResubmit},
	{"telemetry.scrape_bytes", "bytes", "lower", "telemetry", "cpu_ms_per_job", durableMixed, coldSweep + "," + warmResubmit},
}
