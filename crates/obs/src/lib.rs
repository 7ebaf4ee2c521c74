//! `wnsk-obs` — the workspace's unified observability substrate.
//!
//! The paper's entire evaluation (§VII) is a story told in counters:
//! number of I/Os, candidate sets examined, nodes pruned by the
//! Theorem 2/3 bounds. This crate provides the measurement vocabulary
//! every other crate shares:
//!
//! * [`Counter`] — a cheaply clonable atomic event counter.
//! * [`Timer`] — histogram-ish duration accumulator (count / total /
//!   max) with an RAII [`Span`] guard.
//! * [`Registry`] — a get-or-create namespace of counters and timers;
//!   [`Registry::snapshot`] captures every metric at once and
//!   [`Snapshot::since`] produces deltas, so concurrent queries can be
//!   metered without resetting anything.
//! * [`QueryReport`] — the per-query (or per-experiment) summary the CLI
//!   prints under `--metrics` and the bench runner writes as JSON.
//! * [`Hist`] — a lock-free log-linear latency histogram with mergeable
//!   [`HistSnapshot`]s and p50/p90/p99 queries (`docs/METRICS.md`,
//!   "Histograms").
//! * [`RollingWindow`] — recent-past views over a live [`Hist`]: a ring
//!   of fixed-interval snapshot deltas merged on read, so `/healthz`
//!   can answer "p99 over the last 10 s" instead of "since boot".
//! * [`FlightRecorder`] — a bounded lock-free ring of fixed-size
//!   [`FlightEntry`] records, the last-N-requests view behind the
//!   serving layer's `GET /flight`.
//! * [`Tracer`] — per-query structured tracing: per-worker span buffers
//!   merged into the deterministic span tree behind `--explain` (see
//!   [`trace`]).
//! * [`prometheus_text`] — Prometheus text exposition of a [`Snapshot`]
//!   for `--metrics-export`.
//!
//! The crate is dependency-free by design: it sits below `wnsk-storage`
//! in the crate graph, so everything — buffer pools, tree traversals,
//! solvers, the bench harness — can register into one registry.
//!
//! ```
//! use wnsk_obs::Registry;
//! use std::time::Duration;
//!
//! let registry = Registry::new();
//! let before = registry.snapshot();
//!
//! registry.counter("setr.node_visits").add(3);
//! registry.timer("phase.verification").record(Duration::from_millis(2));
//!
//! let delta = registry.snapshot().since(&before);
//! assert_eq!(delta.counter("setr.node_visits"), 3);
//! assert_eq!(delta.timers["phase.verification"].count, 1);
//! ```

mod export;
mod hist;
mod json;
mod metric;
mod recorder;
mod registry;
mod report;
pub mod trace;
mod window;

pub use export::{parse_prometheus_text, prometheus_name, prometheus_text};
pub use hist::{Hist, HistSnapshot};
pub use json::JsonValue;
pub use metric::{Counter, Span, Timer, TimerSnapshot};
pub use recorder::{FlightEntry, FlightRecorder, KEY_BYTES, QUALITY_BYTES};
pub use registry::{Registry, Snapshot};
pub use report::QueryReport;
pub use trace::{SpanId, SpanRecord, TracePayload, TraceReport, Tracer};
pub use window::RollingWindow;

/// Canonical metric-name suffixes, shared by every crate so the same
/// quantity always lands under the same registry key (`docs/METRICS.md`
/// documents each one against the paper figure it reproduces).
pub mod names {
    /// Page reads served from cache or disk (buffer pool).
    pub const LOGICAL_READS: &str = "logical_reads";
    /// Page reads that went to the backend — the paper's "number of
    /// I/Os" metric.
    pub const PHYSICAL_READS: &str = "physical_reads";
    /// Page writes to the backend.
    pub const PHYSICAL_WRITES: &str = "physical_writes";
    /// Index nodes read and decoded during traversal.
    pub const NODE_VISITS: &str = "node_visits";
    /// Subtrees never descended into thanks to score bounds.
    pub const NODES_PRUNED: &str = "nodes_pruned";
    /// Candidates retired because the MaxDom bound converged (Theorem 2).
    pub const PRUNE_MAXDOM: &str = "prune.maxdom";
    /// Candidates pruned by the MinDom penalty lower bound (Theorem 3).
    pub const PRUNE_MINDOM: &str = "prune.mindom";
    /// Solver phase: determining the missing set's initial rank.
    pub const PHASE_INITIAL_RANK: &str = "core.phase.initial_rank";
    /// Solver phase: enumerating candidate keyword sets.
    pub const PHASE_ENUMERATION: &str = "core.phase.enumeration";
    /// Solver phase: verifying candidates against the index.
    pub const PHASE_VERIFICATION: &str = "core.phase.verification";
    /// Candidate keyword sets generated.
    pub const CORE_CANDIDATES: &str = "core.candidates";
    /// Candidates discarded by the Opt3 dominator-cache filter.
    pub const CORE_PRUNED_FILTER: &str = "core.pruned.filter";
    /// Candidates never fully examined thanks to penalty bounds.
    pub const CORE_PRUNED_BOUND: &str = "core.pruned.bound";
    /// Spatial keyword queries actually executed.
    pub const CORE_QUERIES_RUN: &str = "core.queries_run";
    /// KcR-tree nodes expanded by bound-and-prune.
    pub const CORE_NODES_EXPANDED: &str = "core.nodes_expanded";
    /// Extra attempts spent retrying transient storage faults.
    pub const RETRIES: &str = "retries";
    /// Storage operations that failed even after all retries.
    pub const RETRIES_EXHAUSTED: &str = "retries_exhausted";
    /// Total nanoseconds slept in retry backoff.
    pub const RETRY_BACKOFF_NANOS: &str = "retry_backoff_nanos";
    /// Page reads whose embedded CRC32 did not match the payload.
    pub const CHECKSUM_FAILURES: &str = "checksum_failures";
    /// Queries that exhausted their budget and degraded to the
    /// sampling-based approximate answer.
    pub const CORE_DEGRADED: &str = "core.degraded";
    /// Tasks the work-stealing executor ran off a peer worker's deque
    /// (summed over workers; per-worker splits live in `AlgoStats`).
    pub const EXEC_TASKS_STOLEN: &str = "exec.tasks_stolen";
    /// Times a worker lowered the shared best-penalty bound.
    pub const EXEC_BOUND_REFRESHES: &str = "exec.bound_refreshes";
    /// Prunes performed against the shared best-penalty bound.
    pub const EXEC_PRUNE_HITS: &str = "exec.prune_hits";
    /// Histogram of buffer-pool miss latencies (nanoseconds per
    /// physical read, including any simulated `--io-latency-us` wait).
    pub const READ_LATENCY_NS: &str = "read_latency_ns";
    /// Histogram of individual retry-backoff sleeps, nanoseconds.
    pub const RETRY_BACKOFF_NS: &str = "retry_backoff_ns";
    /// Histogram of per-task executor latencies, nanoseconds.
    pub const EXEC_TASK_NS: &str = "exec.task_ns";
    /// Histogram of initial-rank phase latencies, nanoseconds per query.
    pub const PHASE_NS_INITIAL_RANK: &str = "core.phase_ns.initial_rank";
    /// Histogram of enumeration phase latencies, nanoseconds per query.
    pub const PHASE_NS_ENUMERATION: &str = "core.phase_ns.enumeration";
    /// Histogram of verification phase latencies, nanoseconds per query.
    pub const PHASE_NS_VERIFICATION: &str = "core.phase_ns.verification";
    /// Requests admitted past the serving layer's bounded queue.
    pub const SERVE_ACCEPTED: &str = "serve.accepted";
    /// Requests shed by admission control (queue full, or the deadline
    /// expired before a worker picked the request up).
    pub const SERVE_SHED: &str = "serve.shed";
    /// Requests answered from the cross-query answer cache, including
    /// why-not requests whose initial rank `R(M,q)` was reused from a
    /// cached rank list.
    pub const SERVE_CACHE_HITS: &str = "serve.cache_hits";
    /// Cacheable requests that had to be computed from the indexes.
    pub const SERVE_CACHE_MISSES: &str = "serve.cache_misses";
    /// Histogram of the request-queue depth observed at each admission.
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Histogram of end-to-end request latencies (enqueue to response),
    /// nanoseconds.
    pub const SERVE_REQUEST_NS: &str = "serve.request_ns";
    /// Answer-cache entries dropped because the dataset epoch moved past
    /// the epoch they were computed under.
    pub const SERVE_CACHE_INVALIDATED: &str = "serve.cache_invalidated";
    /// Histogram of request latencies feeding the serving layer's
    /// rolling windows (the `/healthz` 1s/10s/60s percentiles); the
    /// cumulative view exported here reconciles with the windows by
    /// construction — they are snapshots of the same histogram.
    pub const SERVE_WINDOW_REQUEST_NS: &str = "serve.window.request_ns";
    /// Rolling-window ticks closed across the serving layer's windows
    /// (a moving value proves the recent-past views are advancing).
    pub const SERVE_WINDOW_TICKS: &str = "serve.window.ticks";
    /// Requests whose end-to-end latency exceeded the configured SLO
    /// threshold — the burn counter SLO alerting integrates over.
    pub const SERVE_SLO_VIOLATIONS: &str = "serve.slo.violations";
    /// Completed requests filed into the flight recorder's ring.
    pub const OBS_RECORDER_RECORDED: &str = "obs.recorder.recorded";
    /// Flight-recorder entries evicted by ring wraparound.
    pub const OBS_RECORDER_OVERWRITTEN: &str = "obs.recorder.overwritten";
    /// Requests whose latency crossed the slow-query threshold and were
    /// filed (with their trace, when sampled) into the slow-query log.
    pub const OBS_RECORDER_SLOW: &str = "obs.recorder.slow";
    /// Records buffered into the write-ahead log (before commit).
    pub const WAL_APPENDS: &str = "wal.appends";
    /// Group commits synced to the log (one per `commit()`, however many
    /// records it batched).
    pub const WAL_COMMITS: &str = "wal.commits";
    /// Committed records replayed during crash recovery.
    pub const WAL_RECOVERED_RECORDS: &str = "wal.recovered_records";
    /// Bytes of torn or corrupt log tail truncated during crash recovery.
    pub const WAL_TRUNCATED_BYTES: &str = "wal.truncated_bytes";
    /// Mutations applied to the engine (live ingest and WAL replay both
    /// count; this equals the dataset epoch).
    pub const INGEST_APPLIED: &str = "ingest.applied";
    /// Fuzz cases generated and executed by the differential harness.
    pub const FUZZ_CASES: &str = "fuzz.cases";
    /// Individual oracle cross-checks evaluated (one per matrix
    /// configuration per case, plus the recovery-phase comparisons).
    pub const FUZZ_CHECKS: &str = "fuzz.checks";
    /// Cases whose outcome diverged from the sequential oracle.
    pub const FUZZ_FAILURES: &str = "fuzz.failures";
    /// Candidate reductions the delta-debugging shrinker attempted
    /// (accepted or rejected) while minimising failing cases.
    pub const FUZZ_SHRINK_STEPS: &str = "fuzz.shrink_steps";
    /// Committed regression cases re-executed by corpus replay.
    pub const FUZZ_CORPUS_REPLAYED: &str = "fuzz.corpus_replayed";
    /// Scatter fan-outs issued by the shard coordinator (one per
    /// coordinator-level top-k / why-not / rank-scan round, regardless
    /// of shard count).
    pub const SHARD_SCATTER: &str = "shard.scatter";
    /// Nanoseconds the coordinator spent merging per-shard partial
    /// results into the global answer (histogram).
    pub const SHARD_MERGE_NS: &str = "shard.merge_ns";
    /// Times the cross-shard penalty bound was actually lowered by a
    /// partial result streaming back from a shard.
    pub const SHARD_BOUND_TIGHTENINGS: &str = "shard.bound_tightenings";

    /// Every canonical name, for the docs/METRICS.md lint: the test in
    /// `tests/metrics_names.rs` fails when this list and the reference
    /// drift apart in either direction.
    pub const ALL: &[&str] = &[
        LOGICAL_READS,
        PHYSICAL_READS,
        PHYSICAL_WRITES,
        NODE_VISITS,
        NODES_PRUNED,
        PRUNE_MAXDOM,
        PRUNE_MINDOM,
        PHASE_INITIAL_RANK,
        PHASE_ENUMERATION,
        PHASE_VERIFICATION,
        CORE_CANDIDATES,
        CORE_PRUNED_FILTER,
        CORE_PRUNED_BOUND,
        CORE_QUERIES_RUN,
        CORE_NODES_EXPANDED,
        RETRIES,
        RETRIES_EXHAUSTED,
        RETRY_BACKOFF_NANOS,
        CHECKSUM_FAILURES,
        CORE_DEGRADED,
        EXEC_TASKS_STOLEN,
        EXEC_BOUND_REFRESHES,
        EXEC_PRUNE_HITS,
        READ_LATENCY_NS,
        RETRY_BACKOFF_NS,
        EXEC_TASK_NS,
        PHASE_NS_INITIAL_RANK,
        PHASE_NS_ENUMERATION,
        PHASE_NS_VERIFICATION,
        SERVE_ACCEPTED,
        SERVE_SHED,
        SERVE_CACHE_HITS,
        SERVE_CACHE_MISSES,
        SERVE_QUEUE_DEPTH,
        SERVE_REQUEST_NS,
        SERVE_CACHE_INVALIDATED,
        SERVE_WINDOW_REQUEST_NS,
        SERVE_WINDOW_TICKS,
        SERVE_SLO_VIOLATIONS,
        OBS_RECORDER_RECORDED,
        OBS_RECORDER_OVERWRITTEN,
        OBS_RECORDER_SLOW,
        WAL_APPENDS,
        WAL_COMMITS,
        WAL_RECOVERED_RECORDS,
        WAL_TRUNCATED_BYTES,
        INGEST_APPLIED,
        FUZZ_CASES,
        FUZZ_CHECKS,
        FUZZ_FAILURES,
        FUZZ_SHRINK_STEPS,
        FUZZ_CORPUS_REPLAYED,
        SHARD_SCATTER,
        SHARD_MERGE_NS,
        SHARD_BOUND_TIGHTENINGS,
    ];
}
