//! The warm serving engine: one [`WhyNotEngine`] (indexes built once at
//! startup over the storage buffer pool) plus the cross-query
//! [`AnswerCache`] and the `serve.*` metric handles, all publishing
//! into the engine's own registry so `--metrics-export` shows service
//! counters next to buffer-pool and tree-traversal activity.
//!
//! # Mutability and epochs
//!
//! The engine sits behind an [`RwLock`]: queries run under the read
//! lock, mutations (`insert` / `delete` requests) take the write lock,
//! funnel through [`WhyNotEngine::ingest`] (and its write-ahead log
//! when one is attached), and advance the dataset epoch. A query reads
//! the epoch under the *same* read lock it executes under, so an
//! answer and the epoch stamped on it can never be torn: concurrent
//! readers see either the full pre-mutation or the full post-mutation
//! snapshot. Cache entries stamped with a superseded epoch are dropped
//! lazily at lookup (`serve.cache_invalidated`) — no stale top-k list
//! or initial-rank hint is ever served across a mutation.

use crate::cache::{canonical_point, AnswerCache, RankList};
use crate::observe::{Observability, ObservabilityConfig, Observed};
use crate::protocol::{self, WireKeyword, WireRequest};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};
use wnsk_core::{KcrOptions, Mutation, QueryBudget, WhyNotAnswer, WhyNotEngine, WhyNotQuestion};
use wnsk_index::{Dataset, ObjectId, SpatialKeywordQuery};
use wnsk_obs::{names, Counter, FlightRecorder, Hist, JsonValue, Registry};
use wnsk_shard::Coordinator;
use wnsk_text::{KeywordSet, Vocabulary};

/// A request resolved against the dataset: keywords interned, ids
/// validated, location canonicalized. Only resolved requests enter the
/// admission queue, so malformed input never consumes a queue slot.
#[derive(Clone, Debug)]
pub enum ResolvedRequest {
    /// Plain top-k over the canonical query.
    TopK(SpatialKeywordQuery),
    /// Why-not refinement.
    WhyNot {
        /// The question, with the canonical original query.
        question: WhyNotQuestion,
        /// Optional per-request page-read cap.
        max_page_reads: Option<u64>,
    },
    /// A mutation, applied under the engine's write lock.
    Ingest(Mutation),
    /// Service counters.
    Stats,
}

/// What answers requests: one engine, or a scatter-gather coordinator
/// over many. Both run the same solver and answer bit-identically (the
/// shard determinism suite pins that), so every query path reads either
/// through one [`ReadView`]; only ingest (routed by partition key),
/// `/healthz` (per-shard rows) and the typed accessors tell
/// the two apart.
enum Backend {
    Single(RwLock<WhyNotEngine>),
    Sharded(RwLock<Coordinator>),
}

/// The backend-neutral read side every query path executes against.
trait ReadView {
    /// The live dataset (in sharded mode, the coordinator's one dataset).
    fn dataset(&self) -> &Dataset;
    fn vocabulary(&self) -> Option<&Vocabulary>;
    /// The dataset epoch cache entries are stamped with.
    fn epoch(&self) -> u64;
    fn top_k(&self, query: &SpatialKeywordQuery) -> Result<Vec<(ObjectId, f64)>, String>;
    fn answer_kcr(
        &self,
        question: &WhyNotQuestion,
        opts: KcrOptions,
    ) -> wnsk_core::Result<WhyNotAnswer>;
}

impl ReadView for WhyNotEngine {
    fn dataset(&self) -> &Dataset {
        WhyNotEngine::dataset(self)
    }
    fn vocabulary(&self) -> Option<&Vocabulary> {
        WhyNotEngine::vocabulary(self)
    }
    fn epoch(&self) -> u64 {
        WhyNotEngine::epoch(self)
    }
    fn top_k(&self, query: &SpatialKeywordQuery) -> Result<Vec<(ObjectId, f64)>, String> {
        WhyNotEngine::top_k(self, query).map_err(|e| e.to_string())
    }
    fn answer_kcr(
        &self,
        question: &WhyNotQuestion,
        opts: KcrOptions,
    ) -> wnsk_core::Result<WhyNotAnswer> {
        WhyNotEngine::answer_kcr(self, question, opts)
    }
}

impl ReadView for Coordinator {
    fn dataset(&self) -> &Dataset {
        Coordinator::dataset(self)
    }
    fn vocabulary(&self) -> Option<&Vocabulary> {
        Coordinator::vocabulary(self)
    }
    fn epoch(&self) -> u64 {
        Coordinator::epoch(self)
    }
    fn top_k(&self, query: &SpatialKeywordQuery) -> Result<Vec<(ObjectId, f64)>, String> {
        Coordinator::top_k(self, query).map_err(|e| e.to_string())
    }
    fn answer_kcr(
        &self,
        question: &WhyNotQuestion,
        opts: KcrOptions,
    ) -> wnsk_core::Result<WhyNotAnswer> {
        Coordinator::answer_kcr(self, question, opts)
    }
}

/// The serving layer's engine: warm indexes + answer cache + metrics.
pub struct ServeEngine {
    backend: Backend,
    registry: Registry,
    cache: AnswerCache,
    accepted: Counter,
    shed: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    queue_depth: Hist,
    request_ns: Hist,
    /// The observability plane (flight recorder, slow-query log,
    /// rolling windows); `None` unless enabled at construction.
    obs: Option<Observability>,
}

impl ServeEngine {
    /// Wraps a built engine with a cache of `cache_entries` entries per
    /// structure and registers the `serve.*` metrics into the engine's
    /// registry.
    pub fn new(engine: WhyNotEngine, cache_entries: usize) -> Self {
        let registry = engine.registry().clone();
        Self::with_backend(
            Backend::Single(RwLock::new(engine)),
            registry,
            cache_entries,
        )
    }

    /// Wraps a sharded coordinator instead of a single engine. The
    /// `serve.*` handles register into the *coordinator's* registry
    /// (which already carries `shard.*`), so one scrape covers both
    /// planes and `wnsk top --check` stays satisfied.
    pub fn new_sharded(coordinator: Coordinator, cache_entries: usize) -> Self {
        let registry = coordinator.registry().clone();
        Self::with_backend(
            Backend::Sharded(RwLock::new(coordinator)),
            registry,
            cache_entries,
        )
    }

    fn with_backend(backend: Backend, registry: Registry, cache_entries: usize) -> Self {
        let accepted = registry.counter(names::SERVE_ACCEPTED);
        let shed = registry.counter(names::SERVE_SHED);
        let cache_hits = registry.counter(names::SERVE_CACHE_HITS);
        let cache_misses = registry.counter(names::SERVE_CACHE_MISSES);
        let invalidated = registry.counter(names::SERVE_CACHE_INVALIDATED);
        let queue_depth = registry.hist(names::SERVE_QUEUE_DEPTH);
        let request_ns = registry.hist(names::SERVE_REQUEST_NS);
        ServeEngine {
            backend,
            registry,
            cache: AnswerCache::new(cache_entries).with_invalidated_counter(invalidated),
            accepted,
            shed,
            cache_hits,
            cache_misses,
            queue_depth,
            request_ns,
            obs: None,
        }
    }

    /// Enables the observability plane: the flight recorder, slow-query
    /// log, rolling SLO windows, and the sampled solver tracer. All of
    /// it is observation only — a server with this enabled produces
    /// bit-identical work metrics and penalties to one without (the
    /// determinism suite pins that).
    pub fn with_observability(mut self, config: ObservabilityConfig) -> Self {
        let obs = Observability::new(config, &self.registry);
        // Attach the (initially disabled) tracer so the slow-query log
        // can sample an explain tree when a request wins the trace slot;
        // in sharded mode every shard's trees record into it, so a sharded
        // request files one tree.
        match &mut self.backend {
            Backend::Single(engine) => engine
                .get_mut()
                .expect("engine lock poisoned")
                .set_tracer(obs.tracer.clone()),
            Backend::Sharded(coord) => coord
                .get_mut()
                .expect("coordinator lock poisoned")
                .set_tracer(obs.tracer.clone()),
        }
        self.obs = Some(obs);
        self
    }

    /// Whether the observability plane is enabled.
    pub fn observability_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// The flight recorder, when observability is enabled (tests pin
    /// its memory bound through this).
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.obs.as_ref().map(|o| &o.recorder)
    }

    /// Read access to the wrapped engine. Queries executed by the
    /// serving layer itself take this lock internally; hold the guard
    /// only for inspection, never across a call back into the server.
    ///
    /// # Panics
    ///
    /// In sharded mode there is no single engine — use
    /// [`ServeEngine::coordinator`] instead.
    pub fn engine(&self) -> std::sync::RwLockReadGuard<'_, WhyNotEngine> {
        match &self.backend {
            Backend::Single(engine) => engine.read().unwrap(),
            Backend::Sharded(_) => {
                panic!("ServeEngine::engine() called on a sharded backend; use coordinator()")
            }
        }
    }

    /// Read access to the coordinator, in sharded mode.
    ///
    /// # Panics
    ///
    /// In single-engine mode — use [`ServeEngine::engine`] instead.
    pub fn coordinator(&self) -> std::sync::RwLockReadGuard<'_, Coordinator> {
        match &self.backend {
            Backend::Sharded(coord) => coord.read().unwrap(),
            Backend::Single(_) => {
                panic!("ServeEngine::coordinator() called on a single-engine backend")
            }
        }
    }

    /// Whether this engine scatters across shards.
    pub fn is_sharded(&self) -> bool {
        matches!(self.backend, Backend::Sharded(_))
    }

    /// Runs `f` against the backend's read view under its read lock. A
    /// query reads the epoch under the same lock it executes under, so
    /// an answer and its epoch stamp are never torn.
    fn read<R>(&self, f: impl FnOnce(&dyn ReadView) -> R) -> R {
        match &self.backend {
            Backend::Single(engine) => f(&*engine.read().unwrap()),
            Backend::Sharded(coord) => f(&*coord.read().unwrap()),
        }
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The answer cache.
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }

    /// Records an admission (`serve.accepted` + the queue-depth
    /// histogram sampled at admission time).
    pub fn note_accepted(&self, queue_len: usize) {
        self.accepted.inc();
        self.queue_depth.record(queue_len as u64);
    }

    /// Records the queue depth a worker observed right after taking a
    /// job off the queue. `serve.queue_depth` samples at *both* ends of
    /// a request's queue residency — admission and dequeue — so the
    /// histogram reflects drain-side backlog too, not just arrival
    /// bursts (`docs/METRICS.md` documents both sample points).
    pub fn note_dequeued(&self, queue_len: usize) {
        self.queue_depth.record(queue_len as u64);
    }

    /// Records a load-shed (`serve.shed`).
    pub fn note_shed(&self) {
        self.shed.inc();
    }

    /// Records one completed request's end-to-end latency.
    pub fn note_request_done(&self, elapsed: Duration) {
        self.request_ns.record_duration(elapsed);
    }

    /// Resolves a wire request: interns keywords through the attached
    /// vocabulary (raw term ids pass through), validates missing ids
    /// against the live dataset, and canonicalizes the location so
    /// cache keys and execution agree.
    pub fn resolve(&self, wire: &WireRequest) -> Result<ResolvedRequest, String> {
        self.read(|view| resolve_against(view.dataset(), view.vocabulary(), wire))
    }

    /// Executes a resolved request and renders the response line.
    /// `remaining` is what is left of the request's deadline once a
    /// worker picks it up; why-not queries run under a [`QueryBudget`]
    /// built from it, so a mid-query expiry degrades the answer through
    /// the existing ladder instead of blowing the latency envelope.
    pub fn execute(&self, request: &ResolvedRequest, remaining: Option<Duration>) -> String {
        match request {
            ResolvedRequest::Stats => self.execute_stats(),
            ResolvedRequest::TopK(query) => self.execute_topk(query),
            ResolvedRequest::WhyNot {
                question,
                max_page_reads,
            } => self.execute_whynot(question, *max_page_reads, remaining),
            ResolvedRequest::Ingest(mutation) => self.execute_ingest(mutation),
        }
    }

    /// [`ServeEngine::execute`] wrapped in the observability plane: the
    /// worker-side entry point. Handles the queued-past-deadline shed,
    /// times the execution, samples a solver trace when the request
    /// wins the trace slot, and files the outcome into the flight
    /// recorder, rolling windows, SLO burn counter and (when slow
    /// enough) the slow-query log. With observability disabled this is
    /// behaviorally identical to the pre-observability worker loop.
    ///
    /// `line` is the original wire line (kept verbatim in slow-log
    /// entries so they can be replayed); `waited` is the time the job
    /// spent queued, measured at dequeue.
    pub fn execute_observed(
        &self,
        request: &ResolvedRequest,
        line: &str,
        deadline: Option<Duration>,
        waited: Duration,
    ) -> String {
        let expired = matches!(deadline, Some(d) if waited >= d);
        let Some(obs) = &self.obs else {
            if expired {
                self.note_shed();
                return protocol::render_shed("deadline exceeded");
            }
            return self.execute(request, deadline.map(|d| d.saturating_sub(waited)));
        };
        let (kind, key) = flight_identity(request);
        if expired {
            self.note_shed();
            let response = protocol::render_shed("deadline exceeded");
            obs.observe(Observed {
                kind,
                key: &key,
                line,
                response: &response,
                deadline,
                queue_wait: waited,
                execute: Duration::ZERO,
                trace: None,
            });
            return response;
        }
        let tracing = obs.begin_trace();
        let started = Instant::now();
        let response = self.execute(request, deadline.map(|d| d.saturating_sub(waited)));
        let execute = started.elapsed();
        let trace = tracing.then(|| obs.end_trace());
        obs.observe(Observed {
            kind,
            key: &key,
            line,
            response: &response,
            deadline,
            queue_wait: waited,
            execute,
            trace,
        });
        response
    }

    /// Files a request shed at admission (queue full) into the flight
    /// recorder and windows; a no-op with observability disabled. The
    /// caller has already called [`ServeEngine::note_shed`] and
    /// rendered `response`.
    pub fn observe_admission_shed(
        &self,
        request: &ResolvedRequest,
        line: &str,
        response: &str,
        deadline: Option<Duration>,
    ) {
        let Some(obs) = &self.obs else { return };
        let (kind, key) = flight_identity(request);
        obs.observe(Observed {
            kind,
            key: &key,
            line,
            response,
            deadline,
            queue_wait: Duration::ZERO,
            execute: Duration::ZERO,
            trace: None,
        });
    }

    fn execute_topk(&self, query: &SpatialKeywordQuery) -> String {
        // The cached list is exactly the answer a fresh computation at
        // this epoch would produce. Sharded answers carry the
        // coordinator's global epoch, so a routed mutation to any shard
        // invalidates exactly like a single-engine mutation would.
        self.read(|view| {
            let epoch = view.epoch();
            if let Some(list) = self.cache.get_topk(query, epoch) {
                self.cache_hits.inc();
                return render_topk_list(&list, true);
            }
            match view.top_k(query) {
                Ok(results) => {
                    self.cache_misses.inc();
                    let list: RankList = Arc::new(results);
                    self.cache.put_topk(query, Arc::clone(&list), epoch);
                    render_topk_list(&list, false)
                }
                Err(e) => protocol::render_error(&e),
            }
        })
    }

    fn execute_whynot(
        &self,
        question: &WhyNotQuestion,
        max_page_reads: Option<u64>,
        remaining: Option<Duration>,
    ) -> String {
        self.read(|view| {
            if let Some(error) = deleted_missing(view, question) {
                return error;
            }
            let epoch = view.epoch();
            let hint = self
                .cache
                .get_initial_rank(&question.query, &question.missing, epoch);
            let opts = KcrOptions {
                budget: request_budget(max_page_reads, remaining),
                initial_rank_hint: hint,
                ..KcrOptions::default()
            };
            match view.answer_kcr(question, opts) {
                Ok(answer) => {
                    if hint.is_some() {
                        self.cache_hits.inc();
                    } else {
                        self.cache_misses.inc();
                        let rank = answer.stats.initial_rank as usize;
                        if rank > question.query.k {
                            self.cache.put_initial_rank(
                                &question.query,
                                &question.missing,
                                rank,
                                epoch,
                            );
                        }
                    }
                    answer.stats.record_into(&self.registry);
                    if let Some(obs) = &self.obs {
                        // Per-task solver latencies feed the task window
                        // by folding the answer's snapshot — observation
                        // only, after the answer is fully computed.
                        obs.win_task.merge_snapshot(&answer.stats.task_latency);
                    }
                    render_whynot_answer(view.vocabulary(), &answer, hint.is_some())
                }
                Err(e) => protocol::render_error(&e.to_string()),
            }
        })
    }

    /// Executes a query request with the answer cache bypassed entirely —
    /// neither consulted nor populated, no rank hint. This is the
    /// fresh-computation baseline `wnsk serve --replay` holds every
    /// (possibly cached) response to: after stripping the `cached` /
    /// `rank_reused` markers the two renderings must be bit-identical.
    /// Mutations and stats have no uncached variant (`None`).
    pub fn execute_uncached(&self, request: &ResolvedRequest) -> Option<String> {
        self.read(|view| match request {
            ResolvedRequest::TopK(query) => Some(match view.top_k(query) {
                Ok(results) => render_topk_list(&results, false),
                Err(e) => protocol::render_error(&e),
            }),
            ResolvedRequest::WhyNot {
                question,
                max_page_reads,
            } => {
                if let Some(error) = deleted_missing(view, question) {
                    return Some(error);
                }
                let opts = KcrOptions {
                    budget: request_budget(*max_page_reads, None),
                    ..KcrOptions::default()
                };
                Some(match view.answer_kcr(question, opts) {
                    Ok(answer) => render_whynot_answer(view.vocabulary(), &answer, false),
                    Err(e) => protocol::render_error(&e.to_string()),
                })
            }
            ResolvedRequest::Ingest(_) | ResolvedRequest::Stats => None,
        })
    }

    fn execute_ingest(&self, mutation: &Mutation) -> String {
        let kind = match mutation {
            Mutation::Insert { .. } => "insert",
            Mutation::Remove { .. } => "delete",
            Mutation::UpdateDoc { .. } => "update",
        };
        match &self.backend {
            Backend::Single(engine) => {
                let mut engine = engine.write().unwrap();
                match engine.ingest(mutation) {
                    Ok(id) => protocol::render_ingest(kind, id.0, engine.epoch()),
                    Err(e) => protocol::render_error(&e.to_string()),
                }
            }
            Backend::Sharded(coord) => {
                let mut coord = coord.write().unwrap();
                match coord.ingest(mutation) {
                    Ok(id) => protocol::render_ingest(kind, id.0, coord.epoch()),
                    Err(e) => protocol::render_error(&e.to_string()),
                }
            }
        }
    }

    fn execute_stats(&self) -> String {
        let objects = self.read(|view| view.dataset().live_len());
        let snapshot = self.registry.snapshot();
        let counters: Vec<(&str, u64)> = [
            names::SERVE_ACCEPTED,
            names::SERVE_SHED,
            names::SERVE_CACHE_HITS,
            names::SERVE_CACHE_MISSES,
            names::SERVE_CACHE_INVALIDATED,
            names::INGEST_APPLIED,
        ]
        .iter()
        .map(|&n| (n, snapshot.counter(n)))
        .collect();
        protocol::render_stats(objects, self.cache.len(), &counters)
    }

    /// The `GET /healthz` document: live queue state, dataset epoch,
    /// WAL attachment, lifetime counters, and — when observability is
    /// enabled — the rolling 1s/10s/60s windows and SLO burn. The
    /// caller supplies the queue numbers because the admission queue
    /// lives in the server, not the engine.
    pub fn healthz_json(&self, queue_len: usize, queue_capacity: usize) -> String {
        let (epoch, wal, shards) = match &self.backend {
            Backend::Single(engine) => {
                let engine = engine.read().unwrap();
                (engine.epoch(), engine.wal().is_some(), None)
            }
            Backend::Sharded(coord) => {
                let coord = coord.read().unwrap();
                (
                    coord.epoch(),
                    coord.wal_attached(),
                    Some(coord.statuses_json()),
                )
            }
        };
        let mut fields = vec![
            ("ok", JsonValue::Bool(true)),
            ("queue_depth", JsonValue::from(queue_len)),
            ("queue_capacity", JsonValue::from(queue_capacity)),
            ("epoch", JsonValue::from(epoch)),
            ("wal_attached", JsonValue::Bool(wal)),
            ("cache_entries", JsonValue::from(self.cache.len())),
            ("accepted", JsonValue::from(self.accepted.get())),
            ("shed", JsonValue::from(self.shed.get())),
            ("cache_hits", JsonValue::from(self.cache_hits.get())),
            ("cache_misses", JsonValue::from(self.cache_misses.get())),
        ];
        if let Some(shards) = shards {
            fields.push(("shards", shards));
        }
        if let Some(obs) = &self.obs {
            fields.push(("slo_violations", JsonValue::from(obs.slo_violations())));
            fields.push(("slow_logged", JsonValue::from(obs.slow_logged())));
            fields.push((
                "recorder",
                JsonValue::object(vec![
                    ("capacity", JsonValue::from(obs.recorder.capacity())),
                    ("recorded", JsonValue::from(obs.recorder.recorded())),
                    ("memory_bytes", JsonValue::from(obs.recorder.memory_bytes())),
                ]),
            ));
            fields.push(("windows", obs.windows_json()));
        }
        JsonValue::object(fields).render()
    }

    /// The `GET /slow` document (empty when observability is off).
    pub fn slow_json(&self) -> String {
        match &self.obs {
            Some(obs) => obs.slow_json().render(),
            None => JsonValue::object(vec![
                ("entries", JsonValue::Array(Vec::new())),
                ("logged", JsonValue::from(0u64)),
            ])
            .render(),
        }
    }

    /// The `GET /flight` document (empty when observability is off).
    pub fn flight_json(&self) -> String {
        match &self.obs {
            Some(obs) => obs.recorder.to_json().render(),
            None => JsonValue::object(vec![
                ("capacity", JsonValue::from(0u64)),
                ("recorded", JsonValue::from(0u64)),
                ("entries", JsonValue::Array(Vec::new())),
            ])
            .render(),
        }
    }
}

/// The flight recorder's identity for a resolved request: a short kind
/// tag plus the canonical key of the executed (snapped) query — the
/// same canonical dimensions the answer cache keys on, rendered as a
/// string. Non-cacheable kinds key as empty.
fn flight_identity(request: &ResolvedRequest) -> (&'static str, String) {
    fn query_key(q: &SpatialKeywordQuery) -> String {
        let terms: Vec<String> = q.doc.iter().map(|t| t.0.to_string()).collect();
        format!(
            "{},{}|{}|k={}|a={}",
            q.loc.x,
            q.loc.y,
            terms.join("+"),
            q.k,
            q.alpha
        )
    }
    match request {
        ResolvedRequest::TopK(q) => ("topk", query_key(q)),
        ResolvedRequest::WhyNot { question, .. } => {
            let missing: Vec<String> = question.missing.iter().map(|m| m.0.to_string()).collect();
            (
                "whynot",
                format!(
                    "{}|m={}|l={}",
                    query_key(&question.query),
                    missing.join("+"),
                    question.lambda
                ),
            )
        }
        ResolvedRequest::Ingest(Mutation::Insert { .. }) => ("insert", String::new()),
        ResolvedRequest::Ingest(Mutation::Remove { .. }) => ("delete", String::new()),
        ResolvedRequest::Ingest(Mutation::UpdateDoc { .. }) => ("update", String::new()),
        ResolvedRequest::Stats => ("stats", String::new()),
    }
}

/// The why-not budget of one request: its page-read cap and what is
/// left of its deadline, when given.
fn request_budget(max_page_reads: Option<u64>, remaining: Option<Duration>) -> QueryBudget {
    let mut budget = QueryBudget::unlimited();
    if let Some(d) = remaining {
        budget = budget.with_deadline(d);
    }
    if let Some(max) = max_page_reads {
        budget = budget.with_max_page_reads(max);
    }
    budget
}

/// A delete can race past `resolve`'s liveness check while the request
/// is queued; the solver would chase an object that no longer exists,
/// so why-nots re-check under the execution lock. Returns the error
/// response, if any missing object is gone.
fn deleted_missing(view: &dyn ReadView, question: &WhyNotQuestion) -> Option<String> {
    question
        .missing
        .iter()
        .find(|m| !view.dataset().is_live(**m))
        .map(|m| protocol::render_error(&format!("object id {} has been deleted", m.0)))
}

/// Resolves a wire request against a dataset + optional vocabulary —
/// the core of [`ServeEngine::resolve`] (single mode hands in the
/// engine's dataset, sharded mode the coordinator's; both validate
/// against exactly the same live set).
fn resolve_against(
    dataset: &Dataset,
    vocab: Option<&Vocabulary>,
    wire: &WireRequest,
) -> Result<ResolvedRequest, String> {
    match wire {
        WireRequest::Stats => Ok(ResolvedRequest::Stats),
        WireRequest::TopK { query } => Ok(ResolvedRequest::TopK(resolve_query(vocab, query)?)),
        WireRequest::WhyNot {
            query,
            missing,
            lambda,
            max_page_reads,
        } => {
            let query = resolve_query(vocab, query)?;
            let n = dataset.len();
            let mut ids = Vec::with_capacity(missing.len());
            for &m in missing {
                if (m as usize) >= n {
                    return Err(format!("unknown object id {m} (dataset has {n} objects)"));
                }
                if !dataset.is_live(ObjectId(m)) {
                    return Err(format!("object id {m} has been deleted"));
                }
                ids.push(ObjectId(m));
            }
            Ok(ResolvedRequest::WhyNot {
                question: WhyNotQuestion::new(query, ids, *lambda),
                max_page_reads: *max_page_reads,
            })
        }
        WireRequest::Insert { at, keywords } => {
            let doc = resolve_keywords(vocab, keywords)?;
            Ok(ResolvedRequest::Ingest(Mutation::Insert {
                loc: wnsk_geo::Point::new(at.0, at.1),
                doc,
            }))
        }
        WireRequest::Delete { id } => {
            let n = dataset.len();
            if (*id as usize) >= n {
                return Err(format!("unknown object id {id} (dataset has {n} objects)"));
            }
            if !dataset.is_live(ObjectId(*id)) {
                return Err(format!("object id {id} has already been deleted"));
            }
            Ok(ResolvedRequest::Ingest(Mutation::Remove {
                id: ObjectId(*id),
            }))
        }
    }
}

fn resolve_keywords(
    vocab: Option<&Vocabulary>,
    keywords: &[WireKeyword],
) -> Result<KeywordSet, String> {
    let mut ids = Vec::with_capacity(keywords.len());
    for kw in keywords {
        match kw {
            WireKeyword::Id(id) => ids.push(*id),
            WireKeyword::Name(name) => match vocab {
                Some(vocab) => match vocab.get(name) {
                    Some(t) => ids.push(t.0),
                    None => return Err(format!("unknown keyword '{name}'")),
                },
                None => {
                    return Err(format!(
                        "no vocabulary attached; send keyword '{name}' as a numeric term id"
                    ))
                }
            },
        }
    }
    Ok(KeywordSet::from_ids(ids))
}

fn resolve_query(
    vocab: Option<&Vocabulary>,
    query: &crate::protocol::WireQuery,
) -> Result<SpatialKeywordQuery, String> {
    Ok(SpatialKeywordQuery::new(
        canonical_point(wnsk_geo::Point::new(query.at.0, query.at.1)),
        resolve_keywords(vocab, &query.keywords)?,
        query.k,
        query.alpha,
    ))
}

fn render_whynot_answer(
    vocab: Option<&Vocabulary>,
    answer: &WhyNotAnswer,
    rank_reused: bool,
) -> String {
    let keywords: Vec<String> = answer
        .refined
        .doc
        .iter()
        .map(|t| match vocab.and_then(|v| v.name(t)) {
            Some(name) => name.to_string(),
            None => format!("t{}", t.0),
        })
        .collect();
    protocol::render_whynot(
        &keywords,
        answer.refined.k,
        answer.refined.rank,
        answer.refined.edit_distance,
        answer.refined.penalty,
        &answer.quality.to_string(),
        answer.stats.initial_rank,
        rank_reused,
    )
}

fn render_topk_list(list: &[(ObjectId, f64)], cached: bool) -> String {
    let raw: Vec<(u32, f64)> = list.iter().map(|&(id, s)| (id.0, s)).collect();
    protocol::render_topk(&raw, cached)
}
