//! The scatter-gather coordinator: one dataset, one [`IndexPair`]
//! (SetR + KcR) per shard over its slice of that dataset, and query
//! paths proven bit-identical to the single-shard engine.
//!
//! # Bit-identity argument
//!
//! Scoring is corpus-free — `ST(o, q)` depends only on the object, the
//! query, and the *world bounds* — so a shard's SetR-tree built over its
//! slice with the shared world bounds produces exactly the float bits
//! the global tree would for the same object. Shard trees are keyed by
//! the dataset's own (global) ids. Three facts follow:
//!
//! * **top-k**: any member of the global top-k is within its own
//!   shard's top-k (fewer than `k` objects precede it in the total
//!   order `(score desc, id asc)` globally, hence also within the
//!   shard), so merging per-shard top-k lists under the same total
//!   order and truncating to `k` reproduces the global list bit for
//!   bit.
//! * **ranks**: dominator counts are additive over a disjoint
//!   partition, so `R(M, q) = 1 + Σ_s |{o ∈ shard_s : ST(o,q) >
//!   min_m ST(m,q)}|` equals the single-engine rank scan.
//! * **why-not**: the coordinator runs the single engine's solver,
//!   KcRBased ([`wnsk_core::answer_kcr_forest`]), over the *forest* of
//!   shard KcR-trees. The shard roots seed one frontier as children of a
//!   virtual super-root; every Theorem 2/3 `MaxDom`/`MinDom` bracket is
//!   a sum over a partition of the objects, so each bracket, prune and
//!   offer equals the one a single tree over the whole corpus yields, and
//!   the refined query is the same minimum (penalty, candidate sequence,
//!   rank) for every shard count, scatter thread count, solver thread
//!   count and kernel. Enumeration, penalty normalisers and the
//!   degradation fallback read the coordinator's dataset, which is
//!   exactly the single engine's.
//!
//! Because it is the same solver, a sharded why-not honours the
//! request's [`wnsk_core::QueryBudget`] (deadline and page-read cap,
//! summed over every shard's pool), degrades through the same ladder,
//! and accepts the serving layer's cached initial-rank hint. The
//! solver's shared-penalty tightenings are exported as
//! `shard.bound_tightenings`.
//!
//! # Durability
//!
//! [`Coordinator::attach_wal_dir`] attaches one write-ahead log, the
//! *route log* (`route.wal`), recording `(shard, global id, mutation)`
//! for every accepted mutation; it is committed before the mutation is
//! applied. Recovery replays it once, in order, through the same apply
//! path live ingest takes, so the recovered coordinator holds exactly
//! the state a never-crashed one would.

use crate::partition::ShardManifest;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::time::Instant;
use wnsk_core::{
    answer_kcr_forest, IndexPair, KcrOptions, Mutation, WhyNotAnswer, WhyNotError, WhyNotQuestion,
};
use wnsk_exec::{ExecMetrics, Executor};
use wnsk_index::{Dataset, KcrTree, ObjectId, SpatialKeywordQuery};
use wnsk_obs::{names, Counter, Hist, JsonValue, Registry};
use wnsk_storage::{BufferPool, FileBackend, RecoveryReport, StorageError, Wal};
use wnsk_text::Vocabulary;

/// Errors surfaced by the coordinator.
#[derive(Debug)]
pub enum ShardError {
    /// An underlying engine error (solver, index, storage).
    Engine(WhyNotError),
    /// Configuration or manifest inconsistency.
    Config(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Engine(e) => write!(f, "{e}"),
            ShardError::Config(msg) => write!(f, "{msg}"),
        }
    }
}

impl From<WhyNotError> for ShardError {
    fn from(e: WhyNotError) -> Self {
        ShardError::Engine(e)
    }
}

impl From<StorageError> for ShardError {
    fn from(e: StorageError) -> Self {
        ShardError::Engine(e.into())
    }
}

/// Coordinator result type.
pub type Result<T> = std::result::Result<T, ShardError>;

/// Construction knobs for [`Coordinator::new`].
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// Threads a query fans out over across shards (1 = sequential): the
    /// top-k scatter workers, and the least number of solver workers a
    /// why-not runs with (`KcrOptions::threads` may ask for more).
    /// Purely a wall-time knob: answers are bit-identical for every
    /// value.
    pub threads: usize,
    /// Index fanout for the per-shard trees.
    pub fanout: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            threads: 1,
            fanout: wnsk_core::DEFAULT_FANOUT,
        }
    }
}

/// A point-in-time view of one shard, for `/healthz` and `wnsk top`.
#[derive(Clone, Debug)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Live objects on the shard.
    pub objects: usize,
    /// Mutations applied to the shard.
    pub epoch: u64,
}

impl ShardStatus {
    /// Renders as a JSON object (one `/healthz` "shards" row).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("shard", JsonValue::from(self.shard)),
            ("objects", JsonValue::from(self.objects)),
            ("epoch", JsonValue::from(self.epoch)),
        ])
    }
}

/// The scatter-gather coordinator over a keyword-aware partition.
pub struct Coordinator {
    manifest: ShardManifest,
    term_routes: BTreeMap<u32, usize>,
    /// The corpus, stored once: enumeration benefits, penalty
    /// normalisers, the degradation fallback and liveness checks read
    /// exactly the state a single engine would hold.
    dataset: Dataset,
    /// One index pair per shard, keyed by `dataset` ids.
    shards: Vec<IndexPair>,
    /// Dataset id → the shard whose trees index it.
    shard_of: Vec<u32>,
    threads: usize,
    /// The route log, when a WAL directory is attached.
    wal: Option<Wal>,
    vocabulary: Option<Vocabulary>,
    registry: Registry,
    scatter_count: Counter,
    merge_ns: Hist,
    tightenings: Counter,
}

impl Coordinator {
    /// Builds one index pair per manifest shard over its slice of
    /// `dataset`, which the coordinator keeps as its one dataset. Every
    /// shard's trees share the dataset's world bounds, so shard scores
    /// are bit-identical to global ones.
    pub fn new(
        dataset: Dataset,
        manifest: ShardManifest,
        config: CoordinatorConfig,
    ) -> Result<Self> {
        if manifest.shard_count() == 0 {
            return Err(ShardError::Config("manifest has no shards".into()));
        }
        let covered: usize = manifest.shards.iter().map(|s| s.object_count()).sum();
        if covered != dataset.len() {
            return Err(ShardError::Config(format!(
                "manifest covers {covered} objects, dataset has {}",
                dataset.len()
            )));
        }
        let mut shard_of = vec![u32::MAX; dataset.len()];
        for (s, spec) in manifest.shards.iter().enumerate() {
            for gid in spec.ids() {
                match shard_of.get_mut(gid as usize) {
                    Some(slot) if *slot == u32::MAX => *slot = s as u32,
                    _ => {
                        return Err(ShardError::Config(format!(
                            "manifest assigns object {gid} out of range or twice"
                        )))
                    }
                }
            }
        }
        let shards = manifest
            .shards
            .iter()
            .map(|spec| {
                let slice = spec
                    .ids()
                    .map(ObjectId)
                    .filter(|&id| dataset.is_live(id))
                    .map(|id| dataset.object(id));
                IndexPair::build(
                    slice,
                    *dataset.world(),
                    config.fanout,
                    wnsk_storage::BufferPoolConfig::default(),
                )
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let registry = Registry::new();
        let scatter_count = registry.counter(names::SHARD_SCATTER);
        let merge_ns = registry.hist(names::SHARD_MERGE_NS);
        let tightenings = registry.counter(names::SHARD_BOUND_TIGHTENINGS);
        Ok(Coordinator {
            term_routes: manifest.term_routes(),
            manifest,
            dataset,
            shards,
            shard_of,
            threads: config.threads.max(1),
            wal: None,
            vocabulary: None,
            registry,
            scatter_count,
            merge_ns,
            tightenings,
        })
    }

    /// Attaches a vocabulary for keyword rendering/resolution.
    pub fn with_vocabulary(mut self, vocabulary: Vocabulary) -> Self {
        self.vocabulary = Some(vocabulary);
        self
    }

    /// The attached vocabulary, if any.
    pub fn vocabulary(&self) -> Option<&Vocabulary> {
        self.vocabulary.as_ref()
    }

    /// Installs one tracer on every shard's trees, so a traced query
    /// records one span tree whichever shards it reads — see
    /// [`wnsk_core::WhyNotEngine::set_tracer`].
    pub fn set_tracer(&mut self, tracer: wnsk_obs::Tracer) {
        for shard in &mut self.shards {
            shard.set_tracer(tracer.clone());
        }
    }

    /// The partition plan this coordinator serves.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The full corpus (every shard indexes a slice of it).
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The coordinator metrics registry (`shard.*`, `wal.*`; the serving
    /// layer adds its `serve.*` handles here too).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A clone (shared handles) of shard `s`'s registry: its pools,
    /// traversals and `ingest.applied` (per-shard admin planes scrape it).
    pub fn shard_registry(&self, s: usize) -> Registry {
        self.shards[s].registry().clone()
    }

    /// Dataset epoch: mutations applied through the coordinator (the sum
    /// of shard epochs, and the epoch a single engine fed the same
    /// stream would report).
    pub fn epoch(&self) -> u64 {
        self.shards.iter().map(IndexPair::epoch).sum()
    }

    /// Whether the route log is attached.
    pub fn wal_attached(&self) -> bool {
        self.wal.is_some()
    }

    /// Point-in-time per-shard status rows.
    pub fn shard_statuses(&self) -> Vec<ShardStatus> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, shard)| ShardStatus {
                shard: s,
                objects: shard.kcr().len() as usize,
                epoch: shard.epoch(),
            })
            .collect()
    }

    /// The `/healthz` "shards" array.
    pub fn statuses_json(&self) -> JsonValue {
        JsonValue::Array(
            self.shard_statuses()
                .iter()
                .map(ShardStatus::to_json)
                .collect(),
        )
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    /// Attaches the route log `route.wal` under `dir` (created if
    /// missing), first replaying every committed record through the live
    /// apply path. A torn or corrupt tail is truncated. Call on a freshly
    /// built coordinator, before any ingest. Other files in `dir` are
    /// ignored.
    pub fn attach_wal_dir(&mut self, dir: &Path) -> Result<RecoveryReport> {
        if self.wal.is_some() {
            return Err(ShardError::Config(
                "a WAL directory is already attached".into(),
            ));
        }
        if self.epoch() != 0 {
            return Err(ShardError::Config(
                "attach_wal_dir must run before any ingest".into(),
            ));
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| ShardError::Config(format!("{}: {e}", dir.display())))?;
        let (mut wal, report) =
            Wal::recover(open_pool(&dir.join("route.wal"))?, |_, kind, payload| {
                let (s, gid, m) = decode_route(kind, payload)?;
                self.apply_routed(s, gid, &m).map_err(|e| match e {
                    ShardError::Engine(WhyNotError::Storage(s)) => s,
                    other => StorageError::corrupt("route log replay", other.to_string()),
                })?;
                Ok(())
            })?;
        wal.register_metrics(&self.registry);
        self.registry
            .counter(names::WAL_RECOVERED_RECORDS)
            .add(report.records_replayed);
        self.registry
            .counter(names::WAL_TRUNCATED_BYTES)
            .add(report.bytes_truncated);
        self.wal = Some(wal);
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// Routes one mutation to its shard, commits it to the route log
    /// (when attached), and applies it to the dataset and that shard's
    /// trees. Returns the id of the affected object.
    pub fn ingest(&mut self, m: &Mutation) -> Result<ObjectId> {
        // Resolve the target shard and id up front, so the log never
        // records a mutation that cannot apply.
        let (s, gid) = match m {
            Mutation::Insert { loc, doc } => {
                if !self.dataset.world().rect().contains_point(loc) {
                    return Err(StorageError::invalid_argument(
                        "ingest",
                        format!("location {loc:?} lies outside the world bounds"),
                    )
                    .into());
                }
                let s =
                    self.manifest
                        .route_insert(doc, loc, self.dataset.world(), &self.term_routes);
                (s, self.dataset.len() as u32)
            }
            Mutation::Remove { id } | Mutation::UpdateDoc { id, .. } => {
                if !self.dataset.is_live(*id) {
                    return Err(StorageError::invalid_argument(
                        "ingest",
                        format!("{id:?} is not live"),
                    )
                    .into());
                }
                (self.shard_of[id.index()] as usize, id.0)
            }
        };
        if let Some(wal) = self.wal.as_mut() {
            wal.append(m.kind(), &encode_route(s, gid, m))?;
            wal.commit()?;
        }
        self.apply_routed(s, gid, m)
    }

    /// Applies `m`, routed to shard `s` under dataset id `gid`, to the
    /// dataset and the shard's trees — the one path live ingest and
    /// route-log replay share. Refuses a route that disagrees with the
    /// coordinator's state (a log written over another dataset or plan).
    fn apply_routed(&mut self, s: usize, gid: u32, m: &Mutation) -> Result<ObjectId> {
        let routed = s < self.shards.len()
            && match m {
                Mutation::Insert { .. } => gid as usize == self.dataset.len(),
                Mutation::Remove { id } | Mutation::UpdateDoc { id, .. } => {
                    id.0 == gid && self.shard_of.get(gid as usize) == Some(&(s as u32))
                }
            };
        if !routed {
            return Err(ShardError::Config(format!(
                "route (shard {s}, id {gid}) does not match the coordinator's {} shards \
                 and {} objects",
                self.shards.len(),
                self.dataset.len()
            )));
        }
        let id = self.shards[s].apply(&mut self.dataset, m)?;
        if matches!(m, Mutation::Insert { .. }) {
            self.shard_of.push(s as u32);
        }
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Scatters `f` to every shard on the coordinator's thread pool and
    /// gathers the results in shard order (a sequence barrier: results
    /// are merged only after every shard answered, so the merge is
    /// deterministic for every thread count).
    fn scatter<R, F>(&self, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(&IndexPair) -> std::result::Result<R, WhyNotError> + Sync,
    {
        self.scatter_count.inc();
        let n = self.shards.len();
        if self.threads <= 1 || n == 1 {
            return self
                .shards
                .iter()
                .map(|shard| f(shard).map_err(ShardError::Engine))
                .collect();
        }
        let exec = Executor::new(self.threads.min(n));
        let metrics = ExecMetrics::new(exec.threads());
        let states = exec
            .run(
                (0..n).collect(),
                &metrics,
                || false,
                |_| Vec::new(),
                |state: &mut Vec<(usize, R)>, s, _h| -> std::result::Result<(), WhyNotError> {
                    let r = f(&self.shards[s])?;
                    state.push((s, r));
                    Ok(())
                },
            )
            .map_err(ShardError::Engine)?;
        let mut merged: Vec<(usize, R)> = states.into_iter().flatten().collect();
        if merged.len() != n {
            return Err(ShardError::Config(
                "scatter lost a shard result".to_string(),
            ));
        }
        merged.sort_by_key(|&(s, _)| s);
        Ok(merged.into_iter().map(|(_, r)| r).collect())
    }

    /// Scatter-gather top-k: per-shard top-k lists merged under the
    /// engine's total order `(score desc, id asc)` and truncated to `k`.
    /// Bit-identical to the single-engine list.
    pub fn top_k(&self, query: &SpatialKeywordQuery) -> Result<Vec<(ObjectId, f64)>> {
        let per_shard = self.scatter(|shard| Ok(shard.setr().top_k(query)?))?;
        let merge_start = Instant::now();
        let mut all: Vec<(ObjectId, f64)> = per_shard.into_iter().flatten().collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        all.truncate(query.k);
        self.merge_ns.record_duration(merge_start.elapsed());
        Ok(all)
    }

    /// Answers a why-not question with KcRBased over the forest of shard
    /// KcR-trees, the coordinator's dataset standing in for the engine's
    /// — the single engine's [`wnsk_core::WhyNotEngine::answer_kcr`],
    /// options and all: budgets degrade the answer and a rank hint skips
    /// the initial-rank phase. The traversal fans out over `opts.threads`
    /// workers, but never fewer than the coordinator's own `threads`: a
    /// why-not spreads across the shards as a top-k scatter does.
    pub fn answer_kcr(
        &self,
        question: &WhyNotQuestion,
        opts: KcrOptions,
    ) -> wnsk_core::Result<WhyNotAnswer> {
        self.scatter_count.inc();
        let forest: Vec<&KcrTree> = self.shards.iter().map(IndexPair::kcr).collect();
        let opts = KcrOptions {
            threads: opts.threads.max(self.threads),
            ..opts
        };
        let answer = answer_kcr_forest(&self.dataset, &forest, question, opts)?;
        self.tightenings.add(answer.stats.bound_refreshes);
        Ok(answer)
    }
}

fn open_pool(path: &Path) -> Result<std::sync::Arc<BufferPool>> {
    let backend = if path.exists() {
        FileBackend::open(path)
    } else {
        FileBackend::create(path)
    }
    .map_err(|e| ShardError::Config(format!("{}: {e}", path.display())))?;
    Ok(std::sync::Arc::new(BufferPool::with_default_config(
        std::sync::Arc::new(backend),
    )))
}

/// Route-log payload: `[shard u32 LE][global id u32 LE][mutation]`.
fn encode_route(shard: usize, gid: u32, m: &Mutation) -> Vec<u8> {
    let body = m.encode();
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&(shard as u32).to_le_bytes());
    out.extend_from_slice(&gid.to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn decode_route(kind: u8, payload: &[u8]) -> wnsk_storage::Result<(usize, u32, Mutation)> {
    if payload.len() < 8 {
        return Err(StorageError::corrupt(
            "route log",
            "record shorter than its header",
        ));
    }
    let shard = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    let gid = u32::from_le_bytes(payload[4..8].try_into().unwrap());
    let m = Mutation::decode(kind, &payload[8..])
        .map_err(|e| StorageError::corrupt("route log", e.to_string()))?;
    Ok((shard, gid, m))
}
