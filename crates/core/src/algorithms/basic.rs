//! The basic algorithm **BS** (§IV-B) and its optimised variant
//! **AdvancedBS** (§IV-C, Algorithm 1).
//!
//! BS executes one spatial keyword query over the SetR-tree per candidate
//! keyword set, scanning each until every missing object has been
//! retrieved, and keeps the candidate with the smallest penalty.
//! AdvancedBS adds four independently toggleable optimisations:
//!
//! 1. **Early stop** — Eqn. 6's rank bound `R_L`: a candidate's scan
//!    aborts as soon as the missing set's rank provably exceeds what the
//!    current best penalty allows.
//! 2. **Enumeration order** — candidates are visited in increasing edit
//!    distance and, within a layer, decreasing particularity benefit; the
//!    whole search terminates once the keyword penalty of the next layer
//!    already exceeds the best penalty.
//! 3. **Keyword-set filtering** — dominators of the missing set observed
//!    in earlier scans are cached; if enough of them still dominate under
//!    the next candidate (an in-memory check), the candidate is pruned
//!    without touching the index.
//! 4. **Parallel processing** — candidates of a layer fan out to the
//!    [`wnsk_exec`] work-stealing pool; workers prune against the shared
//!    atomic best-penalty bound and their per-worker local bests are
//!    merged at the layer's sequence barrier (see
//!    [`crate::algorithms::shared`] for the determinism contract).

use crate::algorithms::approx::degraded_fallback;
use crate::algorithms::count;
use crate::algorithms::shared::{BestEntry, LocalBest, SharedBest};
use crate::budget::{AnswerQuality, BudgetGuard, QueryBudget};
use crate::enumeration::{Candidate, CandidateEnumerator};
use crate::error::Result;
use crate::question::{AlgoStats, RefinedQuery, WhyNotAnswer, WhyNotContext, WhyNotQuestion};
use crate::rank::{SetRankOutcome, BUDGET_CHECK_INTERVAL};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wnsk_exec::{ExecMetrics, Executor, TaskContext, WorkerHandle};
use wnsk_index::{
    st_score, Dataset, LeafSimKernel, ObjectId, SetRTree, SpatialKeywordQuery, TopKSearch,
};
use wnsk_obs::{Hist, SpanId, TracePayload, Tracer};
use wnsk_storage::BlobRef;
use wnsk_text::{Kernel, KeywordSet, ProjectedSet};

/// Toggles for the AdvancedBS optimisations (all on by default,
/// single-threaded). `AdvancedOptions::none()` turns AdvancedBS back into
/// plain BS — the ablation experiment (Fig. 11) sweeps these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdvancedOptions {
    /// Opt1: early stop via the rank bound of Eqn. 6.
    pub early_stop: bool,
    /// Opt2: penalty/particularity enumeration order with global early
    /// termination.
    pub ordered_enumeration: bool,
    /// Opt3: dominator-cache keyword-set filtering.
    pub keyword_set_filtering: bool,
    /// Opt4: number of worker threads (1 = serial).
    pub threads: usize,
    /// Set-arithmetic kernel for the Opt3 filter and counting-scan leaf
    /// similarities. Not one of the paper's optimisations — both kernels
    /// produce bit-identical answers and work metrics (see
    /// `docs/KERNELS.md`), so this is purely a wall-time A/B knob and
    /// stays at its default under `none()` too.
    pub kernel: Kernel,
    /// Resource limits; on exhaustion the solver degrades to the
    /// in-memory approximate fallback instead of running to completion.
    pub budget: QueryBudget,
}

impl Default for AdvancedOptions {
    fn default() -> Self {
        AdvancedOptions {
            early_stop: true,
            ordered_enumeration: true,
            keyword_set_filtering: true,
            threads: 1,
            kernel: Kernel::default(),
            budget: QueryBudget::unlimited(),
        }
    }
}

impl AdvancedOptions {
    /// Every optimisation disabled: plain BS behaviour.
    pub fn none() -> Self {
        AdvancedOptions {
            early_stop: false,
            ordered_enumeration: false,
            keyword_set_filtering: false,
            threads: 1,
            kernel: Kernel::default(),
            budget: QueryBudget::unlimited(),
        }
    }
}

/// Where candidates come from: the full space or a §VI-B sample.
pub(crate) enum CandidateSource {
    Full,
    Sample(Vec<Candidate>),
}

/// Thread-shared counters.
#[derive(Default)]
struct SharedStats {
    candidates_total: AtomicU64,
    pruned_by_filter: AtomicU64,
    pruned_by_bound: AtomicU64,
    queries_run: AtomicU64,
}

impl SharedStats {
    fn into_stats(self) -> AlgoStats {
        AlgoStats {
            candidates_total: self.candidates_total.into_inner(),
            pruned_by_filter: self.pruned_by_filter.into_inner(),
            pruned_by_bound: self.pruned_by_bound.into_inner(),
            queries_run: self.queries_run.into_inner(),
            ..AlgoStats::default()
        }
    }
}

/// **BS**: the unoptimised baseline of §IV-B.
pub fn answer_basic(
    dataset: &Dataset,
    tree: &SetRTree,
    question: &WhyNotQuestion,
) -> Result<WhyNotAnswer> {
    run(
        dataset,
        tree,
        question,
        AdvancedOptions::none(),
        CandidateSource::Full,
    )
}

/// **BS** under a [`QueryBudget`]: exhausting the budget degrades to the
/// approximate fallback rather than running to completion.
pub fn answer_basic_with_budget(
    dataset: &Dataset,
    tree: &SetRTree,
    question: &WhyNotQuestion,
    budget: QueryBudget,
) -> Result<WhyNotAnswer> {
    let opts = AdvancedOptions {
        budget,
        ..AdvancedOptions::none()
    };
    run(dataset, tree, question, opts, CandidateSource::Full)
}

/// **AdvancedBS**: BS with the §IV-C optimisations per `opts`.
pub fn answer_advanced(
    dataset: &Dataset,
    tree: &SetRTree,
    question: &WhyNotQuestion,
    opts: AdvancedOptions,
) -> Result<WhyNotAnswer> {
    run(dataset, tree, question, opts, CandidateSource::Full)
}

/// An edit-distance layer that may not have been generated yet: deeper
/// layers are exponentially larger, so under a budget they are only
/// materialised when the search actually reaches them.
enum LayerSpec {
    /// Generate layer `d` from the enumerator when reached.
    Gen(usize),
    /// Already materialised (the §VI-B sample arrives pre-built).
    Ready(usize, Vec<Candidate>),
}

pub(crate) fn run(
    dataset: &Dataset,
    tree: &SetRTree,
    question: &WhyNotQuestion,
    opts: AdvancedOptions,
    source: CandidateSource,
) -> Result<WhyNotAnswer> {
    // Same tracing discipline as the KcR solver: the tracer lives on
    // the tree, and the query span brackets every exit path.
    let tracer = tree.traversal().tracer().clone();
    let query_span = tracer.begin("bs.query");
    tracer.set_scope(query_span.id());
    let result = run_inner(
        dataset,
        tree,
        question,
        opts,
        source,
        &tracer,
        query_span.id(),
    );
    tracer.clear_scope();
    tracer.end(query_span);
    result
}

#[allow(clippy::too_many_arguments)]
fn run_inner(
    dataset: &Dataset,
    tree: &SetRTree,
    question: &WhyNotQuestion,
    opts: AdvancedOptions,
    source: CandidateSource,
    tracer: &Tracer,
    query: SpanId,
) -> Result<WhyNotAnswer> {
    question.validate(dataset)?;
    let start = Instant::now();
    let io_before = tree.pool().stats();
    let guard = BudgetGuard::new(opts.budget, vec![Arc::clone(tree.pool())]);

    // The work-stealing pool: one per query, reused across the initial
    // rank and every layer so the per-worker counters aggregate over
    // the whole search.
    let exec = Executor::new(opts.threads);
    let mut metrics = ExecMetrics::new(exec.threads());
    metrics.set_tracer(tracer.clone());
    let task_hist = Hist::new();
    metrics.set_task_hist(task_hist.clone());

    // Line 1 of Algorithm 1: determine R(M, q) by processing the initial
    // query until the missing objects appear. With several workers the
    // scan becomes a parallel dominator count over subtree tasks — the
    // rank is identical (ties are never dominators), only the wall time
    // shrinks.
    let initial_targets: Vec<(ObjectId, f64)> = question
        .missing
        .iter()
        .map(|&id| (id, dataset.score(dataset.object(id), &question.query)))
        .collect();
    let rank_span = tracer.begin("phase.initial_rank");
    tracer.set_scope(rank_span.id());
    let outcome = if exec.threads() > 1 {
        count::parallel_rank(
            tree,
            &exec,
            &metrics,
            &question.query,
            &initial_targets,
            &guard,
        )?
    } else {
        let mut scan = TopKSearch::new(tree, question.query.clone());
        let outcome =
            crate::rank::rank_of_set(&mut scan, &initial_targets, None, true, Some(&guard))?;
        drop(scan);
        outcome
    };
    tracer.set_scope(query);
    tracer.end(rank_span);
    let phase_initial_rank = start.elapsed();
    let initial_rank = match outcome {
        SetRankOutcome::Exact { rank } => rank,
        _ => {
            // Budget gone before R(M, q) was known: degrade with nothing
            // but the question itself.
            let reason = guard.breached().expect("scan only stops early on breach");
            let stats = AlgoStats {
                wall: start.elapsed(),
                io: tree.pool().stats().since(&io_before).physical_reads,
                phase_initial_rank,
                ..AlgoStats::default()
            };
            return degraded_fallback(dataset, question, None, None, reason, &opts.budget, stats);
        }
    };

    let mut ctx = WhyNotContext::new(dataset, question, initial_rank)?;
    if opts.kernel == Kernel::Scalar {
        // A/B knob: dropping the kernel state sends every downstream
        // similarity through the merge-scan path.
        ctx.kernel = None;
    }
    let enumerator = CandidateEnumerator::new(&ctx);

    // Line 2: initialise with the basic refined query (penalty λ).
    let best = SharedBest::new(ctx.baseline());
    let stats = SharedStats::default();

    // Group candidates into edit-distance layers (lazily for the full
    // space — a budget breach may make deeper layers unnecessary).
    let mut phase_enumeration = Duration::ZERO;
    let mut sample_size = None;
    let specs: Vec<LayerSpec> = match source {
        CandidateSource::Full => (1..=enumerator.max_edit_distance())
            .map(LayerSpec::Gen)
            .collect(),
        CandidateSource::Sample(sample) => {
            sample_size = Some(sample.len());
            let t = Instant::now();
            let layers = layer_sample(sample);
            phase_enumeration += t.elapsed();
            layers
                .into_iter()
                .map(|(d, l)| LayerSpec::Ready(d, l))
                .collect()
        }
    };

    // Global candidate sequence numbers (baseline = 0): candidates are
    // numbered in canonical enumeration order across layers, giving the
    // lexicographic merge its deterministic tiebreak.
    let mut next_seq: u64 = 1;

    let verification_started = Instant::now();
    'layers: for spec in specs {
        if guard.check().is_some() {
            break 'layers;
        }
        let (d, layer) = match spec {
            LayerSpec::Ready(d, layer) => (d, layer),
            LayerSpec::Gen(d) => {
                let t = Instant::now();
                let layer = enumerator.layer(d, opts.ordered_enumeration);
                phase_enumeration += t.elapsed();
                (d, layer)
            }
        };
        // Opt2 global termination: no deeper layer can beat the best.
        // `best` is fully merged here (sequence barrier), so the check
        // is identical for every thread count.
        if opts.ordered_enumeration && ctx.penalty.keyword_penalty(d) >= best.penalty() {
            let remaining: u64 = layer.len() as u64;
            stats
                .pruned_by_bound
                .fetch_add(remaining, Ordering::Relaxed);
            break 'layers;
        }
        let layer_span = tracer.begin("bs.layer");
        tracer.set_scope(layer_span.id());
        let base_seq = next_seq;
        next_seq += layer.len() as u64;
        let tasks: Vec<(u64, Candidate)> = layer
            .into_iter()
            .enumerate()
            .map(|(i, c)| (base_seq + i as u64, c))
            .collect();
        let locals = if exec.threads() > 1 && opts.early_stop {
            // Opt1 + Opt4: candidates fan out to the pool AND each
            // surviving candidate's rank determination forks into
            // per-subtree counting tasks, so one dominant scan no
            // longer bounds the layer's critical path. Workers prune
            // against the live shared bound at every node.
            exec.run_dynamic(
                tasks
                    .into_iter()
                    .map(|(seq, c)| BsTask::Candidate(seq, c))
                    .collect(),
                &metrics,
                || guard.check().is_some(),
                |_worker| WorkerState {
                    cache: HashSet::new(),
                    proj: HashMap::new(),
                    best: LocalBest::new(),
                },
                |state, task, tctx| match task {
                    BsTask::Candidate(seq, cand) => launch_candidate(
                        tree, &ctx, &opts, &cand, seq, &best, state, &stats, &guard, tctx,
                    ),
                    BsTask::Count(cs, node) => count_step(
                        tree, &ctx, &opts, &cs, node, &best, state, &stats, &guard, tctx,
                    ),
                },
            )?
        } else {
            exec.run(
                tasks,
                &metrics,
                || guard.check().is_some(),
                |_worker| WorkerState {
                    cache: HashSet::new(),
                    proj: HashMap::new(),
                    best: LocalBest::new(),
                },
                |state, (seq, cand), handle| {
                    process_candidate(
                        tree, &ctx, &opts, &cand, seq, &best, state, &stats, &guard, handle,
                    )
                },
            )?
        };
        // Sequence barrier: fold every worker's local best into the
        // global one before the next layer's termination check.
        for state in locals {
            best.merge(state.best);
        }
        tracer.set_scope(query);
        tracer.end(layer_span);
        if guard.breached().is_some() {
            break 'layers;
        }
    }

    let refined = best.into_inner();
    let mut stats = stats.into_stats();
    let totals = metrics.totals();
    stats.tasks_stolen = totals.stolen;
    stats.bound_refreshes = totals.bound_refreshes;
    stats.prune_hits = totals.prune_hits;
    stats.workers = metrics.per_worker();
    stats.wall = start.elapsed();
    stats.io = tree.pool().stats().since(&io_before).physical_reads;
    stats.phase_initial_rank = phase_initial_rank;
    stats.phase_enumeration = phase_enumeration;
    stats.phase_verification = verification_started.elapsed();
    stats.task_latency = task_hist.snapshot();
    if let Some(reason) = guard.breached() {
        return degraded_fallback(
            dataset,
            question,
            Some(initial_rank),
            Some(refined),
            reason,
            &opts.budget,
            stats,
        );
    }
    let quality = match sample_size {
        Some(sample_size) => AnswerQuality::Approximate { sample_size },
        None => AnswerQuality::Exact,
    };
    Ok(WhyNotAnswer {
        refined,
        stats,
        quality,
    })
}

/// Groups a benefit-ordered sample into ascending edit-distance layers,
/// preserving the benefit order inside each layer.
pub(crate) fn layer_sample(sample: Vec<Candidate>) -> Vec<(usize, Vec<Candidate>)> {
    let mut by_d: std::collections::BTreeMap<usize, Vec<Candidate>> =
        std::collections::BTreeMap::new();
    for c in sample {
        by_d.entry(c.edit_distance).or_default().push(c);
    }
    by_d.into_iter().collect()
}

/// Per-worker private state: the Opt3 dominator cache and the local
/// best merged at the layer's sequence barrier.
struct WorkerState {
    cache: HashSet<ObjectId>,
    /// Memoised bitset projections of cached dominators' documents, so
    /// repeated Opt3 filter passes over the same dominator pay one merge
    /// and then AND+popcount forever after. Unused on the scalar path.
    proj: HashMap<ObjectId, ProjectedSet>,
    best: LocalBest,
}

/// Outcome of the in-memory candidate prechecks (Opt1 + Opt3).
enum Prechecked {
    /// The candidate is provably beaten: no index access needed.
    Pruned,
    /// Run the spatial keyword query with these parameters.
    Run {
        max_rank: Option<usize>,
        targets: Vec<(ObjectId, f64)>,
        min_score: f64,
        q_s: SpatialKeywordQuery,
    },
}

/// The shared in-memory prechecks of Algorithm 1 lines 5–13: the Opt1
/// rank budget (Eqn. 6) against the cross-worker bound and the Opt3
/// dominator-cache filter. Both are tie-permissive / strictly-over
/// tests, so a candidate whose exact penalty equals the final best is
/// never pruned under any thread schedule.
#[allow(clippy::too_many_arguments)]
fn precheck_candidate(
    ctx: &WhyNotContext<'_>,
    opts: &AdvancedOptions,
    cand: &Candidate,
    best: &SharedBest,
    stats: &SharedStats,
    dominator_cache: &HashSet<ObjectId>,
    proj_cache: &mut HashMap<ObjectId, ProjectedSet>,
    handle: &WorkerHandle<'_>,
) -> Prechecked {
    stats.candidates_total.fetch_add(1, Ordering::Relaxed);
    let d = cand.edit_distance;
    // The cross-worker bound: monotonically non-increasing, so a stale
    // read only makes pruning conservative, never wrong.
    let p_c = best.bound().value();

    // Opt1: rank budget from Eqn. 6. Without early stop the scan runs to
    // completion regardless. The bound is tie-permissive (a candidate
    // whose exact penalty *equals* `p_c` always completes its scan), so
    // minimal-penalty candidates survive under any thread schedule.
    let max_rank = if opts.early_stop {
        match ctx.penalty.rank_upper_limit(d, p_c) {
            None => {
                stats.pruned_by_bound.fetch_add(1, Ordering::Relaxed);
                handle.count_prune_hit();
                return Prechecked::Pruned;
            }
            Some(usize::MAX) => None,
            Some(r) => Some(r),
        }
    } else {
        None
    };

    let targets = ctx.missing_targets(&cand.doc);
    let min_score = targets
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::INFINITY, f64::min);
    let q_s: SpatialKeywordQuery = ctx.query.with_doc(cand.doc.clone());

    // Opt3: count cached dominators that still dominate (an in-memory
    // test, Algorithm 1 lines 9–13).
    if opts.keyword_set_filtering {
        if let Some(max_rank) = max_rank {
            // Bitset kernel: the candidate document (a subset of the
            // question universe) projects once per precheck, each cached
            // dominator's document once per worker (memoised in
            // `proj_cache`), after which every filter test is an
            // AND+popcount instead of a sorted-merge scan. The float
            // expressions are identical, so the count — and therefore
            // the pruning decision — matches the scalar path exactly.
            let cand_bits = ctx.kernel.as_ref().map(|k| (k, k.project(&q_s.doc)));
            let still_dominating = dominator_cache
                .iter()
                .filter(|&&id| {
                    let o = ctx.dataset.object(id);
                    let tsim = match &cand_bits {
                        Some((k, cb)) => {
                            let ob = proj_cache.entry(id).or_insert_with(|| k.project(&o.doc));
                            q_s.sim.similarity_bits(ob, cb)
                        }
                        None => q_s.sim.similarity(&o.doc, &q_s.doc),
                    };
                    let score = st_score(
                        q_s.alpha,
                        ctx.dataset.world().normalized_dist(&o.loc, &q_s.loc),
                        tsim,
                    );
                    score > min_score
                })
                .count();
            if still_dominating + 1 > max_rank {
                stats.pruned_by_filter.fetch_add(1, Ordering::Relaxed);
                handle.count_prune_hit();
                return Prechecked::Pruned;
            }
        }
    }
    Prechecked::Run {
        max_rank,
        targets,
        min_score,
        q_s,
    }
}

/// Folds an exactly determined rank into the worker-local best and, on
/// improvement, publishes the penalty into the shared bound so *other*
/// workers prune mid-layer; the refined query itself only moves at the
/// sequence barrier.
#[allow(clippy::too_many_arguments)]
fn offer_exact(
    ctx: &WhyNotContext<'_>,
    doc: &KeywordSet,
    d: usize,
    seq: u64,
    rank: usize,
    best: &SharedBest,
    local: &mut LocalBest,
    handle: &WorkerHandle<'_>,
) {
    let penalty = ctx.penalty.penalty(d, rank);
    let improved = local.offer(BestEntry::new(
        RefinedQuery {
            doc: doc.clone(),
            k: ctx.refined_k(rank),
            rank,
            edit_distance: d,
            penalty,
        },
        seq,
    ));
    if improved && best.bound().refresh(penalty) {
        handle.count_bound_refresh();
    }
}

#[allow(clippy::too_many_arguments)]
fn process_candidate(
    tree: &SetRTree,
    ctx: &WhyNotContext<'_>,
    opts: &AdvancedOptions,
    cand: &Candidate,
    seq: u64,
    best: &SharedBest,
    state: &mut WorkerState,
    stats: &SharedStats,
    guard: &BudgetGuard,
    handle: &WorkerHandle<'_>,
) -> Result<()> {
    let d = cand.edit_distance;
    let (max_rank, targets, min_score, q_s) = match precheck_candidate(
        ctx,
        opts,
        cand,
        best,
        stats,
        &state.cache,
        &mut state.proj,
        handle,
    ) {
        Prechecked::Pruned => return Ok(()),
        Prechecked::Run {
            max_rank,
            targets,
            min_score,
            q_s,
        } => (max_rank, targets, min_score, q_s),
    };
    let _ = min_score;
    // Under Opt1+Opt4 the limit is re-derived from the *live* shared
    // bound at every scan checkpoint: a peer's refresh mid-scan tightens
    // this candidate's abort rank, which is what makes concurrent scans
    // prune against each other instead of each running to the limit it
    // saw at launch. The bound only decreases, so the limit only
    // tightens — and stays tie-permissive throughout.
    let live_limit = move || ctx.penalty.rank_upper_limit(d, best.bound().value());
    let live_limit: Option<&dyn Fn() -> Option<usize>> = if opts.early_stop {
        Some(&live_limit)
    } else {
        None
    };

    // Run the spatial keyword query (Algorithm 1 line 14).
    stats.queries_run.fetch_add(1, Ordering::Relaxed);
    let outcome = scan_rank(
        tree,
        &q_s,
        &targets,
        max_rank,
        live_limit,
        // BS retrieves until the missing objects appear; the optimised
        // variant stops as soon as the rank is known.
        !opts.early_stop,
        opts.keyword_set_filtering.then_some(&mut state.cache),
        guard,
    )?;

    match outcome {
        // The outer loop sees the latched breach and degrades; this
        // candidate's partial scan is simply discarded.
        SetRankOutcome::Breached { .. } => {}
        SetRankOutcome::Aborted { seen_dominators } => {
            stats.pruned_by_bound.fetch_add(1, Ordering::Relaxed);
            handle.count_prune_hit();
            let traversal = tree.traversal();
            if traversal.tracer().is_on() {
                traversal.tracer().event(
                    "bs.candidate_rejected",
                    TracePayload::CandidateRejected {
                        rank_lower_bound: (seen_dominators + 1).min(u32::MAX as usize) as u32,
                    },
                );
            }
        }
        SetRankOutcome::Exact { rank } => {
            offer_exact(ctx, &cand.doc, d, seq, rank, best, &mut state.best, handle);
        }
    }
    Ok(())
}

/// A task of the dynamic (Opt1 + Opt4) layer execution: either a whole
/// candidate or one subtree of an in-flight counting rank scan.
enum BsTask {
    Candidate(u64, Candidate),
    Count(Arc<CandScan>, BlobRef),
}

/// One candidate's in-flight counting rank determination, shared by its
/// subtree tasks.
struct CandScan {
    scan: count::CountScan,
    doc: KeywordSet,
    d: usize,
    seq: u64,
}

/// Prechecks a candidate and, if it survives, seeds its counting rank
/// scan into the pool (root subtree task). The scan's node tasks then
/// fan out across workers.
#[allow(clippy::too_many_arguments)]
fn launch_candidate(
    tree: &SetRTree,
    ctx: &WhyNotContext<'_>,
    opts: &AdvancedOptions,
    cand: &Candidate,
    seq: u64,
    best: &SharedBest,
    state: &mut WorkerState,
    stats: &SharedStats,
    guard: &BudgetGuard,
    tctx: &TaskContext<'_, BsTask>,
) -> Result<()> {
    let _ = guard;
    let (min_score, q_s) = match precheck_candidate(
        ctx,
        opts,
        cand,
        best,
        stats,
        &state.cache,
        &mut state.proj,
        &tctx.handle,
    ) {
        Prechecked::Pruned => return Ok(()),
        Prechecked::Run { min_score, q_s, .. } => (min_score, q_s),
    };
    stats.queries_run.fetch_add(1, Ordering::Relaxed);
    if tree.is_empty() {
        offer_exact(
            ctx,
            &cand.doc,
            cand.edit_distance,
            seq,
            1,
            best,
            &mut state.best,
            &tctx.handle,
        );
        return Ok(());
    }
    // Candidate documents are subsets of the question universe, so the
    // leaf kernel is exact; `None` (scalar merge) when the kernel is off
    // or the universe spilled.
    let leaf_kernel = ctx
        .kernel
        .as_ref()
        .and_then(|_| LeafSimKernel::new(&ctx.universe, &q_s.doc));
    let cs = Arc::new(CandScan {
        scan: count::CountScan::new(q_s, min_score, opts.keyword_set_filtering, leaf_kernel),
        doc: cand.doc.clone(),
        d: cand.edit_distance,
        seq,
    });
    cs.scan.add_pending();
    tctx.spawn(BsTask::Count(Arc::clone(&cs), tree.root()));
    Ok(())
}

/// Executes one subtree task of a counting rank scan: re-derives the
/// live Opt1 limit from the shared bound, expands the node (tallying
/// leaf dominators, forking child subtrees), and — as the scan's last
/// outstanding task — finalises the candidate: offers the exact rank or
/// books the abort as a bound prune, and merges the collected
/// dominators into this worker's Opt3 cache.
#[allow(clippy::too_many_arguments)]
fn count_step(
    tree: &SetRTree,
    ctx: &WhyNotContext<'_>,
    opts: &AdvancedOptions,
    cs: &Arc<CandScan>,
    node: BlobRef,
    best: &SharedBest,
    state: &mut WorkerState,
    stats: &SharedStats,
    guard: &BudgetGuard,
    tctx: &TaskContext<'_, BsTask>,
) -> Result<()> {
    let scan = &cs.scan;
    if !scan.is_aborted() {
        if guard.breached().is_some() {
            scan.abort();
        } else {
            // The live Opt1 limit: tie-permissive against the current
            // (monotonically non-increasing) shared bound, checked at
            // every node so concurrent scans prune against each other.
            match ctx.penalty.rank_upper_limit(cs.d, best.bound().value()) {
                None => scan.abort(),
                Some(limit) if limit != usize::MAX && scan.count() + 1 > limit => scan.abort(),
                _ => {}
            }
        }
    }
    if !scan.is_aborted() {
        scan.expand_node(tree, node, |child| {
            scan.add_pending();
            tctx.spawn(BsTask::Count(Arc::clone(cs), child));
        })?;
    }
    if scan.complete_one() {
        if scan.is_aborted() {
            if guard.breached().is_none() {
                stats.pruned_by_bound.fetch_add(1, Ordering::Relaxed);
                tctx.handle.count_prune_hit();
                let traversal = tree.traversal();
                if traversal.tracer().is_on() {
                    traversal.tracer().event(
                        "bs.candidate_rejected",
                        TracePayload::CandidateRejected {
                            rank_lower_bound: (scan.count() + 1).min(u32::MAX as usize) as u32,
                        },
                    );
                }
            }
        } else {
            offer_exact(
                ctx,
                &cs.doc,
                cs.d,
                cs.seq,
                scan.count() + 1,
                best,
                &mut state.best,
                &tctx.handle,
            );
            if opts.keyword_set_filtering {
                state.cache.extend(scan.found.lock().drain(..));
            }
        }
    }
    Ok(())
}

/// A rank-of-set scan that optionally records the dominators it sees for
/// the Opt3 cache. `live_limit`, when given, re-derives the abort rank
/// from the shared penalty bound at every budget checkpoint.
#[allow(clippy::too_many_arguments)]
fn scan_rank(
    tree: &SetRTree,
    q_s: &SpatialKeywordQuery,
    targets: &[(ObjectId, f64)],
    mut max_rank: Option<usize>,
    live_limit: Option<&dyn Fn() -> Option<usize>>,
    until_found: bool,
    mut collect: Option<&mut HashSet<ObjectId>>,
    guard: &BudgetGuard,
) -> Result<SetRankOutcome> {
    let min_score = targets
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::INFINITY, f64::min);
    let mut remaining: Vec<ObjectId> = targets.iter().map(|&(id, _)| id).collect();
    let mut search = TopKSearch::new(tree, q_s.clone());
    let mut dominators = 0usize;
    let mut pulls = 0usize;
    loop {
        if pulls.is_multiple_of(BUDGET_CHECK_INTERVAL) {
            if let Some(reason) = guard.check() {
                return Ok(SetRankOutcome::Breached { reason });
            }
            if let Some(limit) = live_limit {
                max_rank = match limit() {
                    // No rank can beat the bound any more: abort now.
                    None => {
                        return Ok(SetRankOutcome::Aborted {
                            seen_dominators: dominators,
                        })
                    }
                    Some(usize::MAX) => None,
                    Some(r) => Some(r),
                };
            }
        }
        pulls += 1;
        if let Some(max_rank) = max_rank {
            if dominators + 1 > max_rank {
                return Ok(SetRankOutcome::Aborted {
                    seen_dominators: dominators,
                });
            }
        }
        match search.next_object().map_err(crate::WhyNotError::Storage)? {
            None => break,
            Some((id, score)) => {
                if score > min_score {
                    dominators += 1;
                    remaining.retain(|&t| t != id);
                    if let Some(cache) = collect.as_deref_mut() {
                        cache.insert(id);
                    }
                } else if until_found {
                    remaining.retain(|&t| t != id);
                    if remaining.is_empty() {
                        break;
                    }
                } else {
                    break;
                }
            }
        }
    }
    Ok(SetRankOutcome::Exact {
        rank: dominators + 1,
    })
}
