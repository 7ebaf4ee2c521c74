//! The sampling-based approximate algorithm (§VI-B): evaluate only the
//! `T` candidate keyword sets with the highest particularity benefit and
//! return the best refined query among them (plus the always-valid basic
//! refinement, so the answer still contains every missing object).

use crate::algorithms::basic::{self, CandidateSource};
use crate::algorithms::kcr;
use crate::algorithms::{AdvancedOptions, KcrOptions};
use crate::budget::{AnswerQuality, DegradeReason, QueryBudget};
use crate::enumeration::CandidateEnumerator;
use crate::error::{Result, WhyNotError};
use crate::question::{AlgoStats, RefinedQuery, WhyNotAnswer, WhyNotContext, WhyNotQuestion};
use std::time::Instant;
use wnsk_index::{Dataset, KcrTree, SetRTree};

/// Draws the §VI-B greedy sample of size `t` for a question.
///
/// Exposed for experiments; the `answer_approx_*` functions call it
/// internally. The sample is ordered by descending benefit.
pub(crate) fn draw_sample(
    dataset: &Dataset,
    question: &WhyNotQuestion,
    initial_rank: usize,
    t: usize,
) -> Result<Vec<crate::Candidate>> {
    let ctx = WhyNotContext::new(dataset, question, initial_rank)?;
    Ok(CandidateEnumerator::new(&ctx).sample_top(t))
}

/// A cheap initial-rank estimate used only to build the sampling context
/// (the algorithms recompute `R(M,q)` through their index, preserving the
/// paper's I/O accounting).
fn brute_initial_rank(dataset: &Dataset, question: &WhyNotQuestion) -> usize {
    question
        .missing
        .iter()
        .map(|&id| dataset.rank_of(id, &question.query))
        .max()
        .unwrap_or(1)
}

/// How many top-benefit candidates the degraded fallback evaluates. Small
/// enough that the in-memory evaluation stays well inside a typical grace
/// window, large enough to usually beat the bare baseline.
const DEGRADED_SAMPLE: usize = 16;

/// The last rung before failure: the budget is gone, so answer from
/// memory alone. Evaluates up to [`DEGRADED_SAMPLE`] top-benefit
/// candidates by brute force (no page I/O), seeds with the always-valid
/// baseline refinement and the best answer found before the breach, and
/// tags the result [`AnswerQuality::Degraded`].
///
/// `initial_rank` is `R(M, q)` if the exact solver got far enough to know
/// it; otherwise it is recomputed in memory inside the grace window.
/// Returns [`WhyNotError::BudgetExhausted`] only when even that cannot
/// finish — with a known initial rank the baseline makes an answer always
/// constructible.
pub(crate) fn degraded_fallback(
    dataset: &Dataset,
    question: &WhyNotQuestion,
    initial_rank: Option<usize>,
    best_so_far: Option<RefinedQuery>,
    reason: DegradeReason,
    budget: &QueryBudget,
    mut stats: AlgoStats,
) -> Result<WhyNotAnswer> {
    let fallback_start = Instant::now();
    let grace = budget.fallback_grace;
    let over = || fallback_start.elapsed() >= grace;

    let initial_rank = match initial_rank {
        Some(rank) => rank,
        None => {
            let mut rank = 0usize;
            for &id in &question.missing {
                if over() {
                    return Err(WhyNotError::BudgetExhausted { reason });
                }
                rank = rank.max(dataset.rank_of(id, &question.query));
            }
            rank.max(1)
        }
    };

    let ctx = WhyNotContext::new(dataset, question, initial_rank)?;
    // The baseline (penalty exactly λ) guarantees a valid answer; the
    // pre-breach best can only improve on it.
    let mut best = ctx.baseline();
    if let Some(prev) = best_so_far {
        if prev.penalty < best.penalty {
            best = prev;
        }
    }

    if !over() {
        let sample = CandidateEnumerator::new(&ctx).sample_top(DEGRADED_SAMPLE);
        for cand in sample {
            if over() {
                break;
            }
            let targets = ctx.missing_targets(&cand.doc);
            let min_score = targets
                .iter()
                .map(|&(_, s)| s)
                .fold(f64::INFINITY, f64::min);
            let q_s = ctx.query.with_doc(cand.doc.clone());
            // Exact brute-force R(M, q_S): no page reads, only CPU.
            let rank = 1 + dataset
                .live_objects()
                .filter(|o| dataset.score(o, &q_s) > min_score)
                .count();
            let penalty = ctx.penalty.penalty(cand.edit_distance, rank);
            if penalty < best.penalty {
                best = RefinedQuery {
                    doc: cand.doc,
                    k: ctx.refined_k(rank),
                    rank,
                    edit_distance: cand.edit_distance,
                    penalty,
                };
            }
        }
    }

    stats.degraded = 1;
    stats.wall += fallback_start.elapsed();
    Ok(WhyNotAnswer {
        refined: best,
        stats,
        quality: AnswerQuality::Degraded { reason },
    })
}

/// Approximate **BS** over a sample of `t` candidates.
pub fn answer_approx_basic(
    dataset: &Dataset,
    tree: &SetRTree,
    question: &WhyNotQuestion,
    t: usize,
) -> Result<WhyNotAnswer> {
    question.validate(dataset)?;
    let sample = draw_sample(dataset, question, brute_initial_rank(dataset, question), t)?;
    basic::run(
        dataset,
        tree,
        question,
        AdvancedOptions::none(),
        CandidateSource::Sample(sample),
    )
}

/// Approximate **AdvancedBS** over a sample of `t` candidates.
pub fn answer_approx_advanced(
    dataset: &Dataset,
    tree: &SetRTree,
    question: &WhyNotQuestion,
    opts: AdvancedOptions,
    t: usize,
) -> Result<WhyNotAnswer> {
    question.validate(dataset)?;
    let sample = draw_sample(dataset, question, brute_initial_rank(dataset, question), t)?;
    basic::run(
        dataset,
        tree,
        question,
        opts,
        CandidateSource::Sample(sample),
    )
}

/// Approximate **KcRBased** over a sample of `t` candidates.
pub fn answer_approx_kcr(
    dataset: &Dataset,
    tree: &KcrTree,
    question: &WhyNotQuestion,
    opts: KcrOptions,
    t: usize,
) -> Result<WhyNotAnswer> {
    question.validate(dataset)?;
    let sample = draw_sample(dataset, question, brute_initial_rank(dataset, question), t)?;
    kcr::run(dataset, &[tree], question, opts, Some(sample))
}
