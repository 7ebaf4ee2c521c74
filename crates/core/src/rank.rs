//! Rank-of-set scans: computing `R(M, q') = max_i R(m_i, q')` with one
//! pass over an [`ObjectStream`], with optional early stop.

use crate::budget::{BudgetGuard, DegradeReason};
use crate::error::Result;
use wnsk_index::{ObjectId, ObjectStream};

/// How often a scan re-measures its [`BudgetGuard`] (stream pulls between
/// checkpoints). Sized so the clock/counter reads stay invisible next to
/// the page I/O the pulls themselves cause.
pub(crate) const BUDGET_CHECK_INTERVAL: usize = 64;

/// How a rank-of-set scan terminated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetRankOutcome {
    /// The exact `R(M, q')`.
    Exact { rank: usize },
    /// Aborted: the rank provably exceeds the supplied bound after seeing
    /// this many dominators.
    Aborted { seen_dominators: usize },
    /// The query budget was exhausted mid-scan; the rank is unknown.
    Breached { reason: DegradeReason },
}

impl SetRankOutcome {
    /// The exact rank, if the scan completed.
    pub fn rank(&self) -> Option<usize> {
        match self {
            SetRankOutcome::Exact { rank } => Some(*rank),
            SetRankOutcome::Aborted { .. } | SetRankOutcome::Breached { .. } => None,
        }
    }
}

/// Computes `R(M, q')` by pulling a score-ordered stream.
///
/// `R(M, q')` equals the rank of the *worst-scoring* missing object, i.e.
/// one plus the number of objects scoring strictly above
/// `min_i ST(m_i, q')`.
///
/// * `targets` — `(id, exact score)` of every missing object under `q'`.
/// * `max_rank` — early stop (Eqn. 6): abort as soon as the rank provably
///   exceeds it.
/// * `until_found` — when `true`, emulate the basic algorithm and keep
///   pulling until every missing object has been *retrieved* (§IV-B);
///   when `false`, stop as soon as the stream's scores drop to the
///   worst missing score (same result, fewer pulls).
/// * `guard` — cooperative budget checkpoint, measured every
///   `BUDGET_CHECK_INTERVAL` (64) pulls; a breach returns
///   [`SetRankOutcome::Breached`].
pub fn rank_of_set(
    stream: &mut dyn ObjectStream,
    targets: &[(ObjectId, f64)],
    max_rank: Option<usize>,
    until_found: bool,
    guard: Option<&BudgetGuard>,
) -> Result<SetRankOutcome> {
    assert!(!targets.is_empty(), "rank_of_set needs at least one target");
    let min_score = targets
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::INFINITY, f64::min);
    let mut remaining: Vec<ObjectId> = targets.iter().map(|&(id, _)| id).collect();
    let mut dominators = 0usize;
    let mut pulls = 0usize;
    loop {
        if let Some(guard) = guard {
            if pulls.is_multiple_of(BUDGET_CHECK_INTERVAL) {
                if let Some(reason) = guard.check() {
                    return Ok(SetRankOutcome::Breached { reason });
                }
            }
            pulls += 1;
        }
        if let Some(max_rank) = max_rank {
            if dominators + 1 > max_rank {
                return Ok(SetRankOutcome::Aborted {
                    seen_dominators: dominators,
                });
            }
        }
        match stream.next_object().map_err(crate::WhyNotError::Storage)? {
            None => break,
            Some((id, score)) => {
                if score > min_score {
                    dominators += 1;
                    // A better-scoring missing object is also retrieved.
                    remaining.retain(|&t| t != id);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A canned stream for unit tests.
    struct VecStream {
        items: std::vec::IntoIter<(ObjectId, f64)>,
    }

    impl VecStream {
        fn new(items: Vec<(u32, f64)>) -> Self {
            VecStream {
                items: items
                    .into_iter()
                    .map(|(id, s)| (ObjectId(id), s))
                    .collect::<Vec<_>>()
                    .into_iter(),
            }
        }
    }

    impl ObjectStream for VecStream {
        fn next_object(&mut self) -> wnsk_storage::Result<Option<(ObjectId, f64)>> {
            Ok(self.items.next())
        }
    }

    #[test]
    fn single_target_rank() {
        let mut s = VecStream::new(vec![(1, 0.9), (2, 0.8), (3, 0.5), (4, 0.4)]);
        let out = rank_of_set(&mut s, &[(ObjectId(3), 0.5)], None, false, None).unwrap();
        assert_eq!(out.rank(), Some(3));
    }

    #[test]
    fn multi_target_rank_is_worst() {
        // targets score 0.8 (rank 2) and 0.5 (rank 3) → R(M) = 3.
        let mut s = VecStream::new(vec![(1, 0.9), (2, 0.8), (3, 0.5), (4, 0.4)]);
        let out = rank_of_set(
            &mut s,
            &[(ObjectId(2), 0.8), (ObjectId(3), 0.5)],
            None,
            false,
            None,
        )
        .unwrap();
        assert_eq!(out.rank(), Some(3));
    }

    #[test]
    fn better_scoring_target_counts_as_dominator_of_worst() {
        // Object 2 (missing, 0.8) dominates the worst missing (0.5).
        let mut s = VecStream::new(vec![(2, 0.8), (3, 0.5)]);
        let out = rank_of_set(
            &mut s,
            &[(ObjectId(2), 0.8), (ObjectId(3), 0.5)],
            None,
            true,
            None,
        )
        .unwrap();
        assert_eq!(out.rank(), Some(2));
    }

    #[test]
    fn until_found_scans_past_ties() {
        // Three objects tie at 0.5; the target is emitted last among them.
        let mut s = VecStream::new(vec![(1, 0.9), (2, 0.5), (3, 0.5), (4, 0.5)]);
        let out = rank_of_set(&mut s, &[(ObjectId(4), 0.5)], None, true, None).unwrap();
        assert_eq!(out.rank(), Some(2), "ties are not dominators");
    }

    #[test]
    fn early_stop_aborts() {
        let mut s = VecStream::new((0..100).map(|i| (i, 1.0 - i as f64 / 200.0)).collect());
        let out = rank_of_set(&mut s, &[(ObjectId(99), 0.0)], Some(10), false, None).unwrap();
        assert_eq!(
            out,
            SetRankOutcome::Aborted {
                seen_dominators: 10
            }
        );
    }

    #[test]
    fn early_stop_exact_when_rank_within() {
        let mut s = VecStream::new(vec![(1, 0.9), (2, 0.8), (3, 0.5)]);
        let out = rank_of_set(&mut s, &[(ObjectId(3), 0.5)], Some(3), false, None).unwrap();
        assert_eq!(out.rank(), Some(3));
    }

    #[test]
    fn breached_budget_stops_the_scan() {
        use crate::QueryBudget;
        use std::sync::Arc;
        use std::time::Duration;
        let pool = Arc::new(wnsk_storage::BufferPool::with_default_config(Arc::new(
            wnsk_storage::MemBackend::new(),
        )));
        let guard = BudgetGuard::new(
            QueryBudget::unlimited().with_deadline(Duration::ZERO),
            vec![pool],
        );
        let mut s = VecStream::new(vec![(1, 0.9), (2, 0.8)]);
        let out = rank_of_set(&mut s, &[(ObjectId(2), 0.8)], None, false, Some(&guard)).unwrap();
        assert_eq!(
            out,
            SetRankOutcome::Breached {
                reason: DegradeReason::DeadlineExceeded
            }
        );
        assert_eq!(out.rank(), None);
    }

    #[test]
    fn exhausted_stream_gives_rank() {
        let mut s = VecStream::new(vec![(1, 0.9)]);
        // Target never appears with until_found — stream ends; rank is
        // still 1 + dominators.
        let out = rank_of_set(&mut s, &[(ObjectId(5), 0.95)], None, true, None).unwrap();
        assert_eq!(out.rank(), Some(1));
    }
}
