//! Query budgets and graceful degradation.
//!
//! A [`QueryBudget`] caps how long a why-not solver may run (wall-clock
//! deadline) and how many physical page reads it may issue. The solvers
//! check the budget at cooperative checkpoints (stream pulls, candidate
//! boundaries, queue pops); the first breach latches and every thread
//! observes it. An exhausted budget does **not** abort the query: the
//! solver falls back to the §VI-B sampling-based approximate algorithm
//! evaluated in memory, returning its best refined query tagged
//! [`AnswerQuality::Degraded`]. Only when even that fallback cannot
//! finish inside [`QueryBudget::fallback_grace`] does the query surface
//! [`WhyNotError::BudgetExhausted`](crate::WhyNotError::BudgetExhausted).
//!
//! The degradation ladder is therefore: exact answer → approximate
//! answer (degraded) → typed error. A degraded answer is still *sound*:
//! its refined query provably contains every missing object (Lemma 1's
//! `k' = max(k₀, R(M, q'))` covers the true rank).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wnsk_storage::BufferPool;

/// Resource limits for one why-not query. `Copy` so it can ride inside
/// the solver option structs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryBudget {
    /// Wall-clock deadline for the exact solver. `None` = unlimited.
    pub deadline: Option<Duration>,
    /// Maximum physical page reads through the index's buffer pool.
    /// `None` = unlimited.
    pub max_page_reads: Option<u64>,
    /// Extra wall-clock time the in-memory approximate fallback may use
    /// *after* the main budget is breached. The fallback touches no
    /// pages, so this is the only resource it consumes.
    pub fallback_grace: Duration,
}

impl Default for QueryBudget {
    fn default() -> Self {
        QueryBudget::unlimited()
    }
}

impl QueryBudget {
    /// No limits: solvers run to completion (the pre-budget behaviour).
    pub const fn unlimited() -> Self {
        QueryBudget {
            deadline: None,
            max_page_reads: None,
            fallback_grace: Duration::from_millis(250),
        }
    }

    /// Caps wall-clock time.
    pub const fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps physical page reads.
    pub const fn with_max_page_reads(mut self, max: u64) -> Self {
        self.max_page_reads = Some(max);
        self
    }

    /// Sets the fallback grace window.
    pub const fn with_fallback_grace(mut self, grace: Duration) -> Self {
        self.fallback_grace = grace;
        self
    }

    /// `true` when no limit is set (checkpoints become no-ops).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_page_reads.is_none()
    }
}

/// Why a query degraded to the approximate fallback.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DegradeReason {
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The physical page-read cap was hit.
    PageReadLimit,
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            DegradeReason::PageReadLimit => write!(f, "page-read limit reached"),
        }
    }
}

/// How trustworthy an answer is — which rung of the degradation ladder
/// produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerQuality {
    /// The solver examined the full candidate space: the answer is the
    /// optimum of Eqn. 4.
    Exact,
    /// The caller asked for the §VI-B sampling algorithm: only the
    /// `sample_size` highest-benefit candidates were examined.
    Approximate { sample_size: usize },
    /// The budget was exhausted mid-query; the answer comes from the
    /// in-memory approximate fallback seeded with the best refinement
    /// found before the breach.
    Degraded { reason: DegradeReason },
}

impl AnswerQuality {
    /// `true` for [`AnswerQuality::Exact`].
    pub fn is_exact(&self) -> bool {
        matches!(self, AnswerQuality::Exact)
    }

    /// `true` for [`AnswerQuality::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, AnswerQuality::Degraded { .. })
    }
}

impl std::fmt::Display for AnswerQuality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnswerQuality::Exact => write!(f, "exact"),
            AnswerQuality::Approximate { sample_size } => {
                write!(f, "approximate (sample of {sample_size})")
            }
            AnswerQuality::Degraded { reason } => write!(f, "degraded ({reason})"),
        }
    }
}

const BREACH_NONE: u8 = 0;
const BREACH_DEADLINE: u8 = 1;
const BREACH_PAGE_READS: u8 = 2;

/// Shared checkpoint state for one query: the budget, the query's start
/// time, the buffer pools whose physical reads are charged (summed)
/// against `max_page_reads`, and a sticky breach flag so every worker
/// thread stops at the first breach any of them observes.
pub struct BudgetGuard {
    budget: QueryBudget,
    start: Instant,
    pools: Vec<Arc<BufferPool>>,
    reads_before: u64,
    breach: AtomicU8,
}

impl BudgetGuard {
    /// Starts the clock and snapshots the pools' read counters. A solver
    /// over several indexes (a forest of shard trees) passes every pool
    /// it reads through.
    pub fn new(budget: QueryBudget, pools: Vec<Arc<BufferPool>>) -> Self {
        let reads_before = physical_reads(&pools);
        BudgetGuard {
            budget,
            start: Instant::now(),
            pools,
            reads_before,
            breach: AtomicU8::new(BREACH_NONE),
        }
    }

    /// The budget being enforced.
    pub fn budget(&self) -> &QueryBudget {
        &self.budget
    }

    /// Cooperative checkpoint: returns the breach reason once the budget
    /// is exhausted, `None` while within budget. The first breach
    /// latches — later calls return it without re-measuring.
    pub fn check(&self) -> Option<DegradeReason> {
        if let Some(b) = self.breached() {
            return Some(b);
        }
        if self.budget.is_unlimited() {
            return None;
        }
        if let Some(deadline) = self.budget.deadline {
            if self.start.elapsed() >= deadline {
                self.breach.store(BREACH_DEADLINE, Ordering::Release);
                return Some(DegradeReason::DeadlineExceeded);
            }
        }
        if let Some(max) = self.budget.max_page_reads {
            let reads = physical_reads(&self.pools).saturating_sub(self.reads_before);
            if reads >= max {
                self.breach.store(BREACH_PAGE_READS, Ordering::Release);
                return Some(DegradeReason::PageReadLimit);
            }
        }
        None
    }

    /// Reads the sticky flag without measuring anything — cheap enough
    /// for per-object loops.
    pub fn breached(&self) -> Option<DegradeReason> {
        match self.breach.load(Ordering::Acquire) {
            BREACH_DEADLINE => Some(DegradeReason::DeadlineExceeded),
            BREACH_PAGE_READS => Some(DegradeReason::PageReadLimit),
            _ => None,
        }
    }

    /// Wall-clock time since the guard was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

fn physical_reads(pools: &[Arc<BufferPool>]) -> u64 {
    pools.iter().map(|p| p.stats().physical_reads).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnsk_storage::MemBackend;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::with_default_config(Arc::new(MemBackend::new())))
    }

    #[test]
    fn unlimited_budget_never_breaches() {
        let guard = BudgetGuard::new(QueryBudget::unlimited(), vec![pool()]);
        assert_eq!(guard.check(), None);
        assert_eq!(guard.breached(), None);
    }

    #[test]
    fn zero_deadline_breaches_immediately_and_latches() {
        let budget = QueryBudget::unlimited().with_deadline(Duration::ZERO);
        let guard = BudgetGuard::new(budget, vec![pool()]);
        assert_eq!(guard.check(), Some(DegradeReason::DeadlineExceeded));
        assert_eq!(guard.breached(), Some(DegradeReason::DeadlineExceeded));
        assert_eq!(guard.check(), Some(DegradeReason::DeadlineExceeded));
    }

    #[test]
    fn page_read_limit_counts_only_this_query() {
        let p = pool();
        // Pre-existing traffic must not count against the budget.
        let id = p.allocate().unwrap();
        p.write(id, &[1]).unwrap();
        p.clear_cache();
        p.read(id).unwrap();

        let budget = QueryBudget::unlimited().with_max_page_reads(2);
        let guard = BudgetGuard::new(budget, vec![Arc::clone(&p)]);
        assert_eq!(guard.check(), None);
        p.clear_cache();
        p.read(id).unwrap();
        assert_eq!(guard.check(), None, "1 read < limit 2");
        p.clear_cache();
        p.read(id).unwrap();
        assert_eq!(guard.check(), Some(DegradeReason::PageReadLimit));
    }

    #[test]
    fn builders_compose() {
        let b = QueryBudget::unlimited()
            .with_deadline(Duration::from_millis(5))
            .with_max_page_reads(100)
            .with_fallback_grace(Duration::from_millis(1));
        assert_eq!(b.deadline, Some(Duration::from_millis(5)));
        assert_eq!(b.max_page_reads, Some(100));
        assert_eq!(b.fallback_grace, Duration::from_millis(1));
        assert!(!b.is_unlimited());
        assert!(QueryBudget::default().is_unlimited());
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            DegradeReason::DeadlineExceeded.to_string(),
            "deadline exceeded"
        );
        assert!(AnswerQuality::Approximate { sample_size: 16 }
            .to_string()
            .contains("16"));
        assert!(AnswerQuality::Degraded {
            reason: DegradeReason::PageReadLimit
        }
        .to_string()
        .contains("degraded"));
        assert!(AnswerQuality::Exact.is_exact());
        assert!(!AnswerQuality::Exact.is_degraded());
    }
}
