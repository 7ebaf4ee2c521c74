//! Answering why-not spatial keyword top-k queries via keyword adaption —
//! the primary contribution of the reproduced ICDE 2016 paper.
//!
//! Given an initial query `q = (loc, doc₀, k₀, α)` and a set of *missing*
//! objects `M` the user expected in the result, the library returns the
//! refined query `q' = (loc, doc', k', α)` that (a) contains every object
//! of `M` in its top-`k'` and (b) minimises the penalty of Eqn. 4 — a
//! weighted blend of how much `k` grew and how far `doc'` drifted from
//! `doc₀` (insert/delete edit distance over `doc₀ ∪ M.doc`).
//!
//! Three solvers are provided, matching the paper's evaluated systems:
//!
//! * [`algorithms::answer_basic`] — **BS** (§IV-B):
//!   exhaustively runs one spatial keyword query per candidate keyword
//!   set over the SetR-tree.
//! * [`algorithms::answer_advanced`] — **AdvancedBS**
//!   (§IV-C): BS plus early stop (Eqn. 6), particularity-driven
//!   enumeration order (Eqn. 7), dominator-cache keyword-set filtering,
//!   and multi-threaded candidate processing; each optimisation can be
//!   toggled for ablation.
//! * [`algorithms::answer_kcr`] — **KcRBased** (§V):
//!   bound-and-prune over the KcR-tree — one traversal scores a whole
//!   batch of candidate sets via `MaxDom`/`MinDom`, driven in
//!   edit-distance layers (Algorithms 3 & 4).
//!   [`algorithms::answer_kcr_forest`] runs the same traversal over
//!   several trees of disjoint objects (the shards of a partition).
//!
//! All three support multiple missing objects (§VI-A) and a
//! sampling-based approximate mode (§VI-B). The [`WhyNotEngine`] facade
//! bundles a dataset with one [`IndexPair`] (SetR + KcR) for
//! applications; the algorithm functions take the pieces explicitly for
//! experiments.

pub mod algorithms;
mod budget;
mod engine;
mod enumeration;
mod error;
pub mod extensions;
mod index_pair;
pub mod ingest;
mod penalty;
mod question;
mod rank;

pub use budget::{AnswerQuality, BudgetGuard, DegradeReason, QueryBudget};
pub use engine::{WhyNotEngine, DEFAULT_FANOUT};
pub use enumeration::{Candidate, CandidateEnumerator};
pub use error::{Result, WhyNotError};
pub use index_pair::IndexPair;
pub use ingest::Mutation;
pub use penalty::PenaltyModel;
pub use question::{
    AlgoStats, QuestionKernel, RefinedQuery, WhyNotAnswer, WhyNotContext, WhyNotQuestion,
};
pub use rank::{rank_of_set, SetRankOutcome};

pub use algorithms::{
    answer_advanced, answer_approx_advanced, answer_approx_basic, answer_approx_kcr, answer_basic,
    answer_basic_with_budget, answer_kcr, answer_kcr_forest, AdvancedOptions, KcrOptions,
};
