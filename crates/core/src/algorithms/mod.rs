//! The three why-not solvers (BS, AdvancedBS, KcRBased) and their
//! approximate variants.

mod approx;
mod basic;
mod count;
mod kcr;
mod shared;

pub use approx::{answer_approx_advanced, answer_approx_basic, answer_approx_kcr};
pub use basic::{answer_advanced, answer_basic, answer_basic_with_budget, AdvancedOptions};
pub use kcr::{answer_kcr, answer_kcr_forest, KcrOptions};
