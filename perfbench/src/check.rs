//! Answer checks: every response is an exact `ok` answer, a question
//! asked twice gets the same answer, and every workload's stack gives
//! the same answers to the same questions.

use crate::drive::{Driver, Kind};
use crate::inputs::{Question, Step};
use crate::stack::{self, Workload};
use std::collections::HashMap;
use wnsk_data::GeneratedData;
use wnsk_obs::JsonValue;

/// Questions whose answers are compared across all three stacks.
pub const CROSS_CHECKED: usize = 16;

/// The part of an answer that must not depend on the stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// `(object, score bits)` in rank order.
    TopK(Vec<(u64, u64)>),
    /// The refined query's penalty bits and `k`.
    WhyNot { penalty_bits: u64, k: u64 },
    /// An applied insert or delete of object `id`.
    Ingest { id: u64 },
}

/// A response checked to be an exact `ok` answer of the expected kind;
/// `cached` reports whether it came from the answer cache.
fn parse(kind: Kind, response: &str) -> Result<(Answer, bool), String> {
    let bad = || format!("{kind:?} response malformed or not ok: {response}");
    let doc = JsonValue::parse(response).map_err(|_| bad())?;
    if doc.get("ok") != Some(&JsonValue::Bool(true)) {
        return Err(bad());
    }
    let field = |name: &str| doc.get(name).ok_or_else(bad);
    let flag = |name: &str| doc.get(name) == Some(&JsonValue::Bool(true));
    let exact = || -> Result<(), String> {
        match field("quality")?.as_str() {
            Some("exact") => Ok(()),
            _ => Err(bad()),
        }
    };
    let number = |v: &JsonValue| v.as_f64().ok_or_else(bad);
    match kind {
        Kind::TopK => {
            exact()?;
            let results = field("results")?.as_array().ok_or_else(bad)?;
            let mut list = Vec::with_capacity(results.len());
            for r in results {
                let object = number(r.get("object").ok_or_else(bad)?)?;
                let score = number(r.get("score").ok_or_else(bad)?)?;
                list.push((object as u64, score.to_bits()));
            }
            Ok((Answer::TopK(list), flag("cached")))
        }
        Kind::WhyNot => {
            exact()?;
            let refined = field("refined")?;
            let penalty = number(refined.get("penalty").ok_or_else(bad)?)?;
            let k = number(refined.get("k").ok_or_else(bad)?)?;
            Ok((
                Answer::WhyNot {
                    penalty_bits: penalty.to_bits(),
                    k: k as u64,
                },
                flag("rank_reused"),
            ))
        }
        Kind::Insert | Kind::Delete => {
            let id = number(field("id")?)?;
            Ok((Answer::Ingest { id: id as u64 }, false))
        }
    }
}

/// The first answer to each (question, kind).
pub type Answers = HashMap<(usize, Kind), Answer>;

/// What checking a run's responses found.
#[derive(Default)]
pub struct Checked {
    /// Non-ok or malformed responses.
    pub failed: u64,
    pub answers: Answers,
    pub topk: u64,
    pub topk_cached: u64,
    pub problems: Vec<String>,
}

impl Checked {
    /// Checks one response to question `q`; a question asked again must
    /// get the answer it got the first time. Returns the answer and
    /// whether it came from the cache, or `None` if it failed.
    pub fn add(&mut self, q: usize, kind: Kind, response: &str) -> Option<(Answer, bool)> {
        let (answer, cached) = match parse(kind, response) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.failed += 1;
                if self.problems.len() < 8 {
                    self.problems.push(e);
                }
                return None;
            }
        };
        if kind == Kind::TopK {
            self.topk += 1;
            self.topk_cached += u64::from(cached);
        }
        if matches!(kind, Kind::TopK | Kind::WhyNot) {
            match self.answers.get(&(q, kind)) {
                None => {
                    self.answers.insert((q, kind), answer.clone());
                }
                Some(first) if *first != answer => self.problems.push(format!(
                    "question {q} got two {kind:?} answers: {first:?} then {answer:?}"
                )),
                Some(_) => {}
            }
        }
        Some((answer, cached))
    }
}

/// Answers the first [`CROSS_CHECKED`] questions on each workload's
/// stack (in-process) and requires every stack, and `timed` — the
/// answers the measured run got — to agree: pool size and sharding
/// must never change an answer.
pub fn across_workloads(
    data: &GeneratedData,
    questions: &[Question],
    timed: &Checked,
) -> Vec<String> {
    let mut problems = Vec::new();
    let n = CROSS_CHECKED.min(questions.len());
    let mut reference: Option<(Workload, Answers)> = None;
    for w in Workload::ALL {
        let mut stack = stack::build(w, data, false);
        let mut driver = Driver::new(questions);
        for q in 0..n {
            driver.step(&mut stack, Step::Ask(q));
        }
        stack.shutdown();
        let got = driver.checked;
        problems.extend(got.problems.iter().map(|p| format!("{}: {p}", w.name())));
        match &reference {
            None => reference = Some((w, got.answers)),
            Some((rw, ref_answers)) => {
                for (key, answer) in &got.answers {
                    if ref_answers.get(key) != Some(answer) {
                        problems.push(format!(
                            "question {} {:?}: {} answered {answer:?}, {} answered {:?}",
                            key.0,
                            key.1,
                            w.name(),
                            rw.name(),
                            ref_answers.get(key)
                        ));
                    }
                }
            }
        }
    }
    if let Some((rw, ref_answers)) = &reference {
        for (key, answer) in ref_answers {
            if let Some(t) = timed.answers.get(key) {
                if t != answer {
                    problems.push(format!(
                        "question {} {:?}: the measured run answered {t:?}, {} answers {answer:?}",
                        key.0,
                        key.1,
                        rw.name()
                    ));
                }
            }
        }
    }
    problems
}
