//! The repository's benchmark.
//!
//! ```text
//! perfbench --workload <whynot-fit|whynot-spill|serve-sharded> \
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the named workload for `--seconds` with tracing off
//! and reports its end-to-end metrics. `--trace 1` runs the per-layer
//! ledger of all three workloads over fixed request slices. Either way
//! the last line of standard output is one JSON object, and any failed
//! answer, answer mismatch or failed premise makes the exit code 1.
//! See README.md beside this crate for the workloads and metrics.

mod check;
mod drive;
mod inputs;
mod ledger;
mod run;
mod stack;
mod sys;

use stack::Workload;
use wnsk_obs::JsonValue;

/// What a run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not '{value}'"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
            },
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <whynot-fit|whynot-spill|serve-sharded> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        ledger::ledger(args.seed)
    } else {
        run::end_to_end(args.workload, args.seed, args.seconds)
    };
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<48} {value:>14.6} {unit}");
    }
    for problem in &report.problems {
        eprintln!("perfbench: FAILED {problem}");
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                JsonValue::object(vec![("value", (*value).into()), ("unit", (*unit).into())]),
            )
        })
        .collect();
    println!(
        "{}",
        JsonValue::object(vec![
            ("correct", JsonValue::Bool(correct)),
            ("attempted", report.attempted.into()),
            ("failed", report.failed.into()),
            ("metrics", JsonValue::Object(metrics)),
        ])
        .render()
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive::Work;

    /// Every count a later change may cite as exact.
    fn counts(w: &Work) -> [u64; 9] {
        [
            w.logical_reads,
            w.physical_reads,
            w.node_visits,
            w.bound_prunes,
            w.candidates,
            w.pruned,
            w.queries_run,
            w.nodes_expanded,
            w.tasks.count,
        ]
    }

    #[test]
    fn ledger_counts_repeat_exactly_and_only_physical_reads_follow_the_pool() {
        let seed = 7;
        let data = inputs::dataset();
        let questions = inputs::questions(&data, seed, ledger::TRACE_QUESTIONS);
        let mut per_workload = Vec::new();
        for w in [Workload::Fit, Workload::Spill] {
            let runs: Vec<[u64; 9]> = (0..2)
                .map(|_| {
                    let (traced, problems) = ledger::trace(w, seed, &data, &questions);
                    assert!(problems.is_empty(), "{problems:?}");
                    counts(&ledger::totals(&traced).all)
                })
                .collect();
            assert_eq!(runs[0], runs[1], "{} counts differ between runs", w.name());
            assert!(runs[0][0] > 0 && runs[0][4] > 0, "{} did no work", w.name());
            per_workload.push(runs[0]);
        }
        let (fit, spill) = (per_workload[0], per_workload[1]);
        assert_eq!(fit[1], 0, "whynot-fit read a page from storage");
        assert!(spill[1] > 0, "whynot-spill never missed its pool");
        let mut without_physical = (fit, spill);
        without_physical.0[1] = 0;
        without_physical.1[1] = 0;
        assert_eq!(without_physical.0, without_physical.1);
    }
}
