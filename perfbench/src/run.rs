//! The measured run: set the stack up several times, replay the seeded
//! requests for the given time with tracing off, check every answer
//! and the workload's premise, and report the end-to-end metrics.

use crate::check;
use crate::drive::{counter, Driver, Kind, Record};
use crate::inputs::{self, Mix, Step, LIST_LEN, WRITE_INTERVAL};
use crate::stack::{self, Workload};
use crate::sys;
use crate::Report;
use std::time::{Duration, Instant};
use wnsk_obs::names;

/// Times the stack is set up per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// The endless questions `w` asks: the list in order, or the
/// serve-sharded mix.
pub fn asks(w: Workload, seed: u64) -> Box<dyn Iterator<Item = usize>> {
    match w {
        Workload::Sharded => Box::new(Mix::new(seed, LIST_LEN)),
        _ => Box::new((0..).map(|i| i % LIST_LEN)),
    }
}

pub fn end_to_end(w: Workload, seed: u64, seconds: u64) -> Report {
    let data = inputs::dataset();
    let questions = inputs::questions(&data, seed, LIST_LEN);

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = built.take() {
            stack::Stack::shutdown(old);
        }
        let started = Instant::now();
        built = Some(stack::build(w, &data, true));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut stack = built.expect("at least one set-up");
    // The in-process workloads send their writes to a twin stack, so
    // the read stack serves the same trees, pages and counts in every
    // run; serve-sharded's writes share its stack, as routed ingest must.
    let mut twin = (w != Workload::Sharded).then(|| stack::build(w, &data, true));
    let registries = stack.registries();
    let live_before = [Some(&stack), twin.as_ref()].map(|s| s.map(stack::Stack::live_objects));
    let physical = || {
        counter(&registries, "setr.pool.physical_reads")
            + counter(&registries, "kcr.pool.physical_reads")
    };
    let physical_before = physical();
    let tightenings_before = counter(&registries, names::SHARD_BOUND_TIGHTENINGS);

    let mut driver = Driver::new(&questions);
    let mut asks = asks(w, seed);
    let limit = Duration::from_secs(seconds);
    let cpu_before = sys::cpu_time();
    let started = Instant::now();
    let mut next_write = WRITE_INTERVAL;
    while started.elapsed() < limit {
        let q = asks.next().expect("the asks are endless");
        driver.step(&mut stack, Step::Ask(q));
        if started.elapsed() >= next_write {
            next_write += WRITE_INTERVAL;
            driver.step(twin.as_mut().unwrap_or(&mut stack), Step::Write(q));
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let cpu_ms = (sys::cpu_time() - cpu_before).as_secs_f64() * 1e3;
    let physical_reads = physical() - physical_before;
    let tightenings = counter(&registries, names::SHARD_BOUND_TIGHTENINGS) - tightenings_before;
    let live_after = [Some(&stack), twin.as_ref()].map(|s| s.map(stack::Stack::live_objects));
    stack.shutdown();
    if let Some(twin) = twin {
        twin.shutdown();
    }

    let peak_rss_mb = sys::peak_rss_mb();
    let records = &driver.records;
    let checked = &driver.checked;
    let mut problems = checked.problems.clone();
    problems.extend(check::across_workloads(&data, &questions, checked));
    match w {
        Workload::Fit if physical_reads != 0 => problems.push(format!(
            "premise: whynot-fit's timed phase made {physical_reads} physical reads, not 0"
        )),
        Workload::Spill if physical_reads == 0 => {
            problems.push("premise: whynot-spill's timed phase made no physical reads".into())
        }
        Workload::Sharded if tightenings == 0 => {
            problems.push("premise: serve-sharded never tightened the shared bound".into())
        }
        _ => {}
    }
    if live_after != live_before {
        problems.push(format!(
            "premise: live objects {live_before:?} before, {live_after:?} after the paired writes"
        ));
    }

    let answers = records
        .iter()
        .filter(|r| matches!(r.kind, Kind::TopK | Kind::WhyNot))
        .count() as f64;
    let topk = latencies(records, &[Kind::TopK]);
    let whynot = latencies(records, &[Kind::WhyNot]);
    let ingest = latencies(records, &[Kind::Insert, Kind::Delete]);
    let writes = ingest.len();
    let mut notes = vec![
        format!(
            "{}: seed {seed}, {seconds} s, {} requests ({writes} writes)",
            w.name(),
            records.len()
        ),
        format!(
            "samples: {} whynot, {} topk, {} ingest; physical reads {physical_reads}; bound tightenings {tightenings}",
            whynot.len(),
            topk.len(),
            ingest.len()
        ),
        format!(
            "shares: topk cache hits {:.3} of {} topk; writes {:.3} of {} requests",
            ratio(checked.topk_cached as f64, checked.topk as f64),
            checked.topk,
            ratio(writes as f64, records.len() as f64),
            records.len()
        ),
    ];
    for (name, v) in [("topk", &topk), ("whynot", &whynot), ("ingest", &ingest)] {
        notes.push(format!(
            "{name} deciles ms: {}",
            (1..10)
                .map(|d| format!("{:.3}", percentile(v, d as f64 / 10.0)))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    notes.push(format!(
        "setup_s samples: {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    Report {
        attempted: records.len() as u64,
        failed: checked.failed,
        problems,
        notes,
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            ("whynot_p50_ms", percentile(&whynot, 0.5), "ms"),
            ("whynot_p90_ms", percentile(&whynot, 0.9), "ms"),
            ("topk_p50_ms", percentile(&topk, 0.5), "ms"),
            ("topk_p90_ms", percentile(&topk, 0.9), "ms"),
            ("ingest_p50_ms", percentile(&ingest, 0.5), "ms"),
            ("answers_per_s", answers / elapsed, "1/s"),
            ("cpu_ms_per_answer", cpu_ms / answers, "ms"),
        ]
        .into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u))
        .collect(),
    }
}

/// Latencies in ms of the records of the given kinds, sorted.
fn latencies(records: &[Record], kinds: &[Kind]) -> Vec<f64> {
    let mut v: Vec<f64> = records
        .iter()
        .filter(|r| kinds.contains(&r.kind))
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of sorted values.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
