//! The traced run: the per-layer ledger of all three workloads, each
//! over a fixed slice of its requests, so the counts of two runs with
//! one seed are equal. Each slice runs several times on freshly set-up
//! stacks, some passes untraced and some with spans and per-call
//! registry deltas. The traced minus the untraced wall time is the
//! tracing overhead.

use crate::drive::{Driver, Kind, Record, Work};
use crate::inputs::{self, Step, LIST_LEN, WRITE_EVERY};
use crate::run::{asks, ratio};
use crate::stack::{self, Span, Workload, SHARDS};
use crate::Report;
use std::collections::BTreeMap;
use std::time::Instant;

/// Questions in the `whynot-fit` and `whynot-spill` slices (each a
/// top-k then a why-not).
pub const TRACE_QUESTIONS: usize = 32;
/// Asks of the `serve-sharded` mix in its slice.
pub const TRACE_ASKS: usize = 240;

/// A workload's ledger slice: the head of its asks, and for
/// serve-sharded a paired write after every [`WRITE_EVERY`] asks.
pub fn slice(w: Workload, seed: u64) -> Vec<Step> {
    match w {
        Workload::Sharded => asks(w, seed)
            .take(TRACE_ASKS)
            .enumerate()
            .flat_map(|(i, q)| {
                let write = (i + 1) % WRITE_EVERY == 0;
                std::iter::once(Step::Ask(q)).chain(write.then_some(Step::Write(q)))
            })
            .collect(),
        _ => asks(w, seed).take(TRACE_QUESTIONS).map(Step::Ask).collect(),
    }
}

/// One workload's traced slice.
pub struct Traced {
    pub records: Vec<Record>,
    pub spans: Vec<Span>,
    /// Mean wall time of the untraced and of the traced passes.
    pub untraced_s: f64,
    pub traced_s: f64,
    /// Requests sent and failed over all passes.
    pub attempted: u64,
    pub failed: u64,
}

/// Passes over a slice, each on a fresh stack: a warm-up, then
/// untraced, traced, traced, untraced, so that warm-up and a steady
/// drift of the machine's speed cancel out of the overhead.
const PASSES: [Option<bool>; 5] = [None, Some(false), Some(true), Some(true), Some(false)];

/// Runs `w`'s slice in [`PASSES`]; keeps the last traced pass.
pub fn trace(
    w: Workload,
    seed: u64,
    data: &wnsk_data::GeneratedData,
    questions: &[inputs::Question],
) -> (Traced, Vec<String>) {
    let slice = slice(w, seed);
    let mut problems = Vec::new();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut attempted, mut failed) = (0, 0);
    let mut first_answers = None;
    let mut kept = None;
    for pass in PASSES {
        let traced = pass == Some(true);
        let mut stack = stack::build(w, data, true);
        let mut driver = if traced {
            Driver::traced(questions, &stack)
        } else {
            Driver::new(questions)
        };
        let started = Instant::now();
        for &step in &slice {
            driver.step(&mut stack, step);
        }
        let wall = started.elapsed().as_secs_f64() / 2.0;
        stack.shutdown();
        match pass {
            Some(true) => traced_s += wall,
            Some(false) => untraced_s += wall,
            None => {}
        }
        let checked = std::mem::take(&mut driver.checked);
        attempted += driver.records.len() as u64;
        failed += checked.failed;
        problems.extend(
            checked
                .problems
                .iter()
                .map(|p| format!("{}: {p}", w.name())),
        );
        match &first_answers {
            None => first_answers = Some(checked.answers),
            Some(answers) if *answers != checked.answers => {
                problems.push(format!("{}: answers changed between passes", w.name()))
            }
            Some(_) => {}
        }
        if traced {
            kept = Some(driver);
        }
    }
    let driver = kept.expect("a traced pass ran");
    (
        Traced {
            records: driver.records,
            spans: driver.spans.spans,
            untraced_s,
            traced_s,
            attempted,
            failed,
        },
        problems,
    )
}

/// The sums the per-layer metrics are made from.
#[derive(Default)]
pub struct Totals {
    pub requests: f64,
    pub whynots: f64,
    pub topks: f64,
    pub writes: f64,
    pub topk_cached: f64,
    /// Work of all calls, and of the why-not calls alone.
    pub all: Work,
    pub whynot: Work,
    /// Span time per span name, ns.
    pub span_ns: BTreeMap<&'static str, u64>,
    pub unattributed_ns: f64,
}

pub fn totals(t: &Traced) -> Totals {
    let mut out = Totals {
        requests: t.records.len() as f64,
        ..Totals::default()
    };
    for r in &t.records {
        let work = r.work.as_ref().expect("traced records carry their work");
        out.all.merge(work);
        match r.kind {
            Kind::WhyNot => {
                out.whynots += 1.0;
                out.whynot.merge(work);
            }
            Kind::TopK => {
                out.topks += 1.0;
                out.topk_cached += f64::from(u8::from(r.cached));
            }
            Kind::Insert | Kind::Delete => out.writes += 1.0,
        }
    }
    let mut per_req: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for s in &t.spans {
        *out.span_ns.entry(s.name).or_default() += s.ns();
        *per_req.entry(s.req).or_default().entry(s.name).or_default() += s.ns();
    }
    // What the spans and the solver's phase timers do not cover: the
    // request span minus parse, resolve, solver phases, shard merge,
    // and — over the wire — the client's wait outside the server.
    for (r, spans) in t.records.iter().zip(per_req.values()) {
        let work = r.work.as_ref().expect("traced records carry their work");
        let get = |n: &str| spans.get(n).copied().unwrap_or(0) as f64;
        let wire = if spans.contains_key("client.call") {
            get("client.call") - work.server_ns as f64
        } else {
            0.0
        };
        let attributed = get("serve.parse")
            + get("serve.resolve")
            + work.phase_ns.iter().sum::<u64>() as f64
            + work.merge_ns as f64
            + wire;
        out.unattributed_ns += get("request") - attributed;
    }
    out
}

/// The per-layer metrics of one workload's traced slice.
pub fn metrics(w: Workload, t: &Traced) -> Vec<(String, f64, &'static str)> {
    let s = totals(t);
    let (n, wn) = (s.requests, s.whynots);
    let a = &s.all;
    let wy = &s.whynot;
    let span_mean =
        |name: &str, scale: f64| ratio(s.span_ns.get(name).copied().unwrap_or(0) as f64, n) / scale;
    let mut m: Vec<(&str, f64, &'static str)> = vec![
        ("ledger_requests", n, "count"),
        (
            "storage.logical_reads_per_request",
            ratio(a.logical_reads as f64, n),
            "count",
        ),
        (
            "storage.physical_reads_per_request",
            ratio(a.physical_reads as f64, n),
            "count",
        ),
        (
            "storage.pool_hit_ratio",
            1.0 - ratio(a.physical_reads as f64, a.logical_reads as f64),
            "ratio",
        ),
        (
            "index.node_visits_per_request",
            ratio(a.node_visits as f64, n),
            "count",
        ),
        (
            "index.bound_prunes_per_whynot",
            ratio(wy.bound_prunes as f64, wn),
            "count",
        ),
        (
            "core.initial_rank_ms",
            ratio(wy.phase_ns[0] as f64, wn) / 1e6,
            "ms",
        ),
        (
            "core.enumeration_ms",
            ratio(wy.phase_ns[1] as f64, wn) / 1e6,
            "ms",
        ),
        (
            "core.verification_ms",
            ratio(wy.phase_ns[2] as f64, wn) / 1e6,
            "ms",
        ),
        (
            "core.candidates_per_whynot",
            ratio(wy.candidates as f64, wn),
            "count",
        ),
        (
            "core.queries_run_per_whynot",
            ratio(wy.queries_run as f64, wn),
            "count",
        ),
        (
            "core.nodes_expanded_per_whynot",
            ratio(wy.nodes_expanded as f64, wn),
            "count",
        ),
        (
            "core.pruned_ratio",
            ratio(wy.pruned as f64, wy.candidates as f64),
            "ratio",
        ),
        (
            "serve.cache_hit_ratio",
            ratio(s.topk_cached, s.topks),
            "ratio",
        ),
        ("unattributed_ms", ratio(s.unattributed_ns, n) / 1e6, "ms"),
        (
            "trace_overhead_ms",
            (t.traced_s - t.untraced_s) * 1e3 / n,
            "ms",
        ),
    ];
    match w {
        Workload::Fit | Workload::Spill => m.extend([
            ("serve.parse_us", span_mean("serve.parse", 1e3), "us"),
            ("serve.resolve_us", span_mean("serve.resolve", 1e3), "us"),
            ("serve.execute_ms", span_mean("serve.execute", 1e6), "ms"),
            ("exec.task_us_p50", wy.tasks.p50() as f64 / 1e3, "us"),
            (
                "exec.tasks_per_whynot",
                ratio(wy.tasks.count as f64, wn),
                "count",
            ),
        ]),
        Workload::Sharded => {
            let client_ms = span_mean("client.call", 1e6);
            let server_ms = ratio(a.server_ns as f64, n) / 1e6;
            m.extend([
                ("serve.client_ms", client_ms, "ms"),
                ("serve.server_ms", server_ms, "ms"),
                ("serve.wire_ms", client_ms - server_ms, "ms"),
                (
                    "shard.scatter_per_request",
                    ratio(a.scatter as f64, n),
                    "count",
                ),
                (
                    "shard.merge_us",
                    ratio(a.merge_ns as f64, a.merges as f64) / 1e3,
                    "us",
                ),
                (
                    "shard.bound_tightenings_per_whynot",
                    ratio(wy.tightenings as f64, wn),
                    "count",
                ),
                (
                    "exec.tasks_per_whynot",
                    ratio((wy.scatter * SHARDS as u64) as f64, wn),
                    "count",
                ),
                ("mix.write_share", ratio(s.writes, n), "ratio"),
            ]);
        }
    }
    m.into_iter()
        .map(|(name, v, unit)| (format!("{}.{name}", w.prefix()), v, unit))
        .collect()
}

/// The whole ledger: every workload's slice, traced.
pub fn ledger(seed: u64) -> Report {
    let data = inputs::dataset();
    let questions = inputs::questions(&data, seed, LIST_LEN);
    let mut report = Report::default();
    let mut totals_of = BTreeMap::new();
    for w in Workload::ALL {
        let (traced, problems) = trace(w, seed, &data, &questions);
        report.problems.extend(problems);
        report.attempted += traced.attempted;
        report.failed += traced.failed;
        report.notes.push(span_table(w, &traced.spans));
        report.metrics.extend(metrics(w, &traced));
        totals_of.insert(w.prefix(), totals(&traced));
    }
    report.problems.extend(premises(&totals_of));
    report
}

/// The premises the ledger can see: fit never reads a page from
/// storage, spill does, and both do the same logical work.
fn premises(t: &BTreeMap<&str, Totals>) -> Vec<String> {
    let (fit, spill, sharded) = (&t["fit"].all, &t["spill"].all, &t["sharded"].all);
    let mut problems = Vec::new();
    if fit.physical_reads != 0 {
        problems.push(format!(
            "premise: whynot-fit made {} physical reads",
            fit.physical_reads
        ));
    }
    if spill.physical_reads == 0 {
        problems.push("premise: whynot-spill made no physical reads".into());
    }
    let same = [
        ("logical reads", fit.logical_reads, spill.logical_reads),
        ("node visits", fit.node_visits, spill.node_visits),
        ("candidates", fit.candidates, spill.candidates),
    ];
    for (what, f, s) in same {
        if f != s {
            problems.push(format!(
                "premise: whynot-fit made {f} {what}, whynot-spill {s}"
            ));
        }
    }
    if sharded.tightenings == 0 {
        problems.push("premise: serve-sharded never tightened the shared bound".into());
    }
    problems
}

/// Span count, total and self time per span name.
fn span_table(w: Workload, spans: &[Span]) -> String {
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ns();
    }
    let children: u64 = by_name
        .iter()
        .filter(|(name, _)| **name != "request")
        .map(|(_, (_, ns))| ns)
        .sum();
    let mut out = format!("spans of {} (name count total_ms self_ms):", w.name());
    for (name, (count, ns)) in &by_name {
        let own = if *name == "request" {
            ns - children.min(*ns)
        } else {
            *ns
        };
        out.push_str(&format!(
            "\n  {name:<14} {count:>6} {:>10.3} {:>10.3}",
            *ns as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    out
}
