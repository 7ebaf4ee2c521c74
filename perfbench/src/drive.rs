//! One closed-loop caller: sends a workload's steps to a stack, times
//! every request, checks every response as it arrives, and — when
//! tracing — takes the registry deltas around each call.

use crate::check::{Answer, Checked};
use crate::inputs::{Question, Step};
use crate::stack::{Spans, Stack};
use std::time::{Duration, Instant};
use wnsk_obs::{names, HistSnapshot, Registry, Snapshot};
use wnsk_serve::client;

/// What a request asked.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    TopK,
    WhyNot,
    Insert,
    Delete,
}

/// One sent request.
pub struct Record {
    pub kind: Kind,
    pub latency: Duration,
    /// Whether the answer came from the answer cache.
    pub cached: bool,
    /// Registry work done by the call (tracing only).
    pub work: Option<Work>,
}

/// The caller.
pub struct Driver<'a> {
    questions: &'a [Question],
    pub spans: Spans,
    /// Registries to diff around every call; empty when untraced.
    registries: Vec<Registry>,
    pub records: Vec<Record>,
    pub checked: Checked,
}

impl<'a> Driver<'a> {
    /// An untraced caller.
    pub fn new(questions: &'a [Question]) -> Driver<'a> {
        Driver {
            questions,
            spans: Spans::new(false),
            registries: Vec::new(),
            records: Vec::new(),
            checked: Checked::default(),
        }
    }

    /// A traced caller: spans on, registry deltas of `stack` per call.
    pub fn traced(questions: &'a [Question], stack: &Stack) -> Driver<'a> {
        Driver {
            questions,
            spans: Spans::new(true),
            registries: stack.registries(),
            records: Vec::new(),
            checked: Checked::default(),
        }
    }

    /// Sends one step: a question's top-k then its why-not, or an
    /// insert then the delete of the object it created.
    pub fn step(&mut self, stack: &mut Stack, step: Step) {
        let questions = self.questions;
        match step {
            Step::Ask(q) => {
                self.send(stack, q, Kind::TopK, &questions[q].topk);
                self.send(stack, q, Kind::WhyNot, &questions[q].whynot);
            }
            Step::Write(q) => {
                // A failed insert is counted as such; its delete then
                // names no object and fails too.
                let id = match self.send(stack, q, Kind::Insert, &questions[q].insert) {
                    Some(Answer::Ingest { id }) => id as u32,
                    _ => u32::MAX,
                };
                self.send(stack, q, Kind::Delete, &client::delete_line(id));
            }
        }
    }

    fn send(&mut self, stack: &mut Stack, q: usize, kind: Kind, line: &str) -> Option<Answer> {
        let before: Vec<Snapshot> = self.registries.iter().map(Registry::snapshot).collect();
        let started = Instant::now();
        let t = self.spans.start();
        let response = stack.call(line, &mut self.spans);
        self.spans.end("request", t);
        let latency = started.elapsed();
        self.spans.req += 1;
        let work = (!before.is_empty()).then(|| {
            let mut work = Work::default();
            for (registry, before) in self.registries.iter().zip(&before) {
                work.add(&registry.snapshot().since(before));
            }
            work
        });
        let checked = self.checked.add(q, kind, &response);
        self.records.push(Record {
            kind,
            latency,
            cached: checked.as_ref().is_some_and(|(_, cached)| *cached),
            work,
        });
        checked.map(|(answer, _)| answer)
    }
}

/// Registry counters one call moved, summed over the stack's registries.
#[derive(Clone, Debug, Default)]
pub struct Work {
    pub logical_reads: u64,
    pub physical_reads: u64,
    pub node_visits: u64,
    pub bound_prunes: u64,
    pub candidates: u64,
    pub pruned: u64,
    pub queries_run: u64,
    pub nodes_expanded: u64,
    /// `core.phase_ns.{initial_rank, enumeration, verification}` sums.
    pub phase_ns: [u64; 3],
    /// `serve.request_ns` sum: time inside the server, queue included.
    pub server_ns: u64,
    pub scatter: u64,
    pub merge_ns: u64,
    pub merges: u64,
    pub tightenings: u64,
    /// `exec.task_ns` samples.
    pub tasks: HistSnapshot,
}

impl Work {
    fn add(&mut self, d: &Snapshot) {
        let sum = |names: &[&str]| names.iter().map(|n| d.counter(n)).sum::<u64>();
        let hist_sum = |name: &str| d.hist(name).map_or(0, |h| h.sum);
        self.logical_reads += sum(&["setr.pool.logical_reads", "kcr.pool.logical_reads"]);
        self.physical_reads += sum(&["setr.pool.physical_reads", "kcr.pool.physical_reads"]);
        self.node_visits += sum(&["setr.node_visits", "kcr.node_visits"]);
        self.bound_prunes += sum(&[
            "setr.nodes_pruned",
            "kcr.nodes_pruned",
            "kcr.prune.maxdom",
            "kcr.prune.mindom",
        ]);
        self.candidates += d.counter(names::CORE_CANDIDATES);
        self.pruned += sum(&[names::CORE_PRUNED_FILTER, names::CORE_PRUNED_BOUND]);
        self.queries_run += d.counter(names::CORE_QUERIES_RUN);
        self.nodes_expanded += d.counter(names::CORE_NODES_EXPANDED);
        for (slot, name) in [
            names::PHASE_NS_INITIAL_RANK,
            names::PHASE_NS_ENUMERATION,
            names::PHASE_NS_VERIFICATION,
        ]
        .into_iter()
        .enumerate()
        {
            self.phase_ns[slot] += hist_sum(name);
        }
        self.server_ns += hist_sum(names::SERVE_REQUEST_NS);
        self.scatter += d.counter(names::SHARD_SCATTER);
        self.merge_ns += hist_sum(names::SHARD_MERGE_NS);
        self.merges += d.hist(names::SHARD_MERGE_NS).map_or(0, |h| h.count);
        self.tightenings += d.counter(names::SHARD_BOUND_TIGHTENINGS);
        if let Some(h) = d.hist(names::EXEC_TASK_NS) {
            self.tasks.merge(h);
        }
    }

    /// Adds another call's work.
    pub fn merge(&mut self, o: &Work) {
        self.logical_reads += o.logical_reads;
        self.physical_reads += o.physical_reads;
        self.node_visits += o.node_visits;
        self.bound_prunes += o.bound_prunes;
        self.candidates += o.candidates;
        self.pruned += o.pruned;
        self.queries_run += o.queries_run;
        self.nodes_expanded += o.nodes_expanded;
        for i in 0..3 {
            self.phase_ns[i] += o.phase_ns[i];
        }
        self.server_ns += o.server_ns;
        self.scatter += o.scatter;
        self.merge_ns += o.merge_ns;
        self.merges += o.merges;
        self.tightenings += o.tightenings;
        self.tasks.merge(&o.tasks);
    }
}

/// A counter summed over all of a stack's registries.
pub fn counter(registries: &[Registry], name: &str) -> u64 {
    registries.iter().map(|r| r.snapshot().counter(name)).sum()
}
