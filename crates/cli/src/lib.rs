//! `wnsk` — command-line why-not spatial keyword querying.
//!
//! Subcommands:
//!
//! ```text
//! wnsk generate --preset euro|gn|tiny --scale S --out data.txt [--seed N]
//! wnsk stats    --data data.txt
//! wnsk build    --data data.txt --setr setr.db --kcr kcr.db [--fanout 100]
//! wnsk topk     --data data.txt --setr setr.db --at X,Y --keywords a,b
//!               [--k 10] [--alpha 0.5] [--metrics]
//! wnsk whynot   --data data.txt --setr setr.db --kcr kcr.db --at X,Y
//!               --keywords a,b --missing ID[,ID…]
//!               [--k 10] [--alpha 0.5] [--lambda 0.5]
//!               [--algo bs|advanced|kcr] [--approx T] [--threads N]
//!               [--kernel scalar|bitset]
//!               [--metrics] [--explain[=tree|json]] [--trace-sample N]
//!               [--metrics-export PATH|-]
//!               [--deadline-ms N] [--max-page-reads N]
//! wnsk ingest   --data data.txt --wal wal.db --ops ops.txt [--metrics]
//! wnsk serve    --data data.txt [--wal wal.db] [--addr HOST:PORT]
//!               [--threads N] [--queue-depth N] [--cache-entries N]
//!               [--duration-ms N] [--worker-delay-ms N] [--addr-file PATH]
//!               [--admin-addr HOST:PORT] [--admin-addr-file PATH]
//!               [--slow-threshold-ms N] [--slo-ms N]
//!               [--metrics-export PATH|-] [--metrics-export-interval-ms N]
//! wnsk top      --admin HOST:PORT [--interval-ms N] [--iterations N]
//!               [--check] [--metrics-out PATH]
//! wnsk loadgen  --addr HOST:PORT --data data.txt [--connections N]
//!               [--requests N] [--qps Q] [--zipf S] [--pool N]
//!               [--k N] [--alpha A] [--seed N] [--record PATH]
//! wnsk fuzz     --seed N --cases N [--emit-dir DIR] [--inject-bug rank]
//!               [--shrink-limit N] [--metrics]
//! wnsk corpus   --dir DIR
//! ```
//!
//! `serve` runs the embedded query-serving layer of [`wnsk_serve`]: a
//! warm engine behind a newline-delimited-JSON TCP endpoint with a
//! bounded admission queue and a cross-query answer cache. `loadgen` is
//! its closed-loop benchmark client (zipfian query mix, target QPS,
//! latency percentiles). `loadgen --record` additionally writes the
//! exact request lines a run sent, in a stable order; `serve --replay`
//! re-executes such a session in-process and verifies every response
//! is bit-identical to a cache-bypassing recomputation.
//!
//! `serve --admin-addr` additionally starts the HTTP admin endpoint of
//! [`wnsk_serve::admin`] (`/metrics`, `/healthz`, `/slow`, `/flight`)
//! and enables the observability plane: flight recorder, slow-query
//! log (threshold `--slow-threshold-ms`), rolling 1s/10s/60s latency
//! windows and the `--slo-ms` burn counter. `top` is its terminal
//! client — a polling dashboard (qps, percentiles, queue depth, cache
//! hit rate, shed rate, slowest recent queries), or with `--check` a
//! one-shot CI scrape validator that fails on unparseable Prometheus
//! text, missing required metric families, or an unhealthy `/healthz`
//! (`--metrics-out` saves the raw scrape as an artifact).
//! `--metrics-export-interval-ms` republishes the live registry to the
//! `--metrics-export` file on that cadence via write-tmp-then-rename,
//! so file-based scrapers never observe a torn exposition.
//!
//! `fuzz` is the differential fuzzing harness of [`wnsk_fuzz`]: seeded
//! random cases run through the full solver × thread × kernel × opt
//! matrix (and the WAL ingest/recovery cycle) against the sequential
//! BS oracle; divergences are delta-debug shrunk and, with
//! `--emit-dir`, written as self-contained regression files. `corpus`
//! replays such a directory — the committed set lives in
//! `tests/corpus/` and is run by the CI corpus-replay lane.
//!
//! `ingest` applies a mutation script (`insert X Y kw[,kw…]`,
//! `delete ID`, `update ID kw[,kw…]`; `#` comments) through the
//! write-ahead log: the WAL is recovered first — replaying every
//! previously committed mutation and truncating any torn tail — then
//! the script is appended as one group-committed batch. `serve --wal`
//! recovers the same log at startup and routes the server's `insert` /
//! `delete` requests through it, so a crashed server resumes at the
//! exact epoch its durable log proves. `--metrics` on `ingest` reports
//! the `wal.*` counters (appends, commits, recovered records, truncated
//! bytes) next to `ingest.applied`.
//!
//! `--metrics` appends the unified observability report: per-phase wall
//! time, SetR/KcR node visits, Theorem 2/3 prune counts, and buffer-pool
//! logical/physical reads, all drawn from one [`wnsk_obs::Registry`].
//!
//! `--explain` additionally traces the query and renders its span tree
//! (per-span durations, node visits, Theorem 2/3 prune events, cache
//! hits); `--explain=json` emits the same tree as JSON.
//! `--metrics-export` writes the query's registry delta as Prometheus
//! text format to a file, or into the output with `-`.
//!
//! Datasets are the plain-text format of [`wnsk_data::io`]; indexes are
//! the file-backed page stores the library reads through its buffer pool.

mod args;
mod commands;
mod export;

pub use args::ParsedArgs;

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
usage: wnsk <command> [options]

commands:
  generate  --preset euro|gn|tiny --scale S --out FILE [--seed N]
  stats     --data FILE
  build     --data FILE --setr FILE --kcr FILE [--fanout N]
  topk      --data FILE --setr FILE --at X,Y --keywords a,b [--k N] [--alpha A]
            [--metrics] [--metrics-export PATH|-]
  whynot    --data FILE --setr FILE --kcr FILE --at X,Y --keywords a,b
            --missing ID[,ID...] [--k N] [--alpha A] [--lambda L]
            [--algo bs|advanced|kcr] [--approx T] [--threads N] [--metrics]
            [--kernel scalar|bitset]
            [--explain[=tree|json]] [--trace-sample N]
            [--metrics-export PATH|-]
            [--deadline-ms N] [--max-page-reads N]
  ingest    --data FILE --wal FILE --ops FILE [--metrics]
  serve     --data FILE [--wal FILE] [--addr HOST:PORT] [--threads N]
            [--queue-depth N] [--cache-entries N] [--duration-ms N]
            [--worker-delay-ms N] [--addr-file PATH] [--metrics-export PATH|-]
            [--metrics-export-interval-ms N] [--replay SESSION]
            [--admin-addr HOST:PORT] [--admin-addr-file PATH]
            [--slow-threshold-ms N] [--slo-ms N]
            [--shards N | --manifest FILE] [--shard-seed N]
            [--shard-wal-dir DIR] [--shard-admin-addr-file PREFIX]
  shard-plan --data FILE --shards N --out FILE [--seed N]
  top       --admin HOST:PORT [--interval-ms N] [--iterations N]
            [--check] [--metrics-out PATH]
  loadgen   --addr HOST:PORT --data FILE [--connections N] [--requests N]
            [--qps Q] [--zipf S] [--pool N] [--k N] [--alpha A] [--seed N]
            [--record PATH] [--mutate-ratio F]
  fuzz      --seed N --cases N [--emit-dir DIR] [--inject-bug rank]
            [--shrink-limit N] [--metrics]
  corpus    --dir DIR

--metrics appends the per-query observability report (phase wall times,
node visits, prune counts, buffer-pool I/O).
--explain traces the query and renders its span tree (durations, prune
events, cache hits); --explain=json emits the same tree as JSON.
--metrics-export writes the query's metrics as Prometheus text to a
file ('-' = into the output).
--threads N runs the solver on a work-stealing pool of N workers; the
answer is identical for every N.
--kernel picks the set-arithmetic kernel (default bitset); both kernels
return bit-identical answers and work metrics — only wall time changes
(see docs/KERNELS.md).
--deadline-ms / --max-page-reads cap the query budget (0 = unlimited);
an exhausted budget degrades to the approximate answer and the output
reports the answer quality.
--wal points at the write-ahead log: ingest recovers it, appends the ops
file as one group commit, and reports the recovery (records replayed,
bytes truncated, epoch reached); serve --wal recovers at startup and
logs the insert/delete requests it serves.
loadgen --record writes the session's request lines; serve --replay
re-executes such a session in-process and fails unless every response is
bit-identical to a cache-bypassing recomputation.
serve --admin-addr starts the HTTP admin endpoint (/metrics /healthz
/slow /flight) and enables the flight recorder, slow-query log and
rolling SLO windows; top polls it as a live dashboard, and top --check
validates one scrape for CI (--metrics-out saves the raw text).
serve --shards N (or --manifest FILE from shard-plan) runs the
scatter-gather coordinator: one dataset, a SetR/KcR index pair per
shard, mutations routed by keyword affinity, answers merged
bit-identically to a single engine. --shard-wal-dir keeps one route log
(DIR/route.wal) that a restart replays, and --shard-admin-addr-file
PREFIX writes each shard's admin address to PREFIX<i> (all address
files land via tmp-file + atomic rename).
loadgen --mutate-ratio F mixes that fraction of routed inserts into
the request pool (insert-only, so zipf replays stay valid).
fuzz cross-checks the full solver matrix against the sequential BS
oracle on seeded random cases, shrinks divergences and (with --emit-dir)
writes them as regression files; corpus replays such a directory
(tests/corpus is the committed set).";

/// Dispatches a full command line (without the program name) and returns
/// the text to print.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    let parsed = ParsedArgs::parse(rest)?;
    match command.as_str() {
        "generate" => commands::generate(&parsed),
        "stats" => commands::stats(&parsed),
        "build" => commands::build(&parsed),
        "topk" => commands::topk(&parsed),
        "whynot" => commands::whynot(&parsed),
        "ingest" => commands::ingest(&parsed),
        "serve" => commands::serve(&parsed),
        "shard-plan" => commands::shard_plan(&parsed),
        "top" => commands::top(&parsed),
        "loadgen" => commands::loadgen(&parsed),
        "fuzz" => commands::fuzz(&parsed),
        "corpus" => commands::corpus(&parsed),
        other => Err(format!("unknown command '{other}'")),
    }
}
