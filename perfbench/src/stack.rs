//! The serving stack each workload runs, and the spans the benchmark
//! records around its calls into it.

use std::time::Instant;
use wnsk_core::{WhyNotEngine, DEFAULT_FANOUT};
use wnsk_data::GeneratedData;
use wnsk_obs::Registry;
use wnsk_serve::{protocol, Client, ServeEngine, Server, ServerConfig, ServerHandle};
use wnsk_shard::{Coordinator, CoordinatorConfig, ShardManifest};
use wnsk_storage::BufferPoolConfig;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-process engine whose pools hold every page of both trees.
    Fit,
    /// In-process engine with the paper's 4 MiB pools.
    Spill,
    /// Two-shard coordinator behind the NDJSON server, over loopback.
    Sharded,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Fit, Workload::Spill, Workload::Sharded];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fit => "whynot-fit",
            Workload::Spill => "whynot-spill",
            Workload::Sharded => "serve-sharded",
        }
    }

    /// Prefix of this workload's per-layer metrics.
    pub fn prefix(self) -> &'static str {
        match self {
            Workload::Fit => "fit",
            Workload::Spill => "spill",
            Workload::Sharded => "sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Buffer pool of each of `whynot-fit`'s two trees: 16,384 frames,
/// ten times the 1,657 pages of the larger tree, so no read misses.
pub const FIT_POOL_BYTES: usize = 64 << 20;
/// Shards of `serve-sharded`.
pub const SHARDS: usize = 2;
/// Partition seed of `serve-sharded`'s keyword-aware shard plan.
pub const PARTITION_SEED: u64 = 42;
/// Server workers and coordinator scatter threads of `serve-sharded`:
/// the 2 cores of the reference machine, with one client connection.
pub const THREADS: usize = 2;

/// A built serving stack. At most two exist at a time, so the size of
/// the larger variant does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Stack {
    /// Requests go through `parse_request`, `resolve` and `execute`
    /// in this process.
    Local(ServeEngine),
    /// Requests go over one loopback connection to a running server.
    Wire {
        handle: ServerHandle,
        client: Client,
    },
}

/// Builds `w`'s stack over a copy of `data`. `wire` puts the sharded
/// coordinator behind a server, as `serve-sharded` runs it; without it
/// the coordinator answers in-process, as the reference answers do.
pub fn build(w: Workload, data: &GeneratedData, wire: bool) -> Stack {
    let dataset = data.dataset.clone();
    let vocabulary = data.vocabulary.clone();
    let cache_entries = ServerConfig::default().cache_entries;
    let serve = match w {
        Workload::Fit | Workload::Spill => {
            let pool = BufferPoolConfig {
                capacity_bytes: pool_bytes(w),
                ..BufferPoolConfig::default()
            };
            let engine = WhyNotEngine::build_with(dataset, DEFAULT_FANOUT, pool)
                .expect("the benchmark dataset builds")
                .with_vocabulary(vocabulary);
            ServeEngine::new(engine, cache_entries)
        }
        Workload::Sharded => {
            let manifest = ShardManifest::plan(&dataset, SHARDS, PARTITION_SEED);
            let coordinator = Coordinator::new(
                dataset,
                manifest,
                CoordinatorConfig {
                    threads: THREADS,
                    ..CoordinatorConfig::default()
                },
            )
            .expect("the shard plan covers the dataset")
            .with_vocabulary(vocabulary);
            if wire {
                let handle = Server::start_sharded(
                    coordinator,
                    ServerConfig {
                        threads: THREADS,
                        ..ServerConfig::default()
                    },
                )
                .expect("the server binds a loopback port");
                let client =
                    Client::connect(handle.addr()).expect("the client connects over loopback");
                return Stack::Wire { handle, client };
            }
            ServeEngine::new_sharded(coordinator, cache_entries)
        }
    };
    Stack::Local(serve)
}

/// Pool bytes per tree of an in-process workload.
pub fn pool_bytes(w: Workload) -> usize {
    match w {
        Workload::Fit => FIT_POOL_BYTES,
        _ => BufferPoolConfig::default().capacity_bytes,
    }
}

impl Stack {
    fn serve(&self) -> &ServeEngine {
        match self {
            Stack::Local(serve) => serve,
            Stack::Wire { handle, .. } => handle.serve_engine(),
        }
    }

    /// Sends one request line and returns the response line.
    pub fn call(&mut self, line: &str, spans: &mut Spans) -> String {
        match self {
            Stack::Local(serve) => {
                let t = spans.start();
                let parsed = protocol::parse_request(line);
                spans.end("serve.parse", t);
                let parsed = match parsed {
                    Ok(p) => p,
                    Err(e) => return protocol::render_error(&e),
                };
                let t = spans.start();
                let resolved = serve.resolve(&parsed.request);
                spans.end("serve.resolve", t);
                let resolved = match resolved {
                    Ok(r) => r,
                    Err(e) => return protocol::render_error(&e),
                };
                let t = spans.start();
                let response = serve.execute(&resolved, parsed.deadline);
                spans.end("serve.execute", t);
                response
            }
            Stack::Wire { client, .. } => {
                let t = spans.start();
                let response = client.call(line);
                spans.end("client.call", t);
                response.unwrap_or_else(|e| protocol::render_error(&e.to_string()))
            }
        }
    }

    /// Every registry the stack publishes into: the engine's, or the
    /// coordinator's (`serve.*`, `shard.*`, `core.*`) followed by each
    /// shard engine's (pools and trees).
    pub fn registries(&self) -> Vec<Registry> {
        let serve = self.serve();
        let mut out = vec![serve.registry().clone()];
        if serve.is_sharded() {
            let coordinator = serve.coordinator();
            out.extend((0..coordinator.shard_count()).map(|s| coordinator.shard_registry(s)));
        }
        out
    }

    /// Live objects in the served dataset.
    pub fn live_objects(&self) -> usize {
        let serve = self.serve();
        if serve.is_sharded() {
            serve.coordinator().dataset().live_len()
        } else {
            serve.engine().dataset().live_len()
        }
    }

    /// Stops the server, if any, and waits for its threads.
    pub fn shutdown(self) {
        if let Stack::Wire { handle, client } = self {
            drop(client);
            handle.shutdown();
        }
    }
}

/// One recorded span: a call into the program, timed from the
/// benchmark's side. Every span but `request` is a child of the
/// `request` span with the same `req`.
pub struct Span {
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends; a no-op when off.
pub struct Spans {
    on: bool,
    origin: Instant,
    pub req: u32,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            req: 0,
            spans: Vec::new(),
        }
    }

    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    pub fn end(&mut self, name: &'static str, started: Option<Instant>) {
        if let Some(started) = started {
            let start_ns = started.duration_since(self.origin).as_nanos() as u64;
            let end_ns = self.origin.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                req: self.req,
                name,
                start_ns,
                end_ns,
            });
        }
    }
}
