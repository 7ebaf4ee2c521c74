//! End-to-end sharded serving: a coordinator-backed server must answer
//! the same wire script with the very response lines a single-engine
//! server sends — cache markers included, since both backends share one
//! cache path — while routing mutations by partition key. Also pins the
//! coordinator admin plane: the `/healthz` "shards" array, the
//! per-shard admin listeners, and one slow-log trace tree per sharded
//! why-not.

use std::time::Duration;
use wnsk_core::WhyNotEngine;
use wnsk_data::{generate, DatasetSpec};
use wnsk_obs::JsonValue;
use wnsk_serve::client::{delete_line, insert_line, topk_line, whynot_line};
use wnsk_serve::{http_get, Client, ObservabilityConfig, Server, ServerConfig, ServerHandle};
use wnsk_shard::{Coordinator, CoordinatorConfig, ShardManifest};

const K: usize = 3;
const ALPHA: f64 = 0.5;
const LAMBDA: f64 = 0.5;

fn single_server() -> ServerHandle {
    let data = generate(&DatasetSpec::tiny(7));
    let engine = WhyNotEngine::build_in_memory(data.dataset)
        .expect("tiny dataset builds")
        .with_vocabulary(data.vocabulary);
    Server::start(engine, ServerConfig::default()).unwrap()
}

fn sharded_server(shards: usize, threads: usize, config: ServerConfig) -> ServerHandle {
    let data = generate(&DatasetSpec::tiny(7));
    let manifest = ShardManifest::plan(&data.dataset, shards, 42);
    let coordinator = Coordinator::new(
        data.dataset,
        manifest,
        CoordinatorConfig {
            threads,
            ..CoordinatorConfig::default()
        },
    )
    .expect("partition covers the dataset")
    .with_vocabulary(data.vocabulary);
    Server::start_sharded(coordinator, config).unwrap()
}

/// The first `n` vocabulary names — both servers attach the same
/// seeded vocabulary, so names resolve identically on each side.
fn vocab_names(n: u32) -> Vec<String> {
    let data = generate(&DatasetSpec::tiny(7));
    (0..n)
        .map(|t| {
            data.vocabulary
                .name(wnsk_text::TermId(t))
                .expect("tiny vocabulary has this term")
                .to_string()
        })
        .collect()
}

/// A deterministic wire script mixing queries and mutations.
fn script(names: &[String]) -> Vec<String> {
    let kw = |ix: &[usize]| -> Vec<&str> { ix.iter().map(|&i| names[i].as_str()).collect() };
    let kws = [kw(&[0, 1]), kw(&[2, 3]), kw(&[1, 4])];
    let mut lines = Vec::new();
    for (i, kw) in kws.iter().enumerate() {
        let at = (0.2 + 0.25 * i as f64, 0.3 + 0.2 * i as f64);
        lines.push(topk_line(at, kw, K, ALPHA));
    }
    lines.push(insert_line((0.41, 0.43), &kw(&[0, 2])));
    lines.push(insert_line((0.61, 0.13), &kw(&[1, 3, 5])));
    for (i, kw) in kws.iter().enumerate() {
        let at = (0.2 + 0.25 * i as f64, 0.3 + 0.2 * i as f64);
        lines.push(topk_line(at, kw, K, ALPHA));
    }
    lines
}

#[test]
fn sharded_server_matches_single_server_line_for_line() {
    let names = vocab_names(6);
    for shards in [2usize, 4] {
        let single = single_server();
        let sharded = sharded_server(shards, 2, ServerConfig::default());
        let mut c_single = Client::connect(single.addr()).unwrap();
        let mut c_sharded = Client::connect(sharded.addr()).unwrap();
        for line in script(&names) {
            let a = c_single.call(&line).unwrap();
            let b = c_sharded.call(&line).unwrap();
            assert_eq!(a, b, "s={shards} diverged on line {line}");
        }

        // A why-not question both servers agree is missing: take an
        // object well outside the top-k under a live query.
        let (at, missing) = {
            let engine = single.serve_engine().engine();
            let q = wnsk_index::SpatialKeywordQuery::new(
                wnsk_geo::Point::new(0.45, 0.5),
                wnsk_text::KeywordSet::from_ids([0u32, 1]),
                20,
                ALPHA,
            );
            let ranking = engine.top_k(&q).unwrap();
            ((0.45, 0.5), ranking[10].0 .0)
        };
        // Asked twice: the repeat reuses the cached initial rank on both
        // sides (`rank_reused`), so the lines must match again.
        let kw = [names[0].as_str(), names[1].as_str()];
        let line = whynot_line(at, &kw, K, ALPHA, &[missing], LAMBDA, None);
        for ask in 0..2 {
            let a = c_single.call(&line).unwrap();
            let b = c_sharded.call(&line).unwrap();
            assert_eq!(a, b, "s={shards} why-not diverged on ask {ask}");
            let b = JsonValue::parse(&b).unwrap();
            assert_eq!(
                b.get("quality"),
                Some(&JsonValue::String("exact".into())),
                "sharded why-not must be exact: {b:?}"
            );
            assert_eq!(
                b.get("rank_reused"),
                Some(&JsonValue::Bool(ask == 1)),
                "the repeat reuses the rank: {b:?}"
            );
        }

        // A zero page-read budget degrades both sides identically.
        let capped = line.replacen('}', ",\"max_page_reads\":0}", 1);
        let a = c_single.call(&capped).unwrap();
        let b = c_sharded.call(&capped).unwrap();
        assert_eq!(a, b, "s={shards} degraded why-not diverged");
        assert!(a.contains("degraded"), "a zero page-read cap degrades: {a}");

        // Deletes route to the owning shard and both sides agree.
        let del = delete_line(missing);
        let a = c_single.call(&del).unwrap();
        let b = c_sharded.call(&del).unwrap();
        assert_eq!(a, b, "delete diverged");

        single.shutdown();
        sharded.shutdown();
    }
}

#[test]
fn sharded_healthz_and_per_shard_admin_planes() {
    let config = ServerConfig {
        admin_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let handle = sharded_server(2, 2, config);
    let admin = handle.admin_addr().expect("admin endpoint bound");
    let shard_admins = handle.shard_admin_addrs();
    assert_eq!(shard_admins.len(), 2, "one admin plane per shard");

    // Drive one mutation so epochs move.
    let names = vocab_names(1);
    let mut client = Client::connect(handle.addr()).unwrap();
    let ack = client
        .call_json(&insert_line((0.5, 0.5), &[names[0].as_str()]))
        .unwrap();
    assert_eq!(ack.get("ok"), Some(&JsonValue::Bool(true)), "{ack:?}");

    let (status, body) = http_get(&admin.to_string(), "/healthz").unwrap();
    assert_eq!(status, 200);
    let doc = JsonValue::parse(&body).unwrap();
    assert_eq!(doc.get("epoch").and_then(JsonValue::as_f64), Some(1.0));
    let rows = doc
        .get("shards")
        .and_then(JsonValue::as_array)
        .expect("healthz exposes a shards array");
    assert_eq!(rows.len(), 2);
    let epoch_sum: f64 = rows
        .iter()
        .map(|r| r.get("epoch").and_then(JsonValue::as_f64).unwrap())
        .sum();
    assert_eq!(epoch_sum, 1.0, "exactly one shard absorbed the insert");
    for (s, row) in rows.iter().enumerate() {
        assert_eq!(row.get("shard").and_then(JsonValue::as_f64), Some(s as f64));
        assert!(row.get("objects").is_some());
    }

    // The coordinator /metrics carries both serve.* and shard.*.
    let (status, body) = http_get(&admin.to_string(), "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("wnsk_serve_accepted"), "missing serve.*");
    assert!(body.contains("wnsk_shard_scatter"), "missing shard.*");

    // Each per-shard plane answers with its own registry and row.
    for (s, addr) in shard_admins.iter().enumerate() {
        let (status, body) = http_get(&addr.to_string(), "/metrics").unwrap();
        assert_eq!(status, 200, "shard {s} metrics");
        assert!(
            body.contains("wnsk_ingest_applied") || body.contains("wnsk_"),
            "shard {s} registry empty"
        );
        let (status, body) = http_get(&addr.to_string(), "/healthz").unwrap();
        assert_eq!(status, 200, "shard {s} healthz");
        let row = JsonValue::parse(&body).unwrap();
        assert_eq!(row.get("shard").and_then(JsonValue::as_f64), Some(s as f64));
    }
    handle.shutdown();
}

#[test]
fn sharded_whynot_files_one_trace_tree_and_observation_changes_nothing() {
    let observed = sharded_server(
        2,
        2,
        ServerConfig {
            admin_addr: Some("127.0.0.1:0".to_string()),
            observability: Some(ObservabilityConfig {
                slow_threshold: Duration::ZERO,
                window_interval: Duration::from_secs(3600),
                ..ObservabilityConfig::default()
            }),
            ..ServerConfig::default()
        },
    );
    let plain = sharded_server(2, 2, ServerConfig::default());
    let missing = {
        let coord = plain.serve_engine().coordinator();
        let q = wnsk_index::SpatialKeywordQuery::new(
            wnsk_geo::Point::new(0.45, 0.5),
            wnsk_text::KeywordSet::from_ids([0u32, 1]),
            20,
            ALPHA,
        );
        coord.top_k(&q).unwrap()[10].0 .0
    };
    let names = vocab_names(2);
    let kw = [names[0].as_str(), names[1].as_str()];
    let line = whynot_line((0.45, 0.5), &kw, K, ALPHA, &[missing], LAMBDA, None);
    let mut c_observed = Client::connect(observed.addr()).unwrap();
    let mut c_plain = Client::connect(plain.addr()).unwrap();
    for ask in 0..2 {
        assert_eq!(
            c_observed.call(&line).unwrap(),
            c_plain.call(&line).unwrap(),
            "observation changed the answer on ask {ask}"
        );
    }

    let admin = observed.admin_addr().unwrap().to_string();
    let (status, body) = http_get(&admin, "/slow").unwrap();
    assert_eq!(status, 200);
    let doc = JsonValue::parse(&body).unwrap();
    let entries = doc.get("entries").and_then(JsonValue::as_array).unwrap();
    assert_eq!(entries.len(), 2, "both asks slow-logged: {body}");
    for entry in entries {
        let trace = entry.get("trace").expect("each ask held the trace slot");
        let tree = trace.get("tree").and_then(JsonValue::as_array).unwrap();
        assert_eq!(tree.len(), 1, "one trace tree per request: {trace:?}");
        assert_eq!(
            tree[0].get("name").and_then(JsonValue::as_str),
            Some("kcr.query"),
            "{trace:?}"
        );
        let children = tree[0].get("children").and_then(JsonValue::as_array);
        assert!(
            children.is_some_and(|c| !c.is_empty()),
            "the sharded solver recorded its phases: {trace:?}"
        );
    }
    observed.shutdown();
    plain.shutdown();
}
