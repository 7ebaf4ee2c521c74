//! CLI-level sharded serving: `shard-plan` determinism, manifest
//! validation, the sharded `serve` session (address files written
//! atomically, per-shard admin planes), and `loadgen --mutate-ratio`
//! routed ingest.

use std::path::{Path, PathBuf};

fn run(args: &[&str]) -> Result<String, String> {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    wnsk_cli::run(&owned)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wnsk-cli-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate_dataset(dir: &Path) -> String {
    let data = dir.join("tiny.txt").to_str().unwrap().to_string();
    run(&[
        "generate", "--preset", "tiny", "--seed", "7", "--out", &data,
    ])
    .unwrap();
    data
}

#[test]
fn shard_plan_is_deterministic_and_serve_validates_the_manifest() {
    let dir = temp_dir("plan");
    let data = generate_dataset(&dir);
    let manifest = dir.join("manifest.json").to_str().unwrap().to_string();

    let summary = run(&[
        "shard-plan",
        "--data",
        &data,
        "--shards",
        "2",
        "--seed",
        "42",
        "--out",
        &manifest,
    ])
    .unwrap();
    assert!(summary.contains("planned 2 shards"), "{summary}");
    assert!(summary.contains("shard 0:") && summary.contains("shard 1:"));
    let first = std::fs::read(&manifest).unwrap();

    // Re-planning under the same seed reproduces the manifest bit for
    // bit; a different seed is allowed to differ but must still parse.
    run(&[
        "shard-plan",
        "--data",
        &data,
        "--shards",
        "2",
        "--seed",
        "42",
        "--out",
        &manifest,
    ])
    .unwrap();
    assert_eq!(first, std::fs::read(&manifest).unwrap());

    // A --shards override that contradicts the manifest is an error.
    let err = run(&[
        "serve",
        "--data",
        &data,
        "--manifest",
        &manifest,
        "--shards",
        "3",
    ])
    .unwrap_err();
    assert!(err.contains("contradicts"), "{err}");

    // Single-engine persistence flags are rejected in sharded mode.
    let err = run(&["serve", "--data", &data, "--shards", "2", "--wal", "x.wal"]).unwrap_err();
    assert!(err.contains("--shard-wal-dir"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mutate_ratio_must_be_a_fraction() {
    let dir = temp_dir("ratio");
    let data = generate_dataset(&dir);
    let err = run(&[
        "loadgen",
        "--addr",
        "127.0.0.1:1",
        "--data",
        &data,
        "--mutate-ratio",
        "1.5",
    ])
    .unwrap_err();
    assert!(err.contains("--mutate-ratio"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_serve_session_with_routed_ingest() {
    let dir = temp_dir("serve");
    let data = generate_dataset(&dir);
    let addr_file = dir.join("addr.txt");
    let admin_file = dir.join("admin.txt");
    let shard_prefix = dir.join("shard-admin-");
    let wal_dir = dir.join("walds");

    // The server runs in a background thread for a bounded duration;
    // the address files (written via atomic rename) are the handshake.
    let serve_args: Vec<String> = [
        "serve",
        "--data",
        &data,
        "--shards",
        "2",
        "--shard-wal-dir",
        wal_dir.to_str().unwrap(),
        "--admin-addr",
        "127.0.0.1:0",
        "--addr-file",
        addr_file.to_str().unwrap(),
        "--admin-addr-file",
        admin_file.to_str().unwrap(),
        "--shard-admin-addr-file",
        shard_prefix.to_str().unwrap(),
        "--duration-ms",
        "6000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let server = std::thread::spawn(move || wnsk_cli::run(&serve_args));

    let addr = {
        let mut addr = None;
        for _ in 0..100 {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                addr = Some(text);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        addr.expect("server never wrote --addr-file")
    };
    // Atomic rename means a visible file is always complete.
    assert!(addr.parse::<std::net::SocketAddr>().is_ok(), "{addr}");

    let report = run(&[
        "loadgen",
        "--addr",
        &addr,
        "--data",
        &data,
        "--requests",
        "60",
        "--pool",
        "24",
        "--mutate-ratio",
        "0.25",
    ])
    .unwrap();
    assert!(report.contains("errors 0"), "{report}");
    assert!(report.contains("60 requests"), "{report}");

    // The admin scrape check passes against the coordinator plane, and
    // each shard got its own (complete) address file.
    let admin = std::fs::read_to_string(&admin_file).unwrap();
    let check = run(&["top", "--admin", &admin, "--check"]).unwrap();
    assert!(check.contains("scrape OK"), "{check}");
    for s in 0..2 {
        let path = format!("{}{s}", shard_prefix.to_str().unwrap());
        let shard_addr = std::fs::read_to_string(&path).unwrap();
        assert!(
            shard_addr.parse::<std::net::SocketAddr>().is_ok(),
            "shard {s}: {shard_addr}"
        );
    }

    let summary = server.join().unwrap().unwrap();
    assert!(summary.contains("accepted"), "{summary}");

    // Mutations were routed and logged: a cold restart over the same
    // WAL directory recovers without error (the recovery banner itself
    // goes to stderr) and serves again.
    let restart = run(&[
        "serve",
        "--data",
        &data,
        "--shards",
        "2",
        "--shard-wal-dir",
        wal_dir.to_str().unwrap(),
        "--duration-ms",
        "50",
    ])
    .unwrap();
    assert!(restart.contains("served"), "{restart}");
    let _ = std::fs::remove_dir_all(&dir);
}
