//! Coordinator bit-identity: scatter-gather answers merged across
//! s ∈ {1, 2, 4} shards at t ∈ {1, 2, 4} scatter threads — and why-nots
//! over the shard forest at t ∈ {1, 2, 4} solver threads — must equal
//! the single-shard engine's answers *exactly* — rank lists bit for bit,
//! refined queries field for field, penalties by their `f64` bit
//! patterns — including under a churn script, after recovering from the
//! coordinator's route log (clean, torn, or written beside the per-shard
//! WALs of an older layout), and when a spent budget degrades the answer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Duration;
use wnsk_core::{
    AnswerQuality, KcrOptions, Mutation, QueryBudget, RefinedQuery, WhyNotEngine, WhyNotQuestion,
};
use wnsk_geo::{Point, WorldBounds};
use wnsk_index::{Dataset, ObjectId, SpatialKeywordQuery, SpatialObject};
use wnsk_shard::{Coordinator, CoordinatorConfig, ShardManifest};
use wnsk_storage::{RecoveryReport, PAGE_SIZE};
use wnsk_text::{Kernel, KeywordSet};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn random_dataset(n: usize, vocab: u32, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let objects = (0..n)
        .map(|_| {
            let n_terms = rng.gen_range(1..=5);
            let doc = KeywordSet::from_ids((0..n_terms).map(|_| rng.gen_range(0..vocab)));
            SpatialObject {
                id: ObjectId(0),
                loc: Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
                doc,
            }
        })
        .collect();
    Dataset::new(objects, WorldBounds::unit())
}

fn random_query(vocab: u32, seed: u64) -> SpatialKeywordQuery {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    SpatialKeywordQuery::new(
        Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
        KeywordSet::from_ids((0..rng.gen_range(2..=4)).map(|_| rng.gen_range(0..vocab))),
        5,
        0.5,
    )
}

/// A question whose missing object genuinely sits below the top-k.
fn make_question(ds: &Dataset, vocab: u32, seed: u64) -> Option<WhyNotQuestion> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let q = random_query(vocab, seed);
    let mut scored: Vec<(ObjectId, f64)> =
        ds.live_objects().map(|o| (o.id, ds.score(o, &q))).collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    let lo = q.k + 2;
    let hi = (q.k + 40).min(scored.len());
    for _ in 0..100 {
        let id = scored[rng.gen_range(lo..hi)].0;
        if ds.rank_of(id, &q) > q.k {
            return Some(WhyNotQuestion::new(q, vec![id], 0.5));
        }
    }
    None
}

fn coordinator(ds: &Dataset, shards: usize, threads: usize) -> Coordinator {
    let manifest = ShardManifest::plan(ds, shards, 42);
    Coordinator::new(
        ds.clone(),
        manifest,
        CoordinatorConfig {
            threads,
            ..CoordinatorConfig::default()
        },
    )
    .unwrap()
}

fn assert_refined_identical(base: &RefinedQuery, other: &RefinedQuery, label: &str) {
    assert_eq!(base.doc, other.doc, "{label}: refined keyword set diverged");
    assert_eq!(base.k, other.k, "{label}: refined k diverged");
    assert_eq!(base.rank, other.rank, "{label}: rank diverged");
    assert_eq!(
        base.edit_distance, other.edit_distance,
        "{label}: edit distance diverged"
    );
    assert_eq!(
        base.penalty.to_bits(),
        other.penalty.to_bits(),
        "{label}: penalty bits diverged ({} vs {})",
        base.penalty,
        other.penalty
    );
}

fn assert_ranklist_identical(base: &[(ObjectId, f64)], other: &[(ObjectId, f64)], label: &str) {
    assert_eq!(
        base.len(),
        other.len(),
        "{label}: rank list length diverged"
    );
    for (i, (b, o)) in base.iter().zip(other).enumerate() {
        assert_eq!(b.0, o.0, "{label}: rank {i} object diverged");
        assert_eq!(
            b.1.to_bits(),
            o.1.to_bits(),
            "{label}: rank {i} score bits diverged"
        );
    }
}

#[test]
fn coordinator_topk_is_bit_identical_to_single_engine() {
    let vocab = 40;
    for seed in 0..4u64 {
        let ds = random_dataset(300, vocab, 7000 + seed);
        let engine = WhyNotEngine::build_in_memory(ds.clone()).unwrap();
        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let coord = coordinator(&ds, shards, threads);
                for qseed in 0..5u64 {
                    let q = random_query(vocab, 8000 + seed * 100 + qseed);
                    let base = engine.top_k(&q).unwrap();
                    let merged = coord.top_k(&q).unwrap();
                    assert_ranklist_identical(
                        &base,
                        &merged,
                        &format!("topk s={shards} t={threads} seed={seed}/{qseed}"),
                    );
                }
            }
        }
    }
}

#[test]
fn coordinator_whynot_matches_every_kernel_and_solver() {
    let vocab = 40;
    let mut covered = 0;
    for seed in 0..5u64 {
        let ds = random_dataset(300, vocab, 1000 + seed);
        let Some(question) = make_question(&ds, vocab, 2000 + seed) else {
            continue;
        };
        covered += 1;
        let engine = WhyNotEngine::build_in_memory(ds.clone()).unwrap();
        let advanced = engine.answer(&question).unwrap();
        for kernel in Kernel::ALL {
            let kcr = engine
                .answer_kcr(
                    &question,
                    KcrOptions {
                        kernel,
                        ..KcrOptions::default()
                    },
                )
                .unwrap();
            assert_refined_identical(
                &advanced.refined,
                &kcr.refined,
                &format!("kcr kernel={kernel:?} seed={seed}"),
            );
        }
        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let coord = coordinator(&ds, shards, threads);
                for solver_threads in THREAD_COUNTS {
                    for kernel in Kernel::ALL {
                        let opts = KcrOptions {
                            threads: solver_threads,
                            kernel,
                            ..KcrOptions::default()
                        };
                        let merged = coord.answer_kcr(&question, opts).unwrap();
                        let label = format!(
                            "whynot s={shards} t={threads} solver t={solver_threads} \
                             kernel={kernel:?} seed={seed}"
                        );
                        assert_refined_identical(&advanced.refined, &merged.refined, &label);
                        assert_eq!(
                            advanced.stats.initial_rank, merged.stats.initial_rank,
                            "{label}: initial rank R(M, q) diverged"
                        );
                        assert_eq!(merged.quality, AnswerQuality::Exact, "{label}");
                    }
                }
            }
        }
    }
    assert!(covered >= 3, "only {covered} seeds produced a workload");
}

#[test]
fn coordinator_degrades_like_the_single_engine_on_a_spent_budget() {
    let vocab = 40;
    let mut covered = 0;
    for seed in 0..3u64 {
        let ds = random_dataset(300, vocab, 1000 + seed);
        let Some(question) = make_question(&ds, vocab, 2000 + seed) else {
            continue;
        };
        covered += 1;
        let engine = WhyNotEngine::build_in_memory(ds.clone()).unwrap();
        // Both with and without a rank hint: a zero deadline breaches
        // in the initial-rank scan, or (hinted) before the first layer.
        let initial_rank = engine.answer(&question).unwrap().stats.initial_rank as usize;
        for hint in [None, Some(initial_rank)] {
            let opts = KcrOptions {
                budget: QueryBudget::unlimited().with_deadline(Duration::ZERO),
                initial_rank_hint: hint,
                ..KcrOptions::default()
            };
            let base = engine.answer_kcr(&question, opts).unwrap();
            assert!(
                base.quality.is_degraded(),
                "seed={seed}: {:?}",
                base.quality
            );
            for shards in SHARD_COUNTS {
                let coord = coordinator(&ds, shards, 2);
                let merged = coord.answer_kcr(&question, opts).unwrap();
                let label = format!("degraded s={shards} hint={hint:?} seed={seed}");
                assert_eq!(base.quality, merged.quality, "{label}: quality diverged");
                assert_refined_identical(&base.refined, &merged.refined, &label);
            }
        }
    }
    assert!(covered >= 2, "only {covered} seeds produced a workload");
}

/// A seeded churn script: inserts, deletes and doc updates applied in
/// lock-step to a single engine and to the coordinator (which routes
/// them by partition key).
fn churn_script(ds: &Dataset, vocab: u32, steps: usize, seed: u64) -> Vec<Mutation> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A9);
    let mut live: Vec<u32> = ds.live_objects().map(|o| o.id.0).collect();
    let mut next_id = ds.len() as u32;
    let mut script = Vec::with_capacity(steps);
    for _ in 0..steps {
        let roll = rng.gen_range(0..10);
        if roll < 5 || live.len() < 10 {
            let n_terms = rng.gen_range(1..=5);
            script.push(Mutation::Insert {
                loc: Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
                doc: KeywordSet::from_ids((0..n_terms).map(|_| rng.gen_range(0..vocab))),
            });
            live.push(next_id);
            next_id += 1;
        } else if roll < 8 {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            script.push(Mutation::Remove {
                id: ObjectId(victim),
            });
        } else {
            let target = live[rng.gen_range(0..live.len())];
            let n_terms = rng.gen_range(1..=5);
            script.push(Mutation::UpdateDoc {
                id: ObjectId(target),
                doc: KeywordSet::from_ids((0..n_terms).map(|_| rng.gen_range(0..vocab))),
            });
        }
    }
    script
}

#[test]
fn coordinator_stays_identical_under_churn() {
    let vocab = 40;
    let seed = 31u64;
    let ds = random_dataset(200, vocab, 9000 + seed);
    let script = churn_script(&ds, vocab, 60, seed);
    let mut engine = WhyNotEngine::build_in_memory(ds.clone()).unwrap();
    for shards in SHARD_COUNTS {
        let mut coord = coordinator(&ds, shards, 2);
        for m in &script {
            let gid = coord.ingest(m).unwrap();
            if shards == SHARD_COUNTS[0] {
                engine.ingest(m).unwrap();
            }
            if let Mutation::Insert { .. } = m {
                // Global ids assigned by the coordinator match the
                // single engine's slot assignment.
                assert!(coord.dataset().is_live(gid));
            }
        }
        assert_eq!(coord.epoch(), engine.epoch(), "epoch parity s={shards}");
        let churned = coord.dataset().clone();
        for qseed in 0..4u64 {
            let q = random_query(vocab, 9100 + qseed);
            assert_ranklist_identical(
                &engine.top_k(&q).unwrap(),
                &coord.top_k(&q).unwrap(),
                &format!("churn topk s={shards} qseed={qseed}"),
            );
        }
        if let Some(question) = make_question(&churned, vocab, 9200 + seed) {
            let base = engine.answer(&question).unwrap();
            let merged = coord.answer_kcr(&question, KcrOptions::default()).unwrap();
            assert_refined_identical(
                &base.refined,
                &merged.refined,
                &format!("churn whynot s={shards}"),
            );
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wnsk-shard-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The corpus and 2-shard plan every recovery test writes over.
fn recovery_base() -> (Dataset, ShardManifest) {
    let ds = random_dataset(150, 40, 77);
    let manifest = ShardManifest::plan(&ds, 2, 42);
    (ds, manifest)
}

/// Recovers a fresh coordinator from `dir` and checks it against a
/// single engine fed `applied`: same epoch, bit-identical top-k and
/// why-not answers.
fn assert_recovers_to(dir: &Path, applied: &[Mutation]) -> RecoveryReport {
    let (ds, manifest) = recovery_base();
    let mut coord = Coordinator::new(
        ds.clone(),
        manifest,
        CoordinatorConfig {
            threads: 2,
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let report = coord.attach_wal_dir(dir).unwrap();
    assert_eq!(report.records_replayed, applied.len() as u64);
    let mut engine = WhyNotEngine::build_in_memory(ds).unwrap();
    for m in applied {
        engine.ingest(m).unwrap();
    }
    assert_eq!(coord.epoch(), engine.epoch(), "recovered epoch");
    for qseed in 0..4u64 {
        let q = random_query(40, 600 + qseed);
        assert_ranklist_identical(
            &engine.top_k(&q).unwrap(),
            &coord.top_k(&q).unwrap(),
            &format!("recovered topk qseed={qseed}"),
        );
    }
    let question = make_question(coord.dataset(), 40, 601).expect("a recovered question");
    let base = engine.answer(&question).unwrap();
    let merged = coord.answer_kcr(&question, KcrOptions::default()).unwrap();
    assert_refined_identical(&base.refined, &merged.refined, "recovered whynot");
    report
}

/// Runs `script` through a durable coordinator under `dir`, then drops it.
fn ingest_durably(dir: &Path, script: &[Mutation]) {
    let (ds, manifest) = recovery_base();
    let mut coord = Coordinator::new(ds, manifest, CoordinatorConfig::default()).unwrap();
    let report = coord.attach_wal_dir(dir).unwrap();
    assert_eq!(report.records_replayed, 0);
    for m in script {
        coord.ingest(m).unwrap();
    }
    assert_eq!(coord.epoch(), script.len() as u64);
}

#[test]
fn route_log_recovers_the_whole_stream() {
    let (ds, _) = recovery_base();
    let script = churn_script(&ds, 40, 40, 77);
    let dir = temp_dir("recover");
    ingest_durably(&dir, &script);
    let report = assert_recovers_to(&dir, &script);
    assert_eq!(report.bytes_truncated, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_route_record_recovers_the_committed_prefix() {
    let (ds, _) = recovery_base();
    let script = churn_script(&ds, 40, 40, 77);
    let dir = temp_dir("torn");
    ingest_durably(&dir, &script);
    // Every commit starts a fresh page, so the last page holds only the
    // final record: lose its second half, as a power cut mid-write does.
    let path = dir.join("route.wal");
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - PAGE_SIZE;
    bytes[last + PAGE_SIZE / 2..].fill(0);
    std::fs::write(&path, bytes).unwrap();
    let report = assert_recovers_to(&dir, &script[..script.len() - 1]);
    assert!(report.bytes_truncated > 0, "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `tests/fixtures/parent-wal` was written by the coordinator of commit
/// c6f1452, which kept a `shard-<i>.wal` per shard beside `route.wal`:
/// `recovery_base()` ingesting `churn_script(&ds, 40, 8, 9)` (inserts,
/// removes and updates on both shards). The route log alone restores it.
#[test]
fn route_log_alone_recovers_a_directory_with_per_shard_wals() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent-wal");
    let dir = temp_dir("parent-wal");
    std::fs::create_dir_all(&dir).unwrap();
    let mut names = Vec::new();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        names.push(entry.file_name().into_string().unwrap());
    }
    names.sort();
    assert_eq!(names, ["route.wal", "shard-0.wal", "shard-1.wal"]);
    let (ds, _) = recovery_base();
    assert_recovers_to(&dir, &churn_script(&ds, 40, 8, 9));
    let _ = std::fs::remove_dir_all(&dir);
}
