//! The benchmark's inputs: one EURO-like dataset, a why-not question
//! list drawn from `--seed`, and the request lines each workload sends.
//! The program under test only ever sees the generated lines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wnsk_data::workload::{generate_item, WorkloadSpec};
use wnsk_data::zipf::Zipf;
use wnsk_data::{DatasetSpec, GeneratedData};
use wnsk_serve::client;

/// EURO-like scale: 1,620 objects, whose KcR-tree (1,657 pages) does
/// not fit the paper's 4 MiB pool (1,024 frames) but fits a large one.
pub const SCALE: f64 = 0.01;
/// Penalty trade-off λ of every why-not question (§VII-A3 default).
pub const LAMBDA: f64 = 0.5;
/// Distinct questions per seed. Well above the answer cache's 256
/// entries, so replaying the list in order never hits the cache.
pub const LIST_LEN: usize = 1024;

/// One why-not question as the wire lines a user would send for it.
pub struct Question {
    /// The original top-k query, asked first.
    pub topk: String,
    /// The why-not question about the object missing from that top-k.
    pub whynot: String,
    /// An insert of an object at the query's location with its
    /// keywords: the write half of a paired insert/delete.
    pub insert: String,
}

/// The EURO-like dataset every workload serves. Its generator seed is
/// fixed, so setup cost does not vary with `--seed`.
pub fn dataset() -> GeneratedData {
    wnsk_data::generate(&DatasetSpec::euro_like(SCALE))
}

/// The paper-default question list (§VII-A3: k₀ = 10, 4 keywords,
/// α = 0.5, missing object at rank 51) for `seed`.
pub fn questions(data: &GeneratedData, seed: u64, n: usize) -> Vec<Question> {
    let mut out = Vec::with_capacity(n);
    let mut item_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    while out.len() < n {
        item_seed = item_seed.wrapping_add(0x9E37_79B9);
        let Some(item) = generate_item(&data.dataset, &WorkloadSpec::paper_default(item_seed))
        else {
            continue;
        };
        let q = &item.query;
        let names: Option<Vec<&str>> = q.doc.iter().map(|t| data.vocabulary.name(t)).collect();
        let Some(names) = names else { continue };
        let at = (q.loc.x, q.loc.y);
        let missing: Vec<u32> = item.missing.iter().map(|m| m.0).collect();
        out.push(Question {
            topk: client::topk_line(at, &names, q.k, q.alpha),
            whynot: client::whynot_line(at, &names, q.k, q.alpha, &missing, LAMBDA, None),
            insert: client::insert_line(at, &names),
        });
    }
    out
}

/// One step of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Ask question `i`: its top-k, then its why-not.
    Ask(usize),
    /// Insert an object for question `i`, then delete it again.
    Write(usize),
}

/// Probability that a serve-sharded ask is a question not asked
/// before; the rest repeat a recent one. With a write every
/// [`WRITE_INTERVAL`] this sets the top-k cache hit share near 0.67, so
/// `topk_p50_ms` lands among hits and `topk_p90_ms` among misses.
pub const NEW_SHARE: f64 = 0.3;
/// Zipf exponent over recency ranks of repeated questions.
pub const ZIPF_S: f64 = 2.0;
/// How many recent questions a repeat may reach back to.
pub const RECENT: usize = 8;
/// A paired insert/delete is sent every this long in a measured run:
/// the same number of writes per run however fast the reads go. Each
/// write moves the epoch, which empties the answer cache; at ~50 asks
/// between writes that costs few hits, so the hit share barely moves
/// when the reads get faster or slower.
pub const WRITE_INTERVAL: std::time::Duration = std::time::Duration::from_millis(250);
/// Asks per paired write in the serve-sharded ledger slice, whose
/// writes must not depend on timing.
pub const WRITE_EVERY: usize = 20;

/// The serve-sharded asks: new questions in list order, and repeats of
/// recent ones with a Zipf skew over recency (an LRU stack model, so
/// every question carries a similar weight in the latency sample).
/// Endless and seeded.
pub struct Mix {
    rng: StdRng,
    zipf: Zipf,
    recent: Vec<usize>,
    next_new: usize,
    len: usize,
}

impl Mix {
    /// The mix over a question list of `len` questions.
    pub fn new(seed: u64, len: usize) -> Mix {
        Mix {
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_5EED),
            zipf: Zipf::new(RECENT, ZIPF_S),
            recent: Vec::with_capacity(RECENT),
            next_new: 0,
            len,
        }
    }
}

impl Iterator for Mix {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let r = self.zipf.sample(&mut self.rng);
        let q = if r >= self.recent.len() || self.rng.gen::<f64>() < NEW_SHARE {
            let q = self.next_new % self.len;
            self.next_new += 1;
            self.recent.truncate(RECENT - 1);
            q
        } else {
            self.recent.remove(r)
        };
        self.recent.insert(0, q);
        Some(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_starts_with_the_list_head_and_repeats() {
        let a: Vec<usize> = Mix::new(3, 100).take(500).collect();
        assert_eq!(a, Mix::new(3, 100).take(500).collect::<Vec<_>>());
        assert_eq!(a[0], 0);
        let distinct = a.iter().collect::<std::collections::HashSet<_>>().len();
        assert!(
            distinct > 50 && distinct < 200,
            "{distinct} distinct of 500"
        );
    }
}
