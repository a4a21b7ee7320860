//! The seeded batch generator of the `serve_batch` workload.
//!
//! Every batch mixes four kinds of job in fixed counts and a fixed slot
//! layout:
//!
//! - **repeats** of a query answered in an *earlier* batch. The loop is
//!   closed (a batch is submitted only after the previous one is done),
//!   so such a query is always in the cache when the repeat runs: the
//!   number of cache hits is known before the run starts;
//! - **fresh thresholds** on sequential pairs an earlier batch already
//!   loaded, which the server answers on its warm probe engines;
//! - **fresh pairs**: a word-level metric of a pair never asked before;
//! - **characterize** jobs on components never characterized before.
//!
//! Fresh jobs never repeat a query of the run, so each one is a cache miss
//! and a cache write. The seed picks the repeated queries and the probed
//! thresholds. Everything that sets the cost of a batch is fixed: fresh
//! pairs and characterize jobs come in one order that spreads their cost
//! classes over the batches, and probed pairs take turns. When the seed
//! placed those, batch makespans and the latency of the jobs queued
//! behind them moved by a fifth to a third between seeds.

use axmc_rand::{Rng, SplitMix64};
use std::collections::{BTreeMap, BTreeSet};

/// A cacheable query, named by the generator's own indices into the
/// circuit pool. Two jobs with equal queries share one cache entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Query {
    /// Worst-case error (`bit_flip == false`) or bit-flip error of
    /// combinational pair `pair`.
    Comb {
        /// Index into the combinational pairs.
        pair: usize,
        /// Bit-flip instead of arithmetic error.
        bit_flip: bool,
    },
    /// Worst-case or bit-flip error of sequential pair `pair` at the
    /// workload's horizon.
    Seq {
        /// Index into the sequential pairs.
        pair: usize,
        /// Bit-flip instead of arithmetic error.
        bit_flip: bool,
    },
    /// Can the error of sequential pair `pair` exceed `threshold`?
    SeqExceeds {
        /// Index into the sequential pairs.
        pair: usize,
        /// The probed threshold.
        threshold: u128,
    },
    /// Worst-case and bit-flip error of component `candidate` against the
    /// server's builtin golden.
    Characterize {
        /// Index into the characterize candidates.
        candidate: usize,
    },
}

/// How a job came to be in its batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Origin {
    /// A repeat of the query first answered by job `first`.
    Repeat {
        /// Id of the job that answered the query cold.
        first: String,
    },
    /// A fresh threshold on an already loaded sequential pair.
    FreshThreshold,
    /// A fresh metric of a pair.
    FreshPair,
    /// A fresh characterize job.
    Characterize,
}

/// One job of a batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    /// Request id, unique over the run: `b<batch>-j<index>`.
    pub id: String,
    /// The query the job asks.
    pub query: Query,
    /// Why the job is there.
    pub origin: Origin,
}

impl Job {
    /// Whether the server must answer this job from its cache.
    pub fn expect_cached(&self) -> bool {
        matches!(self.origin, Origin::Repeat { .. })
    }
}

/// What the generator may draw from.
#[derive(Clone, Debug)]
pub struct Pool {
    /// Number of combinational pairs.
    pub comb_pairs: usize,
    /// Worst-case error of each sequential pair at the workload horizon.
    /// Fresh thresholds alternate between below it (refuted) and from it
    /// up to `2 * wce + 8` (proved).
    pub seq_wce: Vec<u128>,
    /// Number of characterize candidates.
    pub characterize: usize,
}

/// Jobs of each kind in one timed batch.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Repeats of earlier batches' queries.
    pub repeats: usize,
    /// Fresh thresholds on loaded sequential pairs.
    pub thresholds: usize,
    /// Fresh pair metrics.
    pub pairs: usize,
    /// Fresh characterize jobs.
    pub characterize: usize,
}

/// Kinds of slot in a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    Repeat,
    Threshold,
    Pair,
    Characterize,
}

/// The slot layout of a batch of `mix`: kinds dealt round-robin, so each
/// kind is spread over the batch.
fn layout(mix: Mix) -> Vec<Slot> {
    let mut left = [
        (Slot::Repeat, mix.repeats),
        (Slot::Threshold, mix.thresholds),
        (Slot::Pair, mix.pairs),
        (Slot::Characterize, mix.characterize),
    ];
    let mut slots = Vec::new();
    while left.iter().any(|&(_, n)| n > 0) {
        for (slot, n) in left.iter_mut().filter(|(_, n)| *n > 0) {
            slots.push(*slot);
            *n -= 1;
        }
    }
    slots
}

/// `0..n` visited with a stride coprime to `n`, so neighbours in the
/// order are far apart in the pool (pools list circuits by width).
fn spread(n: usize) -> impl Iterator<Item = usize> {
    let stride = (2..n)
        .find(|s| gcd(*s, n) == 1 && *s * *s >= n)
        .unwrap_or(1);
    (0..n).map(move |i| i * stride % n)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Builds `1 + batches` batches: a warm-up batch of `warmup` (fresh pairs
/// and characterize jobs only: it has no earlier batch to repeat or
/// loaded pair to probe), then `batches` batches of `mix`. The same seed
/// gives the same batches.
///
/// # Panics
///
/// Panics if the pool runs out of fresh queries for the requested mix, or
/// if `warmup` has no fresh pair to load a sequential pair with.
pub fn generate(seed: u64, pool: &Pool, warmup: Mix, mix: Mix, batches: usize) -> Vec<Vec<Job>> {
    assert!(
        warmup.pairs > 0,
        "the warm-up batch must load a sequential pair"
    );
    let mut rng = SplitMix64::new(seed ^ 0x5EB7_E000);
    // Consumed from the front: all worst-case queries first, then all
    // bit-flip queries, each in spread order.
    let fresh_order = |n: usize, make: fn(usize, bool) -> Query| -> Vec<Query> {
        [false, true]
            .into_iter()
            .flat_map(|bit_flip| spread(n).map(move |pair| make(pair, bit_flip)))
            .collect()
    };
    let mut fresh_comb = fresh_order(pool.comb_pairs, |pair, bit_flip| Query::Comb {
        pair,
        bit_flip,
    })
    .into_iter();
    let mut fresh_seq = fresh_order(pool.seq_wce.len(), |pair, bit_flip| Query::Seq {
        pair,
        bit_flip,
    })
    .into_iter();
    let mut fresh_characterize =
        spread(pool.characterize).map(|candidate| Query::Characterize { candidate });

    // Queries answered by completed batches, with the id of the job that
    // answered each cold; sequential pairs those batches loaded.
    let mut answered: BTreeMap<Query, String> = BTreeMap::new();
    let mut loaded_seq: BTreeSet<usize> = BTreeSet::new();
    let mut thresholds_drawn = 0usize;
    let mut out = Vec::with_capacity(batches + 1);
    for b in 0..=batches {
        let slots = layout(if b == 0 { warmup } else { mix });
        let repeats = slots.iter().filter(|&&s| s == Slot::Repeat).count();
        let earlier: Vec<(Query, String)> =
            answered.iter().map(|(q, id)| (*q, id.clone())).collect();
        assert!(earlier.len() >= repeats, "too few answered queries");
        let mut picked: Vec<usize> = (0..earlier.len()).collect();
        crate::shuffle(&mut rng, &mut picked);
        picked.truncate(repeats);
        picked.sort_unstable();
        let mut picked = picked.into_iter();
        let loaded: Vec<usize> = loaded_seq.iter().copied().collect();
        let mut jobs: Vec<Job> = Vec::with_capacity(slots.len());
        let mut pairs_in_batch = 0;
        for (j, slot) in slots.into_iter().enumerate() {
            let (query, origin) = match slot {
                Slot::Repeat => {
                    let (query, first) =
                        earlier[picked.next().expect("one pick per repeat")].clone();
                    (query, Origin::Repeat { first })
                }
                Slot::Threshold => {
                    assert!(!loaded.is_empty(), "no loaded sequential pair");
                    let below = thresholds_drawn.is_multiple_of(2);
                    thresholds_drawn += 1;
                    let query =
                        fresh_threshold(&mut rng, pool, &loaded, thresholds_drawn, below, |q| {
                            answered.contains_key(q) || in_batch_contains(&jobs, q)
                        });
                    (query, Origin::FreshThreshold)
                }
                Slot::Pair => {
                    // Alternate sequential and combinational, starting with
                    // a sequential pair, so the warm-up batch loads one.
                    let (first, second) = if pairs_in_batch % 2 == 0 {
                        (&mut fresh_seq, &mut fresh_comb)
                    } else {
                        (&mut fresh_comb, &mut fresh_seq)
                    };
                    pairs_in_batch += 1;
                    let query = first
                        .next()
                        .or_else(|| second.next())
                        .expect("fresh pair pool exhausted");
                    (query, Origin::FreshPair)
                }
                Slot::Characterize => (
                    fresh_characterize
                        .next()
                        .expect("characterize pool exhausted"),
                    Origin::Characterize,
                ),
            };
            assert!(
                !in_batch_contains(&jobs, &query),
                "query twice in one batch"
            );
            jobs.push(Job {
                id: format!("b{b}-j{j}"),
                query,
                origin,
            });
        }
        for job in &jobs {
            if !job.expect_cached() {
                answered.insert(job.query, job.id.clone());
            }
            if let Query::Seq { pair, .. } | Query::SeqExceeds { pair, .. } = job.query {
                loaded_seq.insert(pair);
            }
        }
        out.push(jobs);
    }
    out
}

/// A threshold probe no earlier job asked (`taken` says which were). The
/// loaded pairs take turns in a fixed order, since probe cost depends
/// mostly on the pair; the seed draws the threshold, below the pair's WCE
/// (`below`, a refutation) or from the WCE up to `2 * wce + 8` (a proof).
fn fresh_threshold(
    rng: &mut SplitMix64,
    pool: &Pool,
    loaded: &[usize],
    turn: usize,
    below: bool,
    taken: impl Fn(&Query) -> bool,
) -> Query {
    for k in 0..loaded.len() {
        let pair = loaded[(turn + k) % loaded.len()];
        let wce = pool.seq_wce[pair];
        // A bounded number of draws: a pair with a small WCE has few
        // thresholds, and the next pair takes over when they are used up.
        for _ in 0..64 {
            let threshold = if below && wce > 0 {
                rng.gen_range(0..wce)
            } else {
                wce + rng.gen_range(0..wce + 9)
            };
            let q = Query::SeqExceeds { pair, threshold };
            if !taken(&q) {
                return q;
            }
        }
    }
    panic!("no fresh threshold left on any loaded pair");
}

fn in_batch_contains(jobs: &[Job], query: &Query) -> bool {
    jobs.iter().any(|j| j.query == *query)
}
