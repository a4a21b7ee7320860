//! The statistics every reported metric goes through.
//!
//! Each function states its base, so a ratio or percentile in the output
//! can be traced back to the samples it came from.

use std::collections::BTreeMap;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency distribution: the highest percentile that still
/// has at least [`TAIL_BEYOND`] samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (for example 96.5).
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `samples` with at least [`TAIL_BEYOND`]
/// samples beyond it: with `n` sorted samples that is the sample of rank
/// `n - 10` (1-based), reported as percentile `100 (n - 10) / n`.
/// `None` when there are too few samples for any such percentile.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        samples: n,
    })
}

/// The best (lowest) of `values`: the time a work item takes when nothing
/// else on the machine gets in its way.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn best(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "best of no samples");
    values
        .iter()
        .copied()
        .reduce(|a, b| {
            assert!(!a.is_nan() && !b.is_nan(), "NaN sample");
            a.min(b)
        })
        .expect("non-empty")
}

/// Geometric mean over distinct work items of each item's best time.
///
/// The work of an item is deterministic, so a repetition can only come
/// out slower than the item's cost, never faster: its best time over a
/// run's repetitions measures the program, while a median moves with
/// whatever share of the run a busy neighbour slowed down (on a shared
/// 2-vCPU host whole passes ran a quarter slower, and per-item medians
/// moved the geometric mean by 17 % between seeds, the best times by
/// 1 %). The geometric mean then weighs a 5 ms and a 5 s query alike, so
/// neither end of a wide mix dominates.
///
/// # Panics
///
/// Panics if there are no items, an item has no samples, or a best time
/// is not positive.
pub fn geomean_of_best<K: Ord>(items: &BTreeMap<K, Vec<f64>>) -> f64 {
    assert!(!items.is_empty(), "geomean over no items");
    let log_sum: f64 = items
        .values()
        .map(|samples| {
            let b = best(samples);
            assert!(b > 0.0, "non-positive item time {b}");
            b.ln()
        })
        .sum();
    (log_sum / items.len() as f64).exp()
}

/// Arithmetic mean over distinct work items of each item's best time: the
/// time the whole set of items takes at its best, per item.
///
/// # Panics
///
/// Panics if there are no items or an item has no samples.
pub fn mean_of_best<K: Ord>(items: &BTreeMap<K, Vec<f64>>) -> f64 {
    assert!(!items.is_empty(), "mean over no items");
    items.values().map(|samples| best(samples)).sum::<f64>() / items.len() as f64
}

/// Median over distinct work items of each item's best time: the time of
/// the median item. Unlike the median of all samples pooled, it cannot
/// flip between two items whose samples straddle the middle rank when one
/// repetition is slow.
///
/// # Panics
///
/// Panics if there are no items or an item has no samples.
pub fn median_of_best<K: Ord>(items: &BTreeMap<K, Vec<f64>>) -> f64 {
    let bests: Vec<f64> = items.values().map(|samples| best(samples)).collect();
    median(&bests)
}

/// The tail rule ([`tail`]) over the pooled samples, each replaced by its
/// work item's best time: the same percentile and sample count as the
/// plain pooled tail, but, as with [`median_of_best`], a slow repetition
/// of a cheap item cannot push it past the tail, so the tail moves only
/// when items get slower.
pub fn tail_of_best<K: Ord>(items: &BTreeMap<K, Vec<f64>>) -> Option<Tail> {
    let smoothed: Vec<f64> = items
        .values()
        .flat_map(|samples| std::iter::repeat_n(best(samples), samples.len()))
        .collect();
    tail(&smoothed)
}

/// A ratio that carries its base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ratio {
    /// Items with the property.
    pub part: u64,
    /// Items the share is taken over.
    pub base: u64,
}

impl Ratio {
    /// `part / base`, and 0 for an empty base.
    pub fn value(&self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.part as f64 / self.base as f64
        }
    }
}

/// Share of attempted work items that errored, were interrupted or
/// returned a wrong value. The base is every attempted item.
pub fn failed_ratio(attempted: u64, failed: u64) -> Ratio {
    assert!(failed <= attempted, "more failures than attempts");
    Ratio {
        part: failed,
        base: attempted,
    }
}

/// Share of answered serve jobs whose leading query came from the cache.
/// The base is the jobs that returned a result, not cache lookups: a
/// characterize job looks the cache up twice but counts once.
pub fn cache_hit_ratio(answered_jobs: u64, cached_jobs: u64) -> Ratio {
    assert!(cached_jobs <= answered_jobs, "more hits than jobs");
    Ratio {
        part: cached_jobs,
        base: answered_jobs,
    }
}
