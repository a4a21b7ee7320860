//! Tests of the benchmark's own statistics and of the serve generator's
//! exact-hit rule.

use axmc_perfbench::serve_gen::{self, Mix, Origin, Pool, Query};
use axmc_perfbench::stats::{self, Ratio};
use axmc_perfbench::trace::{layer_times, Tracer};
use std::collections::{BTreeMap, BTreeSet};

#[test]
fn tail_leaves_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = stats::tail(&samples).expect("100 samples have a tail");
    assert_eq!(t.samples, 100);
    assert_eq!(t.percentile, 90.0);
    assert_eq!(t.value, 90.0);
    let beyond = samples.iter().filter(|&&s| s > t.value).count();
    assert_eq!(beyond, stats::TAIL_BEYOND);
}

#[test]
fn tail_ignores_sample_order_and_needs_eleven_samples() {
    let mut samples: Vec<f64> = (0..11).map(|i| f64::from(i * 7 % 11)).collect();
    let t = stats::tail(&samples).expect("11 samples have a tail");
    assert_eq!((t.value, t.samples), (0.0, 11));
    assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    samples.pop();
    assert_eq!(stats::tail(&samples), None);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn best_is_the_lowest_sample() {
    assert_eq!(stats::best(&[3.0, 1.5, 2.0]), 1.5);
    assert_eq!(stats::best(&[7.0]), 7.0);
}

#[test]
fn geomean_takes_each_items_best_first() {
    let mut items: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    // Slow repetitions of a fast query do not move its best time.
    items.insert("fast", vec![2.0, 2.5, 900.0]);
    items.insert("slow", vec![9.0, 8.0, 8.5]);
    assert!((stats::geomean_of_best(&items) - 4.0).abs() < 1e-12);
    // Scale-free: a 5 ms and a 5 s query weigh alike.
    let mut wide: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    wide.insert("a", vec![5.0]);
    wide.insert("b", vec![5000.0]);
    let g = stats::geomean_of_best(&wide);
    assert!((g - 5000f64.sqrt() * 5f64.sqrt()).abs() < 1e-9);
}

#[test]
fn best_times_ignore_a_slow_share_of_the_run() {
    // Two items timed over six passes, the last four of which a busy
    // neighbour slowed by a quarter: the medians move with the slow
    // share, the best times do not.
    let calm: BTreeMap<&str, Vec<f64>> = [("a", vec![10.0; 6]), ("b", vec![40.0; 6])]
        .into_iter()
        .collect();
    let busy: BTreeMap<&str, Vec<f64>> = [
        ("a", vec![10.0, 10.0, 12.5, 12.5, 12.5, 12.5]),
        ("b", vec![40.0, 40.0, 50.0, 50.0, 50.0, 50.0]),
    ]
    .into_iter()
    .collect();
    assert_eq!(stats::geomean_of_best(&busy), stats::geomean_of_best(&calm));
    assert_eq!(stats::mean_of_best(&busy), 25.0);
    let medians = |items: &BTreeMap<&str, Vec<f64>>| -> Vec<f64> {
        items.values().map(|v| stats::median(v)).collect()
    };
    assert_ne!(medians(&busy), medians(&calm));
}

#[test]
fn median_item_ignores_one_slow_repetition() {
    let mut items: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    items.insert("a", vec![600.0, 610.0, 620.0]);
    items.insert("b", vec![780.0, 790.0, 800.0]);
    items.insert("c", vec![900.0, 910.0, 920.0]);
    assert_eq!(stats::median_of_best(&items), 780.0);
    // A slow repetition of `a` moves the pooled median, not the median item.
    items.get_mut("a").expect("item a")[1] = 795.0;
    let pooled: Vec<f64> = items.values().flatten().copied().collect();
    assert_ne!(stats::median(&pooled), 790.0);
    assert_eq!(stats::median_of_best(&items), 780.0);
}

#[test]
fn tail_of_best_ignores_slow_repetitions_of_cheap_items() {
    // Twelve items of 10, 20, ..., 120 ms, three repetitions each: 36
    // samples, so the tail is rank 26, a sample of the 90 ms item.
    let mut items: BTreeMap<usize, Vec<f64>> =
        (1..=12).map(|i| (i, vec![10.0 * i as f64; 3])).collect();
    let t = stats::tail_of_best(&items).expect("36 samples have a tail");
    assert_eq!((t.value, t.samples), (90.0, 36));
    // One hiccup each on the two cheapest items lifts the pooled tail to
    // the 100 ms item, not the tail of the item best times.
    items.get_mut(&1).expect("item 1")[0] = 500.0;
    items.get_mut(&2).expect("item 2")[0] = 500.0;
    let pooled: Vec<f64> = items.values().flatten().copied().collect();
    assert_eq!(stats::tail(&pooled).expect("36 samples").value, 100.0);
    assert_eq!(stats::tail_of_best(&items).expect("tail").value, 90.0);
}

#[test]
fn ratios_keep_their_base() {
    let f = stats::failed_ratio(200, 3);
    assert_eq!(f, Ratio { part: 3, base: 200 });
    assert_eq!(f.value(), 0.015);
    assert_eq!(stats::failed_ratio(0, 0).value(), 0.0);
    // The hit ratio counts answered jobs, not cache lookups.
    let h = stats::cache_hit_ratio(96, 32);
    assert_eq!((h.part, h.base), (32, 96));
    assert!((h.value() - 1.0 / 3.0).abs() < 1e-12);
}

#[test]
#[should_panic(expected = "more failures than attempts")]
fn failed_ratio_rejects_more_failures_than_attempts() {
    stats::failed_ratio(1, 2);
}

fn pool() -> Pool {
    Pool {
        comb_pairs: 17,
        seq_wce: vec![30, 8, 64, 81, 50, 45, 416, 816, 4, 15, 0],
        characterize: 21,
    }
}

const WARMUP: Mix = Mix {
    repeats: 0,
    thresholds: 0,
    pairs: 6,
    characterize: 2,
};

const MIX: Mix = Mix {
    repeats: 4,
    thresholds: 3,
    pairs: 3,
    characterize: 2,
};

#[test]
fn repeats_reference_only_earlier_batches_and_fresh_jobs_are_new() {
    for seed in 0..50 {
        let batches = serve_gen::generate(seed, &pool(), WARMUP, MIX, 8);
        assert_eq!(batches.len(), 9);
        let mut answered: BTreeMap<Query, (usize, String)> = BTreeMap::new();
        for (b, batch) in batches.iter().enumerate() {
            let mix = if b == 0 { WARMUP } else { MIX };
            assert_eq!(
                batch.len(),
                mix.repeats + mix.thresholds + mix.pairs + mix.characterize
            );
            let queries: BTreeSet<Query> = batch.iter().map(|j| j.query).collect();
            assert_eq!(queries.len(), batch.len(), "a query twice in batch {b}");
            for job in batch {
                match &job.origin {
                    Origin::Repeat { first } => {
                        let (first_batch, first_id) = answered
                            .get(&job.query)
                            .expect("repeat of an unanswered query");
                        assert!(*first_batch < b, "repeat of a same-batch job");
                        assert_eq!(first, first_id);
                        assert!(job.expect_cached());
                    }
                    _ => {
                        assert!(
                            !answered.contains_key(&job.query),
                            "fresh job {} repeats a query",
                            job.id
                        );
                        assert!(!job.expect_cached());
                    }
                }
            }
            for job in batch {
                answered
                    .entry(job.query)
                    .or_insert_with(|| (b, job.id.clone()));
            }
        }
        // Exactly the repeats hit: four per timed batch.
        let hits: usize = batches
            .iter()
            .flatten()
            .filter(|j| j.expect_cached())
            .count();
        assert_eq!(hits, 8 * MIX.repeats);
    }
}

#[test]
fn fresh_thresholds_probe_loaded_sequential_pairs() {
    let batches = serve_gen::generate(7, &pool(), WARMUP, MIX, 8);
    let mut loaded = BTreeSet::new();
    for batch in &batches {
        for job in batch {
            if job.origin == Origin::FreshThreshold {
                let Query::SeqExceeds { pair, threshold } = job.query else {
                    panic!("fresh threshold job {} is not a threshold query", job.id);
                };
                assert!(loaded.contains(&pair), "pair {pair} not loaded yet");
                assert!(threshold <= 2 * pool().seq_wce[pair] + 8);
            }
        }
        for job in batch {
            if let Query::Seq { pair, .. } | Query::SeqExceeds { pair, .. } = job.query {
                loaded.insert(pair);
            }
        }
    }
}

#[test]
fn thresholds_alternate_below_and_above_the_wce() {
    let batches = serve_gen::generate(11, &pool(), WARMUP, MIX, 8);
    let probes: Vec<(u128, u128)> = batches
        .iter()
        .flatten()
        .filter(|j| j.origin == Origin::FreshThreshold)
        .filter_map(|j| match j.query {
            Query::SeqExceeds { pair, threshold } => Some((threshold, pool().seq_wce[pair])),
            _ => None,
        })
        .collect();
    assert_eq!(probes.len(), 8 * MIX.thresholds);
    for (i, (threshold, wce)) in probes.into_iter().enumerate() {
        if i % 2 == 0 && wce > 0 {
            assert!(threshold < wce, "probe {i}: {threshold} not below {wce}");
        } else {
            assert!(threshold >= wce, "probe {i}: {threshold} below {wce}");
        }
    }
}

#[test]
fn fresh_work_is_the_same_for_every_seed() {
    let fresh = |seed| -> Vec<Vec<Query>> {
        serve_gen::generate(seed, &pool(), WARMUP, MIX, 8)
            .into_iter()
            .map(|batch| {
                batch
                    .into_iter()
                    .filter(|j| matches!(j.origin, Origin::FreshPair | Origin::Characterize))
                    .map(|j| j.query)
                    .collect()
            })
            .collect()
    };
    assert_eq!(fresh(1), fresh(2));
}

#[test]
fn generator_is_a_function_of_the_seed() {
    let a = serve_gen::generate(3, &pool(), WARMUP, MIX, 8);
    let b = serve_gen::generate(3, &pool(), WARMUP, MIX, 8);
    let c = serve_gen::generate(4, &pool(), WARMUP, MIX, 8);
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn self_time_subtracts_child_spans() {
    let mut t = Tracer::new(true);
    t.span("outer", "q", |t| {
        t.span("inner", "q", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("inner", "q", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
    });
    let spans = t.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].parent, Some(0));
    let times = layer_times(spans);
    let (outer_total, outer_self) = times["outer"];
    let (inner_total, inner_self) = times["inner"];
    assert_eq!(inner_total, inner_self);
    assert_eq!(outer_self, outer_total - inner_total);
    let mut jsonl = Vec::new();
    t.write_jsonl(&mut jsonl).expect("write to memory");
    let text = String::from_utf8(jsonl).expect("utf8");
    assert_eq!(text.lines().count(), 3);
    assert!(text
        .lines()
        .next()
        .expect("first line")
        .contains(&format!("\"self_us\":{outer_self}")));
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut t = Tracer::new(false);
    assert_eq!(t.span("outer", "q", |_| 5), 5);
    assert!(t.spans().is_empty());
}

#[test]
fn benchmark_json_lists_every_per_layer_metric() {
    use axmc_obs::json::Json;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed: Vec<(String, String)> = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect();
    let mut reported: Vec<(String, String)> = axmc_perfbench::layers::PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    reported.push(("obs.trace_overhead_ratio".into(), "ratio".into()));
    assert_eq!(listed, reported);
}
