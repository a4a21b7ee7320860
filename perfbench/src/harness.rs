//! The run loop shared by every workload: repeated set-up and timed pass,
//! the end-to-end metrics, the traced run, and the result line.

use crate::layers::{self, UnsatTimeSink};
use crate::reference;
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Passes every run makes, however short `--seconds` is: the best-of-run
/// and median statistics below need at least three.
pub const MIN_PASSES: usize = 3;

/// Reference shots after every set-up and every pass of an untraced run,
/// besides the one after each work item.
const SHOTS_BETWEEN: usize = 5;

/// Set-ups every untraced run makes at least. A workload with few passes
/// sets up several times before each one, so `setup_s` is a median of
/// this many samples however long a pass is.
pub const MIN_SETUPS: usize = 9;

/// Passes in a run of `seconds`: as many nominal passes as fit, at least
/// [`MIN_PASSES`], rounded up to whole cycles of `cycle` passes. The count
/// depends on `--seconds` only, never on how fast this run goes, so every
/// run pools the same number of samples and a rank-based statistic such
/// as the tail always lands on the same work.
pub fn pass_count(seconds: f64, nominal_pass_s: f64, cycle: usize) -> usize {
    ((seconds / nominal_pass_s).round() as usize)
        .max(MIN_PASSES)
        .next_multiple_of(cycle.max(1))
}

/// What one run was asked to do.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measuring time: with the workload's nominal pass time it sets how
    /// many passes the run makes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Scratch directory inside the checkout for files the workload
    /// writes and the span log.
    pub work_dir: PathBuf,
}

/// One pass of a workload's fixed work.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Wall time of the timed phase, in seconds.
    pub wall_s: f64,
    /// `(work item, latency in ms)` for every item of the pass. The same
    /// item id names the same work in every pass.
    pub items: Vec<(String, f64)>,
    /// Items attempted.
    pub attempted: u64,
    /// Items that errored, were interrupted or gave a wrong answer.
    pub failed: u64,
    /// Workload-specific per-layer values of this pass.
    pub layer: BTreeMap<String, f64>,
}

/// A workload: a repeatable set-up and a fixed unit of timed work.
pub trait Workload {
    /// Builds the inputs of pass `input` from the seed and warms the
    /// program up. Called before every pass, so set-up time is sampled
    /// at least as often as passes. A workload whose inputs vary over a
    /// [`Workload::cycle`] takes them from `input`: equal indices give
    /// equal inputs, however often set-up runs.
    fn setup(&mut self, input: usize, tracer: &mut Tracer) -> Result<(), String>;

    /// Runs the fixed work once on the state `setup` left, checking every
    /// output against its reference.
    fn pass(&mut self, tracer: &mut Tracer) -> Result<Pass, String>;

    /// Wall time of one set-up and pass on the reference machine, which
    /// sets how many passes fit in `--seconds`.
    fn nominal_pass_s(&self) -> f64;

    /// Passes after which the workload repeats its inputs; runs are made
    /// of whole cycles, so every run covers each input equally often.
    fn cycle(&self) -> usize {
        1
    }

    /// Whether a pass runs its work items one after another, so that the
    /// item times add up to the timed work of the pass. Jobs that overlap
    /// in a server do not.
    fn items_in_sequence(&self) -> bool {
        true
    }
}

/// One metric of the result line.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Clone, Debug)]
pub struct Report {
    /// Items attempted over all passes.
    pub attempted: u64,
    /// Items failed over all passes.
    pub failed: u64,
    /// The metrics of the run kind.
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    // `{:?}` keeps every digit and always shows a decimal point.
    format!("{v:?}")
}

/// Runs a workload and gathers its report.
pub fn run(workload: &mut dyn Workload, config: &RunConfig) -> Result<Report, String> {
    if config.trace {
        run_traced(workload, config)
    } else {
        run_untraced(workload, config)
    }
}

fn run_untraced(workload: &mut dyn Workload, config: &RunConfig) -> Result<Report, String> {
    axmc_obs::set_enabled(false);
    let mut tracer = Tracer::new(false);
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let pass_total = pass_count(config.seconds, workload.nominal_pass_s(), workload.cycle());
    let setups_per_pass = MIN_SETUPS.div_ceil(pass_total);
    reference::start(true);
    // The best of a burst of shots: the host's speed at that moment.
    let shots = || {
        (0..SHOTS_BETWEEN)
            .filter_map(|_| reference::shot())
            .fold(f64::INFINITY, f64::min)
    };
    let mut scaled_setups = Vec::new();
    for input in 0..pass_total {
        // The pass runs on the state the last of its set-ups left.
        for _ in 0..setups_per_pass {
            let t = Instant::now();
            workload.setup(input, &mut tracer)?;
            let setup_s = t.elapsed().as_secs_f64();
            setups.push(setup_s);
            // A median needs every sample at one speed, so each set-up is
            // scaled by the burst right after it.
            scaled_setups.push(setup_s * reference::NOMINAL_MS / shots());
        }
        let spent = reference::spent_s();
        let mut pass = workload.pass(&mut tracer)?;
        pass.wall_s -= reference::spent_s() - spent;
        passes.push(pass);
        shots();
    }
    let (reference_ms, reference_shots) = reference::best_ms();
    reference::start(false);
    // Every time below is reported at the reference host's speed.
    let speed = reference::NOMINAL_MS / reference_ms;

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let mut per_item: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in &passes {
        for (id, ms) in &p.items {
            per_item.entry(id).or_default().push(*ms);
        }
    }
    let wall_s = if workload.items_in_sequence() {
        // Each item at its best: a pass's best needs every item of it
        // undisturbed at once (on `seq_wce` the best pass spread by 14 %
        // over ten seeds).
        per_item.values().map(|v| stats::best(v)).sum::<f64>() / 1e3
    } else {
        // Passes `cycle` apart run the same inputs, so each position of
        // the cycle is one unit of work with its own best time.
        let cycle = workload.cycle().max(1);
        let mut walls_by_input: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (input, w) in walls.iter().enumerate() {
            walls_by_input.entry(input % cycle).or_default().push(*w);
        }
        stats::mean_of_best(&walls_by_input)
    };
    let tail = stats::tail_of_best(&per_item).ok_or_else(|| {
        format!(
            "too few latency samples for a tail with {} beyond",
            stats::TAIL_BEYOND
        )
    })?;
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum();
    // Best times, scaled by the run's best shot.
    let raw = [
        ("wall_s", wall_s, "s"),
        ("query_ms_geomean", stats::geomean_of_best(&per_item), "ms"),
        ("latency_ms_p50", stats::median_of_best(&per_item), "ms"),
        ("latency_ms_tail", tail.value, "ms"),
    ];
    let mut metrics = vec![Metric {
        name: "setup_s",
        value: stats::median(&scaled_setups),
        unit: "s",
    }];
    metrics.extend(raw.iter().map(|&(name, value, unit)| Metric {
        name,
        value: value * speed,
        unit,
    }));
    metrics.push(Metric {
        name: "peak_rss_mb",
        value: peak_rss_mb()?,
        unit: "MB",
    });
    let ratio = stats::failed_ratio(attempted, failed);
    let measured: Vec<String> = [("setup_s", stats::median(&setups), "s")]
        .iter()
        .chain(&raw)
        .map(|(name, value, unit)| format!("{name} {value:.6} {unit}"))
        .collect();
    let notes = vec![
        format!(
            "reference: best of {reference_shots} shots {reference_ms:.4} ms, nominal {} ms, \
             so best times are scaled by {speed:.4} (each set-up by the shots after it); \
             as measured: {}",
            reference::NOMINAL_MS,
            measured.join(", ")
        ),
        format!(
            "passes = {} (set-ups = {}), distinct items = {}, latency samples = {}",
            passes.len(),
            setups.len(),
            per_item.len(),
            per_item.values().map(Vec::len).sum::<usize>()
        ),
        format!(
            "pass wall time: min {:.4} s, median {:.4} s, max {:.4} s",
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            stats::median(&walls),
            walls.iter().copied().fold(0.0, f64::max)
        ),
        format!(
            "latency_ms_tail is p{:.1} over {} samples, each at its item's best ({} beyond it)",
            tail.percentile,
            tail.samples,
            stats::TAIL_BEYOND
        ),
        format!(
            "failed_ratio = {} ({failed} of {attempted} attempted items)",
            ratio.value()
        ),
    ];
    Ok(Report {
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Alternates untraced and traced passes on the same inputs. The
/// untraced ones give the reference wall time for
/// `obs.trace_overhead_ratio`; the traced ones run with `axmc_obs` on,
/// the benchmark's span recorder on and an event sink that sums UNSAT
/// solve time.
fn run_traced(workload: &mut dyn Workload, config: &RunConfig) -> Result<Report, String> {
    reference::start(false);
    let sink = Arc::new(UnsatTimeSink::default());
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layer_samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut last_spans = Tracer::new(false);
    // Each round is an untraced and a traced pass of the same input, and
    // a run is whole cycles of inputs.
    let rounds = ((config.seconds / (2.0 * workload.nominal_pass_s())).round() as usize)
        .max(2)
        .next_multiple_of(workload.cycle().max(1));
    for input in 0..rounds {
        let mut off = Tracer::new(false);
        workload.setup(input, &mut off)?;
        let plain = workload.pass(&mut off)?;
        plain_walls.push(plain.wall_s);

        let mut tracer = Tracer::new(true);
        axmc_obs::set_enabled(true);
        axmc_obs::set_sink(sink.clone());
        let setup = workload.setup(input, &mut tracer);
        // The registry and the sink cover the timed phase only; set-up
        // layers are measured by the benchmark's own spans.
        axmc_obs::reset();
        sink.reset();
        let traced = setup.and_then(|()| workload.pass(&mut tracer));
        let snapshot = axmc_obs::snapshot();
        axmc_obs::clear_sink();
        axmc_obs::set_enabled(false);
        let traced = traced?;
        traced_walls.push(traced.wall_s);
        for (name, value) in layers::per_layer(&snapshot, sink.unsat_us(), tracer.spans(), &traced)
        {
            layer_samples.entry(name).or_default().push(value);
        }
        attempted += plain.attempted + traced.attempted;
        failed += plain.failed + traced.failed;
        last_spans = tracer;
    }

    let overhead = stats::median(&traced_walls) / stats::median(&plain_walls);
    let mut metrics: Vec<Metric> = layers::PER_LAYER
        .iter()
        .map(|(name, unit)| Metric {
            name,
            value: layer_samples.get(*name).map_or(0.0, |v| stats::median(v)),
            unit,
        })
        .collect();
    metrics.push(Metric {
        name: "obs.trace_overhead_ratio",
        value: overhead,
        unit: "ratio",
    });
    let path = config
        .work_dir
        .join(format!("spans-seed{}.jsonl", config.seed));
    let mut file = std::fs::File::create(&path)
        .map_err(|e| format!("cannot create '{}': {e}", path.display()))?;
    last_spans
        .write_jsonl(&mut file)
        .map_err(|e| format!("cannot write '{}': {e}", path.display()))?;
    let notes = vec![
        format!(
            "traced passes = {}, untraced reference passes = {}",
            traced_walls.len(),
            plain_walls.len()
        ),
        format!(
            "{} spans of the last traced pass written to {}",
            last_spans.spans().len(),
            path.display()
        ),
    ];
    Ok(Report {
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
