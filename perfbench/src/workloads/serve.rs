//! `serve_batch`: one long-lived in-process `axmc_serve::Server` driven
//! as a closed loop by one client. Each batch is submitted whole through
//! an in-memory reader, and the next goes in only once `run_batch` has
//! returned its `done` line, as one connection of `axmc serve` does.
//!
//! A pass is a server lifetime: set-up writes every circuit as ASCII
//! AIGER, starts a fresh server and runs the warm-up batch; the timed
//! phase runs [`BATCHES`] batches of the mix in [`MIX`]. The batches come
//! from [`crate::serve_gen`], so the number of cache hits is known in
//! advance and checked job by job. The fresh work is the same in every
//! pass; the repeats and probed thresholds come from one of [`DRAWS`]
//! generator seeds, and pass `p` of a run uses draw `(seed + p) mod
//! DRAWS`. A run is whole cycles of the draws, so every run pools the same
//! batches and the workload seed only sets their order: with one draw per
//! run, the seeded thresholds alone moved the latency tail by a fifth
//! between seeds.

use super::common::round_trip;
use crate::harness::{Pass, Workload};
use crate::serve_gen::{self, Job, Mix, Pool, Query};
use crate::stats;
use crate::trace::Tracer;
use axmc_aig::{aiger, Aig};
use axmc_circuit::{approx, generators, Netlist};
use axmc_core::{AnalysisOptions, CombAnalyzer, SeqAnalyzer};
use axmc_obs::json::Json;
use axmc_serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Horizon of every sequential job.
const HORIZON: usize = 4;
/// Timed batches per pass.
const BATCHES: usize = 8;
/// Distinct generator draws a run cycles through.
const DRAWS: usize = 8;
/// The warm-up batch, run as part of set-up.
const WARMUP: Mix = Mix {
    repeats: 0,
    thresholds: 0,
    pairs: 6,
    characterize: 2,
};
/// The jobs of each timed batch.
const MIX: Mix = Mix {
    repeats: 4,
    thresholds: 3,
    pairs: 3,
    characterize: 2,
};
/// Sequential pairs of the standard suite the server is asked about:
/// the ones whose WCE at [`HORIZON`] takes tens of milliseconds.
const SEQ_PAIRS: &[&str] = &[
    "alu8/trunc4",
    "alu8/loa4",
    "alu8/spec2",
    "regmul4/optrunc2",
    "regmul4/kulkarni",
    "leaky8/trunc4",
    "leaky8/spec2",
    "accumulator8/spec2",
    "counter8/specinc1",
    "maxtrack8/trunccmp4",
    "pulsecnt8/trunccmp4",
];

/// A circuit file of the pool.
struct File {
    name: String,
    aig: Aig,
}

/// The expected answer to one query.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// The `value` field of a worst-case or bit-flip job.
    Value(u128),
    /// Characterize: `(wce, bit_flip)`.
    Profile(u128, u128),
    /// Threshold probe: the pair's WCE at the horizon decides the verdict.
    Exceeds { wce: u128, threshold: u128 },
}

/// The `serve_batch` workload.
pub struct Serve {
    dir: PathBuf,
    /// Goldens and candidates; pairs index into it.
    files: Vec<File>,
    comb_pairs: Vec<(usize, usize)>,
    seq_pairs: Vec<(usize, usize)>,
    characterize: Vec<usize>,
    /// `(wce, bit_flip)` from the direct analyzers, per comb pair, seq
    /// pair and characterize candidate.
    comb_ref: Vec<(u128, u128)>,
    seq_ref: Vec<(u128, u128)>,
    char_ref: Vec<(u128, u128)>,
    pool: Pool,
    /// Generator draw of the run's first pass.
    first_draw: usize,
    /// Generator draw of the current pass.
    draw: usize,
    /// The batches of the current pass, the warm-up batch first.
    batches: Vec<Vec<Job>>,
    workers: usize,
    server: Option<Server>,
    /// Rendered `result` objects of the warm-up batch, by job id.
    warmup_answers: BTreeMap<String, String>,
}

fn add_library(
    files: &mut Vec<File>,
    golden: Netlist,
    golden_name: String,
    lib: Vec<approx::Component>,
) -> (usize, Vec<usize>) {
    let g = files.len();
    files.push(File {
        name: golden_name,
        aig: golden.to_aig(),
    });
    let cands = lib
        .into_iter()
        .skip(1)
        .map(|c| {
            files.push(File {
                name: c.name,
                aig: c.netlist.to_aig(),
            });
            files.len() - 1
        })
        .collect();
    (g, cands)
}

fn comb_reference(golden: &Aig, candidate: &Aig) -> Result<(u128, u128), String> {
    let a = CombAnalyzer::new(golden, candidate).with_options(AnalysisOptions::new().with_jobs(1));
    let wce = a.worst_case_error().map_err(|e| e.to_string())?.value;
    let bf = a.bit_flip_error().map_err(|e| e.to_string())?.value;
    Ok((wce, bf as u128))
}

impl Serve {
    /// Builds the circuit pool and answers every query the batches can
    /// ask with the analyzers directly; `seed` picks the first draw.
    pub fn new(seed: u64, work_dir: &Path) -> Result<Self, String> {
        let mut files = Vec::new();
        let mut comb_pairs = Vec::new();
        for (golden, name, lib) in [
            (
                generators::ripple_carry_adder(8),
                "add8_exact",
                approx::adder_library(8),
            ),
            (
                generators::ripple_carry_adder(10),
                "add10_exact",
                approx::adder_library(10),
            ),
            (
                generators::array_multiplier(4),
                "mul4_exact",
                approx::multiplier_library(4),
            ),
        ] {
            let (g, cands) = add_library(&mut files, golden, name.into(), lib);
            comb_pairs.extend(cands.into_iter().map(|c| (g, c)));
        }
        // Characterize candidates have no golden file: the server builds
        // the exact golden of the candidate's class itself.
        let mut characterize = Vec::new();
        let mut char_goldens = Vec::new();
        for (golden, lib) in [
            (generators::ripple_carry_adder(6), approx::adder_library(6)),
            (
                generators::ripple_carry_adder(12),
                approx::adder_library(12),
            ),
            (
                generators::ripple_carry_adder(16),
                approx::adder_library(16),
            ),
            (
                generators::array_multiplier(5),
                approx::multiplier_library(5),
            ),
        ] {
            let golden = golden.to_aig();
            for c in lib.into_iter().skip(1) {
                files.push(File {
                    name: c.name,
                    aig: c.netlist.to_aig(),
                });
                characterize.push(files.len() - 1);
                char_goldens.push(golden.clone());
            }
        }
        let suite = axmc_seq::suite::standard_suite(8);
        let mut seq_pairs = Vec::new();
        for name in SEQ_PAIRS {
            let p = suite
                .iter()
                .find(|p| p.name == *name)
                .ok_or_else(|| format!("{name} is not in the standard suite"))?;
            let file_name = name.replace('/', "_");
            files.push(File {
                name: format!("{file_name}_golden"),
                aig: p.golden.clone(),
            });
            files.push(File {
                name: format!("{file_name}_approx"),
                aig: p.approx.clone(),
            });
            seq_pairs.push((files.len() - 2, files.len() - 1));
        }

        let comb_ref = comb_pairs
            .iter()
            .map(|&(g, c)| comb_reference(&files[g].aig, &files[c].aig))
            .collect::<Result<Vec<_>, _>>()?;
        let char_ref = characterize
            .iter()
            .zip(&char_goldens)
            .map(|(&c, g)| comb_reference(g, &files[c].aig))
            .collect::<Result<Vec<_>, _>>()?;
        let seq_ref = seq_pairs
            .iter()
            .map(|&(g, a)| -> Result<(u128, u128), String> {
                let an = SeqAnalyzer::new(&files[g].aig, &files[a].aig)
                    .with_options(AnalysisOptions::new().with_jobs(1));
                let wce = an
                    .worst_case_error_at(HORIZON)
                    .map_err(|e| e.to_string())?
                    .value;
                let bf = an
                    .bit_flip_error_at(HORIZON)
                    .map_err(|e| e.to_string())?
                    .value;
                Ok((wce, bf as u128))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let pool = Pool {
            comb_pairs: comb_pairs.len(),
            seq_wce: seq_ref.iter().map(|&(wce, _)| wce).collect(),
            characterize: characterize.len(),
        };
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .saturating_sub(1)
            .max(1);
        Ok(Serve {
            dir: work_dir.join("serve"),
            files,
            comb_pairs,
            seq_pairs,
            characterize,
            comb_ref,
            seq_ref,
            char_ref,
            pool,
            first_draw: (seed % DRAWS as u64) as usize,
            draw: 0,
            batches: Vec::new(),
            workers,
            server: None,
            warmup_answers: BTreeMap::new(),
        })
    }

    fn path(&self, file: usize) -> String {
        self.dir
            .join(format!("{}.aag", self.files[file].name))
            .to_string_lossy()
            .into_owned()
    }

    fn request(&self, job: &Job) -> String {
        let pair_fields = |(g, c): (usize, usize), metric: &str| {
            format!(
                "\"golden\":\"{}\",\"candidate\":\"{}\",\"metric\":\"{metric}\"",
                self.path(g),
                self.path(c)
            )
        };
        let body = match job.query {
            Query::Comb { pair, bit_flip } => pair_fields(
                self.comb_pairs[pair],
                if bit_flip { "bit-flip" } else { "wce" },
            ),
            Query::Seq { pair, bit_flip } => format!(
                "{},\"horizon\":{HORIZON}",
                pair_fields(
                    self.seq_pairs[pair],
                    if bit_flip { "bit-flip" } else { "wce" }
                )
            ),
            Query::SeqExceeds { pair, threshold } => format!(
                "{},\"horizon\":{HORIZON},\"threshold\":\"{threshold}\"",
                pair_fields(self.seq_pairs[pair], "exceeds")
            ),
            Query::Characterize { candidate } => format!(
                "\"kind\":\"characterize\",\"candidate\":\"{}\"",
                self.path(self.characterize[candidate])
            ),
        };
        format!("{{\"id\":\"{}\",{body}}}", job.id)
    }

    fn expect(&self, query: Query) -> Expect {
        match query {
            Query::Comb { pair, bit_flip } => {
                let (w, b) = self.comb_ref[pair];
                Expect::Value(if bit_flip { b } else { w })
            }
            Query::Seq { pair, bit_flip } => {
                let (w, b) = self.seq_ref[pair];
                Expect::Value(if bit_flip { b } else { w })
            }
            Query::SeqExceeds { pair, threshold } => Expect::Exceeds {
                wce: self.seq_ref[pair].0,
                threshold,
            },
            Query::Characterize { candidate } => {
                let (w, b) = self.char_ref[candidate];
                Expect::Profile(w, b)
            }
        }
    }

    /// Runs one batch to its `done` line.
    fn run_batch(&self, batch: &[Job]) -> Result<BatchRun, String> {
        let server = self.server.as_ref().ok_or("batch before set-up")?;
        let input: String = batch.iter().map(|j| self.request(j) + "\n").collect();
        let mut clock = LineClock::default();
        let submitted = Instant::now();
        let summary = server
            .run_batch(input.as_bytes(), &mut clock)
            .map_err(|e| format!("batch I/O failed: {e}"))?;
        let makespan = submitted.elapsed().as_secs_f64();
        if summary.jobs != batch.len() as u64 {
            return Err(format!("{} jobs accepted of {}", summary.jobs, batch.len()));
        }
        Ok(BatchRun {
            makespan_s: makespan,
            submitted,
            lines: clock.lines,
        })
    }
}

/// One batch as the client saw it.
struct BatchRun {
    /// Submission to the `done` line, in seconds.
    makespan_s: f64,
    /// When the batch was handed to the server.
    submitted: Instant,
    /// Every response line with the time it was written.
    lines: Vec<(Instant, String)>,
}

/// A writer that stamps every complete line with the time it was written.
#[derive(Default)]
struct LineClock {
    partial: Vec<u8>,
    lines: Vec<(Instant, String)>,
}

impl Write for LineClock {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.partial).into_owned();
                self.lines.push((Instant::now(), line));
                self.partial.clear();
            } else {
                self.partial.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What the server said about one job.
#[derive(Default)]
struct JobLines {
    start: Option<Instant>,
    end: Option<Instant>,
    cached: Option<bool>,
    result: Option<Json>,
    error: Option<String>,
}

fn collect(lines: &[(Instant, String)]) -> Result<BTreeMap<String, JobLines>, String> {
    let mut jobs: BTreeMap<String, JobLines> = BTreeMap::new();
    for (at, line) in lines {
        let doc = Json::parse(line).map_err(|e| format!("unparsable line '{line}': {e}"))?;
        let event = doc.get("event").and_then(Json::as_str).unwrap_or("");
        if event == "done" {
            continue;
        }
        let id = doc
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line without id: {line}"))?;
        let job = jobs.entry(id.to_string()).or_default();
        match event {
            "start" => job.start = Some(*at),
            "result" => {
                job.end = Some(*at);
                if doc.get("status").and_then(Json::as_str) == Some("ok") {
                    job.cached = match doc.get("cached") {
                        Some(Json::Bool(b)) => Some(*b),
                        _ => None,
                    };
                    job.result = doc.get("result").cloned();
                } else {
                    job.error = Some(line.clone());
                }
            }
            _ => return Err(format!("unexpected line: {line}")),
        }
    }
    Ok(jobs)
}

fn field_u128(result: &Json, key: &str) -> Option<u128> {
    result.get(key).and_then(Json::as_str)?.parse().ok()
}

/// Checks one answered job against its reference.
fn check_answer(expect: Expect, result: &Json) -> Result<(), String> {
    let ok = match expect {
        Expect::Value(v) => field_u128(result, "value") == Some(v),
        Expect::Profile(w, b) => {
            field_u128(result, "wce") == Some(w) && field_u128(result, "bit_flip") == Some(b)
        }
        Expect::Exceeds { wce, threshold } => match result.get("verdict").and_then(Json::as_str) {
            Some("proved") => wce <= threshold,
            Some("refuted") => {
                wce > threshold
                    && field_u128(result, "witness_error").is_some_and(|e| e > threshold)
            }
            _ => false,
        },
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "result {} does not match {expect:?}",
            result.render()
        ))
    }
}

impl Workload for Serve {
    fn nominal_pass_s(&self) -> f64 {
        0.65
    }

    fn cycle(&self) -> usize {
        DRAWS
    }

    fn items_in_sequence(&self) -> bool {
        false
    }

    fn setup(&mut self, input: usize, tracer: &mut Tracer) -> Result<(), String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create '{}': {e}", self.dir.display()))?;
        for (i, f) in self.files.iter().enumerate() {
            // Written from a parsed copy, so the files are exactly what
            // the AIGER reader accepts.
            let aig = round_trip(tracer, &f.name, &f.aig)?;
            std::fs::write(self.path(i), aiger::to_ascii(&aig))
                .map_err(|e| format!("cannot write '{}': {e}", self.path(i)))?;
        }
        self.draw = (self.first_draw + input) % DRAWS;
        self.batches = serve_gen::generate(self.draw as u64, &self.pool, WARMUP, MIX, BATCHES);
        self.server = Some(Server::new(ServeConfig {
            jobs: self.workers,
            ..ServeConfig::default()
        }));
        let lines = self.run_batch(&self.batches[0])?.lines;
        self.warmup_answers.clear();
        for (id, job) in collect(&lines)? {
            let result = job
                .result
                .ok_or_else(|| format!("warm-up job {id}: {}", job.error.unwrap_or_default()))?;
            self.warmup_answers.insert(id, result.render());
        }
        Ok(())
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut cold: BTreeMap<&str, String> = self
            .warmup_answers
            .iter()
            .map(|(id, r)| (id.as_str(), r.clone()))
            .collect();
        let (mut waits, mut services, mut hit_services) = (Vec::new(), Vec::new(), Vec::new());
        let (mut answered, mut cached_jobs) = (0u64, 0u64);
        for (b, batch) in self.batches.iter().enumerate().skip(1) {
            let BatchRun {
                makespan_s,
                submitted,
                lines,
            } = tracer.span("serve.batch", &format!("b{b}"), |_| self.run_batch(batch))?;
            pass.wall_s += makespan_s;
            let jobs = collect(&lines)?;
            for job in batch {
                pass.attempted += 1;
                let seen = jobs.get(&job.id);
                let outcome = seen.ok_or_else(|| "no answer".to_string()).and_then(|s| {
                    if let Some(e) = &s.error {
                        return Err(e.clone());
                    }
                    let result = s.result.as_ref().ok_or("no result object")?;
                    check_answer(self.expect(job.query), result)?;
                    if s.cached != Some(job.expect_cached()) {
                        return Err(format!(
                            "cached = {:?}, expected {}",
                            s.cached,
                            job.expect_cached()
                        ));
                    }
                    Ok(result.render())
                });
                match outcome {
                    Ok(rendered) => {
                        answered += 1;
                        if let serve_gen::Origin::Repeat { first } = &job.origin {
                            cached_jobs += 1;
                            // A replay must equal the cold answer byte for
                            // byte.
                            if cold.get(first.as_str()) != Some(&rendered) {
                                pass.failed += 1;
                                eprintln!(
                                    "serve_batch: {} replay {rendered} differs from {first}: {:?}",
                                    job.id,
                                    cold.get(first.as_str())
                                );
                            }
                        } else {
                            cold.insert(&job.id, rendered);
                        }
                    }
                    Err(e) => {
                        pass.failed += 1;
                        eprintln!("serve_batch: {} failed: {e}", job.id);
                    }
                }
                if let Some(s) = seen {
                    if let (Some(start), Some(end)) = (s.start, s.end) {
                        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
                        // Job ids name slots; the draw makes the item the
                        // same work in every pass that uses it.
                        let item = format!("d{}/{}", self.draw, job.id);
                        pass.items.push((item, ms(submitted, end)));
                        waits.push(ms(submitted, start));
                        services.push(ms(start, end));
                        if job.expect_cached() {
                            hit_services.push(ms(start, end));
                        }
                    }
                }
            }
        }
        let server = self.server.as_ref().ok_or("pass before set-up")?;
        let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
        let layer = &mut pass.layer;
        layer.insert(
            "serve.jobs_per_s".into(),
            pass.attempted as f64 / pass.wall_s,
        );
        layer.insert("serve.queue_wait_ms_p50".into(), median_or_zero(&waits));
        layer.insert("serve.service_ms_p50".into(), median_or_zero(&services));
        layer.insert(
            "serve.hit_service_ms_p50".into(),
            median_or_zero(&hit_services),
        );
        layer.insert(
            "serve.cache_hit_ratio".into(),
            stats::cache_hit_ratio(answered, cached_jobs).value(),
        );
        layer.insert("serve.cache_entries".into(), server.cache().len() as f64);
        Ok(pass)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
