//! A fixed reference computation, timed all through an end-to-end run,
//! that gives the speed of the host at the time of the run.
//!
//! On a shared host the speed of identical work drifts by a fifth to a
//! half over tens of seconds, and a slow spell can last a whole run: the
//! best time of an item over a run then moves with the host, not with the
//! program. The reference is the benchmark's own code, untouched by any
//! change to the program, and it is memory- and branch-bound like the
//! solvers (random lookups and inserts in a `BTreeMap` of 16 K keys), so
//! it slows down with them. A run times a short shot of it after every
//! work item and after every set-up and pass, keeps the best shot, and
//! scales every best time it reports by [`NOMINAL_MS`] over that best
//! shot: times are reported at the speed of the host the benchmark was
//! tuned on. A set-up time, which enters a median rather than a best,
//! is scaled by the best of the shots taken right after it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Best time of one shot on the reference host (a 2-vCPU Intel Xeon VM at
/// 2.1 GHz), in milliseconds.
pub const NOMINAL_MS: f64 = 0.3;

/// Keys of the map a shot works on: 16 K entries, a few hundred kilobytes.
const KEYS: u64 = 16_384;

/// Map operations per shot.
const OPS: u32 = 5_000;

struct Reference {
    map: BTreeMap<u64, u64>,
    state: u64,
    armed: bool,
    best_ms: f64,
    shots: u64,
    spent_s: f64,
}

thread_local! {
    static REFERENCE: RefCell<Reference> = RefCell::new(Reference::new());
}

impl Reference {
    fn new() -> Self {
        let mut r = Reference {
            map: BTreeMap::new(),
            state: 0x9E37_79B9_7F4A_7C15,
            armed: false,
            best_ms: f64::INFINITY,
            shots: 0,
            spent_s: 0.0,
        };
        // Fill the map to its steady size before any shot is timed.
        for _ in 0..20 {
            std::hint::black_box(r.work());
        }
        r
    }

    /// One shot's work: xorshift keys, one insert per four lookups.
    fn work(&mut self) -> u64 {
        let mut acc = 0;
        for _ in 0..OPS {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let key = self.state % KEYS;
            if self.state & 0x30 == 0 {
                self.map.insert(key, self.state);
            } else if let Some(v) = self.map.get(&key) {
                acc ^= v;
            }
        }
        acc
    }
}

/// Starts a new measurement: forgets the best shot and, with `armed`,
/// makes [`shot`] time the reference; unarmed, a shot does nothing, so a
/// traced run's spans contain no reference work.
pub fn start(armed: bool) {
    REFERENCE.with(|r| {
        let mut r = r.borrow_mut();
        r.armed = armed;
        r.best_ms = f64::INFINITY;
        r.shots = 0;
    });
}

/// Times one shot of the reference, when armed, and returns its time in
/// milliseconds.
pub fn shot() -> Option<f64> {
    REFERENCE.with(|r| {
        let mut r = r.borrow_mut();
        if !r.armed {
            return None;
        }
        let t = Instant::now();
        std::hint::black_box(r.work());
        let s = t.elapsed().as_secs_f64();
        r.best_ms = r.best_ms.min(s * 1e3);
        r.shots += 1;
        r.spent_s += s;
        Some(s * 1e3)
    })
}

/// Seconds spent in shots so far, so a pass can leave them out of its
/// wall time.
pub fn spent_s() -> f64 {
    REFERENCE.with(|r| r.borrow().spent_s)
}

/// The best shot since [`start`], in milliseconds, and the shot count.
pub fn best_ms() -> (f64, u64) {
    REFERENCE.with(|r| {
        let r = r.borrow();
        (r.best_ms, r.shots)
    })
}
