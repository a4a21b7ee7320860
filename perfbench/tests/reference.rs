//! Tests of the host-speed reference that scales an end-to-end run's times.

use axmc_perfbench::reference;

#[test]
fn an_unarmed_shot_does_no_work() {
    reference::start(false);
    let spent = reference::spent_s();
    assert_eq!(reference::shot(), None);
    assert_eq!(reference::best_ms(), (f64::INFINITY, 0));
    assert_eq!(reference::spent_s(), spent);
}

#[test]
fn armed_shots_keep_the_best_time_and_count_their_cost() {
    reference::start(true);
    let spent = reference::spent_s();
    let times: Vec<f64> = (0..3).filter_map(|_| reference::shot()).collect();
    let (best, shots) = reference::best_ms();
    assert_eq!(shots, 3);
    assert_eq!(best, times.iter().copied().fold(f64::INFINITY, f64::min));
    assert!(best > 0.0 && best.is_finite());
    // Three shots take at least three times the best one.
    assert!(reference::spent_s() - spent >= 3.0 * best / 1e3);
    // A new measurement forgets the best shot.
    reference::start(true);
    assert_eq!(reference::best_ms(), (f64::INFINITY, 0));
}
