//! The median/percentile helpers, the fastest of replays and the
//! constant-memory histogram.

use decima_benchmark::stats::{fastest_replays, median, percentile, tail_percentile, LatencyHist};

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
    assert!(median(&[]).is_nan());
}

#[test]
fn fastest_replays_takes_each_call_at_its_shortest() {
    // Three replays of a round of three calls: the sum of the columns'
    // minima, not the shortest replay (which would be 1+5+3 = 9).
    let replays: [&[f64]; 3] = [&[1.0, 5.0, 3.0], &[2.0, 4.0, 6.0], &[3.0, 7.0, 2.0]];
    assert_eq!(fastest_replays(replays), 1.0 + 4.0 + 2.0);
    assert_eq!(fastest_replays([&[2.5][..]]), 2.5);
    // A replay cut short leaves its missing calls to the others.
    assert_eq!(fastest_replays([&[1.0][..], &[2.0, 3.0]]), 4.0);
    assert_eq!(fastest_replays(std::iter::empty::<&[f64]>()), 0.0);
}

#[test]
fn percentile_interpolates_between_ranks() {
    let v = [10.0, 20.0, 30.0, 40.0, 50.0];
    assert_eq!(percentile(&v, 0.0), 10.0);
    assert_eq!(percentile(&v, 100.0), 50.0);
    assert_eq!(percentile(&v, 25.0), 20.0);
    assert_eq!(percentile(&v, 90.0), 46.0);
    // Input order does not matter.
    assert_eq!(percentile(&[50.0, 10.0, 40.0, 20.0, 30.0], 90.0), 46.0);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(99_999), Some(99.9));
    assert_eq!(tail_percentile(100_000), Some(99.99));
    assert_eq!(tail_percentile(50_000_000), Some(99.99));
}

#[test]
fn histogram_percentiles_track_the_exact_ones() {
    // A long-tailed sample from 300 ns to ~3 ms.
    let samples: Vec<u64> = (0..20_000u64).map(|i| 300 + i * i / 130).collect();
    let mut h = LatencyHist::default();
    for &s in &samples {
        h.record(s);
    }
    assert_eq!(h.len(), samples.len() as u64);
    assert_eq!(h.sum_ns(), samples.iter().sum::<u64>());
    let exact: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    for p in [1.0, 50.0, 90.0, 99.0, 99.9] {
        let want = percentile(&exact, p);
        let got = h.percentile_ns(p);
        assert!(
            (got - want).abs() <= 0.02 * want,
            "p{p}: histogram {got} vs exact {want}"
        );
    }
}

#[test]
fn histogram_is_exact_below_its_first_octave_and_safe_at_the_extremes() {
    let mut h = LatencyHist::default();
    assert!(h.is_empty());
    assert!(h.percentile_ns(50.0).is_nan());
    for ns in [0, 1, 2, 3, 4] {
        h.record(ns);
    }
    let p50 = h.percentile_ns(50.0);
    assert!((2.0..=3.0).contains(&p50), "{p50}");
    h.record(u64::MAX);
    assert!(h.percentile_ns(100.0).is_finite());
}

#[test]
fn merged_histograms_count_both_sides() {
    let (mut a, mut b) = (LatencyHist::default(), LatencyHist::default());
    for i in 0..1000 {
        a.record(1_000 + i);
        b.record(100_000 + i);
    }
    a.merge(&b);
    assert_eq!(a.len(), 2000);
    assert!(a.percentile_ns(25.0) < 3_000.0);
    assert!(a.percentile_ns(75.0) > 90_000.0);
}
