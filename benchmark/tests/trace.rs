//! Span bookkeeping and the self-time arithmetic.

use decima_bench::json::Json;
use decima_benchmark::trace::{
    layer_self_secs, root_range, root_ranges, self_times, total_secs, Span, Tracer,
};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>, calls: u64) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: 1,
        calls,
    }
}

/// ```text
/// 0 measure  [0, 100]
/// 1   sim.run   [10, 40]
/// 2     decide    folded, 25 ns over 5 calls
/// 3   sim.run   [50, 90]
/// 4     decide    folded, 45 ns over 9 calls — 5 ns past its parent
/// 5 extras   [100, 130]
/// 6   sim.run   [105, 125]
/// ```
fn hand_built() -> Vec<Span> {
    vec![
        span("measure", 0, 100, None, 1),
        span("sim.run", 10, 40, Some(0), 1),
        span("decide", 10, 35, Some(1), 5),
        span("sim.run", 50, 90, Some(0), 1),
        span("decide", 50, 95, Some(3), 9),
        span("extras", 100, 130, None, 1),
        span("sim.run", 105, 125, Some(5), 1),
    ]
}

#[test]
fn self_time_is_length_minus_children() {
    let own = self_times(&hand_built());
    // measure: 100 − 30 − 40; first run: 30 − 25; second run: 40 − 45,
    // floored at zero; folded spans and leaves keep their length.
    assert_eq!(own, vec![30, 5, 25, 0, 45, 10, 20]);
}

#[test]
fn roots_own_contiguous_ranges() {
    let spans = hand_built();
    assert_eq!(
        root_ranges(&spans),
        vec![("measure", 0..5), ("extras", 5..7)]
    );
    assert_eq!(root_range(&spans, "extras"), 5..7);
    assert_eq!(root_range(&spans, "absent"), 0..0);
}

#[test]
fn layer_self_time_sums_by_name_inside_one_root() {
    let spans = hand_built();
    let measure = layer_self_secs(&spans, root_range(&spans, "measure"));
    assert_eq!(measure.len(), 3);
    assert!((measure["measure"] - 30e-9).abs() < 1e-15);
    assert!((measure["sim.run"] - 5e-9).abs() < 1e-15);
    assert!((measure["decide"] - 70e-9).abs() < 1e-15);
    // The third `sim.run` belongs to the other root.
    let extras = layer_self_secs(&spans, root_range(&spans, "extras"));
    assert!((extras["sim.run"] - 20e-9).abs() < 1e-15);

    let (secs, calls) = total_secs(&spans, 0..5, "decide");
    assert!((secs - 70e-9).abs() < 1e-15);
    assert_eq!(calls, 14);
}

#[test]
fn tracer_links_parents_and_folds_calls() {
    let mut tr = Tracer::new(true);
    let out = tr.span("root", 7, |tr| {
        tr.span("child", 7, |tr| {
            tr.folded("calls", 7, 1_000, 4);
        });
        tr.span("child", 8, |_| 42)
    });
    assert_eq!(out, 42);
    let spans = tr.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[3].parent, Some(0));
    assert_eq!(
        (spans[2].name, spans[2].calls, spans[2].len_ns()),
        ("calls", 4, 1_000)
    );
    assert_eq!(spans[2].start_ns, spans[1].start_ns);
    assert_eq!((spans[1].op, spans[3].op), (7, 8));
    assert!(spans[0].end_ns >= spans[3].end_ns && spans[3].start_ns >= spans[1].end_ns);
}

#[test]
fn a_disabled_tracer_records_nothing_and_still_runs_the_body() {
    let mut tr = Tracer::new(false);
    let v = tr.span("root", 0, |tr| {
        tr.folded("calls", 0, 10, 1);
        tr.span("child", 0, |_| 5)
    });
    assert_eq!(v, 5);
    assert!(tr.spans().is_empty());
}

#[test]
fn the_span_file_is_json() {
    let mut tr = Tracer::new(true);
    tr.span("root", 1, |tr| tr.span("leaf", 1, |_| ()));
    let doc = Json::parse(&tr.to_json()).expect("span file parses");
    let spans = doc.as_arr().expect("an array");
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].get("name").and_then(Json::as_str), Some("leaf"));
    assert_eq!(spans[1].get("parent").and_then(Json::as_u64), Some(0));
    assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    for key in ["id", "start_ns", "end_ns", "op", "calls"] {
        assert!(spans[0].get(key).is_some(), "{key}");
    }
}
