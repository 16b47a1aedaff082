//! The self-time fold on a hand-built span tree.

use beas_benchmark::trace::{fold, Span, ROOT};

fn span(request: u64, id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
    Span {
        request,
        id,
        parent,
        name,
        start_ns: start,
        end_ns: end,
    }
}

#[test]
fn self_time_is_duration_minus_child_cover() {
    let spans = [
        // request 0: 0..100 with children 10..30 and 50..90; the second has
        // a child of its own, 60..70
        span(0, 1, ROOT, "request", 0, 100),
        span(0, 2, 1, "plan", 10, 30),
        span(0, 3, 1, "execute", 50, 90),
        span(0, 4, 3, "fetch", 60, 70),
        // request 1: 200..300 with two overlapping children (parallel shard
        // calls) 210..260 and 240..280 — covered once, 70 ns — and one that
        // outlives its parent, clipped to 290..300
        span(1, 5, ROOT, "request", 200, 300),
        span(1, 6, 5, "call", 210, 260),
        span(1, 7, 5, "call", 240, 280),
        span(1, 8, 5, "call", 290, 320),
    ];
    let folded = fold(&spans);
    assert_eq!(folded.roots, 2);
    assert_eq!(folded.root_total_ns, 200);
    // request 0: 100 − (20 + 40) = 40; request 1: 100 − (70 + 10) = 20
    assert_eq!(folded.by_name["request"].self_ns, 60);
    assert_eq!(folded.root_self_ns, 60);
    assert_eq!(folded.by_name["plan"].self_ns, 20);
    assert_eq!(folded.by_name["execute"].self_ns, 30);
    assert_eq!(folded.by_name["fetch"].self_ns, 10);
    // spans without children keep their whole duration
    assert_eq!(folded.by_name["call"].self_ns, 50 + 40 + 30);
    assert_eq!(folded.by_name["call"].spans, 3);
    assert!((folded.attributed_share() - 0.7).abs() < 1e-12);
    assert!((folded.self_us_per_root("plan") - 0.01).abs() < 1e-12);
    assert!((folded.share("execute") - 0.15).abs() < 1e-12);
    assert_eq!(folded.self_us_per_root("never recorded"), 0.0);
}

#[test]
fn spans_of_different_requests_never_nest() {
    // same ids' parent/child numbers in two requests must not mix
    let spans = [
        span(0, 1, ROOT, "request", 0, 10),
        span(1, 2, ROOT, "request", 0, 10),
        span(1, 3, 1, "stray", 2, 8), // names parent 1, but in request 1
    ];
    let folded = fold(&spans);
    assert_eq!(folded.by_name["request"].self_ns, 20);
}
