//! Property tests on Algorithm 1 and the planner invariants.

use proptest::prelude::*;
use smache::config::{Algorithm1, PlanStrategy, SourceRef};
use smache::cost::CostEstimate;
use smache::{HybridMode, SmacheBuilder};
use smache_stencil::{AxisBoundaries, Boundary, BoundarySpec, GridSpec, StencilShape};
use smache_stencil::{RangeSpec, TupleSpec};

fn arb_tuple() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-2000i64..2000, 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The exact optimiser never loses to the greedy one, and both never
    /// lose to the no-static baseline split.
    #[test]
    fn exact_beats_greedy_beats_nothing(offsets in arb_tuple(), len in 1usize..500) {
        let range = RangeSpec { start: 0, len, tuple: TupleSpec::new(offsets.clone()) };
        let exact = Algorithm1::Exact.decide(&range);
        let greedy = Algorithm1::Greedy.decide(&range);
        prop_assert!(exact.cost.total() <= greedy.cost.total(),
            "exact {} > greedy {}", exact.cost.total(), greedy.cost.total());

        // All-stream cost: anchored window of the full tuple.
        let t = TupleSpec::new(offsets);
        let all_stream = t.anchored_reach() + 1;
        prop_assert!(exact.cost.total() <= all_stream);
    }

    /// Decisions partition the tuple: every offset is either streamed or
    /// statified, never both, never dropped.
    #[test]
    fn decisions_partition_offsets(offsets in arb_tuple(), len in 1usize..100) {
        let range = RangeSpec { start: 0, len, tuple: TupleSpec::new(offsets) };
        for alg in [Algorithm1::Greedy, Algorithm1::Exact] {
            let d = alg.decide(&range);
            let mut rebuilt: Vec<i64> =
                d.stream_offsets.iter().chain(d.static_offsets.iter()).copied().collect();
            rebuilt.sort_unstable();
            prop_assert_eq!(&rebuilt, &range.tuple.offsets().to_vec(), "{:?}", alg);
            // Cost bookkeeping is consistent.
            prop_assert_eq!(
                d.cost.static_words,
                d.static_offsets.len() as u64 * len as u64
            );
            // Streamed offsets fit the anchored window implied by the cost.
            let lo = d.stream_offsets.iter().copied().min().unwrap_or(0).min(0);
            let hi = d.stream_offsets.iter().copied().max().unwrap_or(0).max(0);
            prop_assert_eq!(d.cost.stream_words, (hi - lo) as u64 + 1);
        }
    }

    /// Plan-level invariants over random 2D problems: every stream tap
    /// lies inside the window, every static buffer region inside the
    /// grid, and the global strategy never exceeds the per-range one.
    #[test]
    fn plan_invariants(
        h in 3usize..12,
        w in 3usize..12,
        row_circ in any::<bool>(),
        col_circ in any::<bool>(),
        nine in any::<bool>(),
    ) {
        let bound = |c: bool| if c { Boundary::Circular } else { Boundary::Open };
        let grid = GridSpec::d2(h, w).expect("valid");
        let bounds = BoundarySpec::new(&[
            AxisBoundaries::both(bound(row_circ)),
            AxisBoundaries::both(bound(col_circ)),
        ]).expect("axes");
        let shape = if nine { StencilShape::nine_point_2d() } else { StencilShape::four_point_2d() };

        let build = |strategy| SmacheBuilder::new(grid.clone())
            .shape(shape.clone())
            .boundaries(bounds.clone())
            .strategy(strategy)
            .hybrid(HybridMode::CaseR)
            .plan();

        let global = build(PlanStrategy::GlobalWindow).expect("global plan");

        // Taps within the window.
        for &tap in &global.taps {
            prop_assert!(tap < global.capacity);
        }
        // Static regions within the grid; slots map back to grid indices.
        for b in global.static_buffers.iter() {
            prop_assert!(b.region_start + b.len <= grid.len());
            prop_assert!(b.range_start + b.len <= grid.len());
        }
        // Every element's sources resolve.
        let mut sources = Vec::new();
        for e in 0..grid.len() {
            global.sources_for(e, &mut sources).expect("sources resolve");
            prop_assert_eq!(sources.len(), shape.len(), "positional: one per point");
            for s in sources.iter().flatten() {
                match *s {
                    SourceRef::Tap { pos } => prop_assert!(pos < global.capacity),
                    SourceRef::Static { buffer, slot, port } => {
                        let b = &global.static_buffers[buffer];
                        prop_assert!(slot < b.len);
                        prop_assert!(port < 2);
                    }
                    SourceRef::Constant(_) => {}
                }
            }
        }

        // Global window optimality vs the per-range strategies, measured
        // in the formal model's words.
        for alg in [Algorithm1::Greedy, Algorithm1::Exact] {
            if let Ok(per_range) = build(PlanStrategy::PerRange(alg)) {
                prop_assert!(
                    global.model_words() <= per_range.model_words(),
                    "global {} > per-range {} ({alg:?})",
                    global.model_words(),
                    per_range.model_words()
                );
            }
        }
    }

    /// The cost estimate is monotone in the problem: a wider grid never
    /// needs less stream-buffer memory under the same configuration.
    #[test]
    fn estimate_monotone_in_width(w in 4usize..64) {
        let plan_at = |width: usize| SmacheBuilder::new(
            GridSpec::d2(6, width).expect("valid"))
            .plan()
            .expect("plan");
        let small = CostEstimate.memory(&plan_at(w));
        let large = CostEstimate.memory(&plan_at(w + 1));
        prop_assert!(
            large.r_stream + large.b_stream >= small.r_stream + small.b_stream
        );
    }
}
