//! The resolved source table ≡ the naive per-element resolver.
//!
//! FSM-2 gathers through a [`SourceTable`] built once per module from the
//! allocation-free [`BufferPlan::sources_for`]. This test keeps the
//! straightforward resolver — `linear_tuple` over the element's coordinates
//! plus a linear scan of the decisions — as the reference, and checks
//! every element of every table against it, including the decision
//! lookup. Resolution failures must agree too: the table fails with the
//! reference's first error in element order.

use proptest::prelude::*;
use smache::config::{BufferPlan, RangeDecision, SourceRef, SourceTable};
use smache::{CoreError, HybridMode, PlanStrategy, SmacheBuilder};
use smache_stencil::{linear_tuple, LinearAccess};
use smache_stencil::{AxisBoundaries, Boundary, BoundarySpec, GridSpec, StencilShape};

/// Reference decision lookup: the first decision whose range covers `e`.
fn naive_decision(plan: &BufferPlan, e: usize) -> Option<&RangeDecision> {
    plan.decisions
        .iter()
        .find(|d| e >= d.range.start && e < d.range.end())
}

/// Reference resolver: one `linear_tuple` per element, linear scans for
/// the decision and the static buffer.
fn naive_sources(plan: &BufferPlan, e: usize) -> Result<Vec<Option<SourceRef>>, CoreError> {
    let coords = plan.grid.coords(e)?;
    let accesses = linear_tuple(&plan.grid, &plan.bounds, &plan.shape, &coords)?;
    let decision = naive_decision(plan, e)
        .ok_or_else(|| CoreError::Config(format!("element {e} not covered by any range")))?;
    let mut out: Vec<Option<SourceRef>> = Vec::new();
    for a in accesses {
        let src = match a {
            LinearAccess::Skip => None,
            LinearAccess::Constant(v) => Some(SourceRef::Constant(v)),
            LinearAccess::Rel(o) if decision.static_offsets.contains(&o) => {
                let target = (e as i64 + o) as usize;
                let buffer = plan
                    .static_buffers
                    .iter()
                    .find(|b| {
                        if plan.statics_are_regions {
                            b.contains_region(target)
                        } else {
                            b.offset == o && e >= b.range_start && e < b.range_start + b.len
                        }
                    })
                    .ok_or_else(|| {
                        CoreError::Config(format!(
                            "no static buffer for offset {o} serving element {e}"
                        ))
                    })?;
                let slot = if plan.statics_are_regions {
                    target - buffer.region_start
                } else {
                    e - buffer.range_start
                };
                let port = out
                    .iter()
                    .flatten()
                    .filter(|s| matches!(s, SourceRef::Static { buffer: b, .. } if *b == buffer.id))
                    .count();
                if port >= 2 {
                    return Err(CoreError::Config(format!(
                        "element {e} needs more than two concurrent reads of static buffer {}",
                        buffer.id
                    )));
                }
                Some(SourceRef::Static {
                    buffer: buffer.id,
                    slot,
                    port,
                })
            }
            LinearAccess::Rel(o) => Some(SourceRef::Tap {
                pos: plan.pos_of_offset(o),
            }),
        };
        out.push(src);
    }
    Ok(out)
}

/// Checks one plan: decision lookup, the resolver and the table, element
/// by element.
fn check_plan(plan: &BufferPlan, label: &str) -> Result<(), TestCaseError> {
    let n = plan.grid.len();
    for e in 0..n {
        let fast = plan.decision_for(e).ok().map(|d| d as *const RangeDecision);
        let slow = naive_decision(plan, e).map(|d| d as *const RangeDecision);
        prop_assert_eq!(fast, slow, "{}: decision of element {}", label, e);
    }
    let reference: Result<Vec<_>, CoreError> = (0..n).map(|e| naive_sources(plan, e)).collect();
    let table = SourceTable::build(plan);
    match (&reference, &table) {
        (Ok(rows), Ok(table)) => {
            prop_assert_eq!(table.len(), n);
            prop_assert_eq!(table.width(), plan.shape.len());
            let mut direct = Vec::new();
            let mut from_table = Vec::new();
            for (e, want) in rows.iter().enumerate() {
                plan.sources_for(e, &mut direct).expect("resolves");
                table.sources(e, &mut from_table);
                prop_assert_eq!(&direct, want, "{}: sources_for of element {}", label, e);
                prop_assert_eq!(&from_table, want, "{}: table row of element {}", label, e);
                let mask = want
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_some())
                    .fold(0u64, |m, (p, _)| m | 1 << p);
                prop_assert_eq!(table.mask(e), mask, "{}: mask of element {}", label, e);
            }
        }
        (Err(want), Err(got)) => prop_assert_eq!(got, want, "{}: first error", label),
        _ => prop_assert!(
            false,
            "{}: reference {:?} but table {:?}",
            label,
            reference.as_ref().err(),
            table.as_ref().err()
        ),
    }
    Ok(())
}

fn uniform(b: Boundary, ndim: usize) -> BoundarySpec {
    BoundarySpec::new(&vec![AxisBoundaries::both(b); ndim]).expect("bounds")
}

fn rows_cols(rows: Boundary, cols: Boundary) -> BoundarySpec {
    BoundarySpec::new(&[AxisBoundaries::both(rows), AxisBoundaries::both(cols)]).expect("bounds")
}

/// The named plans, each with and without region dedupe.
#[test]
fn named_plans_match_the_naive_resolver() {
    let cases: Vec<(&str, SmacheBuilder)> = vec![
        (
            "11x11 nine-case, Case-H",
            SmacheBuilder::new(GridSpec::d2(11, 11).unwrap()),
        ),
        (
            "11x11 nine-case, Case-R",
            SmacheBuilder::new(GridSpec::d2(11, 11).unwrap()).hybrid(HybridMode::CaseR),
        ),
        (
            "8x8x8 circular",
            SmacheBuilder::new(GridSpec::d3(8, 8, 8).unwrap())
                .shape(StencilShape::seven_point_3d())
                .boundaries(uniform(Boundary::Circular, 3)),
        ),
        (
            "24x24 nine-point mirror/open",
            SmacheBuilder::new(GridSpec::d2(24, 24).unwrap())
                .shape(StencilShape::nine_point_2d())
                .boundaries(rows_cols(Boundary::Mirror, Boundary::Open)),
        ),
        (
            "16x16 rows const:7",
            SmacheBuilder::new(GridSpec::d2(16, 16).unwrap())
                .boundaries(rows_cols(Boundary::Constant(7), Boundary::Open)),
        ),
        (
            "12x12 nine-point, rows const:3, cols const:9",
            SmacheBuilder::new(GridSpec::d2(12, 12).unwrap())
                .shape(StencilShape::nine_point_2d())
                .boundaries(rows_cols(Boundary::Constant(3), Boundary::Constant(9))),
        ),
        (
            "14x14 reach-2 cross, circular rows",
            SmacheBuilder::new(GridSpec::d2(14, 14).unwrap())
                .shape(StencilShape::cross_2d(2).unwrap())
                .hybrid(HybridMode::CaseR),
        ),
        (
            "12x12 nine-point torus, per-range exact",
            SmacheBuilder::new(GridSpec::d2(12, 12).unwrap())
                .shape(StencilShape::nine_point_2d())
                .boundaries(uniform(Boundary::Circular, 2))
                .strategy(PlanStrategy::PerRange(smache::Algorithm1::Exact)),
        ),
    ];
    let mut checked = 0;
    for (label, builder) in cases {
        let plan = builder.plan().expect(label);
        check_plan(&plan, label).unwrap();
        if plan.static_buffers.len() >= 2 {
            let mut deduped = plan.clone();
            deduped.dedupe_static_regions();
            assert!(deduped.statics_are_regions);
            check_plan(&deduped, &format!("{label}, deduped")).unwrap();
        }
        checked += 1;
    }
    assert_eq!(checked, 8);
}

fn arb_boundary() -> impl Strategy<Value = Boundary> {
    prop_oneof![
        Just(Boundary::Open),
        Just(Boundary::Circular),
        Just(Boundary::Mirror),
        (0u64..50).prop_map(Boundary::Constant),
    ]
}

fn arb_axes(ndim: usize) -> impl Strategy<Value = BoundarySpec> {
    proptest::collection::vec((arb_boundary(), arb_boundary()), ndim).prop_map(|v| {
        let axes: Vec<AxisBoundaries> = v
            .into_iter()
            .map(|(low, high)| AxisBoundaries { low, high })
            .collect();
        BoundarySpec::new(&axes).expect("bounds")
    })
}

/// A random problem: 1D, 2D or 3D grid, a shape of matching rank, random
/// per-edge boundaries.
fn arb_problem() -> impl Strategy<Value = (GridSpec, StencilShape, BoundarySpec)> {
    prop_oneof![
        (4usize..40, 1usize..4, arb_axes(1)).prop_map(|(n, k, b)| (
            GridSpec::d1(n).unwrap(),
            StencilShape::symmetric_1d(k).unwrap(),
            b
        )),
        (3usize..18, 3usize..18, 0usize..4, arb_axes(2)).prop_map(|(h, w, s, b)| {
            let shape = match s {
                0 => StencilShape::four_point_2d(),
                1 => StencilShape::five_point_2d(),
                2 => StencilShape::nine_point_2d(),
                _ => StencilShape::cross_2d(2).unwrap(),
            };
            (GridSpec::d2(h, w).unwrap(), shape, b)
        }),
        (3usize..7, 3usize..7, 3usize..7, arb_axes(3)).prop_map(|(d, h, w, b)| (
            GridSpec::d3(d, h, w).unwrap(),
            StencilShape::seven_point_3d(),
            b
        )),
    ]
}

fn arb_strategy() -> impl Strategy<Value = PlanStrategy> {
    prop_oneof![
        Just(PlanStrategy::GlobalWindow),
        Just(PlanStrategy::PerRange(smache::Algorithm1::Greedy)),
        Just(PlanStrategy::PerRange(smache::Algorithm1::Exact)),
        Just(PlanStrategy::AllStream),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random specs, with and without region dedupe.
    #[test]
    fn random_plans_match_the_naive_resolver(
        problem in arb_problem(),
        strategy in arb_strategy(),
        case_r in any::<bool>(),
        dedupe in any::<bool>(),
    ) {
        let (grid, shape, bounds) = problem;
        let hybrid = if case_r { HybridMode::CaseR } else { HybridMode::default() };
        let label = format!("{:?} {:?} {:?} {:?} dedupe={}", grid.dims(), bounds, strategy, hybrid, dedupe);
        let planned = SmacheBuilder::new(grid)
            .shape(shape)
            .boundaries(bounds)
            .strategy(strategy)
            .hybrid(hybrid)
            .dedupe_static_regions(dedupe)
            .plan();
        // Some per-range plans are rejected at analysis (a union-tuple
        // region escapes the grid); there is no table to check then.
        if let Ok(plan) = planned {
            check_plan(&plan, &label)?;
        }
    }
}
