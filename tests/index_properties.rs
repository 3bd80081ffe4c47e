//! Property tests of the R\*-tree against a naive shadow structure under
//! interleaved inserts, deletes, bulk rebuilds, and queries.

use proptest::prelude::*;
use stardust::index::{bulk_load, Params, RStarTree, Rect};

#[derive(Debug, Clone)]
enum Op {
    Insert {
        lo: Vec<f64>,
        extent: Vec<f64>,
    },
    RemoveOldest,
    /// Replace the tree with an STR bulk build over the live items (the
    /// crash-recovery path), then keep mutating it.
    BulkRebuild,
    Query {
        lo: Vec<f64>,
        extent: Vec<f64>,
    },
    Within {
        point: Vec<f64>,
        radius: f64,
    },
}

fn coord() -> impl Strategy<Value = f64> {
    -50.0f64..50.0
}

fn op_strategy(dims: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (
            proptest::collection::vec(coord(), dims),
            proptest::collection::vec(0.0f64..8.0, dims)
        )
            .prop_map(|(lo, extent)| Op::Insert { lo, extent }),
        1 => Just(Op::RemoveOldest),
        1 => Just(Op::BulkRebuild),
        2 => (
            proptest::collection::vec(coord(), dims),
            proptest::collection::vec(0.0f64..30.0, dims)
        )
            .prop_map(|(lo, extent)| Op::Query { lo, extent }),
        2 => (proptest::collection::vec(coord(), dims), 0.0f64..25.0)
            .prop_map(|(point, radius)| Op::Within { point, radius }),
    ]
}

fn rect(lo: &[f64], extent: &[f64]) -> Rect {
    Rect::new(lo.to_vec(), lo.iter().zip(extent).map(|(l, e)| l + e).collect())
}

/// An entry keyed by its exact bounds (`to_bits` of every corner
/// coordinate) and its value, so hit lists compare bounds as well as
/// payloads.
type Keyed<V> = (Vec<u64>, Vec<u64>, V);

fn keyed<V>(lo: &[f64], hi: &[f64], value: V) -> Keyed<V> {
    let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect();
    (bits(lo), bits(hi), value)
}

fn sorted<V: Ord>(mut entries: Vec<Keyed<V>>) -> Vec<Keyed<V>> {
    entries.sort_unstable();
    entries
}

/// Applies `ops` to the tree and the linear-scan shadow in lockstep,
/// checking on every query that the hits carry the shadow's exact bounds
/// and values, and after every op the full set of structural invariants
/// ([`RStarTree::validate`]: fill factors, exact child MBRs, level
/// uniformity, arena accounting) and that the tree's entries are exactly
/// the shadow's.
fn apply_ops(
    tree: &mut RStarTree<u32>,
    shadow: &mut Vec<(Rect, u32)>,
    next_id: &mut u32,
    cap: usize,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    for op in ops {
        match op {
            Op::Insert { lo, extent } => {
                let r = rect(lo, extent);
                tree.insert(r.clone(), *next_id);
                shadow.push((r, *next_id));
                *next_id += 1;
            }
            Op::RemoveOldest => {
                if let Some((r, v)) = shadow.first().cloned() {
                    prop_assert!(tree.remove(&r, &v));
                    shadow.remove(0);
                }
            }
            Op::BulkRebuild => {
                *tree = bulk_load(tree.dims(), Params::new(cap), shadow.clone());
            }
            Op::Query { lo, extent } => {
                let q = rect(lo, extent);
                let got = tree
                    .collect_intersecting(&q)
                    .iter()
                    .map(|(r, &v)| keyed(r.lo(), r.hi(), v))
                    .collect();
                let want = shadow
                    .iter()
                    .filter(|(r, _)| r.intersects(&q))
                    .map(|(r, v)| keyed(r.lo(), r.hi(), *v))
                    .collect();
                prop_assert_eq!(sorted(got), sorted(want));
            }
            Op::Within { point, radius } => {
                let got = tree
                    .collect_within(point, *radius)
                    .iter()
                    .map(|(r, &v)| keyed(r.lo(), r.hi(), v))
                    .collect();
                let want = shadow
                    .iter()
                    .filter(|(r, _)| r.min_dist_point(point) <= *radius)
                    .map(|(r, v)| keyed(r.lo(), r.hi(), *v))
                    .collect();
                prop_assert_eq!(sorted(got), sorted(want));
            }
        }
        tree.validate().map_err(TestCaseError::fail)?;
        prop_assert_eq!(tree.len(), shadow.len());
        let held = tree.iter().map(|(r, &v)| keyed(r.lo(), r.hi(), v)).collect();
        let want = shadow.iter().map(|(r, v)| keyed(r.lo(), r.hi(), *v)).collect();
        prop_assert_eq!(sorted(held), sorted(want));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn tree_agrees_with_shadow(
        ops in proptest::collection::vec(op_strategy(3), 1..250),
        cap in 4usize..12,
    ) {
        let mut tree = RStarTree::with_params(3, Params::new(cap));
        let mut shadow: Vec<(Rect, u32)> = Vec::new();
        let mut next_id = 0u32;
        apply_ops(&mut tree, &mut shadow, &mut next_id, cap, &ops)?;
    }

    /// The recovery shape: start from an STR bulk build over a seed
    /// population, then keep mutating and querying it.
    #[test]
    fn bulk_seeded_tree_agrees_with_shadow(
        seeds in proptest::collection::vec(
            (proptest::collection::vec(coord(), 3), proptest::collection::vec(0.0f64..8.0, 3)),
            0..400
        ),
        ops in proptest::collection::vec(op_strategy(3), 1..120),
        cap in 4usize..12,
    ) {
        let mut shadow: Vec<(Rect, u32)> = seeds
            .iter()
            .enumerate()
            .map(|(i, (lo, extent))| (rect(lo, extent), i as u32))
            .collect();
        let mut next_id = shadow.len() as u32;
        let mut tree = bulk_load(3, Params::new(cap), shadow.clone());
        tree.validate().map_err(TestCaseError::fail)?;
        prop_assert_eq!(tree.len(), shadow.len());
        apply_ops(&mut tree, &mut shadow, &mut next_id, cap, &ops)?;
    }

    #[test]
    fn bulk_load_equivalent_to_inserts(
        items in proptest::collection::vec(
            (proptest::collection::vec(coord(), 2), proptest::collection::vec(0.0f64..5.0, 2)),
            0..300
        ),
    ) {
        let rects: Vec<(Rect, usize)> = items
            .iter()
            .enumerate()
            .map(|(i, (lo, extent))| (rect(lo, extent), i))
            .collect();
        let bulk = bulk_load(2, Params::default(), rects.clone());
        bulk.validate().map_err(TestCaseError::fail)?;
        prop_assert_eq!(bulk.len(), rects.len());
        let q = Rect::new(vec![-20.0, -20.0], vec![20.0, 20.0]);
        let got = bulk.collect_intersecting(&q).iter().map(|(r, &v)| keyed(r.lo(), r.hi(), v)).collect();
        let want = rects
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|(r, v)| keyed(r.lo(), r.hi(), *v))
            .collect();
        prop_assert_eq!(sorted(got), sorted(want));
    }
}
