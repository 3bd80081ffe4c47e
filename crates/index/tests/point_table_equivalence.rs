//! `PointTable` against the R\*-tree and the scalar geometry reference.
//!
//! The correlation and trend monitors replaced their R\*-trees with the
//! banded table on the strength of one claim: over the same points, a
//! radius or box query returns **exactly** the tree's entry set, with
//! bit-identical distances. This suite pins it under interleaved `push` /
//! `retain` / `clear` at the dimensionalities the scan kernels
//! special-case (1–4, 8, 16) and one they do not (5), with inputs aimed at
//! the banding: coordinates exactly on band edges, far outside the unit
//! ball the monitors live in, radius 0, radii that put `p₀ ± r` on an
//! edge, and a radius larger than the whole data range.

use proptest::prelude::*;
use stardust_index::geometry::scalar;
use stardust_index::{PointTable, RStarTree, Rect};

const DIMS: [usize; 7] = [1, 2, 3, 4, 5, 8, 16];
const MAX_DIMS: usize = 16;
/// Every finite width has its edges on the quarter grid `coord` draws
/// from; the infinite one is the trend monitor's single band.
const BAND_WIDTHS: [f64; 5] = [0.25, 0.5, 1.0, 3.0, f64::INFINITY];

#[derive(Debug, Clone)]
enum Op {
    Push(Vec<f64>),
    /// Drop the ids congruent to `residue` modulo `modulus`.
    Retain {
        modulus: u32,
        residue: u32,
    },
    Clear,
    Within {
        point: Vec<f64>,
        radius: f64,
    },
    InBox {
        lo: Vec<f64>,
        extent: Vec<f64>,
    },
}

/// Inside the unit ball, on the quarter grid (band edges), and well
/// outside `[-1, 1]`; `-0.0` normalized away as in the geometry suite.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => -1.0f64..1.0,
        3 => (-12i32..=12).prop_map(|k| k as f64 * 0.25),
        2 => -50.0f64..50.0,
    ]
    .prop_map(|x| if x == 0.0 { 0.0 } else { x })
}

fn radius() -> impl Strategy<Value = f64> {
    prop_oneof![
        1 => Just(0.0),
        3 => 0.0f64..0.6,
        2 => (0i32..=8).prop_map(|k| k as f64 * 0.25),
        1 => Just(1000.0),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let point = || proptest::collection::vec(coord(), MAX_DIMS);
    prop_oneof![
        8 => point().prop_map(Op::Push),
        1 => (2u32..5, 0u32..5).prop_map(|(modulus, residue)| Op::Retain { modulus, residue }),
        1 => Just(Op::Clear),
        4 => (point(), radius()).prop_map(|(point, radius)| Op::Within { point, radius }),
        3 => (point(), proptest::collection::vec(radius(), MAX_DIMS))
            .prop_map(|(lo, extent)| Op::InBox { lo, extent }),
    ]
}

/// `(id, distance bits)` hits in id order.
type Hits = Vec<(u32, u64)>;

fn sorted(mut hits: Hits) -> Hits {
    hits.sort_unstable();
    hits
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn table_agrees_with_tree_and_scalar_reference(
        dims in 0usize..DIMS.len(),
        width in 0usize..BAND_WIDTHS.len(),
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let dims = DIMS[dims];
        let width = BAND_WIDTHS[width];
        let mut table: PointTable<u32> = PointTable::new(dims, width);
        let mut tree: RStarTree<u32> = RStarTree::new(dims);
        let mut shadow: Vec<(Vec<f64>, u32)> = Vec::new();
        let mut next_id = 0u32;
        for op in &ops {
            match op {
                Op::Push(point) => {
                    let point = &point[..dims];
                    table.push(point, next_id);
                    tree.insert(Rect::point(point), next_id);
                    shadow.push((point.to_vec(), next_id));
                    next_id += 1;
                }
                Op::Retain { modulus, residue } => {
                    let keep = |id: &u32| id % modulus != *residue;
                    table.retain(keep);
                    for (point, id) in shadow.iter().filter(|(_, id)| !keep(id)) {
                        prop_assert!(tree.remove(&Rect::point(point), id));
                    }
                    shadow.retain(|(_, id)| keep(id));
                }
                Op::Clear => {
                    table.clear();
                    tree = RStarTree::new(dims);
                    shadow.clear();
                }
                Op::Within { point, radius } => {
                    let (point, r) = (&point[..dims], *radius);
                    let mut got: Hits = Vec::new();
                    table.scan_within(point, r, |&id, d| got.push((id, d.to_bits())));
                    if width == f64::INFINITY {
                        // One band: hits arrive in push order.
                        prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
                    }
                    let from_tree: Hits = tree
                        .collect_within(point, r)
                        .into_iter()
                        .map(|(rect, &id)| (id, rect.min_dist_point(point).to_bits()))
                        .collect();
                    let from_scalar: Hits = shadow
                        .iter()
                        .map(|(e, id)| (*id, scalar::min_dist_point_sqr(e, e, point).sqrt()))
                        .filter(|&(_, d)| d <= r)
                        .map(|(id, d)| (id, d.to_bits()))
                        .collect();
                    let got = sorted(got);
                    prop_assert_eq!(&got, &sorted(from_tree), "vs tree: p={:?} r={}", point, r);
                    prop_assert_eq!(&got, &sorted(from_scalar), "vs scalar: p={:?} r={}", point, r);
                }
                Op::InBox { lo, extent } => {
                    let lo = &lo[..dims];
                    let hi: Vec<f64> = lo.iter().zip(extent).map(|(l, e)| l + e).collect();
                    let mut got: Vec<u32> = Vec::new();
                    table.scan_in_box(lo, &hi, |&id| got.push(id));
                    let mut from_tree: Vec<u32> = tree
                        .collect_intersecting(&Rect::new(lo.to_vec(), hi.clone()))
                        .into_iter()
                        .map(|(_, &id)| id)
                        .collect();
                    let from_scalar: Vec<u32> = shadow
                        .iter()
                        .filter(|(e, _)| scalar::intersect(lo, &hi, e, e))
                        .map(|&(_, id)| id)
                        .collect();
                    got.sort_unstable();
                    from_tree.sort_unstable();
                    prop_assert_eq!(&got, &from_tree, "vs tree: box [{:?}, {:?}]", lo, hi);
                    prop_assert_eq!(&got, &from_scalar, "vs scalar: box [{:?}, {:?}]", lo, hi);
                }
            }
            prop_assert_eq!(table.len(), shadow.len());
        }
        // The table still holds exactly the surviving points.
        let mut held: Vec<(u32, Vec<f64>)> =
            table.iter().map(|(point, &id)| (id, point.to_vec())).collect();
        held.sort_by_key(|&(id, _)| id);
        let want: Vec<(u32, Vec<f64>)> =
            shadow.iter().map(|(point, id)| (*id, point.clone())).collect();
        prop_assert_eq!(held, want);
    }
}

/// The case the reach slack exists for: the rounded difference
/// `fl(e₀ − p₀)` equals the radius although `e₀` lies an ulp-scale step
/// beyond `p₀ − r`, in the band below the one `p₀ − r` falls in. The tree
/// and the scalar reference report it; so must the table.
#[test]
fn rounded_difference_on_a_band_edge_is_not_dismissed() {
    let (entry, query, r) = ([-1e-17], [1.0], 1.0);
    assert_eq!(scalar::min_dist_point_sqr(&entry, &entry, &query).sqrt(), r);
    let mut table = PointTable::new(1, 1.0);
    table.push(&entry, ());
    let mut hits = 0;
    table.scan_within(&query, r, |_, d| {
        assert_eq!(d, r);
        hits += 1;
    });
    assert_eq!(hits, 1);
}
