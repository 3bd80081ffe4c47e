//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! The offline baselines (MR-Index, GeneralMatch) build their indexes over a
//! batch of features at once, and crash recovery rebuilds per-level trees
//! from snapshotted MBR sets; STR packing produces a tree with near-100%
//! node utilization in one bottom-up pass — no ChooseSubtree descents, no
//! splits, no forced reinsertion — with better query clustering than
//! one-at-a-time insertion.
//!
//! The build is level-by-level, directly into arena nodes: items are
//! ordered by recursive sort-and-tile over their rectangle centers, packed
//! into full leaves (the tail is rebalanced so every non-root node meets
//! the minimum fill), and the same order-and-pack step repeats on the node
//! MBRs of each level until a single root remains.

use crate::geometry::Rect;
use crate::tree::{Params, RStarTree};

/// Builds an R\*-tree over `items` using bottom-up STR packing.
///
/// The resulting tree satisfies all structural invariants of
/// [`RStarTree::validate`] (leaves at ~100% fill, minimum fill respected
/// via tail rebalancing) and supports subsequent inserts/removes.
///
/// # Panics
/// Panics if the items' dimensionalities disagree with `dims`.
pub fn bulk_load<T>(dims: usize, params: Params, items: Vec<(Rect, T)>) -> RStarTree<T> {
    for (r, _) in &items {
        assert_eq!(r.dims(), dims, "rectangle dimensionality mismatch");
    }
    let mut tree = RStarTree::with_params(dims, params);
    let n = items.len();
    if n == 0 {
        return tree;
    }
    let capacity = params.max_entries;
    let min = params.min_entries;

    // Order the items by recursive sort-and-tile over rect centers, then
    // pack consecutive runs into full arena leaves.
    let centers: Vec<f64> = items
        .iter()
        .flat_map(|(r, _)| (0..dims).map(|d| (r.lo()[d] + r.hi()[d]) * 0.5).collect::<Vec<_>>())
        .collect();
    let order = str_order(n, dims, capacity, &|i, d| centers[i * dims + d]);
    let mut slots: Vec<Option<(Rect, T)>> = items.into_iter().map(Some).collect();
    let mut level_nodes: Vec<u32> = Vec::new();
    let mut pos = 0;
    for size in fill_sizes(n, capacity, min) {
        let group =
            order[pos..pos + size].iter().map(|&i| slots[i].take().expect("each item packed once"));
        level_nodes.push(tree.bulk_new_leaf(group));
        pos += size;
    }

    // Repeat the order-and-pack step on node MBRs until one root remains.
    let mut level = 0;
    while level_nodes.len() > 1 {
        level += 1;
        let count = level_nodes.len();
        let centers: Vec<f64> = level_nodes
            .iter()
            .flat_map(|&id| {
                let mbr = tree.bulk_node_mbr(id);
                (0..dims).map(|d| (mbr[d] + mbr[dims + d]) * 0.5).collect::<Vec<_>>()
            })
            .collect();
        let order = str_order(count, dims, capacity, &|i, d| centers[i * dims + d]);
        let mut parents = Vec::new();
        let mut pos = 0;
        for size in fill_sizes(count, capacity, min) {
            let ids: Vec<u32> = order[pos..pos + size].iter().map(|&i| level_nodes[i]).collect();
            parents.push(tree.bulk_new_inner(level, &ids));
            pos += size;
        }
        level_nodes = parents;
    }
    tree.bulk_finish(level_nodes[0], n);
    tree
}

/// The STR item order: indices `0..n` arranged so that consecutive runs of
/// `capacity` are spatially clustered. `center(i, d)` yields coordinate `d`
/// of element `i`'s center.
fn str_order(
    n: usize,
    dims: usize,
    capacity: usize,
    center: &impl Fn(usize, usize) -> f64,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    str_sort(&mut order, 0, dims, capacity, center);
    order
}

/// Recursively orders `order[..]`: sort by the current dimension's center,
/// tile into `slabs` groups, recurse on the next dimension within each.
fn str_sort(
    order: &mut [usize],
    dim: usize,
    dims: usize,
    capacity: usize,
    center: &impl Fn(usize, usize) -> f64,
) {
    if order.len() <= capacity || dim >= dims {
        return;
    }
    order
        .sort_by(|&a, &b| center(a, dim).partial_cmp(&center(b, dim)).expect("finite coordinates"));
    let n = order.len();
    let leaves = n.div_ceil(capacity);
    let remaining_dims = dims - dim;
    // Number of slabs along this dimension: ceil(leaves^(1/remaining_dims)).
    let slabs = (leaves as f64).powf(1.0 / remaining_dims as f64).ceil() as usize;
    let slab_size = n.div_ceil(slabs.max(1));
    let mut start = 0;
    while start < n {
        let end = (start + slab_size).min(n);
        str_sort(&mut order[start..end], dim + 1, dims, capacity, center);
        start = end;
    }
}

/// Group sizes for packing `n` entries into nodes of `capacity`: full nodes
/// except possibly the last two. A short tail (`< min`) borrows from the
/// preceding full node, which stays ≥ `min` because the tree parameters
/// guarantee `capacity ≥ 2·min − 1`.
fn fill_sizes(n: usize, capacity: usize, min: usize) -> Vec<usize> {
    let mut sizes = vec![capacity; n / capacity];
    let tail = n % capacity;
    if tail > 0 {
        if tail < min && !sizes.is_empty() {
            *sizes.last_mut().expect("nonempty") -= min - tail;
            sizes.push(min);
        } else {
            sizes.push(tail);
        }
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<(Rect, usize)> {
        (0..n)
            .map(|i| {
                let x = (i % 37) as f64;
                let y = (i / 37) as f64;
                (Rect::point(&[x, y]), i)
            })
            .collect()
    }

    #[test]
    fn bulk_small_matches_inserts() {
        let tree = bulk_load(2, Params::new(8), grid_points(5));
        assert_eq!(tree.len(), 5);
        tree.validate().expect("valid");
    }

    #[test]
    fn bulk_empty_is_empty() {
        let tree: RStarTree<usize> = bulk_load(3, Params::default(), Vec::new());
        assert!(tree.is_empty());
        tree.validate().expect("valid");
    }

    #[test]
    fn bulk_large_is_valid_and_complete() {
        let items = grid_points(1000);
        let tree = bulk_load(2, Params::new(16), items.clone());
        assert_eq!(tree.len(), 1000);
        tree.validate().expect("valid");
        // Every item findable.
        for (r, v) in items.iter().take(50) {
            assert!(tree.collect_intersecting(r).iter().any(|&(_, got)| got == v));
        }
    }

    #[test]
    fn bulk_packs_leaves_near_full() {
        // 1000 points at capacity 16: incremental R*-tree insertion lands
        // around 70% utilization; STR packing must hit ~100% — exactly
        // ceil(1000/16) = 63 leaves (one extra allowed for the rebalanced
        // tail) and minimal height.
        let tree = bulk_load(2, Params::new(16), grid_points(1000));
        assert!(tree.height() <= 3, "packed height {} too tall", tree.height());
        let leaf_count = tree.leaf_count();
        let packed = 1000usize.div_ceil(16);
        assert!(leaf_count <= packed + 1, "expected ~{packed} packed leaves, found {leaf_count}");
        tree.validate().expect("valid");
    }

    #[test]
    fn bulk_query_matches_linear_scan() {
        let items = grid_points(500);
        let tree = bulk_load(2, Params::new(10), items.clone());
        let q = Rect::new(vec![3.0, 2.0], vec![9.0, 6.0]);
        let mut expect: Vec<usize> =
            items.iter().filter(|(r, _)| r.intersects(&q)).map(|&(_, v)| v).collect();
        expect.sort_unstable();
        let mut got: Vec<usize> = tree.collect_intersecting(&q).iter().map(|&(_, v)| *v).collect();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn bulk_supports_subsequent_mutation() {
        let items = grid_points(200);
        let mut tree = bulk_load(2, Params::new(8), items.clone());
        tree.insert(Rect::point(&[100.0, 100.0]), 9999);
        assert!(tree.remove(&items[0].0, &items[0].1));
        assert_eq!(tree.len(), 200);
        tree.validate().expect("valid after mutation");
    }

    #[test]
    fn fill_sizes_respects_min_fill() {
        // Exact multiple: all groups full.
        assert_eq!(fill_sizes(32, 16, 6), vec![16, 16]);
        // Short tail (35 = 2·16 + 3, tail 3 < min 6): the previous full
        // group donates enough to bring the tail up to min.
        let sizes = fill_sizes(35, 16, 6);
        assert_eq!(sizes, vec![16, 13, 6]);
        assert_eq!(sizes.iter().sum::<usize>(), 35);
        assert!(sizes.iter().all(|&s| (6..=16).contains(&s)));
        // Tail already ≥ min: kept as-is.
        assert_eq!(fill_sizes(40, 16, 6), vec![16, 16, 8]);
        // Fewer items than min: single undersized group (becomes the root).
        assert_eq!(fill_sizes(3, 16, 6), vec![3]);
    }
}
