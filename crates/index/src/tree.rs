//! The R\*-tree of Beckmann, Kriegel, Schneider and Seeger (SIGMOD 1990),
//! on an index-based node arena.
//!
//! Stardust maintains one R\*-tree per resolution level; every MBR produced
//! by the summarizer is inserted here and retired (deleted) once it falls
//! out of the history of interest, so the tree must support efficient
//! inserts, deletes, rectangle-intersection queries and point/radius
//! queries. The implementation follows the original paper:
//!
//! * **ChooseSubtree** — minimum *overlap* enlargement at the level above
//!   the leaves, minimum *area* enlargement elsewhere, with the published
//!   tie-breaks.
//! * **Split** — choose the split axis by minimum total margin over all
//!   candidate distributions, then the distribution with minimum overlap
//!   (ties: minimum combined area).
//! * **Forced reinsertion** — on the first overflow per level per insertion,
//!   the `p` entries farthest from the node center are reinserted instead of
//!   splitting, which is where most of the R\*-tree's query-quality advantage
//!   comes from.
//! * **Deletion** with tree condensation: underfull nodes are dissolved and
//!   their entries reinserted at their home level.
//!
//! # Arena layout
//!
//! Nodes live in one `Vec`-backed pool addressed by `u32` ids; deleted
//! nodes go on a free-list and are recycled with their `Vec` capacities
//! intact, so steady-state insert/delete churn performs no node
//! allocation. Edges are ids, not `Box` pointers — a descent follows
//! indexes into one contiguous allocation instead of chasing heap
//! pointers. Each node keeps its children's bounds in one flat SoA-style
//! `f64` array (entry `i` occupies `[2·d·i, 2·d·(i+1))` as `lo` then
//! `hi`), and that array is the only copy: ChooseSubtree, split, the
//! `search_*` / radius scans (the `coords_*` primitives of
//! [`crate::geometry`]) all loop over `f64` slices, visitors and [`Iter`]
//! receive [`RectRef`] views sliced from it, and `remove` matches entries
//! against it coordinate by coordinate. Entries moved between nodes
//! (split, forced reinsertion, condensation) carry their bounds as flat
//! slices too, so no `Rect` is ever rebuilt.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::geometry::{
    coords_area, coords_center_dist_sqr, coords_contain, coords_margin, coords_overlap_area,
    coords_scan_intersecting, coords_scan_within, coords_union_area, Rect, RectRef,
};

/// Cumulative structural-operation counters for one [`RStarTree`].
///
/// Maintained in relaxed atomics so read paths (`search_*`, which take
/// `&self`) can record node visits without locks or `&mut`, keeping the
/// tree `Sync` whenever its payload is. Uncontended relaxed increments
/// cost about as much as a plain register increment. Read with
/// [`RStarTree::counters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TreeCounters {
    /// Data items inserted via [`RStarTree::insert`] (bulk-loaded items
    /// count here too).
    pub inserts: u64,
    /// Data items removed via [`RStarTree::remove`] / [`RStarTree::take`].
    pub removes: u64,
    /// Node splits (after forced reinsertion declined).
    pub splits: u64,
    /// Entries moved by forced reinsertion (the R\*-tree's
    /// OverflowTreatment) and deletion condensation.
    pub reinserted_entries: u64,
    /// Nodes visited by intersection / within-radius searches.
    pub node_visits: u64,
}

/// Interior-mutable backing store for [`TreeCounters`]: one relaxed
/// atomic per field. Counters are monotonic event tallies with no
/// cross-field invariants, so relaxed ordering (and non-atomic snapshots
/// across fields) is sound.
#[derive(Debug, Default)]
struct CounterCell {
    inserts: AtomicU64,
    removes: AtomicU64,
    splits: AtomicU64,
    reinserted_entries: AtomicU64,
    node_visits: AtomicU64,
}

impl CounterCell {
    fn snapshot(&self) -> TreeCounters {
        TreeCounters {
            inserts: self.inserts.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            splits: self.splits.load(Ordering::Relaxed),
            reinserted_entries: self.reinserted_entries.load(Ordering::Relaxed),
            node_visits: self.node_visits.load(Ordering::Relaxed),
        }
    }
}

/// Adds `n` to one counter field (relaxed; see [`CounterCell`]).
#[inline]
fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Tuning parameters for an [`RStarTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Minimum entries per node (`m`), 40% of `M` by default.
    pub min_entries: usize,
    /// Entries removed by forced reinsertion (30% of `M` by default).
    pub reinsert_count: usize,
}

impl Params {
    /// The parameters recommended by the R\*-tree paper for a node capacity
    /// of `max_entries`: `m = 40%·M`, `p = 30%·M`.
    ///
    /// # Panics
    /// Panics if `max_entries < 4`.
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "node capacity must be at least 4");
        let min_entries = (max_entries * 2 / 5).max(2);
        let reinsert_count = (max_entries * 3 / 10).max(1);
        Params { max_entries, min_entries, reinsert_count }
    }
}

impl Default for Params {
    /// Capacity 16: measured sweet spot for the insert/delete-heavy
    /// workloads of the streaming summarizer (the O(M²) overlap criterion
    /// in ChooseSubtree dominates insertion at larger capacities).
    fn default() -> Self {
        Params::new(16)
    }
}

/// What an entry points at: a data item (leaves) or a child node
/// (internal levels). Its bounds live beside it in a flat `lo|hi` block.
enum Payload<T> {
    Item(T),
    Child(u32),
}

/// Entries waiting to be (re)inserted at their home level: the public
/// insert's item, forced-reinsertion victims, and the orphans of
/// dissolved nodes. A LIFO stack; bounds stay flat (`2·dims` values per
/// entry) beside the payloads, so moving an entry never allocates.
struct Pending<T> {
    coords: Vec<f64>,
    entries: Vec<(Payload<T>, usize)>,
}

impl<T> Pending<T> {
    fn new() -> Self {
        Pending { coords: Vec::new(), entries: Vec::new() }
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pops the newest entry, copying its bounds into `bounds`.
    fn pop(&mut self, bounds: &mut [f64]) -> Option<(Payload<T>, usize)> {
        let entry = self.entries.pop()?;
        let start = self.coords.len() - bounds.len();
        bounds.copy_from_slice(&self.coords[start..]);
        self.coords.truncate(start);
        Some(entry)
    }
}

/// One arena node. Parallel arrays: entry `i` has its bounds at block
/// `i` of `coords` and its payload in `values[i]` (leaves) or
/// `children[i]` (internal nodes).
struct Node<T> {
    /// 0 for leaves, increasing towards the root.
    level: usize,
    /// Entry bounds, `2·dims` values per entry (`lo` then `hi`).
    coords: Vec<f64>,
    /// Leaf payloads; empty on internal nodes.
    values: Vec<T>,
    /// Child node ids; empty on leaves.
    children: Vec<u32>,
}

impl<T> Node<T> {
    fn new(level: usize) -> Self {
        Node { level, coords: Vec::new(), values: Vec::new(), children: Vec::new() }
    }

    #[inline]
    fn count(&self) -> usize {
        if self.level == 0 {
            self.values.len()
        } else {
            self.children.len()
        }
    }

    /// The flat `lo|hi` bounds block of entry `i`.
    #[inline]
    fn entry(&self, dims: usize, i: usize) -> &[f64] {
        let w = 2 * dims;
        &self.coords[i * w..(i + 1) * w]
    }

    /// `(lo, hi)` bound slices of entry `i`.
    #[inline]
    fn bounds(&self, dims: usize, i: usize) -> (&[f64], &[f64]) {
        self.entry(dims, i).split_at(dims)
    }

    fn push_entry(&mut self, bounds: &[f64], payload: Payload<T>) {
        match payload {
            Payload::Item(value) => {
                debug_assert_eq!(self.level, 0, "item entry above leaf level");
                self.values.push(value);
            }
            Payload::Child(id) => {
                debug_assert!(self.level > 0, "child entry at leaf level");
                self.children.push(id);
            }
        }
        self.coords.extend_from_slice(bounds);
    }

    fn swap_remove_entry(&mut self, dims: usize, i: usize) -> Payload<T> {
        let w = 2 * dims;
        let last = self.count() - 1;
        if i != last {
            self.coords.copy_within(last * w..(last + 1) * w, i * w);
        }
        self.coords.truncate(last * w);
        if self.level == 0 {
            Payload::Item(self.values.swap_remove(i))
        } else {
            Payload::Child(self.children.swap_remove(i))
        }
    }

    /// Replaces the bounds of entry `i`.
    fn set_bounds(&mut self, dims: usize, i: usize, bounds: &[f64]) {
        let w = 2 * dims;
        self.coords[i * w..(i + 1) * w].copy_from_slice(bounds);
    }

    /// Moves every entry onto `pending` with home level `level`, in entry
    /// order, leaving the node empty (capacities retained).
    fn drain_into(&mut self, pending: &mut Pending<T>, level: usize) {
        pending.coords.extend_from_slice(&self.coords);
        self.coords.clear();
        if self.level == 0 {
            pending.entries.extend(self.values.drain(..).map(|v| (Payload::Item(v), level)));
        } else {
            pending.entries.extend(self.children.drain(..).map(|id| (Payload::Child(id), level)));
        }
    }

    /// MBR of all entries as one flat `lo|hi` block.
    fn mbr(&self, dims: usize) -> Vec<f64> {
        debug_assert!(self.count() > 0, "mbr of empty node");
        let w = 2 * dims;
        let mut out = self.coords[..w].to_vec();
        for chunk in self.coords.chunks_exact(w).skip(1) {
            for d in 0..dims {
                if chunk[d] < out[d] {
                    out[d] = chunk[d];
                }
                if chunk[dims + d] > out[dims + d] {
                    out[dims + d] = chunk[dims + d];
                }
            }
        }
        out
    }
}

/// An R\*-tree mapping rectangles to values of type `T`.
///
/// ```
/// use stardust_index::{Rect, RStarTree};
///
/// let mut tree = RStarTree::new(2);
/// for i in 0..100 {
///     let x = (i % 10) as f64;
///     let y = (i / 10) as f64;
///     tree.insert(Rect::point(&[x, y]), i);
/// }
/// let mut hits = Vec::new();
/// tree.search_intersecting(&Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]), |_, &v| {
///     hits.push(v)
/// });
/// hits.sort_unstable();
/// assert_eq!(hits, vec![0, 1, 10, 11]);
/// ```
pub struct RStarTree<T> {
    /// Node pool; ids index into this. Slots on the free-list are vacant.
    nodes: Vec<Node<T>>,
    /// Recycled node ids (emptied, capacities retained).
    free: Vec<u32>,
    root: u32,
    dims: usize,
    params: Params,
    len: usize,
    counters: CounterCell,
}

impl<T> RStarTree<T> {
    /// An empty tree over `dims`-dimensional rectangles with default
    /// parameters.
    ///
    /// # Panics
    /// Panics if `dims` is zero.
    pub fn new(dims: usize) -> Self {
        Self::with_params(dims, Params::default())
    }

    /// An empty tree with explicit parameters.
    ///
    /// # Panics
    /// Panics if `dims` is zero or the parameters are inconsistent.
    pub fn with_params(dims: usize, params: Params) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        assert!(params.min_entries >= 2, "min entries must be at least 2");
        assert!(
            params.min_entries * 2 <= params.max_entries + 1,
            "min entries too large for capacity"
        );
        assert!(
            params.reinsert_count >= 1 && params.reinsert_count <= params.max_entries / 2,
            "reinsert count out of range"
        );
        RStarTree {
            nodes: vec![Node::new(0)],
            free: Vec::new(),
            root: 0,
            dims,
            params,
            len: 0,
            counters: CounterCell::default(),
        }
    }

    #[inline]
    fn node(&self, id: u32) -> &Node<T> {
        &self.nodes[id as usize]
    }

    #[inline]
    fn node_mut(&mut self, id: u32) -> &mut Node<T> {
        &mut self.nodes[id as usize]
    }

    /// Allocates a node at `level`, recycling from the free-list when
    /// possible (the recycled node keeps its `Vec` capacities, so churn
    /// settles into zero-allocation steady state).
    fn alloc(&mut self, level: usize) -> u32 {
        if let Some(id) = self.free.pop() {
            let node = &mut self.nodes[id as usize];
            debug_assert!(node.coords.is_empty(), "free-listed node not empty");
            node.level = level;
            id
        } else {
            assert!(self.nodes.len() < u32::MAX as usize, "node arena exhausted");
            self.nodes.push(Node::new(level));
            (self.nodes.len() - 1) as u32
        }
    }

    /// Empties a node and returns its slot to the free-list.
    fn release(&mut self, id: u32) {
        let node = &mut self.nodes[id as usize];
        node.coords.clear();
        node.values.clear();
        node.children.clear();
        self.free.push(id);
    }

    /// Cumulative structural-operation counters since construction.
    pub fn counters(&self) -> TreeCounters {
        self.counters.snapshot()
    }

    /// Number of data items stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the indexed rectangles.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Tree height (1 for a single leaf root).
    pub fn height(&self) -> usize {
        self.node(self.root).level + 1
    }

    /// MBR of the whole tree, `None` when empty.
    pub fn bounding_rect(&self) -> Option<Rect> {
        let root = self.node(self.root);
        if root.count() == 0 {
            None
        } else {
            let mut lo = root.mbr(self.dims);
            let hi = lo.split_off(self.dims);
            Some(Rect::new(lo, hi))
        }
    }

    /// Inserts a rectangle/value pair.
    ///
    /// # Panics
    /// Panics if the rectangle has the wrong dimensionality.
    pub fn insert(&mut self, rect: Rect, value: T) {
        assert_eq!(rect.dims(), self.dims, "rectangle dimensionality mismatch");
        self.len += 1;
        bump(&self.counters.inserts, 1);
        let mut pending = Pending::new();
        pending.coords.extend_from_slice(rect.lo());
        pending.coords.extend_from_slice(rect.hi());
        pending.entries.push((Payload::Item(value), 0));
        self.insert_pending(pending);
    }

    /// Runs the insertion machinery until `pending` is empty; shared by
    /// public insert, forced reinsertion and deletion condensation.
    fn insert_pending(&mut self, mut pending: Pending<T>) {
        let dims = self.dims;
        let mut reinserted = vec![false; self.node(self.root).level + 1];
        let mut bounds = vec![0.0; 2 * dims];
        while let Some((payload, level)) = pending.pop(&mut bounds) {
            let root_level = self.node(self.root).level;
            if reinserted.len() <= root_level {
                reinserted.resize(root_level + 1, false);
            }
            let split = self.insert_rec(
                self.root,
                &bounds,
                payload,
                level,
                true,
                &mut reinserted,
                &mut pending,
            );
            if let Some(sibling) = split {
                let old_root = self.root;
                let old_mbr = self.node(old_root).mbr(dims);
                let sibling_mbr = self.node(sibling).mbr(dims);
                let new_root = self.alloc(root_level + 1);
                self.node_mut(new_root).push_entry(&old_mbr, Payload::Child(old_root));
                self.node_mut(new_root).push_entry(&sibling_mbr, Payload::Child(sibling));
                self.root = new_root;
            }
        }
    }

    /// Inserts the entry `(bounds, payload)` (whose home level is
    /// `target_level`) into the subtree rooted at `id`. Returns the id of
    /// a new sibling if the node split.
    #[allow(clippy::too_many_arguments)]
    fn insert_rec(
        &mut self,
        id: u32,
        bounds: &[f64],
        payload: Payload<T>,
        target_level: usize,
        is_root: bool,
        reinserted: &mut [bool],
        pending: &mut Pending<T>,
    ) -> Option<u32> {
        let dims = self.dims;
        if self.node(id).level == target_level {
            self.node_mut(id).push_entry(bounds, payload);
        } else {
            let idx = self.choose_subtree(id, bounds);
            let child = self.node(id).children[idx];
            let split =
                self.insert_rec(child, bounds, payload, target_level, false, reinserted, pending);
            // The child may have grown (insert) or shrunk (reinsertion
            // removed entries), so recompute its MBR either way.
            let child_mbr = self.node(child).mbr(dims);
            self.node_mut(id).set_bounds(dims, idx, &child_mbr);
            if let Some(sibling) = split {
                let sibling_mbr = self.node(sibling).mbr(dims);
                self.node_mut(id).push_entry(&sibling_mbr, Payload::Child(sibling));
            }
        }
        if self.node(id).count() > self.params.max_entries {
            self.overflow_treatment(id, is_root, reinserted, pending)
        } else {
            None
        }
    }

    /// R\*-tree OverflowTreatment: forced reinsertion on the first overflow
    /// per level per insertion, split otherwise.
    fn overflow_treatment(
        &mut self,
        id: u32,
        is_root: bool,
        reinserted: &mut [bool],
        pending: &mut Pending<T>,
    ) -> Option<u32> {
        let dims = self.dims;
        let level = self.node(id).level;
        if !is_root && !reinserted[level] {
            reinserted[level] = true;
            // Sort by distance of entry center to node center, take the p
            // farthest for reinsertion ("far reinsert"); keeping the
            // closest entries compacts the node.
            let node = self.node(id);
            let center = node.mbr(dims);
            let (clo, chi) = center.split_at(dims);
            let mut order: Vec<usize> = (0..node.count()).collect();
            order.sort_by(|&a, &b| {
                let (alo, ahi) = node.bounds(dims, a);
                let (blo, bhi) = node.bounds(dims, b);
                let da = coords_center_dist_sqr(alo, ahi, clo, chi);
                let db = coords_center_dist_sqr(blo, bhi, clo, chi);
                da.partial_cmp(&db).expect("finite distances")
            });
            let mut far = order[node.count() - self.params.reinsert_count..].to_vec();
            far.sort_unstable();
            // Removing in descending index order leaves every lower index
            // in place. The farthest-indexed entry is queued first, so the
            // LIFO queue pops the lowest-indexed one first.
            let node = self.node_mut(id);
            for &i in far.iter().rev() {
                pending.coords.extend_from_slice(node.entry(dims, i));
                let payload = node.swap_remove_entry(dims, i);
                pending.entries.push((payload, level));
            }
            bump(&self.counters.reinserted_entries, far.len() as u64);
            None
        } else {
            bump(&self.counters.splits, 1);
            Some(self.split_node(id))
        }
    }

    /// R\*-tree ChooseSubtree, scanning the flat bounds block.
    fn choose_subtree(&self, id: u32, bounds: &[f64]) -> usize {
        let dims = self.dims;
        let node = self.node(id);
        debug_assert!(node.level > 0);
        let n = node.count();
        let (qlo, qhi) = bounds.split_at(dims);
        let mut best = 0usize;
        if node.level == 1 {
            // Children are leaves: minimize overlap enlargement. The grown
            // bounds are materialized once per candidate; overlap deltas
            // prune early against the running best.
            let mut best_overlap = f64::INFINITY;
            let mut best_enlarge = f64::INFINITY;
            let mut best_area = f64::INFINITY;
            let mut glo = vec![0.0; dims];
            let mut ghi = vec![0.0; dims];
            for i in 0..n {
                let (ilo, ihi) = node.bounds(dims, i);
                for d in 0..dims {
                    glo[d] = ilo[d].min(qlo[d]);
                    ghi[d] = ihi[d].max(qhi[d]);
                }
                let mut overlap_delta = 0.0;
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let (jlo, jhi) = node.bounds(dims, j);
                    overlap_delta += coords_overlap_area(&glo, &ghi, jlo, jhi)
                        - coords_overlap_area(ilo, ihi, jlo, jhi);
                    if overlap_delta > best_overlap {
                        break;
                    }
                }
                let area = coords_area(ilo, ihi);
                let enlarge = coords_area(&glo, &ghi) - area;
                if overlap_delta < best_overlap
                    || (overlap_delta == best_overlap && enlarge < best_enlarge)
                    || (overlap_delta == best_overlap
                        && enlarge == best_enlarge
                        && area < best_area)
                {
                    best = i;
                    best_overlap = overlap_delta;
                    best_enlarge = enlarge;
                    best_area = area;
                }
            }
        } else {
            // Minimize area enlargement, ties by smallest area.
            let mut best_enlarge = f64::INFINITY;
            let mut best_area = f64::INFINITY;
            for i in 0..n {
                let (ilo, ihi) = node.bounds(dims, i);
                let area = coords_area(ilo, ihi);
                let enlarge = coords_union_area(ilo, ihi, qlo, qhi) - area;
                if enlarge < best_enlarge || (enlarge == best_enlarge && area < best_area) {
                    best = i;
                    best_enlarge = enlarge;
                    best_area = area;
                }
            }
        }
        best
    }

    /// R\*-tree Split: moves the second group into a new sibling and
    /// returns its id; the node keeps the first group.
    fn split_node(&mut self, id: u32) -> u32 {
        let dims = self.dims;
        let min = self.params.min_entries;
        let level = self.node(id).level;
        let node = self.node_mut(id);
        let coords = node.coords.clone();
        node.coords.clear();
        let mut payloads: Vec<Option<Payload<T>>> = if level == 0 {
            node.values.drain(..).map(|v| Some(Payload::Item(v))).collect()
        } else {
            node.children.drain(..).map(|c| Some(Payload::Child(c))).collect()
        };
        let total = payloads.len();
        debug_assert!(total > self.params.max_entries);
        let w = 2 * dims;

        // ChooseSplitAxis: minimize the sum of margins over all
        // distributions of both sort orders.
        let mut best_axis = 0usize;
        let mut best_margin = f64::INFINITY;
        for axis in 0..dims {
            let mut margin_sum = 0.0;
            for sort_by_hi in [false, true] {
                let order = sorted_order(&coords, dims, axis, sort_by_hi);
                let (prefix, suffix) = prefix_suffix_bounds(&coords, &order, dims);
                for k in min..=total - min {
                    let p = &prefix[(k - 1) * w..k * w];
                    let s = &suffix[k * w..(k + 1) * w];
                    margin_sum += coords_margin(&p[..dims], &p[dims..])
                        + coords_margin(&s[..dims], &s[dims..]);
                }
            }
            if margin_sum < best_margin {
                best_margin = margin_sum;
                best_axis = axis;
            }
        }

        // ChooseSplitIndex on the best axis: minimize overlap, ties by area.
        let mut best: Option<(Vec<usize>, usize)> = None;
        let mut best_overlap = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for sort_by_hi in [false, true] {
            let order = sorted_order(&coords, dims, best_axis, sort_by_hi);
            let (prefix, suffix) = prefix_suffix_bounds(&coords, &order, dims);
            for k in min..=total - min {
                let p = &prefix[(k - 1) * w..k * w];
                let s = &suffix[k * w..(k + 1) * w];
                let overlap = coords_overlap_area(&p[..dims], &p[dims..], &s[..dims], &s[dims..]);
                let area =
                    coords_area(&p[..dims], &p[dims..]) + coords_area(&s[..dims], &s[dims..]);
                if overlap < best_overlap || (overlap == best_overlap && area < best_area) {
                    best_overlap = overlap;
                    best_area = area;
                    best = Some((order.clone(), k));
                }
            }
        }
        let (order, k) = best.expect("at least one distribution");

        // Partition the entries according to the chosen distribution: the
        // first group refills this node, the second a recycled sibling.
        let sibling = self.alloc(level);
        for (pos, &idx) in order.iter().enumerate() {
            let payload = payloads[idx].take().expect("each entry used once");
            let target = if pos < k { id } else { sibling };
            self.node_mut(target).push_entry(&coords[idx * w..(idx + 1) * w], payload);
        }
        sibling
    }

    /// Removes one item equal to `(rect, value)`. Returns `true` if found.
    ///
    /// # Panics
    /// Panics if the rectangle has the wrong dimensionality.
    pub fn remove(&mut self, rect: &Rect, value: &T) -> bool
    where
        T: PartialEq,
    {
        self.take(rect, value).is_some()
    }

    /// Removes one item equal to `(rect, value)` and returns its value.
    /// Bounds match coordinate by coordinate with `f64` `==`, as
    /// `Rect`'s `PartialEq` does.
    ///
    /// # Panics
    /// Panics if the rectangle has the wrong dimensionality.
    pub fn take(&mut self, rect: &Rect, value: &T) -> Option<T>
    where
        T: PartialEq,
    {
        assert_eq!(rect.dims(), self.dims, "rectangle dimensionality mismatch");
        let mut orphans = Pending::new();
        let removed = self.remove_rec(self.root, rect.lo(), rect.hi(), value, &mut orphans);
        if removed.is_none() {
            debug_assert!(orphans.is_empty());
            return None;
        }
        self.len -= 1;
        bump(&self.counters.removes, 1);
        bump(&self.counters.reinserted_entries, orphans.entries.len() as u64);
        // Shrink the root while it is an internal node with a single child.
        while self.node(self.root).level > 0 && self.node(self.root).count() == 1 {
            let old = self.root;
            self.root = self.node(old).children[0];
            self.release(old);
        }
        if !orphans.is_empty() {
            self.insert_pending(orphans);
        }
        removed
    }

    /// Removes one matching item, returning its value; queues orphaned
    /// entries from dissolved underfull nodes onto `orphans` at their
    /// home level.
    fn remove_rec(
        &mut self,
        id: u32,
        lo: &[f64],
        hi: &[f64],
        value: &T,
        orphans: &mut Pending<T>,
    ) -> Option<T>
    where
        T: PartialEq,
    {
        let dims = self.dims;
        if self.node(id).level == 0 {
            let node = self.node(id);
            let pos = (0..node.count())
                .find(|&i| node.bounds(dims, i) == (lo, hi) && &node.values[i] == value);
            pos.map(|i| match self.node_mut(id).swap_remove_entry(dims, i) {
                Payload::Item(v) => v,
                Payload::Child(_) => unreachable!("leaf holds items"),
            })
        } else {
            let mut found = None;
            for i in 0..self.node(id).count() {
                let (ilo, ihi) = self.node(id).bounds(dims, i);
                if !coords_contain(ilo, ihi, lo, hi) {
                    continue;
                }
                let child = self.node(id).children[i];
                if let Some(v) = self.remove_rec(child, lo, hi, value, orphans) {
                    found = Some((i, v));
                    break;
                }
            }
            let (i, taken) = found?;
            let child = self.node(id).children[i];
            if self.node(child).count() < self.params.min_entries {
                // Condensation: dissolve the underfull child, re-queue its
                // entries at their home level, and recycle the node.
                self.node_mut(id).swap_remove_entry(dims, i);
                let level = self.node(child).level;
                self.node_mut(child).drain_into(orphans, level);
                self.release(child);
            } else {
                let child_mbr = self.node(child).mbr(dims);
                self.node_mut(id).set_bounds(dims, i, &child_mbr);
            }
            Some(taken)
        }
    }

    /// Visits every item whose rectangle intersects `query`.
    pub fn search_intersecting<'a, F>(&'a self, query: &Rect, mut visit: F)
    where
        F: FnMut(RectRef<'a>, &'a T),
    {
        assert_eq!(query.dims(), self.dims, "query dimensionality mismatch");
        let mut visits = 0;
        self.search_rec(self.root, query.lo(), query.hi(), &mut visits, &mut visit);
        bump(&self.counters.node_visits, visits);
    }

    /// `visits` batches the node-visit count for one atomic add per query
    /// instead of one per node: the hot path must not pay a
    /// read-modify-write per visited node.
    fn search_rec<'a, F>(
        &'a self,
        id: u32,
        qlo: &[f64],
        qhi: &[f64],
        visits: &mut u64,
        visit: &mut F,
    ) where
        F: FnMut(RectRef<'a>, &'a T),
    {
        *visits += 1;
        let node = &self.nodes[id as usize];
        if node.level == 0 {
            coords_scan_intersecting(&node.coords, self.dims, qlo, qhi, |i| {
                let (lo, hi) = node.bounds(self.dims, i);
                visit(RectRef::new(lo, hi), &node.values[i]);
            });
        } else {
            coords_scan_intersecting(&node.coords, self.dims, qlo, qhi, |i| {
                self.search_rec(node.children[i], qlo, qhi, visits, visit);
            });
        }
    }

    /// Collects every item whose rectangle intersects `query`.
    pub fn collect_intersecting(&self, query: &Rect) -> Vec<(RectRef<'_>, &T)> {
        let mut out = Vec::new();
        self.search_intersecting(query, |r, v| out.push((r, v)));
        out
    }

    /// Visits every item whose rectangle lies within Euclidean distance `r`
    /// of `point` (`d_min(point, rect) ≤ r`) — the range query of the
    /// pattern monitors.
    pub fn search_within<'a, F>(&'a self, point: &[f64], r: f64, mut visit: F)
    where
        F: FnMut(RectRef<'a>, &'a T),
    {
        assert_eq!(point.len(), self.dims, "query dimensionality mismatch");
        assert!(r >= 0.0, "radius must be nonnegative");
        let mut visits = 0;
        self.within_rec(self.root, point, r, &mut visits, &mut visit);
        bump(&self.counters.node_visits, visits);
    }

    fn within_rec<'a, F>(&'a self, id: u32, point: &[f64], r: f64, visits: &mut u64, visit: &mut F)
    where
        F: FnMut(RectRef<'a>, &'a T),
    {
        *visits += 1;
        let node = &self.nodes[id as usize];
        if node.level == 0 {
            coords_scan_within(&node.coords, self.dims, point, r, |i| {
                let (lo, hi) = node.bounds(self.dims, i);
                visit(RectRef::new(lo, hi), &node.values[i]);
            });
        } else {
            coords_scan_within(&node.coords, self.dims, point, r, |i| {
                self.within_rec(node.children[i], point, r, visits, visit);
            });
        }
    }

    /// Collects every item within distance `r` of `point`.
    pub fn collect_within(&self, point: &[f64], r: f64) -> Vec<(RectRef<'_>, &T)> {
        let mut out = Vec::new();
        self.search_within(point, r, |rect, v| out.push((rect, v)));
        out
    }

    /// Iterates over all items in unspecified order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { tree: self, stack: vec![(self.root, 0)] }
    }

    /// Verifies the structural invariants of the tree; used by tests and
    /// property checks. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let root = self.node(self.root);
        if root.level > 0 && root.count() < 2 {
            return Err("internal root with fewer than 2 entries".into());
        }
        let mut count = 0;
        let mut visited = 0;
        self.validate_rec(self.root, true, &mut count, &mut visited)?;
        if count != self.len {
            return Err(format!("len {} but {} items reachable", self.len, count));
        }
        if visited + self.free.len() != self.nodes.len() {
            return Err(format!(
                "arena accounting broken: {} slots, {} reachable + {} free",
                self.nodes.len(),
                visited,
                self.free.len()
            ));
        }
        Ok(())
    }

    fn validate_rec(
        &self,
        id: u32,
        is_root: bool,
        count: &mut usize,
        visited: &mut usize,
    ) -> Result<(), String> {
        *visited += 1;
        let node = self.node(id);
        let dims = self.dims;
        if !is_root
            && (node.count() < self.params.min_entries || node.count() > self.params.max_entries)
        {
            return Err(format!(
                "node at level {} has {} entries (bounds {}..={})",
                node.level,
                node.count(),
                self.params.min_entries,
                self.params.max_entries
            ));
        }
        if node.count() > self.params.max_entries {
            return Err("root exceeds capacity".into());
        }
        if node.coords.len() != node.count() * 2 * dims {
            return Err(format!("bounds block length mismatch at level {}", node.level));
        }
        if node.level == 0 && !node.children.is_empty() {
            return Err("child entry at leaf level".into());
        }
        if node.level > 0 && !node.values.is_empty() {
            return Err("item entry above leaf level".into());
        }
        for i in 0..node.count() {
            if node.level == 0 {
                *count += 1;
            } else {
                let child_id = node.children[i];
                let child = self.node(child_id);
                if child.level + 1 != node.level {
                    return Err(format!(
                        "child level {} under node level {}",
                        child.level, node.level
                    ));
                }
                if child.count() == 0 {
                    return Err("empty child node".into());
                }
                let stored = node.entry(dims, i);
                let actual = child.mbr(dims);
                if actual != stored {
                    return Err(format!(
                        "stale child MBR at level {}: stored {:?}, actual {:?}",
                        node.level, stored, actual
                    ));
                }
                self.validate_rec(child_id, false, count, visited)?;
            }
        }
        Ok(())
    }
}

/// Crate-internal construction surface for the STR bulk loader
/// ([`crate::bulk`]): packs nodes directly into the arena, bottom-up.
impl<T> RStarTree<T> {
    /// A full leaf node from pre-grouped items; returns its id.
    pub(crate) fn bulk_new_leaf(&mut self, items: impl IntoIterator<Item = (Rect, T)>) -> u32 {
        let id = self.alloc(0);
        let node = self.node_mut(id);
        for (rect, value) in items {
            node.coords.extend_from_slice(rect.lo());
            node.coords.extend_from_slice(rect.hi());
            node.values.push(value);
        }
        id
    }

    /// An internal node at `level` over already-built children.
    pub(crate) fn bulk_new_inner(&mut self, level: usize, children: &[u32]) -> u32 {
        let id = self.alloc(level);
        for &child in children {
            debug_assert_eq!(self.node(child).level + 1, level);
            let mbr = self.node(child).mbr(self.dims);
            self.node_mut(id).push_entry(&mbr, Payload::Child(child));
        }
        id
    }

    /// MBR of an arena node as a flat `lo|hi` block (for STR ordering of
    /// upper levels).
    pub(crate) fn bulk_node_mbr(&self, id: u32) -> Vec<f64> {
        self.node(id).mbr(self.dims)
    }

    /// Installs the packed root, recycling the placeholder root the tree
    /// was constructed with, and accounts the loaded items.
    pub(crate) fn bulk_finish(&mut self, root: u32, n_items: usize) {
        if root != self.root {
            let old = self.root;
            self.root = root;
            self.release(old);
        }
        self.len = n_items;
        bump(&self.counters.inserts, n_items as u64);
    }

    /// Number of reachable leaf nodes (test support for the packing
    /// density check).
    #[cfg(test)]
    pub(crate) fn leaf_count(&self) -> usize {
        let mut stack = vec![self.root];
        let mut leaves = 0;
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            if node.level == 0 {
                leaves += 1;
            } else {
                stack.extend_from_slice(&node.children);
            }
        }
        leaves
    }
}

impl<T> std::fmt::Debug for RStarTree<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RStarTree")
            .field("dims", &self.dims)
            .field("len", &self.len)
            .field("height", &self.height())
            .finish()
    }
}

/// Entry indices `0..n` of a flat bounds block sorted by the low (or
/// high) coordinate on `axis`.
fn sorted_order(coords: &[f64], dims: usize, axis: usize, by_hi: bool) -> Vec<usize> {
    let w = 2 * dims;
    let key = if by_hi { dims + axis } else { axis };
    let mut order: Vec<usize> = (0..coords.len() / w).collect();
    order.sort_by(|&a, &b| {
        coords[a * w + key].partial_cmp(&coords[b * w + key]).expect("finite coordinates")
    });
    order
}

/// Flat running unions over a candidate split order: chunk `i` of the
/// prefix buffer (width `2·dims`, `lo` then `hi`) bounds `order[0..=i]`,
/// chunk `i` of the suffix buffer bounds `order[i..]`.
fn prefix_suffix_bounds(coords: &[f64], order: &[usize], dims: usize) -> (Vec<f64>, Vec<f64>) {
    let n = order.len();
    let w = 2 * dims;
    let entry = |i: usize| &coords[i * w..(i + 1) * w];
    let mut prefix = vec![0.0; n * w];
    let mut acc = entry(order[0]).to_vec();
    prefix[..w].copy_from_slice(&acc);
    for (pos, &i) in order.iter().enumerate().skip(1) {
        grow(&mut acc, entry(i), dims);
        prefix[pos * w..(pos + 1) * w].copy_from_slice(&acc);
    }
    let mut suffix = vec![0.0; n * w];
    acc.copy_from_slice(entry(order[n - 1]));
    suffix[(n - 1) * w..].copy_from_slice(&acc);
    for pos in (0..n - 1).rev() {
        grow(&mut acc, entry(order[pos]), dims);
        suffix[pos * w..(pos + 1) * w].copy_from_slice(&acc);
    }
    (prefix, suffix)
}

/// Grows the flat `lo|hi` box `acc` to cover `entry`.
#[inline]
fn grow(acc: &mut [f64], entry: &[f64], dims: usize) {
    for d in 0..dims {
        if entry[d] < acc[d] {
            acc[d] = entry[d];
        }
        if entry[dims + d] > acc[dims + d] {
            acc[dims + d] = entry[dims + d];
        }
    }
}

/// Depth-first iterator over the items of an [`RStarTree`].
pub struct Iter<'a, T> {
    tree: &'a RStarTree<T>,
    /// (node id, next entry index) frames.
    stack: Vec<(u32, usize)>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (RectRef<'a>, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        let tree = self.tree;
        loop {
            let (id, idx) = self.stack.last_mut()?;
            let node = &tree.nodes[*id as usize];
            if *idx >= node.count() {
                self.stack.pop();
                continue;
            }
            let i = *idx;
            *idx += 1;
            if node.level == 0 {
                let (lo, hi) = node.bounds(tree.dims, i);
                return Some((RectRef::new(lo, hi), &node.values[i]));
            }
            self.stack.push((node.children[i], 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f64 in [0, 1) via splitmix64.
    fn rng(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn random_rect(seed: &mut u64, dims: usize) -> Rect {
        let lo: Vec<f64> = (0..dims).map(|_| rng(seed) * 100.0).collect();
        let hi: Vec<f64> = lo.iter().map(|l| l + rng(seed) * 5.0).collect();
        Rect::new(lo, hi)
    }

    #[test]
    fn empty_tree() {
        let tree: RStarTree<u32> = RStarTree::new(3);
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        assert!(tree.bounding_rect().is_none());
        assert!(tree.validate().is_ok());
        assert_eq!(tree.collect_intersecting(&Rect::point(&[0.0, 0.0, 0.0])).len(), 0);
    }

    #[test]
    fn insert_and_query_small() {
        let mut tree = RStarTree::new(2);
        tree.insert(Rect::point(&[1.0, 1.0]), "a");
        tree.insert(Rect::point(&[5.0, 5.0]), "b");
        tree.insert(Rect::new(vec![0.0, 0.0], vec![2.0, 2.0]), "c");
        assert_eq!(tree.len(), 3);
        let hits = tree.collect_intersecting(&Rect::new(vec![0.5, 0.5], vec![1.5, 1.5]));
        let mut vals: Vec<&str> = hits.iter().map(|(_, v)| **v).collect();
        vals.sort_unstable();
        assert_eq!(vals, vec!["a", "c"]);
    }

    #[test]
    fn grows_and_validates_with_many_inserts() {
        let mut tree = RStarTree::with_params(2, Params::new(8));
        let mut seed = 42;
        for i in 0..500 {
            tree.insert(random_rect(&mut seed, 2), i);
        }
        assert_eq!(tree.len(), 500);
        assert!(tree.height() > 2);
        tree.validate().expect("valid after inserts");
    }

    #[test]
    fn query_matches_linear_scan() {
        let mut tree = RStarTree::with_params(3, Params::new(10));
        let mut seed = 7;
        let mut items = Vec::new();
        for i in 0..300 {
            let r = random_rect(&mut seed, 3);
            items.push((r.clone(), i));
            tree.insert(r, i);
        }
        for _ in 0..20 {
            let q = random_rect(&mut seed, 3);
            let mut expect: Vec<i32> =
                items.iter().filter(|(r, _)| r.intersects(&q)).map(|&(_, v)| v).collect();
            expect.sort_unstable();
            let mut got: Vec<i32> =
                tree.collect_intersecting(&q).iter().map(|&(_, v)| *v).collect();
            got.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn within_query_matches_linear_scan() {
        let mut tree = RStarTree::with_params(2, Params::new(8));
        let mut seed = 99;
        let mut items = Vec::new();
        for i in 0..200 {
            let r = random_rect(&mut seed, 2);
            items.push((r.clone(), i));
            tree.insert(r, i);
        }
        for _ in 0..10 {
            let p = [rng(&mut seed) * 100.0, rng(&mut seed) * 100.0];
            let radius = rng(&mut seed) * 20.0;
            let mut expect: Vec<i32> = items
                .iter()
                .filter(|(r, _)| r.min_dist_point(&p) <= radius)
                .map(|&(_, v)| v)
                .collect();
            expect.sort_unstable();
            let mut got: Vec<i32> =
                tree.collect_within(&p, radius).iter().map(|&(_, v)| *v).collect();
            got.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn remove_then_queries_shrink() {
        let mut tree = RStarTree::with_params(2, Params::new(6));
        let mut seed = 5;
        let mut items = Vec::new();
        for i in 0..200 {
            let r = random_rect(&mut seed, 2);
            items.push((r.clone(), i));
            tree.insert(r, i);
        }
        // Remove every other item.
        for (r, v) in items.iter().step_by(2) {
            assert!(tree.remove(r, v), "item {v} should be removable");
        }
        assert_eq!(tree.len(), 100);
        tree.validate().expect("valid after removals");
        // Removed items are gone; kept items remain.
        for (i, (r, v)) in items.iter().enumerate() {
            let found = tree.collect_intersecting(r).iter().any(|&(_, got)| got == v);
            assert_eq!(found, i % 2 == 1, "item {v}");
        }
    }

    #[test]
    fn remove_everything_empties_tree() {
        let mut tree = RStarTree::with_params(2, Params::new(4));
        let mut seed = 11;
        let mut items = Vec::new();
        for i in 0..80 {
            let r = random_rect(&mut seed, 2);
            items.push((r.clone(), i));
            tree.insert(r, i);
        }
        for (r, v) in &items {
            assert!(tree.remove(r, v));
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        tree.validate().expect("valid when emptied");
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut tree = RStarTree::new(2);
        tree.insert(Rect::point(&[1.0, 1.0]), 1);
        assert!(!tree.remove(&Rect::point(&[2.0, 2.0]), &1));
        assert!(!tree.remove(&Rect::point(&[1.0, 1.0]), &2));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn duplicate_rect_distinct_values() {
        let mut tree = RStarTree::new(2);
        let r = Rect::point(&[3.0, 3.0]);
        tree.insert(r.clone(), 1);
        tree.insert(r.clone(), 2);
        assert!(tree.remove(&r, &1));
        let hits = tree.collect_intersecting(&r);
        assert_eq!(hits.len(), 1);
        assert_eq!(*hits[0].1, 2);
    }

    #[test]
    fn iter_visits_everything_once() {
        let mut tree = RStarTree::with_params(2, Params::new(5));
        let mut seed = 3;
        for i in 0..137 {
            tree.insert(random_rect(&mut seed, 2), i);
        }
        let mut seen: Vec<i32> = tree.iter().map(|(_, &v)| v).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..137).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_insert_remove_stays_valid() {
        let mut tree = RStarTree::with_params(2, Params::new(8));
        let mut seed = 21;
        let mut live: Vec<(Rect, i32)> = Vec::new();
        for round in 0..40 {
            for i in 0..20 {
                let r = random_rect(&mut seed, 2);
                let v = round * 100 + i;
                live.push((r.clone(), v));
                tree.insert(r, v);
            }
            // Remove ~half, oldest first (the Stardust retirement pattern).
            for _ in 0..10 {
                let (r, v) = live.remove(0);
                assert!(tree.remove(&r, &v));
            }
            tree.validate().unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        assert_eq!(tree.len(), live.len());
    }

    /// Steady-state churn recycles node slots through the free-list
    /// instead of growing the arena without bound.
    #[test]
    fn arena_reuses_released_nodes() {
        let mut tree = RStarTree::with_params(2, Params::new(4));
        let mut seed = 57;
        let mut live: Vec<(Rect, i32)> = Vec::new();
        // Warm up to a steady population.
        for i in 0..200 {
            let r = random_rect(&mut seed, 2);
            live.push((r.clone(), i));
            tree.insert(r, i);
        }
        let warm_slots = tree.nodes.len();
        // Churn many times the warm population through the tree.
        for i in 200..2200 {
            let r = random_rect(&mut seed, 2);
            live.push((r.clone(), i));
            tree.insert(r, i);
            let (old_r, old_v) = live.remove(0);
            assert!(tree.remove(&old_r, &old_v));
        }
        tree.validate().expect("valid after churn");
        assert_eq!(tree.len(), 200);
        // The arena may grow a little past the warm size (population shape
        // shifts), but nothing like the thousands of nodes churned through.
        assert!(
            tree.nodes.len() < warm_slots * 3,
            "arena grew from {warm_slots} to {} slots over churn",
            tree.nodes.len()
        );
    }

    #[test]
    fn high_dimensional_inserts() {
        let mut tree = RStarTree::with_params(16, Params::new(12));
        let mut seed = 77;
        for i in 0..300 {
            tree.insert(random_rect(&mut seed, 16), i);
        }
        tree.validate().expect("valid in 16 dims");
        // Query the full space returns everything.
        let everything = tree.collect_intersecting(&Rect::new(vec![-1e9; 16], vec![1e9; 16])).len();
        assert_eq!(everything, 300);
    }

    #[test]
    fn take_returns_the_value() {
        let mut tree = RStarTree::new(2);
        tree.insert(Rect::point(&[1.0, 2.0]), "payload".to_string());
        assert_eq!(tree.take(&Rect::point(&[9.0, 9.0]), &"payload".to_string()), None);
        assert_eq!(
            tree.take(&Rect::point(&[1.0, 2.0]), &"payload".to_string()),
            Some("payload".to_string())
        );
        assert!(tree.is_empty());
    }

    #[test]
    fn params_defaults_follow_paper() {
        let p = Params::new(32);
        assert_eq!(p.min_entries, 12); // 40%
        assert_eq!(p.reinsert_count, 9); // 30%
    }

    #[test]
    fn counters_track_operations() {
        let mut tree = RStarTree::with_params(2, Params::new(4));
        let mut seed = 13;
        let mut items = Vec::new();
        for i in 0..200 {
            let r = random_rect(&mut seed, 2);
            items.push((r.clone(), i));
            tree.insert(r, i);
        }
        let c = tree.counters();
        assert_eq!(c.inserts, 200);
        assert_eq!(c.removes, 0);
        // Capacity 4 with 200 items must have split and reinserted.
        assert!(c.splits > 0, "expected splits, got {c:?}");
        assert!(c.reinserted_entries > 0, "expected reinsertions, got {c:?}");
        assert_eq!(c.node_visits, 0, "no searches yet");

        let before = tree.counters();
        tree.collect_intersecting(&Rect::new(vec![0.0, 0.0], vec![50.0, 50.0]));
        let after = tree.counters();
        assert!(after.node_visits > before.node_visits, "search visits nodes");
        // Searches never mutate structure.
        assert_eq!(after.inserts, before.inserts);
        assert_eq!(after.splits, before.splits);

        for (r, v) in &items {
            assert!(tree.remove(r, v));
        }
        assert_eq!(tree.counters().removes, 200);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dims_rejected() {
        let mut tree = RStarTree::new(2);
        tree.insert(Rect::point(&[1.0, 2.0, 3.0]), 0);
    }
}
