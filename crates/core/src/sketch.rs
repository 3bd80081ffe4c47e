//! Deterministic sliding-window sketches for cross-shard correlation
//! pruning.
//!
//! A [`BlockSketch`] summarizes the last `N` values of one stream as `m`
//! contiguous blocks of `b = N/m` values each, keeping only the running
//! `(Σx, Σx²)` pair per block — `Θ(m)` space regardless of `N`, in the
//! spirit of the deterministic CR-precis summaries (Ganguly & Majumder)
//! and the sketch-based distributed sliding-window querying of
//! Papapetrou et al. Blocks carry **absolute indices** (block `k` covers
//! times `[k·b, (k+1)·b)`), which makes sketch exchange idempotent: a
//! delta re-shipped after a crash merges to the exact same state
//! ([`BlockSketch::absorb`]).
//!
//! ## The no-false-dismissal bound
//!
//! Let `x ∈ ℝ^N` be a raw window and `x̂ = (x − μ_x·1)/‖x − μ_x·1‖₂` its
//! z-normalization (zero mean, unit L2 norm — the reduction behind
//! `corr(x, y) = 1 − d²(x̂, ŷ)/2`). Let `P` be the orthogonal projection
//! of `ℝ^N` onto the subspace of block-constant vectors (averaging
//! within each of the `m` blocks). Orthogonal projections are
//! 1-Lipschitz, so for any two windows
//!
//! ```text
//!   ‖P x̂ − P ŷ‖₂  ≤  ‖x̂ − ŷ‖₂ .
//! ```
//!
//! `P x̂` is computable from the sketch alone: within block `k` it is the
//! constant `(s_k/b − μ_x)/E_x`, where `s_k` is the block sum,
//! `μ_x = Σ_k s_k / N`, and `E_x = √(Σ_k q_k − N·μ_x²)` with `q_k` the
//! block sum-of-squares. [`BlockSketch::distance_lower_bound`] evaluates
//! the left-hand side — a **lower bound on the true z-norm distance**,
//! so pruning a candidate pair because the bound already exceeds the
//! radius can never dismiss a truly correlated pair. The only float
//! caveat is rounding: the collector adds [`PRUNE_SLACK`] to the radius
//! before pruning, so last-ulp disagreements between the sketch's
//! one-pass moments and the verifier's two-pass z-norm cannot flip a
//! boundary decision.

use crate::snapshot::{Reader, SnapshotError, Writer};
use crate::stream::Time;

/// Absolute slack added to the prune radius to absorb floating-point
/// rounding between the sketch's one-pass moments and exact raw-window
/// verification. z-norm distances live in `[0, 2]`, so an absolute
/// margin is meaningful; anything pruned had a lower bound at least
/// this far beyond the radius.
pub const PRUNE_SLACK: f64 = 1e-6;

/// A sketch delta shipped from a shard to the collector: the sender's
/// current complete blocks, keyed by absolute block index. Absorbing a
/// delta is idempotent and order-insensitive for stale deltas, so crash
/// recovery may re-ship freely (see [`BlockSketch::absorb`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SketchDelta {
    /// Absolute index of `blocks[0]`.
    pub first: u64,
    /// `(Σx, Σx²)` per complete block, oldest first.
    pub blocks: Vec<(f64, f64)>,
}

/// A sliding-window block sketch over the last `window` values, at
/// block granularity `block` (which must divide `window`).
///
/// Maintained two ways, never both on one instance: shard-side by
/// [`Self::push`]ing every raw value, collector-side by
/// [`Self::absorb`]ing shipped deltas. Both converge to the identical
/// complete-block state (a property test pins this).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSketch {
    window: usize,
    block: usize,
    /// Absolute index of the next block to seal; the front of `blocks`
    /// holds absolute index `next_block − blocks.len()`.
    next_block: u64,
    /// `(Σx, Σx²)` of the newest `≤ window/block` sealed blocks, oldest
    /// first.
    blocks: std::collections::VecDeque<(f64, f64)>,
    /// Accumulators of the currently open block (push side only).
    cur: (f64, f64),
    cur_count: usize,
}

impl BlockSketch {
    /// A sketch over windows of `window` values split into blocks of
    /// `block` values.
    ///
    /// # Panics
    /// Panics unless `1 ≤ block ≤ window` and `block` divides `window`.
    pub fn new(window: usize, block: usize) -> Self {
        assert!(block >= 1 && block <= window, "block must be in 1..=window");
        assert!(window.is_multiple_of(block), "block must divide the window");
        BlockSketch {
            window,
            block,
            next_block: 0,
            blocks: std::collections::VecDeque::with_capacity(window / block),
            cur: (0.0, 0.0),
            cur_count: 0,
        }
    }

    /// Window size `N` this sketch summarizes.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Block granularity `b`.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Number of blocks `m = N/b` in a complete sketch.
    pub fn n_blocks(&self) -> usize {
        self.window / self.block
    }

    /// Whether the sketch covers a full window of `N` values.
    pub fn is_complete(&self) -> bool {
        self.blocks.len() == self.n_blocks()
    }

    /// Time of the last value in the newest **sealed** block (`None`
    /// before the first block seals). A complete sketch with
    /// `end_time() == Some(t)` summarizes exactly the raw window ending
    /// at `t`.
    pub fn end_time(&self) -> Option<Time> {
        if self.next_block == 0 {
            None
        } else {
            Some(self.next_block * self.block as u64 - 1)
        }
    }

    /// Appends one raw value (shard side). Seals a block every `block`
    /// values and expires the oldest once `m` blocks are held.
    pub fn push(&mut self, value: f64) {
        self.cur.0 += value;
        self.cur.1 += value * value;
        self.cur_count += 1;
        if self.cur_count == self.block {
            self.blocks.push_back(self.cur);
            self.cur = (0.0, 0.0);
            self.cur_count = 0;
            self.next_block += 1;
            if self.blocks.len() > self.n_blocks() {
                self.blocks.pop_front();
            }
        }
    }

    /// The current complete-block set for shipping to a collector.
    pub fn delta(&self) -> SketchDelta {
        SketchDelta {
            first: self.next_block - self.blocks.len() as u64,
            blocks: self.blocks.iter().copied().collect(),
        }
    }

    /// Merges a shipped delta (collector side). Keyed by absolute block
    /// index: a delta whose frontier is at or behind this sketch's is a
    /// no-op, an overlapping delta contributes only its unseen tail,
    /// and a delta past a gap replaces the (entirely expired) contents.
    /// Absorbing the same delta twice therefore changes nothing — the
    /// exactly-once guarantee of the sketch exchange rests on this.
    pub fn absorb(&mut self, delta: &SketchDelta) {
        let d_end = delta.first + delta.blocks.len() as u64;
        if d_end <= self.next_block {
            return; // stale or duplicate
        }
        if delta.first > self.next_block {
            // Everything held has expired out of the sender's window.
            self.blocks.clear();
            self.blocks.extend(delta.blocks.iter().copied());
        } else {
            let skip = (self.next_block - delta.first) as usize;
            self.blocks.extend(delta.blocks[skip..].iter().copied());
        }
        self.next_block = d_end;
        while self.blocks.len() > self.n_blocks() {
            self.blocks.pop_front();
        }
    }

    /// Mean and centered L2 norm (`√(Σx² − N·μ²)`) over the complete
    /// window; `None` if the sketch is incomplete or the window is
    /// (numerically) constant, mirroring `normalize::z_norm` returning
    /// `None` on zero variance.
    pub fn moments(&self) -> Option<(f64, f64)> {
        if !self.is_complete() {
            return None;
        }
        let n = self.window as f64;
        let (sum, sumsq) =
            self.blocks.iter().fold((0.0, 0.0), |(s, q), &(bs, bq)| (s + bs, q + bq));
        let mean = sum / n;
        let e2 = sumsq - n * mean * mean;
        // Relative guard against catastrophic cancellation: when the
        // centered energy is within rounding noise of the raw energy
        // computation, the z-norm is unreliable — report no moments and
        // let the caller fall back to exact verification.
        if e2 <= sumsq.abs() * 1e-12 || e2 <= f64::EPSILON {
            return None;
        }
        Some((mean, e2.sqrt()))
    }

    /// Lower bound on the z-norm distance between the two raw windows
    /// the sketches summarize (see the module docs for the projection
    /// argument). `None` — meaning "cannot prune" — unless both
    /// sketches are complete, share the same geometry **and end time**,
    /// and have well-conditioned moments.
    pub fn distance_lower_bound(&self, other: &BlockSketch) -> Option<f64> {
        self.projection()?.distance_lower_bound(&other.projection()?)
    }

    /// The z-normalized per-block projection of this sketch, precomputed
    /// for repeated comparison.
    ///
    /// Normalizing each block mean by the window moments is `Θ(m)` work
    /// that [`Self::distance_lower_bound`] would otherwise redo for every
    /// pair; a pruning phase comparing `n` sketches pairwise projects each
    /// once and evaluates the `O(n²)` bounds on the flat coordinate
    /// vectors. `None` under exactly the per-sketch conditions of
    /// [`Self::distance_lower_bound`]: incomplete window or
    /// ill-conditioned moments.
    pub fn projection(&self) -> Option<SketchProjection> {
        let (mu, e) = self.moments()?;
        let b = self.block as f64;
        Some(SketchProjection {
            window: self.window,
            block: self.block,
            end_time: self.end_time()?,
            coords: self.blocks.iter().map(|&(s, _)| (s / b - mu) / e).collect(),
        })
    }

    /// Serializes the sketch into `w` (embedded in the correlation
    /// monitor's snapshot).
    pub(crate) fn write_into(&self, w: &mut Writer) {
        w.usize(self.window);
        w.usize(self.block);
        w.u64(self.next_block);
        w.usize(self.blocks.len());
        for &(s, q) in &self.blocks {
            w.f64(s);
            w.f64(q);
        }
        w.f64(self.cur.0);
        w.f64(self.cur.1);
        w.usize(self.cur_count);
    }

    /// Decodes a sketch written by [`Self::write_into`] whose geometry
    /// must be `(window, block)` — the owning monitor's, which the
    /// caller has already validated. The stored geometry is checked
    /// against it before anything is allocated, and the block deque is
    /// sized from the decoded count, which the reader bounds by the
    /// remaining input.
    pub(crate) fn read_from(
        r: &mut Reader<'_>,
        window: usize,
        block: usize,
    ) -> Result<Self, SnapshotError> {
        if r.usize()? != window || r.usize()? != block {
            return Err(SnapshotError::Corrupt("sketch geometry"));
        }
        let next_block = r.u64()?;
        let n = r.count(16)?;
        if n > window / block || (n as u64) > next_block {
            return Err(SnapshotError::Corrupt("sketch block count"));
        }
        let mut blocks = std::collections::VecDeque::with_capacity(n);
        for _ in 0..n {
            blocks.push_back((r.f64()?, r.f64()?));
        }
        let cur = (r.f64()?, r.f64()?);
        let cur_count = r.usize()?;
        if cur_count >= block {
            return Err(SnapshotError::Corrupt("open sketch block overflows"));
        }
        Ok(BlockSketch { window, block, next_block, blocks, cur, cur_count })
    }
}

/// A complete sketch's z-normalized block means, flattened for repeated
/// lower-bound evaluation (see [`BlockSketch::projection`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SketchProjection {
    window: usize,
    block: usize,
    end_time: Time,
    coords: Vec<f64>,
}

impl SketchProjection {
    /// Width of the chunks the bound kernel squares per iteration, matching
    /// the other scan primitives.
    const LANES: usize = 4;

    /// Time of the last raw value summarized by the projected sketch.
    pub fn end_time(&self) -> Time {
        self.end_time
    }

    /// Lower bound on the z-norm distance between the two raw windows the
    /// projected sketches summarize. `None` — "cannot prune" — unless both
    /// projections share the same geometry **and end time**.
    ///
    /// Bit-identical to [`BlockSketch::distance_lower_bound`] on the
    /// originating sketches: the squared differences are formed chunk-wise
    /// (element-wise, vectorizable) and accumulated in block order with the
    /// same `b·(pa−pb)·(pa−pb)` association as the reference loop.
    pub fn distance_lower_bound(&self, other: &SketchProjection) -> Option<f64> {
        if self.window != other.window
            || self.block != other.block
            || self.end_time != other.end_time
        {
            return None;
        }
        let b = self.block as f64;
        let (ac, at) = self.coords.as_chunks::<{ Self::LANES }>();
        let (bc, bt) = other.coords.as_chunks::<{ Self::LANES }>();
        let mut d2 = 0.0;
        for (pa, pb) in ac.iter().zip(bc) {
            let mut diff = [0.0; Self::LANES];
            for i in 0..Self::LANES {
                diff[i] = pa[i] - pb[i];
            }
            for d in diff {
                d2 += b * d * d;
            }
        }
        for (pa, pb) in at.iter().zip(bt) {
            let d = pa - pb;
            d2 += b * d * d;
        }
        Some(d2.max(0.0).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize;

    fn rng(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn completes_exactly_at_window_and_slides() {
        let mut sk = BlockSketch::new(16, 4);
        for i in 0..15 {
            sk.push(i as f64);
            assert!(!sk.is_complete(), "complete after {} < 16 values", i + 1);
        }
        sk.push(15.0);
        assert!(sk.is_complete());
        assert_eq!(sk.end_time(), Some(15));
        for i in 16..24 {
            sk.push(i as f64);
        }
        assert!(sk.is_complete());
        assert_eq!(sk.end_time(), Some(23));
        assert_eq!(sk.delta().first, 2, "two blocks expired");
    }

    #[test]
    fn moments_match_direct_computation() {
        let mut sk = BlockSketch::new(8, 2);
        let vals: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).sin() * 3.0 + 10.0).collect();
        for &v in &vals {
            sk.push(v);
        }
        let (mean, energy) = sk.moments().expect("complete, non-constant");
        let mu = vals.iter().sum::<f64>() / 8.0;
        let e = vals.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>().sqrt();
        assert!((mean - mu).abs() < 1e-12);
        assert!((energy - e).abs() < 1e-9);
    }

    #[test]
    fn constant_window_has_no_moments() {
        let mut sk = BlockSketch::new(8, 4);
        for _ in 0..8 {
            sk.push(5.0);
        }
        assert!(sk.is_complete());
        assert!(sk.moments().is_none(), "z-norm undefined on constant windows");
    }

    #[test]
    fn lower_bound_never_exceeds_true_distance() {
        let mut seed = 11u64;
        for block in [1usize, 4, 8, 32] {
            let n = 32;
            let mut a = BlockSketch::new(n, block);
            let mut b = BlockSketch::new(n, block);
            let (mut x, mut y) = (50.0f64, 30.0f64);
            let mut wx = Vec::new();
            let mut wy = Vec::new();
            for _ in 0..n {
                x += rng(&mut seed) - 0.5;
                y += rng(&mut seed) - 0.5;
                a.push(x);
                b.push(y);
                wx.push(x);
                wy.push(y);
            }
            let lb = a.distance_lower_bound(&b).expect("both complete");
            let za = normalize::z_norm(&wx).expect("nonconstant");
            let zb = normalize::z_norm(&wy).expect("nonconstant");
            let true_d = normalize::l2_distance(&za, &zb);
            assert!(
                lb <= true_d + PRUNE_SLACK,
                "block {block}: lower bound {lb} exceeds true distance {true_d}"
            );
        }
    }

    #[test]
    fn full_resolution_bound_is_tight() {
        // With b = 1 the projection is the identity: the bound equals
        // the true distance up to rounding.
        let mut a = BlockSketch::new(16, 1);
        let mut b = BlockSketch::new(16, 1);
        let mut wx = Vec::new();
        let mut wy = Vec::new();
        for i in 0..16 {
            let x = (i as f64 * 0.9).sin() + 3.0;
            let y = (i as f64 * 0.4).cos() * 2.0 + 1.0;
            a.push(x);
            b.push(y);
            wx.push(x);
            wy.push(y);
        }
        let lb = a.distance_lower_bound(&b).expect("complete");
        let za = normalize::z_norm(&wx).unwrap();
        let zb = normalize::z_norm(&wy).unwrap();
        let true_d = normalize::l2_distance(&za, &zb);
        assert!((lb - true_d).abs() < 1e-9, "b=1 bound {lb} vs true {true_d}");
    }

    #[test]
    fn misaligned_end_times_refuse_to_bound() {
        let mut a = BlockSketch::new(8, 4);
        let mut b = BlockSketch::new(8, 4);
        for i in 0..8 {
            a.push(i as f64);
            b.push(i as f64 * 2.0);
        }
        b.push(99.0);
        b.push(98.0);
        b.push(97.0);
        b.push(96.0); // b now one block ahead
        assert!(a.distance_lower_bound(&b).is_none(), "different end times must not prune");
        assert!(
            BlockSketch::new(8, 2).distance_lower_bound(&BlockSketch::new(8, 4)).is_none(),
            "different geometry must not prune"
        );
    }

    #[test]
    fn absorb_is_idempotent_and_tracks_push() {
        let mut pusher = BlockSketch::new(12, 3);
        let mut mirror = BlockSketch::new(12, 3);
        let mut seed = 3u64;
        for step in 0..60 {
            pusher.push(rng(&mut seed) * 10.0);
            if step % 7 == 0 {
                let d = pusher.delta();
                mirror.absorb(&d);
                mirror.absorb(&d); // duplicate ship: must change nothing
            }
        }
        let d = pusher.delta();
        mirror.absorb(&d);
        let again = mirror.clone();
        mirror.absorb(&d);
        assert_eq!(mirror, again, "re-absorbing the latest delta must be a no-op");
        assert_eq!(mirror.delta(), pusher.delta(), "mirror must converge to the push state");
    }

    #[test]
    fn absorb_handles_gaps_by_adopting() {
        let mut pusher = BlockSketch::new(8, 2);
        let mut mirror = BlockSketch::new(8, 2);
        for i in 0..8 {
            pusher.push(i as f64);
        }
        mirror.absorb(&pusher.delta());
        // Mirror misses many exchanges; everything it held expires.
        for i in 8..40 {
            pusher.push(i as f64);
        }
        mirror.absorb(&pusher.delta());
        assert_eq!(mirror.delta(), pusher.delta());
        // A stale delta arriving late is ignored.
        let old = SketchDelta { first: 0, blocks: vec![(1.0, 1.0); 4] };
        let before = mirror.clone();
        mirror.absorb(&old);
        assert_eq!(mirror, before);
    }

    #[test]
    fn snapshot_roundtrip_preserves_state() {
        let mut sk = BlockSketch::new(16, 4);
        for i in 0..23 {
            sk.push((i as f64 * 1.3).sin() * 7.0);
        }
        let mut w = Writer::new();
        sk.write_into(&mut w);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).expect("magic");
        let back = BlockSketch::read_from(&mut r, 16, 4).expect("decodes");
        r.expect_end().expect("fully consumed");
        assert_eq!(back, sk);
        // Continuing to push stays bit-identical.
        let mut live = sk;
        let mut revived = back;
        for i in 0..9 {
            live.push(i as f64);
            revived.push(i as f64);
        }
        assert_eq!(live, revived);
    }

    #[test]
    fn corrupt_geometry_rejected() {
        let mut w = Writer::new();
        w.usize(8); // window
        w.usize(3); // block: does not divide 8
        w.u64(0);
        w.usize(0);
        w.f64(0.0);
        w.f64(0.0);
        w.usize(0);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        assert!(matches!(
            BlockSketch::read_from(&mut r, 8, 4),
            Err(SnapshotError::Corrupt("sketch geometry"))
        ));
    }

    #[test]
    fn huge_window_field_is_an_error_not_an_allocation() {
        let mut sk = BlockSketch::new(16, 4);
        for i in 0..23 {
            sk.push(i as f64);
        }
        let mut w = Writer::new();
        sk.write_into(&mut w);
        let mut bytes = w.finish();
        // The window field follows the magic. A large multiple of the
        // block passes a divisibility check, and sizing the deque from
        // it would ask for 2^62 bytes.
        let huge = 4usize << 58;
        let at = crate::snapshot::MAGIC.len();
        bytes[at..at + 8].copy_from_slice(&(huge as u64).to_le_bytes());
        let mut r = Reader::new(&bytes).unwrap();
        assert!(matches!(
            BlockSketch::read_from(&mut r, 16, 4),
            Err(SnapshotError::Corrupt("sketch geometry"))
        ));
    }

    #[test]
    #[should_panic(expected = "block must divide")]
    fn indivisible_block_rejected() {
        let _ = BlockSketch::new(10, 3);
    }
}
