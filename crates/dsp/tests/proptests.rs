//! Property tests of the transform substrate: the exactness and
//! conservativeness guarantees that everything above relies on.

use proptest::prelude::*;
use stardust_dsp::haar;
use stardust_dsp::mbr_transform::Bounds;
use stardust_dsp::FilterBank;

fn signal(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, len)
}

/// The Daubechies-4 filter bank, whose last tap is negative.
fn db2() -> FilterBank {
    let s3 = 3f64.sqrt();
    let norm = 4.0 * 2f64.sqrt();
    FilterBank::from_taps(vec![
        (1.0 + s3) / norm,
        (3.0 + s3) / norm,
        (3.0 - s3) / norm,
        (1.0 - s3) / norm,
    ])
}

/// The `i`-th of the `2^d` corners of `b`: bit `k` of `i` picks `hi[k]`.
fn corner(b: &Bounds, i: usize) -> Vec<f64> {
    (0..b.dims()).map(|k| if i >> k & 1 == 1 { b.hi()[k] } else { b.lo()[k] }).collect()
}

proptest! {
    /// Haar DWT is orthonormal: perfect reconstruction and Parseval.
    #[test]
    fn dwt_roundtrip_and_parseval(x in signal(32)) {
        let coeffs = haar::dwt(&x);
        let back = haar::idwt(&coeffs);
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8);
        }
        let e1: f64 = x.iter().map(|v| v * v).sum();
        let e2: f64 = coeffs.iter().map(|v| v * v).sum();
        prop_assert!((e1 - e2).abs() < 1e-6 * (1.0 + e1));
    }

    /// Lemma A.1: the incremental merge equals the direct transform for
    /// every keep-length.
    #[test]
    fn merge_halves_is_exact(x in signal(64), keep_pow in 0usize..6) {
        let keep = 1usize << keep_pow; // 1..32
        let left = haar::approx(&x[..32], keep);
        let right = haar::approx(&x[32..], keep);
        let merged = haar::merge_halves(&left, &right);
        let direct = haar::approx(&x, keep);
        for (m, d) in merged.iter().zip(&direct) {
            prop_assert!((m - d).abs() < 1e-8);
        }
    }

    /// Projection contraction: approximation distance never exceeds signal
    /// distance (the no-false-dismissal property of range queries).
    #[test]
    fn approx_distance_contracts(x in signal(32), y in signal(32), keep_pow in 0usize..6) {
        let keep = 1usize << keep_pow;
        let d_sig: f64 = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        let ax = haar::approx(&x, keep);
        let ay = haar::approx(&y, keep);
        let d_app: f64 = ax.iter().zip(&ay).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        prop_assert!(d_app <= d_sig + 1e-8);
    }

    /// Conservativeness for both filter families: the output box
    /// contains the transform of every corner and of midpoints.
    #[test]
    fn online2_is_conservative(
        lo in proptest::collection::vec(-50.0f64..50.0, 8),
        widths in proptest::collection::vec(0.0f64..20.0, 8),
        use_db2 in any::<bool>(),
    ) {
        let hi: Vec<f64> = lo.iter().zip(&widths).map(|(l, w)| l + w).collect();
        let b = Bounds::new(lo.clone(), hi.clone());
        let bank = if use_db2 { db2() } else { FilterBank::haar() };
        let out = b.analyze_online2(&bank);
        // corners: lo, hi, alternating, midpoint
        let mid: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| (l + h) / 2.0).collect();
        let alt: Vec<f64> = lo
            .iter()
            .zip(&hi)
            .enumerate()
            .map(|(i, (l, h))| if i % 2 == 0 { *l } else { *h })
            .collect();
        for probe in [&lo, &hi, &mid, &alt] {
            let t = bank.analyze(probe);
            prop_assert!(out.contains(&t, 1e-7), "{t:?} outside {out:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The MBR transform is the exact box of one analysis step, for
    /// random taps with a negative one, for db2 and for Haar: it holds
    /// the image of every corner, the midpoint and random interior
    /// points; where no tap wraps around the input (d ≥ taps) it equals
    /// the box around the images of all 2^d corners; and for Haar it is
    /// bit-for-bit the images of the low and high corners.
    #[test]
    fn online2_is_the_exact_box(
        random_taps in proptest::collection::vec(-2.0f64..2.0, 2..7),
        negative in 0usize..6,
        use_db2 in any::<bool>(),
        half_d in 1usize..5,
        lo in proptest::collection::vec(-50.0f64..50.0, 8),
        widths in proptest::collection::vec(0.0f64..20.0, 8),
        interior in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 8), 8),
    ) {
        let d = 2 * half_d;
        let lo = lo[..d].to_vec();
        let hi: Vec<f64> = lo.iter().zip(&widths).map(|(l, w)| l + w).collect();
        let b = Bounds::new(lo.clone(), hi.clone());
        let bank = if use_db2 {
            db2()
        } else {
            let mut taps = random_taps;
            let k = negative % taps.len();
            taps[k] = -taps[k].abs().max(1e-3);
            FilterBank::from_taps(taps)
        };
        let out = b.analyze_online2(&bank);
        // The box around the images of all 2^d corners (Appendix A's
        // Online I): `out` must hold it, and equal it where d ≥ taps.
        let mut exact = Bounds::point(&bank.analyze(&lo));
        for i in 1..1usize << d {
            exact.extend(&bank.analyze(&corner(&b, i)));
        }
        let mid: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| (l + h) / 2.0).collect();
        let inside = interior.iter().map(|t| {
            lo.iter().zip(&hi).zip(t).map(|((l, h), t)| l + t * (h - l)).collect::<Vec<f64>>()
        });
        for probe in [exact.lo().to_vec(), exact.hi().to_vec()] {
            prop_assert!(out.contains(&probe, 1e-9), "{probe:?} outside {out:?}");
        }
        for probe in inside.chain([mid]) {
            let t = bank.analyze(&probe);
            prop_assert!(out.contains(&t, 1e-9), "{t:?} outside {out:?}");
        }
        if d >= bank.taps().len() {
            // Relative to the magnitude of the summed terms.
            let magnitude = lo.iter().chain(&hi).fold(1.0f64, |m, v| m.max(v.abs()))
                * bank.taps().iter().map(|h| h.abs()).sum::<f64>();
            for (x, y) in out.lo().iter().chain(out.hi()).zip(exact.lo().iter().chain(exact.hi())) {
                prop_assert!((x - y).abs() <= 1e-12 * magnitude, "{out:?} vs {exact:?}");
            }
        }

        let haar = FilterBank::haar();
        let out = b.analyze_online2(&haar);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(out.lo()), bits(&haar.analyze(&lo)));
        prop_assert_eq!(bits(out.hi()), bits(&haar.analyze(&hi)));
    }
}
