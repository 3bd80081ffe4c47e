//! Property tests of the StatStream baseline's DFT summary.

use proptest::prelude::*;
use stardust_baselines::dft::{dft_coefficient, znorm_dft_feature};

fn signal(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, len)
}

proptest! {
    /// DFT: Parseval over all coefficients, and z-norm feature invariance
    /// under affine transformations with positive scale.
    #[test]
    fn dft_properties(x in signal(16), scale in 0.1f64..10.0, offset in -100.0f64..100.0) {
        let e_time: f64 = x.iter().map(|v| v * v).sum();
        let e_freq: f64 = (0..16).map(|k| dft_coefficient(&x, k).norm_sqr()).sum();
        prop_assert!((e_time - e_freq).abs() < 1e-6 * (1.0 + e_time));

        if let Some(fx) = znorm_dft_feature(&x, 4) {
            let y: Vec<f64> = x.iter().map(|v| scale * v + offset).collect();
            let fy = znorm_dft_feature(&y, 4).expect("scaled signal keeps variance");
            for (a, b) in fx.iter().zip(&fy) {
                prop_assert!((a - b).abs() < 1e-6);
            }
        }
    }
}
