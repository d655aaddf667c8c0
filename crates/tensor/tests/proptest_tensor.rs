//! Property-based tests of the tensor substrate's algebraic laws.

use nsai_tensor::fft::CORR_BLOCK;
use nsai_tensor::{CooMatrix, Tensor};
use proptest::prelude::*;

fn small_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, 1..=max_len)
}

proptest! {
    #[test]
    fn add_is_commutative(a in small_vec(32)) {
        let n = a.len();
        let b: Vec<f32> = a.iter().map(|v| v * 0.5 + 1.0).collect();
        let ta = Tensor::from_vec(a, &[n]).unwrap();
        let tb = Tensor::from_vec(b, &[n]).unwrap();
        let ab = ta.add(&tb).unwrap();
        let ba = tb.add(&ta).unwrap();
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn mul_distributes_over_add(a in small_vec(16)) {
        let n = a.len();
        let b: Vec<f32> = a.iter().map(|v| v - 2.0).collect();
        let c: Vec<f32> = a.iter().map(|v| v * 0.25).collect();
        let ta = Tensor::from_vec(a, &[n]).unwrap();
        let tb = Tensor::from_vec(b, &[n]).unwrap();
        let tc = Tensor::from_vec(c, &[n]).unwrap();
        let lhs = ta.mul(&tb.add(&tc).unwrap()).unwrap();
        let rhs = ta.mul(&tb).unwrap().add(&ta.mul(&tc).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn reshape_round_trip(data in small_vec(24)) {
        let n = data.len();
        let t = Tensor::from_vec(data, &[n]).unwrap();
        let back = t.reshape(&[n, 1]).unwrap().reshape(&[n]).unwrap();
        prop_assert_eq!(back.data(), t.data());
    }

    #[test]
    fn transpose_is_involutive(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
        let t = Tensor::rand_uniform(&[rows, cols], -1.0, 1.0, seed);
        let back = t.transpose().unwrap().transpose().unwrap();
        prop_assert_eq!(back.data(), t.data());
    }

    #[test]
    fn matmul_identity(n in 1usize..8, seed in 0u64..1000) {
        let a = Tensor::rand_uniform(&[n, n], -1.0, 1.0, seed);
        let prod = a.matmul(&Tensor::eye(n)).unwrap();
        for (x, y) in prod.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_associates(seed in 0u64..500) {
        let a = Tensor::rand_uniform(&[3, 4], -1.0, 1.0, seed);
        let b = Tensor::rand_uniform(&[4, 5], -1.0, 1.0, seed + 1);
        let c = Tensor::rand_uniform(&[5, 2], -1.0, 1.0, seed + 2);
        let lhs = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let rhs = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn softmax_is_a_distribution(data in small_vec(16)) {
        let n = data.len();
        let t = Tensor::from_vec(data, &[1, n]).unwrap();
        let s = t.softmax().unwrap();
        let sum: f32 = s.data().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(s.data().iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn fft_circular_conv_matches_direct(seed in 0u64..200) {
        let a = Tensor::rand_uniform(&[32], -1.0, 1.0, seed);
        let b = Tensor::rand_uniform(&[32], -1.0, 1.0, seed + 7);
        let direct = a.circular_conv_direct(&b).unwrap();
        let fft = a.circular_conv_fft(&b).unwrap();
        for (x, y) in direct.data().iter().zip(fft.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn csr_dense_round_trip(rows in 1usize..6, cols in 1usize..6, seed in 0u64..500) {
        let mut t = Tensor::rand_uniform(&[rows, cols], -1.0, 1.0, seed);
        // Sparsify about half.
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let csr = CooMatrix::from_dense(&t).unwrap().to_csr();
        let dense = csr.to_dense();
        prop_assert_eq!(dense.data(), t.data());
    }

    #[test]
    fn spmm_matches_dense(rows in 1usize..5, inner in 1usize..5, cols in 1usize..5, seed in 0u64..300) {
        let mut a = Tensor::rand_uniform(&[rows, inner], -1.0, 1.0, seed);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        let b = Tensor::rand_uniform(&[inner, cols], -1.0, 1.0, seed + 11);
        let sparse = CooMatrix::from_dense(&a).unwrap().to_csr().spmm(&b).unwrap();
        let dense = a.matmul(&b).unwrap();
        for (x, y) in sparse.data().iter().zip(dense.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn roll_composes_modularly(n in 1usize..32, k1 in 0usize..40, k2 in 0usize..40, seed in 0u64..200) {
        let t = Tensor::rand_uniform(&[n], -1.0, 1.0, seed);
        let once = t.roll(k1).unwrap().roll(k2).unwrap();
        let combined = t.roll((k1 + k2) % n.max(1)).unwrap();
        prop_assert_eq!(once.data(), combined.data());
    }

    #[test]
    fn masked_select_count_matches_mask(data in small_vec(24)) {
        let n = data.len();
        let mask_data: Vec<f32> = (0..n).map(|i| if i % 3 == 0 { 1.0 } else { 0.0 }).collect();
        let expected = mask_data.iter().filter(|v| **v != 0.0).count();
        let t = Tensor::from_vec(data, &[n]).unwrap();
        let mask = Tensor::from_vec(mask_data, &[n]).unwrap();
        let selected = t.masked_select(&mask).unwrap();
        prop_assert_eq!(selected.numel(), expected);
    }
}

/// The modulo loops both direct circular kernels are defined by:
/// correlation `Σ_i a[i] · b[(i + k) mod n]` and convolution
/// `Σ_i a[i] · b[(k − i) mod n]`, each summed in ascending `i` from 0.
fn modulo_reference(a: &[f32], b: &[f32], correlate: bool) -> Vec<f32> {
    let n = a.len();
    (0..n)
        .map(|k| {
            let mut acc = 0.0f32;
            for (i, ai) in a.iter().enumerate() {
                let j = if correlate {
                    (i + k) % n
                } else {
                    (k + n - i) % n
                };
                acc += ai * b[j];
            }
            acc
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The blocked kernels give the modulo loops' bits at every block
    /// boundary case and at the VSA dimensions. Operands span several
    /// orders of magnitude, so a change in summation order shows up as
    /// a changed bit.
    #[test]
    fn direct_circular_kernels_are_bitwise_the_modulo_loop(seed in 0u64..1_000_000) {
        let lengths = [
            1, 2, 3, CORR_BLOCK - 1, CORR_BLOCK, CORR_BLOCK + 1, 128, 1000, 1024, 2048,
        ];
        for (offset, n) in lengths.into_iter().enumerate() {
            let scale = Tensor::rand_uniform(&[n], -6.0, 6.0, seed ^ 0x5ca1e);
            let a: Vec<f32> = Tensor::rand_uniform(&[n], -1.0, 1.0, seed + offset as u64)
                .data()
                .iter()
                .zip(scale.data())
                .map(|(v, s)| v * s.exp2())
                .collect();
            let b = Tensor::rand_uniform(&[n], -1.0, 1.0, seed ^ (0xb0 + offset as u64));
            let ta = Tensor::from_vec(a.clone(), &[n]).unwrap();
            for (correlate, got) in [
                (true, ta.circular_corr(&b).unwrap()),
                (false, ta.circular_conv_direct(&b).unwrap()),
            ] {
                let want = modulo_reference(&a, b.data(), correlate);
                for (k, (x, y)) in got.data().iter().zip(&want).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "n {} output {} ({}): {} vs {}",
                        n,
                        k,
                        if correlate { "corr" } else { "conv" },
                        x,
                        y
                    );
                }
            }
        }
    }
}
