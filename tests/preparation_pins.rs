//! Bit-exact pins on model preparation: seeded weights, tile-wise masks
//! (single-matrix and global, with and without apriori hints) and the
//! compacted payloads built from them.
//!
//! Each output is hashed with 64-bit FNV-1a over its `f32` bit patterns and
//! `bool` bytes.  A digest changes when any single weight, mask entry or
//! payload value changes, so any rewrite of these paths must keep every
//! output identical, not just statistically similar.

use tilewise::TileWiseMatrix;
use tw_pruning::apriori::{derive_hints, AprioriHints};
use tw_pruning::{
    tw, AprioriConfig, ImportanceScores, SparsityTarget, TileWiseConfig, TileWiseMask,
};
use tw_tensor::Matrix;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn bools(&mut self, values: &[bool]) {
        for &v in values {
            self.bytes(&[u8::from(v)]);
        }
    }
}

/// The column keep mask, then every tile's row keep mask in order (the
/// tiles' columns follow from the column mask and the granularity).
fn mask_digest(masks: &[TileWiseMask]) -> u64 {
    let mut h = Fnv::new();
    for mask in masks {
        h.bools(mask.col_keep());
        for tile in mask.tiles() {
            h.bools(&tile.row_keep);
        }
    }
    h.0
}

/// Every tile payload of every matrix, in order.
fn payload_digest(weights: &[Matrix], masks: &[TileWiseMask]) -> u64 {
    let mut h = Fnv::new();
    for (w, mask) in weights.iter().zip(masks) {
        for tile in TileWiseMatrix::from_mask(w, mask).tiles() {
            h.f32s(tile.payload().as_slice());
        }
    }
    h.0
}

/// A seeded chain of normal weights over `dims` and its magnitude scores.
fn chain(dims: &[usize], seed: u64) -> (Vec<Matrix>, Vec<ImportanceScores>) {
    let weights: Vec<Matrix> = dims
        .windows(2)
        .enumerate()
        .map(|(i, pair)| Matrix::random_normal(pair[0], pair[1], 1.0, seed + i as u64))
        .collect();
    let scores = weights.iter().map(ImportanceScores::magnitude).collect();
    (weights, scores)
}

const BERT: [usize; 4] = [768, 768, 3072, 768];
const SERVED: [usize; 3] = [192, 192, 96];

/// Digests of `[per-matrix masks, global masks, global masks with hints]`
/// and of their payloads, in the same order.
fn prune_digests(dims: &[usize], granularity: usize, seed: u64) -> ([u64; 3], [u64; 3]) {
    let (weights, scores) = chain(dims, seed);
    let cfg = TileWiseConfig::with_granularity(granularity);
    let target = SparsityTarget::new(0.75);
    let single: Vec<TileWiseMask> = scores.iter().map(|s| tw::prune(s, &cfg, target)).collect();
    let global = tw::prune_global(&scores, &cfg, target, None);
    let hints: Vec<AprioriHints> = derive_hints(&scores, target, &AprioriConfig::default());
    let hinted = tw::prune_global(&scores, &cfg, target, Some(&hints));
    let all = [single, global, hinted];
    (all.each_ref().map(|m| mask_digest(m)), all.each_ref().map(|m| payload_digest(&weights, m)))
}

#[test]
fn random_normal_weights_are_pinned() {
    let cases: [((usize, usize, f32, u64), u64); 3] = [
        ((768, 768, 1.0, 1), 0x5c29_9be0_1a2b_2cc1),
        ((3072, 768, 1.0, 2), 0x2807_a241_45fc_cc71),
        ((7, 13, 0.5, 3), 0x6bd9_18a9_3b28_ce77),
    ];
    let actual = cases.map(|((rows, cols, std, seed), _)| {
        let mut h = Fnv::new();
        h.f32s(Matrix::random_normal(rows, cols, std, seed).as_slice());
        h.0
    });
    assert_eq!(actual, cases.map(|(_, expected)| expected), "{actual:#018x?}");
}

#[test]
fn bert_masks_and_payloads_are_pinned() {
    let expected = (
        [0x73d8_42b3_f921_1736, 0x6436_8fc0_c7f4_0ef1, 0xce97_fbed_d5d6_e442],
        [0xc0e7_64b9_65e7_2039, 0x845c_8aac_8d98_04ed, 0x3fce_2ef3_f32a_9814],
    );
    let actual = prune_digests(&BERT, 128, 11);
    assert_eq!(actual, expected, "{actual:#018x?}");
}

#[test]
fn served_masks_and_payloads_are_pinned() {
    let expected = (
        [0x1cc2_d31b_f748_8693, 0x68e6_d321_e2da_b162, 0x9f3e_cbc7_3b6c_9f42],
        [0xb4be_1de6_4875_e1c1, 0x91af_8843_2681_5147, 0xff04_88fa_8497_5832],
    );
    let actual = prune_digests(&SERVED, 32, 5);
    assert_eq!(actual, expected, "{actual:#018x?}");
}
