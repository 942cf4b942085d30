//! Tile-wise (TW) pruning — the paper's proposed sparsity pattern.
//!
//! The weight matrix `B (K x N)` is divided into column tiles of width `G`
//! (the tiling granularity).  Pruning happens in two phases (Fig. 4 ②,
//! Algorithm 1):
//!
//! 1. **Column pruning**: whole columns (shape `(K, 1)`) are ranked by
//!    importance *globally across all weight matrices* and the weakest are
//!    removed.
//! 2. **Row pruning**: surviving columns are regrouped into tiles of width
//!    `G`; within each tile, whole rows (shape `(1, G)`) are ranked — again
//!    globally — and the weakest are removed.  Different tiles lose
//!    different numbers of rows, which is the irregularity that preserves
//!    accuracy.
//!
//! The global ranking is what lets TW exploit the uneven distribution of
//! importance across layers and matrices (Fig. 5), the key advantage over
//! VW.  Because both phases remove whole rows/columns of a tile, the
//! survivors of each tile remain a small *dense* matrix that dense GEMM
//! hardware can execute directly.

use crate::apriori::AprioriHints;
use crate::importance::ImportanceScores;
use crate::pattern::{PatternMask, SparsityTarget};

/// Configuration of the tile-wise pattern.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TileWiseConfig {
    /// Tile width `G` (number of weight-matrix columns per tile).
    pub granularity: usize,
    /// Fraction of the pruning budget (in elements) assigned to the column
    /// pruning phase; the remainder goes to row pruning.  Algorithm 1 applies
    /// the same percentile to both phases; splitting the element budget
    /// evenly (0.5) reproduces that behaviour while keeping the overall
    /// sparsity exactly on target.
    pub column_budget_share: f64,
}

impl TileWiseConfig {
    /// The configuration used for most of the paper's evaluation (G = 128).
    pub fn paper_default() -> Self {
        Self { granularity: 128, column_budget_share: 0.5 }
    }

    /// A configuration with the given granularity and the default budget
    /// split.
    pub fn with_granularity(granularity: usize) -> Self {
        Self { granularity, column_budget_share: 0.5 }
    }
}

impl Default for TileWiseConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One tile after TW pruning: the original column indices it covers and the
/// per-row keep mask.
#[derive(Clone, Debug, PartialEq)]
pub struct TwTile {
    /// Original (pre-pruning) column indices grouped into this tile, in
    /// ascending order.  Their count is at most `G`.
    pub col_indices: Vec<usize>,
    /// Keep mask over the K dimension: `row_keep[r]` is false when row `r`
    /// of this tile was pruned.
    pub row_keep: Vec<bool>,
}

impl TwTile {
    /// Number of surviving rows.
    pub fn kept_rows(&self) -> usize {
        self.row_keep.iter().filter(|&&k| k).count()
    }

    /// Number of columns in this tile (all survive column pruning by
    /// construction).
    pub fn kept_cols(&self) -> usize {
        self.col_indices.len()
    }

    /// Indices of surviving rows.
    pub fn kept_row_indices(&self) -> Vec<usize> {
        self.row_keep.iter().enumerate().filter_map(|(i, &k)| k.then_some(i)).collect()
    }
}

/// The tile-wise pruning decision for one weight matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct TileWiseMask {
    k: usize,
    n: usize,
    granularity: usize,
    /// Global column keep mask (length `n`): result of the column phase.
    col_keep: Vec<bool>,
    /// Tiles over the surviving columns: result of the row phase.
    tiles: Vec<TwTile>,
}

impl TileWiseMask {
    /// K dimension (rows of the weight matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// N dimension (columns of the weight matrix).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tile width G this mask was built with.
    pub fn granularity(&self) -> usize {
        self.granularity
    }

    /// The global column keep mask.
    pub fn col_keep(&self) -> &[bool] {
        &self.col_keep
    }

    /// Number of surviving columns.
    pub fn kept_cols(&self) -> usize {
        self.col_keep.iter().filter(|&&k| k).count()
    }

    /// The tiles over surviving columns.
    pub fn tiles(&self) -> &[TwTile] {
        &self.tiles
    }

    /// Number of surviving weight elements.
    pub fn kept_elements(&self) -> usize {
        self.tiles.iter().map(|t| t.kept_rows() * t.kept_cols()).sum()
    }

    /// Achieved element-level sparsity.
    pub fn sparsity(&self) -> f64 {
        let total = self.k * self.n;
        if total == 0 {
            return 0.0;
        }
        1.0 - self.kept_elements() as f64 / total as f64
    }

    /// Expands the tile-structured decision into a flat element keep mask.
    pub fn to_pattern_mask(&self) -> PatternMask {
        let mut keep = vec![false; self.k * self.n];
        for tile in &self.tiles {
            for (r, &rk) in tile.row_keep.iter().enumerate() {
                if !rk {
                    continue;
                }
                for &c in &tile.col_indices {
                    keep[r * self.n + c] = true;
                }
            }
        }
        PatternMask::new(self.k, self.n, keep)
    }

    /// Per-tile kept row counts, the quantity that drives load imbalance in
    /// the execution planner.
    pub fn tile_kept_rows(&self) -> Vec<usize> {
        self.tiles.iter().map(|t| t.kept_rows()).collect()
    }
}

/// Internal reference to a column of a particular matrix during global
/// ranking.
#[derive(Clone, Copy)]
struct ColRef {
    matrix: usize,
    col: usize,
    elements: usize,
    score: f64,
}

/// Internal reference to a `(tile, row)` unit during global row ranking.
#[derive(Clone, Copy)]
struct RowRef {
    matrix: usize,
    tile: usize,
    row: usize,
    elements: usize,
    score: f64,
}

/// Prunes a single weight matrix tile-wise.  Equivalent to
/// [`prune_global`] with a single-element slice.
pub fn prune(
    scores: &ImportanceScores,
    cfg: &TileWiseConfig,
    target: SparsityTarget,
) -> TileWiseMask {
    prune_global(std::slice::from_ref(scores), cfg, target, None)
        .pop()
        .expect("one mask per matrix")
}

/// Prunes a set of weight matrices tile-wise with global ranking across all
/// of them (Algorithm 1's "Global Weight Pruning").
///
/// `hints`, when provided, applies Algorithm 2's apriori tuning to the
/// column phase: columns flagged `force_prune` are removed first and columns
/// flagged `protect` are never removed by the column phase.
pub fn prune_global(
    scores: &[ImportanceScores],
    cfg: &TileWiseConfig,
    target: SparsityTarget,
    hints: Option<&[AprioriHints]>,
) -> Vec<TileWiseMask> {
    assert!(cfg.granularity > 0, "granularity must be positive");
    assert!(
        (0.0..=1.0).contains(&cfg.column_budget_share),
        "column budget share must be in [0, 1]"
    );
    if let Some(h) = hints {
        assert_eq!(h.len(), scores.len(), "one apriori hint set per matrix");
    }

    let total_elements: usize = scores.iter().map(|s| s.rows() * s.cols()).sum();
    let target_pruned = target.count_of(total_elements);
    let col_budget = (cfg.column_budget_share * target_pruned as f64).round() as usize;

    // ---- Phase 1: global column pruning -------------------------------
    let mut col_refs: Vec<ColRef> = Vec::new();
    for (mi, s) in scores.iter().enumerate() {
        let k = s.rows();
        for (c, sum) in column_sums(s).into_iter().enumerate() {
            let mut score = sum / k.max(1) as f64;
            if let Some(h) = hints {
                if h[mi].force_prune.contains(&c) {
                    score = 0.0;
                } else if h[mi].protect.contains(&c) {
                    score = f64::INFINITY;
                }
            }
            col_refs.push(ColRef { matrix: mi, col: c, elements: k, score });
        }
    }
    col_refs.sort_by(|a, b| a.score.partial_cmp(&b.score).expect("no NaN scores"));

    let mut col_keeps: Vec<Vec<bool>> = scores.iter().map(|s| vec![true; s.cols()]).collect();
    // Surviving columns per matrix, kept in step with `col_keeps`.
    let mut kept_cols: Vec<usize> = scores.iter().map(|s| s.cols()).collect();
    let mut pruned_elements = 0usize;
    for cref in &col_refs {
        if pruned_elements >= col_budget {
            break;
        }
        // Never let the column phase wipe out an entire matrix.
        if kept_cols[cref.matrix] <= 1 {
            continue;
        }
        col_keeps[cref.matrix][cref.col] = false;
        kept_cols[cref.matrix] -= 1;
        pruned_elements += cref.elements;
    }

    // ---- Phase 2: regroup surviving columns into tiles of width G ------
    // (the paper's "re-organize the weight matrix tiles for row pruning")
    let mut tiles_per_matrix: Vec<Vec<TwTile>> = Vec::with_capacity(scores.len());
    for (mi, s) in scores.iter().enumerate() {
        let kept_cols: Vec<usize> =
            col_keeps[mi].iter().enumerate().filter_map(|(c, &k)| k.then_some(c)).collect();
        let mut tiles = Vec::new();
        for chunk in kept_cols.chunks(cfg.granularity) {
            tiles.push(TwTile { col_indices: chunk.to_vec(), row_keep: vec![true; s.rows()] });
        }
        if tiles.is_empty() {
            // Degenerate but possible for tiny matrices: keep one empty tile
            // so the mask structure stays well formed.
            tiles.push(TwTile { col_indices: Vec::new(), row_keep: vec![true; s.rows()] });
        }
        tiles_per_matrix.push(tiles);
    }

    // ---- Phase 3: global row pruning within tiles ----------------------
    let row_budget = target_pruned.saturating_sub(pruned_elements);
    let mut row_refs: Vec<RowRef> = Vec::new();
    for (mi, s) in scores.iter().enumerate() {
        for (ti, tile) in tiles_per_matrix[mi].iter().enumerate() {
            if tile.col_indices.is_empty() {
                continue;
            }
            for r in 0..s.rows() {
                // The score of the `(1, G)` row tile: its mean over the
                // tile's columns, summed in ascending column order.
                let row = s.as_matrix().row(r);
                let sum: f64 = tile.col_indices.iter().map(|&c| row[c] as f64).sum();
                let score = sum / tile.col_indices.len() as f64;
                row_refs.push(RowRef {
                    matrix: mi,
                    tile: ti,
                    row: r,
                    elements: tile.col_indices.len(),
                    score,
                });
            }
        }
    }
    row_refs.sort_by(|a, b| a.score.partial_cmp(&b.score).expect("no NaN scores"));

    // Surviving rows per tile, kept in step with each tile's `row_keep`.
    let mut kept_rows: Vec<Vec<usize>> = scores
        .iter()
        .zip(&tiles_per_matrix)
        .map(|(s, tiles)| vec![s.rows(); tiles.len()])
        .collect();
    let mut pruned_row_elements = 0usize;
    for rref in &row_refs {
        if pruned_row_elements >= row_budget {
            break;
        }
        let kept = &mut kept_rows[rref.matrix][rref.tile];
        // Never let row pruning remove the last surviving row of a tile.
        if *kept <= 1 {
            continue;
        }
        tiles_per_matrix[rref.matrix][rref.tile].row_keep[rref.row] = false;
        *kept -= 1;
        pruned_row_elements += rref.elements;
    }

    scores
        .iter()
        .zip(col_keeps)
        .zip(tiles_per_matrix)
        .map(|((s, col_keep), tiles)| TileWiseMask {
            k: s.rows(),
            n: s.cols(),
            granularity: cfg.granularity,
            col_keep,
            tiles,
        })
        .collect()
}

/// Every column's score sum, in one row-major pass.  Each column still
/// adds its rows in ascending order, so the sums are those of a column-wise
/// walk.
fn column_sums(s: &ImportanceScores) -> Vec<f64> {
    let scores = s.as_matrix();
    let mut sums = vec![0.0f64; scores.cols()];
    for r in 0..scores.rows() {
        for (sum, &v) in sums.iter_mut().zip(scores.row(r)) {
            *sum += v as f64;
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_tensor::Matrix;

    fn scores(rows: usize, cols: usize, seed: u64) -> ImportanceScores {
        ImportanceScores::magnitude(&Matrix::random_uniform(rows, cols, 1.0, seed))
    }

    #[test]
    fn achieves_target_sparsity() {
        let s = scores(128, 256, 1);
        for target in [0.25, 0.5, 0.75, 0.9] {
            let mask =
                prune(&s, &TileWiseConfig::with_granularity(64), SparsityTarget::new(target));
            let achieved = mask.sparsity();
            assert!((achieved - target).abs() < 0.02, "target {target} achieved {achieved}");
            // The flat mask agrees with the structured accounting.
            assert!((mask.to_pattern_mask().sparsity() - achieved).abs() < 1e-9);
        }
    }

    #[test]
    fn tiles_cover_surviving_columns_exactly_once() {
        let s = scores(64, 200, 2);
        let mask = prune(&s, &TileWiseConfig::with_granularity(32), SparsityTarget::new(0.6));
        let mut seen = [false; 200];
        for tile in mask.tiles() {
            assert!(tile.col_indices.len() <= 32);
            for &c in &tile.col_indices {
                assert!(!seen[c], "column {c} appears in two tiles");
                seen[c] = true;
                assert!(mask.col_keep()[c], "tile contains a pruned column");
            }
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert_eq!(covered, mask.kept_cols());
    }

    #[test]
    fn rows_are_pruned_per_tile_not_globally() {
        // With two tiles whose importance differs strongly, the weak tile
        // should lose more rows: tiles keep different numbers of rows.
        let m = Matrix::from_fn(64, 128, |_, c| if c < 64 { 10.0 } else { 0.1 });
        let s = ImportanceScores::from_matrix(m);
        let mask = prune(&s, &TileWiseConfig::with_granularity(64), SparsityTarget::new(0.5));
        let kept = mask.tile_kept_rows();
        assert_eq!(kept.len(), 2);
        assert!(
            kept[0] > kept[1],
            "strong tile {} should keep more rows than weak tile {}",
            kept[0],
            kept[1]
        );
    }

    #[test]
    fn granularity_equal_to_n_is_global_structural_pruning() {
        // "At the other extreme where the tile size is the same as the matrix
        // size, TW pruning is equivalent to the global structural pruning
        // that prunes the entire row or column."
        let s = scores(32, 64, 3);
        let mask = prune(&s, &TileWiseConfig::with_granularity(64), SparsityTarget::new(0.5));
        assert!(mask.tiles().len() <= 2); // kept columns may spill into one tile only
        let pm = mask.to_pattern_mask();
        // Every row of the mask is either fully kept (over kept columns) or
        // fully pruned.
        for r in 0..32 {
            let kept_in_row: Vec<usize> = (0..64).filter(|&c| pm.keeps(r, c)).collect();
            assert!(
                kept_in_row.is_empty() || kept_in_row.len() == mask.kept_cols(),
                "row {r} is partially pruned across the single tile"
            );
        }
    }

    #[test]
    fn granularity_one_prunes_individual_columns_rows() {
        // G = 1 makes every surviving column its own tile, so row pruning can
        // remove individual elements: the pattern approaches EW in
        // flexibility.
        let s = scores(16, 16, 4);
        let mask = prune(&s, &TileWiseConfig::with_granularity(1), SparsityTarget::new(0.5));
        assert!(mask.tiles().len() == mask.kept_cols());
        assert!((mask.sparsity() - 0.5).abs() < 0.07);
    }

    #[test]
    fn global_pruning_allocates_unevenly_across_matrices() {
        // A strong and a weak matrix: the weak one must end up sparser
        // (the Fig. 5 phenomenon exploited by global ranking).
        let strong = ImportanceScores::from_matrix(Matrix::from_fn(64, 64, |r, c| {
            1.0 + ((r * 31 + c * 17) % 97) as f32 / 97.0
        }));
        let weak = ImportanceScores::from_matrix(Matrix::from_fn(64, 64, |r, c| {
            0.01 + ((r * 13 + c * 7) % 89) as f32 / 8900.0
        }));
        let masks = prune_global(
            &[strong, weak],
            &TileWiseConfig::with_granularity(32),
            SparsityTarget::new(0.5),
            None,
        );
        assert!(masks[1].sparsity() > masks[0].sparsity() + 0.2);
    }

    #[test]
    fn retained_importance_ordering_ew_tw_bw() {
        // The paper's irregularity relationship: EW > TW > BW at the same
        // sparsity, measured here as retained importance.
        let s = ImportanceScores::magnitude(&Matrix::random_normal(128, 128, 1.0, 5));
        let target = SparsityTarget::new(0.75);
        let ew = crate::ew::prune(&s, target).retained_importance(&s);
        let tw = prune(&s, &TileWiseConfig::with_granularity(32), target)
            .to_pattern_mask()
            .retained_importance(&s);
        let bw = crate::bw::prune(&s, 32, target).retained_importance(&s);
        assert!(ew >= tw, "EW {ew} should retain at least as much as TW {tw}");
        assert!(tw >= bw, "TW {tw} should retain at least as much as BW {bw}");
    }

    #[test]
    fn never_prunes_last_column_or_row() {
        let s = scores(8, 4, 6);
        let mask = prune(&s, &TileWiseConfig::with_granularity(2), SparsityTarget::new(0.95));
        assert!(mask.kept_cols() >= 1);
        for tile in mask.tiles() {
            if !tile.col_indices.is_empty() {
                assert!(tile.kept_rows() >= 1);
            }
        }
    }

    #[test]
    fn column_budget_share_extremes() {
        let s = scores(64, 64, 7);
        let all_cols = TileWiseConfig { granularity: 16, column_budget_share: 1.0 };
        let all_rows = TileWiseConfig { granularity: 16, column_budget_share: 0.0 };
        let m_cols = prune(&s, &all_cols, SparsityTarget::new(0.5));
        let m_rows = prune(&s, &all_rows, SparsityTarget::new(0.5));
        // Column-only pruning removes ~half the columns; row-only keeps all.
        assert!(m_cols.kept_cols() <= 36);
        assert_eq!(m_rows.kept_cols(), 64);
        assert!((m_cols.sparsity() - 0.5).abs() < 0.05);
        assert!((m_rows.sparsity() - 0.5).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "granularity must be positive")]
    fn zero_granularity_panics() {
        let s = scores(4, 4, 8);
        let _ = prune(
            &s,
            &TileWiseConfig { granularity: 0, column_budget_share: 0.5 },
            SparsityTarget::new(0.5),
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tw_tensor::Matrix;

    /// Per matrix: the column keep mask and every tile's `(columns, row keep
    /// mask)`.
    type Decision = (Vec<bool>, Vec<(Vec<usize>, Vec<bool>)>);

    /// Algorithm 1 written the direct way: column sums walked down each
    /// column, and kept columns and rows recounted before every removal.
    fn recounting_reference(
        scores: &[ImportanceScores],
        cfg: &TileWiseConfig,
        target: SparsityTarget,
        hints: Option<&[AprioriHints]>,
    ) -> Vec<Decision> {
        let total: usize = scores.iter().map(|s| s.rows() * s.cols()).sum();
        let target_pruned = target.count_of(total);
        let col_budget = (cfg.column_budget_share * target_pruned as f64).round() as usize;
        let mut cols = Vec::new();
        for (mi, s) in scores.iter().enumerate() {
            for c in 0..s.cols() {
                let sum: f64 = (0..s.rows()).map(|r| s.get(r, c) as f64).sum();
                let mut score = sum / s.rows().max(1) as f64;
                if let Some(h) = hints {
                    if h[mi].force_prune.contains(&c) {
                        score = 0.0;
                    } else if h[mi].protect.contains(&c) {
                        score = f64::INFINITY;
                    }
                }
                cols.push((score, mi, c));
            }
        }
        cols.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut col_keeps: Vec<Vec<bool>> = scores.iter().map(|s| vec![true; s.cols()]).collect();
        let mut pruned = 0;
        for &(_, mi, c) in &cols {
            if pruned >= col_budget {
                break;
            }
            if col_keeps[mi].iter().filter(|&&k| k).count() <= 1 {
                continue;
            }
            col_keeps[mi][c] = false;
            pruned += scores[mi].rows();
        }
        let mut tiles: Vec<Vec<(Vec<usize>, Vec<bool>)>> = scores
            .iter()
            .zip(&col_keeps)
            .map(|(s, keep)| {
                let kept: Vec<usize> = (0..s.cols()).filter(|&c| keep[c]).collect();
                let mut tiles: Vec<_> = kept
                    .chunks(cfg.granularity)
                    .map(|chunk| (chunk.to_vec(), vec![true; s.rows()]))
                    .collect();
                if tiles.is_empty() {
                    tiles.push((Vec::new(), vec![true; s.rows()]));
                }
                tiles
            })
            .collect();
        let row_budget = target_pruned.saturating_sub(pruned);
        let mut rows = Vec::new();
        for (mi, s) in scores.iter().enumerate() {
            for (ti, (cols, _)) in tiles[mi].iter().enumerate() {
                if cols.is_empty() {
                    continue;
                }
                for r in 0..s.rows() {
                    let sum: f64 = cols.iter().map(|&c| s.get(r, c) as f64).sum();
                    rows.push((sum / cols.len() as f64, mi, ti, r, cols.len()));
                }
            }
        }
        rows.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut pruned_rows = 0;
        for &(_, mi, ti, r, elements) in &rows {
            if pruned_rows >= row_budget {
                break;
            }
            let keep = &mut tiles[mi][ti].1;
            if keep.iter().filter(|&&k| k).count() <= 1 {
                continue;
            }
            keep[r] = false;
            pruned_rows += elements;
        }
        col_keeps.into_iter().zip(tiles).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Running counts and row-major sums change no decision: global
        /// pruning of up to three matrices, with and without apriori hints,
        /// equals the recounting reference exactly.
        #[test]
        fn prune_global_equals_the_recounting_reference(
            shapes in prop::collection::vec((1usize..20, 1usize..20), 1..4),
            g in 1usize..12, target in 0.0f64..0.97, share in 0.0f64..1.0,
            with_hints in any::<bool>(), seed in any::<u64>(),
        ) {
            let scores: Vec<ImportanceScores> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(k, n))| {
                    let w = Matrix::random_uniform(k, n, 1.0, seed.wrapping_add(i as u64));
                    ImportanceScores::magnitude(&w)
                })
                .collect();
            let cfg = TileWiseConfig { granularity: g, column_budget_share: share };
            let target = SparsityTarget::new(target);
            let hints = with_hints.then(|| {
                crate::apriori::derive_hints(&scores, target, &crate::AprioriConfig::default())
            });
            let masks = prune_global(&scores, &cfg, target, hints.as_deref());
            let decisions: Vec<Decision> = masks
                .iter()
                .map(|m| {
                    let tiles =
                        m.tiles().iter().map(|t| (t.col_indices.clone(), t.row_keep.clone()));
                    (m.col_keep().to_vec(), tiles.collect())
                })
                .collect();
            prop_assert_eq!(decisions, recounting_reference(&scores, &cfg, target, hints.as_deref()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The structured mask and its flattened PatternMask always agree on
        /// sparsity, and the achieved sparsity tracks the target.
        #[test]
        fn mask_consistency(rows in 8usize..48, cols in 8usize..48, g in 1usize..24,
                            target in 0.05f64..0.9, seed in any::<u64>()) {
            let s = ImportanceScores::magnitude(&Matrix::random_uniform(rows, cols, 1.0, seed));
            let mask = prune(&s, &TileWiseConfig::with_granularity(g), SparsityTarget::new(target));
            let flat = mask.to_pattern_mask();
            prop_assert!((mask.sparsity() - flat.sparsity()).abs() < 1e-9);
            // Within a coarse tolerance (small matrices quantise heavily).
            let unit = 1.0 / (rows.min(cols) as f64);
            prop_assert!((mask.sparsity() - target).abs() < 0.1 + unit,
                "target {} achieved {}", target, mask.sparsity());
        }

        /// EW always retains at least as much importance as TW at the same
        /// achieved sparsity.
        #[test]
        fn ew_upper_bounds_tw(rows in 16usize..48, cols in 16usize..48, g in 4usize..24,
                              target in 0.2f64..0.8, seed in any::<u64>()) {
            let s = ImportanceScores::magnitude(&Matrix::random_uniform(rows, cols, 1.0, seed));
            let tw_mask = prune(&s, &TileWiseConfig::with_granularity(g), SparsityTarget::new(target));
            let achieved = tw_mask.sparsity().clamp(0.0, 0.999);
            let ew_mask = crate::ew::prune(&s, SparsityTarget::new(achieved));
            prop_assert!(
                ew_mask.retained_importance(&s) + 1e-9
                    >= tw_mask.to_pattern_mask().retained_importance(&s)
            );
        }
    }
}
