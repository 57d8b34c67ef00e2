//! Packing a batch of sequences into one tall activation matrix.
//!
//! Tensor-level batching stacks `B` sequences (padded to the longest
//! length `S`) into a single `(B·S) × hidden` matrix so every projection
//! and FFN GEMM in an encoder layer runs **once per batch** instead of
//! once per sequence. Every transformer pass is a pack: a solo request is
//! a pack of one, and a decode step is a pack of one query row whose
//! attention reaches back over the cached key history
//! ([`PackedBatch::after_history`]). Three facts make the packed forward
//! pass bit-identical to running each request alone:
//!
//! 1. every GEMM kernel computes output row `i` from input row `i` alone
//!    (`mokey_tensor` pins this), and every non-GEMM operator
//!    (layer norm, GELU, softmax, bias) is row-wise;
//! 2. attention is isolated per sequence: scores are computed on each
//!    sequence's row block, padded **key** positions are driven to `−∞`
//!    before `softmax_rows` (masked probabilities come out exactly
//!    `0.0`, and the GEMM kernels skip zero coefficients, so padded
//!    value rows contribute nothing);
//! 3. executor hooks receive a [`PackedLayout`] mapping each matrix
//!    region to its request, so quantized activation encoding touches
//!    exactly the elements a solo run would touch — padded rows are
//!    passed through raw and per-request counters stay exact.
//!
//! Padded *query* rows do flow through the arithmetic (they attend over
//! real keys and produce well-defined garbage), but nothing reads them:
//! they are skipped at unpack, never encoded, and never feed a real row.

use mokey_tensor::{dot_wide, Matrix};

/// Shape bookkeeping for one packed batch: per-request true lengths plus
/// the common padded length, and the key positions each request's
/// queries attend over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBatch {
    lens: Vec<usize>,
    seq: usize,
    /// Key positions per request: cached history followed by the
    /// request's own rows (equal to `lens` unless built by
    /// [`PackedBatch::after_history`]).
    keys: Vec<usize>,
    key_seq: usize,
}

impl PackedBatch {
    /// Plans the packing of `batch` (padded to the longest sequence).
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or contains an empty sequence.
    pub fn new<T: AsRef<[usize]>>(batch: &[T]) -> Self {
        Self::from_lens(batch.iter().map(|t| t.as_ref().len()).collect())
    }

    /// [`PackedBatch::new`] from the request lengths alone.
    pub(crate) fn from_lens(lens: Vec<usize>) -> Self {
        assert!(!lens.is_empty(), "cannot pack an empty batch");
        assert!(lens.iter().all(|&l| l > 0), "cannot pack an empty sequence");
        let seq = lens.iter().copied().max().unwrap_or(0);
        Self { keys: lens.clone(), key_seq: seq, lens, seq }
    }

    /// A pack of one sequence whose `len` rows sit at positions
    /// `history..history + len`, behind `history` cached positions: its
    /// queries attend over the cached keys plus its own. A prefill is
    /// `after_history(0, prompt_len)`; a decode step is
    /// `after_history(cached, 1)`, one query row against the whole key
    /// history. Key and value matrices for such a pack hold
    /// `history + len` rows.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn after_history(history: usize, len: usize) -> Self {
        let mut pack = Self::from_lens(vec![len]);
        pack.keys = vec![history + len];
        pack.key_seq = history + len;
        pack
    }

    /// Number of requests in the pack.
    pub fn requests(&self) -> usize {
        self.lens.len()
    }

    /// The padded per-sequence length (longest request).
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// True token length of request `i`.
    pub fn len_of(&self, i: usize) -> usize {
        self.lens[i]
    }

    /// Row offset of request `i` inside a packed `(B·S) × _` matrix.
    pub fn row_of(&self, i: usize) -> usize {
        i * self.seq
    }

    /// Sequence position of request `i`'s first row (its cached history
    /// length; zero for an ordinary pack).
    pub fn first_position(&self, i: usize) -> usize {
        self.keys[i] - self.lens[i]
    }

    /// Key positions request `i` attends over (cached history plus its
    /// own rows).
    pub fn keys_of(&self, i: usize) -> usize {
        self.keys[i]
    }

    /// The padded per-request key length: the row stride of a packed
    /// key or value matrix.
    pub fn key_seq(&self) -> usize {
        self.key_seq
    }

    /// Total rows of a packed activation matrix (`B · S`).
    pub fn total_rows(&self) -> usize {
        self.lens.len() * self.seq
    }

    /// Rows carrying real tokens (`Σ lens`).
    pub fn valid_rows(&self) -> usize {
        self.lens.iter().sum()
    }

    /// Padding rows (`total − valid`) — the waste the serving metrics
    /// report.
    pub fn pad_rows(&self) -> usize {
        self.total_rows() - self.valid_rows()
    }

    /// `true` when every request has the padded length (no waste).
    pub fn is_uniform(&self) -> bool {
        self.lens.iter().all(|&l| l == self.seq)
    }

    /// Layout of a standard packed activation matrix (`(B·S) × width`):
    /// request `i` owns the valid prefix of its row block, full width.
    pub fn rows_layout(&self) -> PackedLayout {
        PackedLayout {
            regions: self
                .lens
                .iter()
                .enumerate()
                .map(|(i, &len)| Region { row_blocks: vec![(i * self.seq, len)], cols: None })
                .collect(),
        }
    }

    /// Layout of the packed attention-probability matrix
    /// (`(B·heads·S) × key_seq`, request-major then head-major): request
    /// `i` owns `heads` blocks of its true length, and only its first
    /// [`keys_of`](Self::keys_of) columns are real probabilities (the
    /// rest are masked zeros, which must stay exactly `0.0`).
    pub fn probs_layout(&self, heads: usize) -> PackedLayout {
        PackedLayout {
            regions: (0..self.lens.len())
                .map(|i| Region {
                    row_blocks: (0..heads)
                        .map(|hd| ((i * heads + hd) * self.seq, self.lens[i]))
                        .collect(),
                    cols: Some(self.keys[i]),
                })
                .collect(),
        }
    }

    /// Layout of a per-request-row matrix (`B × width`), e.g. the gathered
    /// CLS rows feeding the classification head.
    pub fn cls_layout(&self) -> PackedLayout {
        PackedLayout {
            regions: (0..self.lens.len())
                .map(|i| Region { row_blocks: vec![(i, 1)], cols: None })
                .collect(),
        }
    }
}

/// Maps the regions of one packed matrix to the requests that own them,
/// so executor hooks can attribute work per request and skip padding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLayout {
    /// One region per request, in batch order.
    pub regions: Vec<Region>,
}

impl PackedLayout {
    /// A `rows`-row matrix owned whole by one request — how an un-packed
    /// hook call maps onto the layout-aware hooks.
    pub(crate) fn whole(rows: usize) -> Self {
        Self { regions: vec![Region { row_blocks: vec![(0, rows)], cols: None }] }
    }
}

/// The part of a packed matrix owned by one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// `(start_row, row_count)` blocks — already trimmed to valid rows.
    pub row_blocks: Vec<(usize, usize)>,
    /// Valid column prefix, or `None` for the full width.
    pub cols: Option<usize>,
}

/// Fused block-diagonal `Q·K^T` over a packed batch: one region-strided
/// pass producing the scaled, padding-masked score matrix
/// (`(B·heads·S) × key_seq`, request-major then head-major) directly from
/// the packed `(B·S) × hidden` queries and the `(B·key_seq) × hidden`
/// keys (the same matrix as the queries' unless the pack was built by
/// [`PackedBatch::after_history`]).
///
/// Each element is `dot_wide(q_slice, k_slice) * scale` on the exact head
/// slices a per-sequence `slice_block` + `matmul_transposed` + `scale`
/// would feed it — [`dot_wide`] is a pure function of its operand slices,
/// so the fused pass is bit-identical to the per-sequence path while
/// skipping every intermediate copy. Padded key columns
/// (`c ≥ keys_of(i)`) are written as `−∞` so the caller's softmax turns
/// them into exact `0.0`; padded *query* rows are still computed
/// (deterministic garbage nothing reads back), matching the per-sequence
/// path.
pub fn fused_attention_scores(
    q: &Matrix,
    k: &Matrix,
    pack: &PackedBatch,
    heads: usize,
    dh: usize,
    scale: f32,
) -> Matrix {
    let (s, ks) = (pack.seq(), pack.key_seq());
    let nb = pack.requests();
    let mut scores = Matrix::zeros(nb * heads * s, ks);
    for bi in 0..nb {
        let keys = pack.keys_of(bi);
        let (q_base, k_base) = (pack.row_of(bi), bi * ks);
        for hd in 0..heads {
            let c0 = hd * dh;
            let probs_base = (bi * heads + hd) * s;
            for r in 0..s {
                let q_slice = &q.row(q_base + r)[c0..c0 + dh];
                let out_row = scores.row_mut(probs_base + r);
                for (c, o) in out_row[..keys].iter_mut().enumerate() {
                    *o = dot_wide(q_slice, &k.row(k_base + c)[c0..c0 + dh]) * scale;
                }
                for o in &mut out_row[keys..] {
                    *o = f32::NEG_INFINITY;
                }
            }
        }
    }
    scores
}

/// Fused block-diagonal `P·V` over a packed batch: one region-strided
/// pass accumulating every head's context slice straight into the packed
/// `(B·S) × hidden` output, from the post-softmax probability matrix laid
/// out by [`PackedBatch::probs_layout`] and the `(B·key_seq) × hidden`
/// values.
///
/// Per output element the accumulation is ascending over the key
/// positions with exactly one addition per non-zero probability — the
/// same per-element reduction as the per-sequence `matmul` against a
/// `slice_block` copy of `V`, so outputs are bit-identical. Masked
/// probabilities are exactly `0.0` and are skipped, so padded value rows
/// contribute nothing, exactly as the zero-skipping GEMM kernels behave.
pub fn fused_attention_context(
    probs: &Matrix,
    v: &Matrix,
    pack: &PackedBatch,
    heads: usize,
    dh: usize,
    hidden: usize,
) -> Matrix {
    let (s, ks) = (pack.seq(), pack.key_seq());
    let nb = pack.requests();
    let mut context = Matrix::zeros(nb * s, hidden);
    for bi in 0..nb {
        let (q_base, v_base) = (pack.row_of(bi), bi * ks);
        for hd in 0..heads {
            let c0 = hd * dh;
            let probs_base = (bi * heads + hd) * s;
            for r in 0..s {
                let out = &mut context.row_mut(q_base + r)[c0..c0 + dh];
                for (kk, &pv) in probs.row(probs_base + r).iter().enumerate() {
                    if pv == 0.0 {
                        continue;
                    }
                    let v_slice = &v.row(v_base + kk)[c0..c0 + dh];
                    for (o, &vv) in out.iter_mut().zip(v_slice) {
                        *o += pv * vv;
                    }
                }
            }
        }
    }
    context
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_shape_accounting() {
        let pack = PackedBatch::new(&[vec![0usize; 5], vec![0; 3], vec![0; 5]]);
        assert_eq!(pack.requests(), 3);
        assert_eq!(pack.seq(), 5);
        assert_eq!(pack.total_rows(), 15);
        assert_eq!(pack.valid_rows(), 13);
        assert_eq!(pack.pad_rows(), 2);
        assert!(!pack.is_uniform());
        assert_eq!(pack.row_of(2), 10);
        assert!(PackedBatch::new(&[vec![0usize; 4], vec![0; 4]]).is_uniform());
    }

    #[test]
    fn rows_layout_covers_valid_prefixes() {
        let pack = PackedBatch::new(&[vec![0usize; 4], vec![0; 2]]);
        let layout = pack.rows_layout();
        assert_eq!(layout.regions.len(), 2);
        assert_eq!(layout.regions[0].row_blocks, vec![(0, 4)]);
        assert_eq!(layout.regions[1].row_blocks, vec![(4, 2)]);
        assert_eq!(layout.regions[1].cols, None);
    }

    #[test]
    fn probs_layout_is_per_head_and_column_trimmed() {
        let pack = PackedBatch::new(&[vec![0usize; 4], vec![0; 2]]);
        let layout = pack.probs_layout(2);
        // Request 1 (len 2): head blocks start after request 0's 2 heads
        // of 4 padded rows each.
        assert_eq!(layout.regions[1].row_blocks, vec![(8, 2), (12, 2)]);
        assert_eq!(layout.regions[1].cols, Some(2));
        assert_eq!(layout.regions[0].cols, Some(4));
    }

    #[test]
    fn history_pack_attends_past_its_own_rows() {
        // A decode step at position 6: one query row, seven keys.
        let pack = PackedBatch::after_history(6, 1);
        assert_eq!((pack.requests(), pack.seq(), pack.total_rows()), (1, 1, 1));
        assert_eq!((pack.first_position(0), pack.keys_of(0), pack.key_seq()), (6, 7, 7));
        let layout = pack.probs_layout(2);
        assert_eq!(layout.regions[0].row_blocks, vec![(0, 1), (1, 1)]);
        assert_eq!(layout.regions[0].cols, Some(7));
        // An ordinary pack attends over exactly its own rows.
        let pack = PackedBatch::new(&[vec![0usize; 3], vec![0; 2]]);
        assert_eq!((pack.first_position(1), pack.keys_of(1), pack.key_seq()), (0, 2, 3));
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        let _ = PackedBatch::new(&[vec![0usize; 3], vec![]]);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let _ = PackedBatch::new(&Vec::<Vec<usize>>::new());
    }
}
