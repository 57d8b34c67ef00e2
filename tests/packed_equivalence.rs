//! Packed tensor-level batching must be a pure throughput decision:
//! for any batch size, any mix of sequence lengths (and therefore any
//! padding/mask pattern), every output **and every per-request counter**
//! of the packed forward pass must be bit-identical to running the
//! request alone.

use mokey_serve::PreparedModel;
use mokey_tensor::{nn, Matrix};
use mokey_transformer::exec::{ExecMode, FpExecutor, QuantizedExecutor, QuantizedStats};
use mokey_transformer::model::{Head, Model};
use mokey_transformer::packed::{fused_attention_context, fused_attention_scores, PackedBatch};
use mokey_transformer::{ModelConfig, QuantizeSpec};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One shared quantized model — preparation is far more expensive than a
/// tiny-forward case, and the properties only need a fixed context.
fn prepared() -> &'static PreparedModel {
    static MODEL: OnceLock<PreparedModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let config = ModelConfig {
            name: "packed-proptest".into(),
            layers: 2,
            hidden: 32,
            heads: 2,
            ff: 64,
            vocab: 200,
            max_seq: 16,
        };
        let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 41);
        let profile: Vec<Vec<usize>> = (0..3).map(|s| model.random_tokens(12, 900 + s)).collect();
        PreparedModel::prepare(model, QuantizeSpec::weights_and_activations(), &profile)
            .expect("non-degenerate model")
    })
}

/// A span-head FP model for head-shape coverage (no quantization).
fn span_model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| {
        let config = ModelConfig {
            name: "packed-span".into(),
            layers: 1,
            hidden: 32,
            heads: 2,
            ff: 64,
            vocab: 200,
            max_seq: 16,
        };
        Model::synthesize(&config, Head::Span, 43)
    })
}

/// Random batches: 1–6 requests, each 1–16 tokens from the shared
/// vocabulary. Length mixes are unconstrained, so most sampled batches
/// are ragged and exercise the padding + key-mask path.
fn batch_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(
        (1usize..=16).prop_flat_map(|len| prop::collection::vec(0usize..200, len)),
        1..=6,
    )
}

proptest! {
    #[test]
    fn forced_packing_is_bit_identical_for_any_mask_pattern(batch in batch_strategy()) {
        // Pack the *whole* batch regardless of length spread — maximum
        // padding, every mask pattern the layout can produce.
        let p = prepared();
        let refs: Vec<&[usize]> = batch.iter().map(Vec::as_slice).collect();
        let packed = p.context().infer_packed(p.model(), &refs);
        prop_assert_eq!(packed.len(), batch.len());
        for (tokens, (out, stats)) in batch.iter().zip(&packed) {
            let (solo_out, solo_stats) = p.infer(tokens);
            prop_assert_eq!(out, &solo_out, "packed output diverged for {:?}", tokens);
            prop_assert_eq!(stats, &solo_stats, "packed counters diverged for {:?}", tokens);
        }
    }

    #[test]
    fn infer_batch_policy_is_bit_identical_and_accounts_every_request(
        batch in batch_strategy()
    ) {
        let p = prepared();
        let run = p.infer_batch(&batch);
        prop_assert_eq!(run.results.len(), batch.len());
        prop_assert_eq!(
            run.packing.packed_requests + run.packing.solo_requests,
            batch.len()
        );
        let mut merged = QuantizedStats::default();
        for (tokens, (out, stats)) in batch.iter().zip(&run.results) {
            let (solo_out, solo_stats) = p.infer(tokens);
            prop_assert_eq!(out, &solo_out);
            prop_assert_eq!(stats, &solo_stats);
            merged.merge(stats);
        }
        prop_assert_eq!(run.total, merged);
    }

    #[test]
    fn fp_packed_forward_matches_solo_forward(batch in batch_strategy()) {
        // The packed pass is exact in plain FP32 too — masking and row
        // independence, not quantization, carry the equivalence.
        let p = prepared();
        let refs: Vec<&[usize]> = batch.iter().map(Vec::as_slice).collect();
        let packed = p.model().infer_packed(&mut FpExecutor, &refs);
        for (tokens, out) in batch.iter().zip(&packed) {
            prop_assert_eq!(out, &p.model().infer(&mut FpExecutor, tokens));
        }
    }

    #[test]
    fn span_head_packs_per_position_outputs(batch in batch_strategy()) {
        let model = span_model();
        let refs: Vec<&[usize]> = batch.iter().map(Vec::as_slice).collect();
        let packed = model.infer_packed(&mut FpExecutor, &refs);
        for (tokens, out) in batch.iter().zip(&packed) {
            prop_assert_eq!(out, &model.infer(&mut FpExecutor, tokens));
        }
    }

    /// The fused block-diagonal attention kernels are bit-identical to
    /// the per-sequence formulation they replaced — `slice_block` copies,
    /// `matmul_transposed` + scale + mask + softmax, then `matmul`
    /// against the value slice — for arbitrary ragged packs and head
    /// geometry, and for a decode step's shape (one query row against a
    /// longer key history), directly at the kernel level.
    #[test]
    fn fused_attention_kernels_match_per_sequence_reference(
        lens in prop::collection::vec(1usize..=8, 1..=4),
        history in 0usize..=8,
        heads in 1usize..=2,
        dh in 1usize..=6,
        seed in 0u64..1000,
    ) {
        let batch: Vec<Vec<usize>> = lens.iter().map(|&l| vec![0; l]).collect();
        for pack in [PackedBatch::new(&batch), PackedBatch::after_history(history, 1)] {
            let (s, ks) = (pack.seq(), pack.key_seq());
            let nb = pack.requests();
            let hidden = heads * dh;
            let mk = |rows: usize, salt: u64| {
                mokey_tensor::init::GaussianMixture::pure(0.0, 1.0)
                    .sample_matrix(rows, hidden, seed.wrapping_mul(3) + salt)
            };
            let (q, k, v) = (mk(nb * s, 1), mk(nb * ks, 2), mk(nb * ks, 3));
            let scale = 1.0 / (dh as f32).sqrt();

            let mut fused_probs = fused_attention_scores(&q, &k, &pack, heads, dh, scale);
            nn::softmax_rows(&mut fused_probs);
            let fused_ctx = fused_attention_context(&fused_probs, &v, &pack, heads, dh, hidden);

            let mut ref_probs = Matrix::zeros(nb * heads * s, ks);
            let mut ref_ctx = Matrix::zeros(nb * s, hidden);
            for bi in 0..nb {
                let keys = pack.keys_of(bi);
                let base = pack.row_of(bi);
                for hd in 0..heads {
                    let qh = q.slice_block(base, s, hd * dh, dh);
                    let kh = k.slice_block(bi * ks, ks, hd * dh, dh);
                    let mut scores = qh.matmul_transposed(&kh).scale(scale);
                    for r in 0..s {
                        for sc in &mut scores.row_mut(r)[keys..] {
                            *sc = f32::NEG_INFINITY;
                        }
                    }
                    nn::softmax_rows(&mut scores);
                    let probs_base = (bi * heads + hd) * s;
                    for r in 0..s {
                        ref_probs.row_mut(probs_base + r).copy_from_slice(scores.row(r));
                    }
                    let vh = v.slice_block(bi * ks, ks, hd * dh, dh);
                    let ctx_h = scores.matmul(&vh);
                    for r in 0..s {
                        ref_ctx.row_mut(base + r)[hd * dh..(hd + 1) * dh]
                            .copy_from_slice(ctx_h.row(r));
                    }
                }
            }
            for r in 0..nb * heads * s {
                for (x, y) in fused_probs.row(r).iter().zip(ref_probs.row(r)) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "probs row {} diverged", r);
                }
            }
            for r in 0..nb * s {
                for (x, y) in fused_ctx.row(r).iter().zip(ref_ctx.row(r)) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "context row {} diverged", r);
                }
            }
        }
    }
}

/// The decode path prefills its prompt as a pack of one through the same
/// layer step as every forward pass, with K/V-code capture active; the
/// same prompt served inside a ragged packed batch shares its pack with
/// other requests and carries padding. The two must produce bit-identical
/// hidden rows — in index-domain mode, with capture active, as
/// `DecodeSession::prefill` runs it.
#[test]
fn decode_prefill_rows_match_fused_packed_forward() {
    let p = prepared();
    let layers = p.model().config().layers;
    let batch: Vec<Vec<usize>> = [12usize, 10, 11]
        .iter()
        .enumerate()
        .map(|(i, &len)| p.model().random_tokens(len, 3100 + i as u64))
        .collect();
    let refs: Vec<&[usize]> = batch.iter().map(Vec::as_slice).collect();
    let pack = PackedBatch::new(&refs);

    let mut packed_exec = QuantizedExecutor::with_mode(p.context(), ExecMode::IndexDomain);
    let packed_hidden = p.model().forward_packed(&mut packed_exec, &pack, &refs);

    for (bi, tokens) in batch.iter().enumerate() {
        // Mirror DecodeSession::prefill: a pack of one, index mode, K/V
        // codes captured (capture must not perturb the arithmetic).
        let mut solo = QuantizedExecutor::with_mode(p.context(), ExecMode::IndexDomain);
        solo.capture((0..layers).flat_map(|li| [format!("L{li}.attn.k"), format!("L{li}.attn.v")]));
        let solo_hidden = p.model().forward(&mut solo, tokens);
        let base = pack.row_of(bi);
        for r in 0..tokens.len() {
            assert_eq!(
                packed_hidden.row(base + r),
                solo_hidden.row(r),
                "prefill row {r} of request {bi} diverged from the fused packed pass"
            );
        }
    }
}

/// The pre-packing batched path derived per-request counters by
/// snapshot-diffing one shared executor ([`QuantizedStats::diff`]); the
/// packed path attributes them through the layout instead. Both
/// mechanisms must agree exactly.
#[test]
fn per_request_counters_survive_packing() {
    let p = prepared();
    let batch: Vec<Vec<usize>> =
        (0..5).map(|s| p.model().random_tokens(10 + (s as usize % 3), 70 + s)).collect();

    // The legacy accounting: one executor, cumulative snapshots, diff.
    let mut exec = QuantizedExecutor::new(p.context());
    let mut via_diff = Vec::new();
    let mut prev = QuantizedStats::default();
    for tokens in &batch {
        let _ = p.model().infer(&mut exec, tokens);
        let now = exec.stats();
        via_diff.push(now.diff(&prev));
        prev = now;
    }

    let run = p.infer_batch(&batch);
    assert!(run.packing.packed_requests > 0, "batch should have packed");
    for ((_, packed_stats), diff_stats) in run.results.iter().zip(&via_diff) {
        assert_eq!(packed_stats, diff_stats, "packed counters diverged from diff accounting");
    }
    assert_eq!(run.total, prev);
}
