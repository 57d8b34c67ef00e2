//! Autoregressive greedy decode over a quantized KV-cache.
//!
//! The serving engine's one-shot requests run a single encoder pass;
//! this module adds the other dominant traffic shape: **generation**.
//! Prefill and every decode step run the model's one layer step — the
//! same hooks (`dictionary encode → decode`, weight substitution, Eq. 7/8
//! output snapping, and the pair-LUT GEMM path under
//! [`ExecMode::IndexDomain`]) and the same fused attention kernels as a
//! packed forward pass. Only where attention reads its keys and values
//! differs: a [`DecodeSession`] harvests each layer's K/V activation codes
//! into a [`KvCache`] and attends over the cache. The prefill is a pack
//! of the whole prompt (bidirectional over the prompt, exactly the
//! encoder semantics every other path uses); each later token is a pack
//! of one query row at the next position
//! ([`PackedBatch::after_history`]), attending over the cached K/V rows
//! plus itself.
//!
//! Attention semantics are prefix-LM style and self-consistent with the
//! cache: prompt positions attend only to the prompt (their K/V are
//! frozen at prefill), and each generated position attends to the
//! prompt plus every earlier generated position plus itself. Because
//! the cache stores *codes* and rematerializes floats through the same
//! [`DecodeLut`](mokey_core::lut::DecodeLut) the encoding hook used, the
//! incremental step is bit-identical to a from-scratch recompute of the
//! entire prefix — pinned by [`generate_reference`], which re-runs
//! prefill plus every earlier step from scratch each token, carrying
//! K/V as plain floats instead of cached codes.

use crate::exec::{ExecMode, Executor, QuantizedContext, QuantizedExecutor, QuantizedStats};
use crate::kv::KvCache;
use crate::model::{KvSource, LayerNames, Model};
use crate::packed::PackedBatch;
use mokey_tensor::{dot, Matrix};

/// A finished generation: the sampled tokens, the final hidden row the
/// last token was sampled from, and the activation-encoding counters
/// (prefill plus every incremental step).
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateResult {
    /// Greedily sampled tokens, in order (includes the EOS token when
    /// generation stopped on it).
    pub tokens: Vec<usize>,
    /// The `1 × hidden` state the final token was sampled from.
    pub hidden: Matrix,
    /// Merged activation-encoding counters.
    pub stats: QuantizedStats,
}

/// One in-flight generation: prompt prefilled, K/V codes cached,
/// advancing one greedy token per [`DecodeSession::step`].
///
/// The session owns no borrows — model and context are passed to each
/// call — so it can ride through a serving queue between steps.
#[derive(Debug, Clone)]
pub struct DecodeSession {
    mode: ExecMode,
    prompt_len: usize,
    /// Prompt plus every *advanced* generated token (= cached positions).
    tokens: Vec<usize>,
    generated: Vec<usize>,
    max_tokens: usize,
    eos: Option<usize>,
    cache: KvCache,
    last_hidden: Matrix,
    stats: QuantizedStats,
    done: bool,
}

impl DecodeSession {
    /// Prefills the prompt (one pass of the whole prompt) and caches
    /// every layer's K/V codes. `max_tokens` bounds the generation;
    /// `eos` optionally stops it early. Generation also stops when the
    /// cache reaches the model's `max_seq`.
    ///
    /// # Panics
    ///
    /// Panics on an empty prompt, a prompt longer than `max_seq`, or a
    /// context without K/V activation dictionaries (decode stores codes,
    /// so it requires activation quantization).
    pub fn prefill(
        model: &Model,
        ctx: &QuantizedContext,
        prompt: &[usize],
        max_tokens: usize,
        eos: Option<usize>,
        mode: ExecMode,
    ) -> Self {
        assert!(!prompt.is_empty(), "decode needs a non-empty prompt");
        assert!(
            ctx.act_dicts.contains_key("L0.attn.k"),
            "decode requires activation quantization (K/V dictionaries)"
        );
        let mut session = Self {
            mode,
            prompt_len: prompt.len(),
            tokens: Vec::new(),
            generated: Vec::new(),
            max_tokens,
            eos,
            cache: KvCache::new(model.config().layers, model.config().hidden),
            last_hidden: Matrix::zeros(0, 0),
            stats: QuantizedStats::default(),
            done: max_tokens == 0,
        };
        session.advance(model, ctx, prompt);
        session
    }

    /// Samples the next greedy token and, unless that finishes the
    /// generation, advances the cache one position with it. Returns the
    /// sampled token.
    ///
    /// # Panics
    ///
    /// Panics if the session is already [`DecodeSession::is_done`].
    pub fn step(&mut self, model: &Model, ctx: &QuantizedContext) -> usize {
        assert!(!self.done, "decode session already finished");
        let t = greedy_token(model, self.last_hidden.row(0));
        self.generated.push(t);
        self.done = self.generated.len() >= self.max_tokens
            || Some(t) == self.eos
            || self.tokens.len() >= model.config().max_seq;
        if !self.done {
            self.advance(model, ctx, &[t]);
        }
        t
    }

    /// Runs `tokens` at the next cache positions through the layer
    /// stack, appending their K/V codes to the cache.
    fn advance(&mut self, model: &Model, ctx: &QuantizedContext, tokens: &[usize]) {
        let mut exec = QuantizedExecutor::with_mode(ctx, self.mode);
        let names = model.layer_names();
        exec.capture(names.iter().flat_map(|n| [n.k.clone(), n.v.clone()]));
        let mut kv = CodeBacked { ctx, names, cache: &mut self.cache };
        self.last_hidden = pass(model, &mut exec, &mut kv, self.tokens.len(), tokens);
        self.tokens.extend_from_slice(tokens);
        self.stats.merge(&exec.stats());
    }

    /// Whether generation has stopped (max tokens, EOS, or a full
    /// cache).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The prompt length this session was prefilled with.
    pub fn prompt_len(&self) -> usize {
        self.prompt_len
    }

    /// Tokens generated so far.
    pub fn generated(&self) -> &[usize] {
        &self.generated
    }

    /// Merged activation-encoding counters (prefill + steps so far).
    pub fn stats(&self) -> QuantizedStats {
        self.stats
    }

    /// Current KV-cache size in bytes (one byte per stored 5-bit code).
    pub fn cache_bytes(&self) -> usize {
        self.cache.bytes()
    }

    /// Consumes the session into its result.
    pub fn into_result(self) -> GenerateResult {
        GenerateResult { tokens: self.generated, hidden: self.last_hidden, stats: self.stats }
    }
}

/// Greedy generation end-to-end: prefill, then step until done.
pub fn generate(
    model: &Model,
    ctx: &QuantizedContext,
    prompt: &[usize],
    max_tokens: usize,
    eos: Option<usize>,
    mode: ExecMode,
) -> GenerateResult {
    let mut session = DecodeSession::prefill(model, ctx, prompt, max_tokens, eos, mode);
    while !session.is_done() {
        session.step(model, ctx);
    }
    session.into_result()
}

/// The no-cache reference oracle: every token re-runs the **entire
/// prefix from scratch** — a fresh prefill plus a fresh incremental pass
/// per earlier token — carrying K/V as plain float matrices taken
/// straight from the encoding hooks instead of cached codes. [`generate`]
/// must match it bit-for-bit (tokens, final hidden row, and counters);
/// the decode proptest pins exactly that.
pub fn generate_reference(
    model: &Model,
    ctx: &QuantizedContext,
    prompt: &[usize],
    max_tokens: usize,
    eos: Option<usize>,
    mode: ExecMode,
) -> GenerateResult {
    assert!(!prompt.is_empty(), "decode needs a non-empty prompt");
    let layers = model.config().layers;
    let mut generated: Vec<usize> = Vec::new();
    loop {
        // Re-run the full prefix: prefill, then replay every generated
        // token at its position with float-carried K/V.
        let mut exec = QuantizedExecutor::with_mode(ctx, mode);
        let mut kv = FloatBacked {
            k: vec![Matrix::zeros(0, 0); layers],
            v: vec![Matrix::zeros(0, 0); layers],
        };
        let mut last = pass(model, &mut exec, &mut kv, 0, prompt);
        for (i, &t) in generated.iter().enumerate() {
            last = pass(model, &mut exec, &mut kv, prompt.len() + i, &[t]);
        }
        let stats = exec.stats();
        if generated.len() >= max_tokens {
            // Only reachable with max_tokens == 0 (otherwise the break
            // below fires first).
            return GenerateResult { tokens: generated, hidden: last, stats };
        }
        let t = greedy_token(model, last.row(0));
        generated.push(t);
        let done = generated.len() >= max_tokens
            || Some(t) == eos
            || prompt.len() + generated.len() > model.config().max_seq;
        if done {
            return GenerateResult { tokens: generated, hidden: last, stats };
        }
    }
}

/// One decode pass: `tokens` at positions `history..`, through the
/// model's layer step as a pack attending over `kv`'s history plus
/// itself. Returns the last row's final hidden state.
fn pass<E: Executor>(
    model: &Model,
    exec: &mut E,
    kv: &mut impl KvSource<E>,
    history: usize,
    tokens: &[usize],
) -> Matrix {
    let pack = PackedBatch::after_history(history, tokens.len());
    let x = model.embed(&pack, &[tokens]);
    model.run_layers(exec, &pack, x, kv).slice_rows(tokens.len() - 1, 1)
}

/// Greedy next-token choice: tied-embedding logits (final hidden row
/// dotted with every token-embedding row), argmax with lowest-index
/// tie-break.
fn greedy_token(model: &Model, hidden: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_score = f32::NEG_INFINITY;
    for t in 0..model.config().vocab {
        let score = dot(hidden, model.token_embedding.row(t));
        if score > best_score {
            best = t;
            best_score = score;
        }
    }
    best
}

/// Production K/V history: each pass's captured K/V codes are appended
/// to the quantized cache, and attention reads the whole cache decoded
/// back through the tensors' decode tables.
struct CodeBacked<'c> {
    ctx: &'c QuantizedContext,
    names: &'c [LayerNames],
    cache: &'c mut KvCache,
}

impl KvSource<QuantizedExecutor<'_>> for CodeBacked<'_> {
    fn keys_values(
        &mut self,
        exec: &mut QuantizedExecutor<'_>,
        li: usize,
        _k: Matrix,
        _v: Matrix,
    ) -> (Matrix, Matrix) {
        let n = &self.names[li];
        let kc = exec.take_captured(&n.k).expect("captured K codes");
        let vc = exec.take_captured(&n.v).expect("captured V codes");
        self.cache.append(li, &kc, &vc);
        let lut = |name: &str| self.ctx.act_decode.get(name).copied().expect("K/V dictionary");
        (self.cache.decode_k(li, &lut(&n.k)), self.cache.decode_v(li, &lut(&n.v)))
    }
}

/// The reference oracle's K/V history: the hooks' float K/V rows,
/// appended per pass, never touching codes.
struct FloatBacked {
    k: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl<E: ?Sized> KvSource<E> for FloatBacked {
    fn keys_values(&mut self, _: &mut E, li: usize, k: Matrix, v: Matrix) -> (Matrix, Matrix) {
        self.k[li] = push_rows(&self.k[li], &k);
        self.v[li] = push_rows(&self.v[li], &v);
        (self.k[li].clone(), self.v[li].clone())
    }
}

fn push_rows(m: &Matrix, rows: &Matrix) -> Matrix {
    let mut data = m.as_slice().to_vec();
    data.extend_from_slice(rows.as_slice());
    Matrix::from_vec(m.rows() + rows.rows(), rows.cols(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::Head;
    use crate::quantize::{QuantizeSpec, QuantizedModel};

    fn decodable() -> (Model, QuantizedContext) {
        let config = ModelConfig {
            name: "decode-test".into(),
            layers: 2,
            hidden: 32,
            heads: 2,
            ff: 64,
            vocab: 120,
            max_seq: 24,
        };
        let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 11);
        let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(12, 30 + s)).collect();
        let (qm, _) =
            QuantizedModel::prepare(&model, QuantizeSpec::weights_and_activations(), &profile);
        let ctx = qm.into_context();
        (model, ctx)
    }

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let (model, ctx) = decodable();
        let prompt = model.random_tokens(6, 1);
        let a = generate(&model, &ctx, &prompt, 5, None, ExecMode::Decoded);
        let b = generate(&model, &ctx, &prompt, 5, None, ExecMode::Decoded);
        assert_eq!(a, b);
        assert_eq!(a.tokens.len(), 5);
        assert!(a.tokens.iter().all(|&t| t < model.config().vocab));
        assert!(a.stats.act_values > 0);
    }

    #[test]
    fn index_domain_decode_is_bit_identical_to_decoded() {
        let (model, ctx) = decodable();
        let prompt = model.random_tokens(5, 2);
        let dec = generate(&model, &ctx, &prompt, 4, None, ExecMode::Decoded);
        let idx = generate(&model, &ctx, &prompt, 4, None, ExecMode::IndexDomain);
        assert_eq!(dec, idx);
    }

    #[test]
    fn incremental_matches_full_prefix_recompute() {
        let (model, ctx) = decodable();
        for mode in [ExecMode::Decoded, ExecMode::IndexDomain] {
            let prompt = model.random_tokens(7, 3);
            let inc = generate(&model, &ctx, &prompt, 6, None, mode);
            let reference = generate_reference(&model, &ctx, &prompt, 6, None, mode);
            assert_eq!(inc, reference, "mode {mode:?}");
        }
    }

    #[test]
    fn eos_stops_generation_and_is_included() {
        let (model, ctx) = decodable();
        let prompt = model.random_tokens(6, 4);
        // Find what the unconstrained second token is, then declare it EOS.
        let free = generate(&model, &ctx, &prompt, 3, None, ExecMode::Decoded);
        assert_eq!(free.tokens.len(), 3);
        let eos = free.tokens[1];
        let stopped = generate(&model, &ctx, &prompt, 8, Some(eos), ExecMode::Decoded);
        // Generation halts at the first occurrence of the EOS token
        // (greedy decode may emit it earlier than index 1).
        let cut = free.tokens.iter().position(|&t| t == eos).unwrap();
        assert_eq!(stopped.tokens, free.tokens[..=cut].to_vec());
    }

    #[test]
    fn generation_stops_at_max_seq() {
        let (model, ctx) = decodable();
        let max_seq = model.config().max_seq;
        let prompt = model.random_tokens(max_seq - 2, 5);
        // Room to advance twice; the third sample cannot be cached.
        let out = generate(&model, &ctx, &prompt, 100, None, ExecMode::Decoded);
        assert_eq!(out.tokens.len(), 3);
        let reference = generate_reference(&model, &ctx, &prompt, 100, None, ExecMode::Decoded);
        assert_eq!(out, reference);
    }

    #[test]
    fn zero_max_tokens_yields_prefill_only() {
        let (model, ctx) = decodable();
        let prompt = model.random_tokens(5, 6);
        let out = generate(&model, &ctx, &prompt, 0, None, ExecMode::Decoded);
        assert!(out.tokens.is_empty());
        let reference = generate_reference(&model, &ctx, &prompt, 0, None, ExecMode::Decoded);
        assert_eq!(out, reference);
    }

    #[test]
    fn session_steps_match_one_shot_generate() {
        let (model, ctx) = decodable();
        let prompt = model.random_tokens(6, 7);
        let mut session = DecodeSession::prefill(&model, &ctx, &prompt, 4, None, ExecMode::Decoded);
        let mut tokens = Vec::new();
        while !session.is_done() {
            tokens.push(session.step(&model, &ctx));
        }
        assert!(session.cache_bytes() > 0);
        let result = session.into_result();
        assert_eq!(result.tokens, tokens);
        assert_eq!(result, generate(&model, &ctx, &prompt, 4, None, ExecMode::Decoded));
    }
}
