//! Traced replays of sampled traffic through the model's public entry
//! points, timed per executor hook.
//!
//! [`Timed`] decorates any [`Executor`] through the public trait: it
//! forwards every hook (including `weight_override` and the packed
//! variants) unchanged and records a span around each, so a decorated
//! forward computes exactly what the production executor computes.

use crate::stats::{median, ms};
use crate::trace::{self_times, Span, SpanLog};
use mokey_serve::PreparedModel;
use mokey_tensor::Matrix;
use mokey_transformer::exec::{Executor, QuantizedStats};
use mokey_transformer::TaskOutput;
use mokey_transformer::{DecodeSession, ExecMode, PackedBatch, PackedLayout, QuantizedExecutor};
use std::collections::BTreeMap;
use std::time::Instant;

/// Span names of the hook intervals inside a replayed forward.
pub const ENCODE: &str = "hook.encode";
pub const GEMM: &str = "hook.gemm";
pub const SNAP: &str = "hook.snap";

/// A timing decorator over an executor.
///
/// Span boundaries: `activation*` is the activation encode; `linear*`
/// entry up to the following `gemm_output*` entry is the GEMM (in decoded
/// mode the hook declines and the model runs the dense GEMM in between;
/// in index-domain mode the hook itself runs the LUT GEMM);
/// `gemm_output*` is the output snap.
pub struct Timed<'l, E> {
    pub inner: E,
    log: &'l mut SpanLog,
    parent: u64,
    req: u64,
    gemm_start: Option<Instant>,
}

impl<'l, E: Executor> Timed<'l, E> {
    pub fn new(inner: E, log: &'l mut SpanLog, parent: u64, req: u64) -> Self {
        Self { inner, log, parent, req, gemm_start: None }
    }

    fn span(&mut self, name: &'static str, start: Instant) {
        self.log.record(self.parent, name, self.req, start, Instant::now());
    }

    fn close_gemm(&mut self) {
        if let Some(start) = self.gemm_start.take() {
            self.span(GEMM, start);
        }
    }
}

impl<E: Executor> Executor for Timed<'_, E> {
    fn activation(&mut self, name: &str, m: Matrix) -> Matrix {
        let t = Instant::now();
        let out = self.inner.activation(name, m);
        self.span(ENCODE, t);
        out
    }

    fn weight_override(&self, name: &str) -> Option<&Matrix> {
        self.inner.weight_override(name)
    }

    fn gemm_output(&mut self, name: &str, m: Matrix) -> Matrix {
        self.close_gemm();
        let t = Instant::now();
        let out = self.inner.gemm_output(name, m);
        self.span(SNAP, t);
        out
    }

    fn activation_packed(&mut self, name: &str, m: Matrix, layout: &PackedLayout) -> Matrix {
        let t = Instant::now();
        let out = self.inner.activation_packed(name, m, layout);
        self.span(ENCODE, t);
        out
    }

    fn gemm_output_packed(&mut self, name: &str, m: Matrix, layout: &PackedLayout) -> Matrix {
        self.close_gemm();
        let t = Instant::now();
        let out = self.inner.gemm_output_packed(name, m, layout);
        self.span(SNAP, t);
        out
    }

    fn linear(&mut self, weight_name: &str, x: &Matrix, w: &Matrix, b: &[f32]) -> Option<Matrix> {
        self.gemm_start = Some(Instant::now());
        self.inner.linear(weight_name, x, w, b)
    }

    fn linear_packed(
        &mut self,
        weight_name: &str,
        x: &Matrix,
        w: &Matrix,
        b: &[f32],
        layout: &PackedLayout,
    ) -> Option<Matrix> {
        self.gemm_start = Some(Instant::now());
        self.inner.linear_packed(weight_name, x, w, b, layout)
    }
}

/// The two replayed batch shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One request per forward, as at low load.
    Solo,
    /// Eight requests in one packed forward, as at saturation.
    Packed8,
}

impl Shape {
    pub fn label(self) -> &'static str {
        match self {
            Shape::Solo => "solo",
            Shape::Packed8 => "packed8",
        }
    }
}

pub fn mode_label(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Decoded => "decoded",
        ExecMode::IndexDomain => "index_domain",
    }
}

/// What one (mode, shape) replay measured.
#[derive(Debug, Default)]
pub struct ForwardReport {
    /// Median undecorated forward time, per forward call.
    pub forward_ms: f64,
    /// Median decorated over median undecorated forward time.
    pub decorated_ratio: f64,
    /// Shares of the decorated forward time: encode, GEMM, snap, and the
    /// remainder (attention, LayerNorm, GELU, embedding, head).
    pub encode_share: f64,
    pub gemm_share: f64,
    pub snap_share: f64,
    pub other_share: f64,
    /// Replays whose output or counters differed from
    /// `infer_batch_mode` on the same batch.
    pub mismatches: usize,
    pub checked: usize,
    /// Counters of one decorated pass over every sampled batch.
    pub stats: QuantizedStats,
}

/// Whether two outputs are bit-identical.
pub fn same_bits(a: &TaskOutput, b: &TaskOutput) -> bool {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match (a, b) {
        (TaskOutput::Logits(x), TaskOutput::Logits(y)) => bits(x) == bits(y),
        (TaskOutput::Score(x), TaskOutput::Score(y)) => x.to_bits() == y.to_bits(),
        (TaskOutput::Span(x1, x2), TaskOutput::Span(y1, y2)) => {
            bits(x1) == bits(y1) && bits(x2) == bits(y2)
        }
        _ => false,
    }
}

/// One forward of `batch` (solo: a single request; packed: longest-first
/// order, as `infer_batch_mode` packs it) through `exec`. Returns outputs
/// and per-request counters in `batch` order.
fn forward(
    prepared: &PreparedModel,
    shape: Shape,
    batch: &[Vec<usize>],
    exec: &mut dyn Executor,
) -> Vec<TaskOutput> {
    let model = prepared.model();
    match shape {
        Shape::Solo => {
            let hidden = model.forward(exec, &batch[0]);
            vec![model.apply_head(exec, &hidden)]
        }
        Shape::Packed8 => {
            let order = pack_order(batch);
            let refs: Vec<&[usize]> = order.iter().map(|&i| batch[i].as_slice()).collect();
            let pack = PackedBatch::new(&refs);
            let hidden = model.forward_packed(exec, &pack, &refs);
            let outs = model.apply_head_packed(exec, &hidden, &pack);
            let mut in_order = vec![None; batch.len()];
            for (&i, out) in order.iter().zip(outs) {
                in_order[i] = Some(out);
            }
            in_order.into_iter().map(|o| o.expect("every request packed")).collect()
        }
    }
}

/// Longest first, stable: the order `infer_batch_mode` packs a group in.
fn pack_order(batch: &[Vec<usize>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..batch.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(batch[i].len()));
    order
}

/// Replays `batches` (each one forward of `shape`) for `rounds` rounds,
/// alternating undecorated and decorated forwards of the same batch, and
/// checks every decorated output and counter against `infer_batch_mode`.
pub fn replay_forwards(
    prepared: &PreparedModel,
    mode: ExecMode,
    shape: Shape,
    batches: &[Vec<Vec<usize>>],
    rounds: usize,
    log: &mut SpanLog,
) -> ForwardReport {
    let ctx = prepared.context();
    let references: Vec<_> = batches.iter().map(|b| prepared.infer_batch_mode(b, mode)).collect();
    let mut report = ForwardReport::default();
    if shape == Shape::Packed8 {
        // The replay must be the forward the engine runs: one packed group.
        for r in &references {
            report.checked += 1;
            if r.packing.packed_batches != 1 || r.packing.solo_requests != 0 {
                report.mismatches += 1;
            }
        }
    }
    let first_span = log.spans.len();
    let mut forward_ids = Vec::new();
    let (mut plain, mut decorated) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let (mut plain_round, mut decorated_round) = (0.0, 0.0);
        for (bi, (batch, reference)) in batches.iter().zip(&references).enumerate() {
            let req = (round * batches.len() + bi) as u64;
            for decorate in [round % 2 == 0, round % 2 == 1] {
                let mut inner = QuantizedExecutor::with_mode(ctx, mode);
                if !decorate {
                    let t = Instant::now();
                    let outs = forward(prepared, shape, batch, &mut inner);
                    plain_round += ms(t.elapsed());
                    std::hint::black_box(outs);
                    continue;
                }
                // The forward span is recorded after its hooks, under an
                // id its hook spans already name as their parent.
                let id = log.id();
                let t = Instant::now();
                let mut timed = Timed::new(inner, log, id, req);
                let outs = forward(prepared, shape, batch, &mut timed);
                let end = Instant::now();
                inner = timed.inner;
                let name = forward_span_name(mode, shape);
                log.push(Span { id, parent: 0, name, req, start: t, end });
                decorated_round += ms(end - t);
                forward_ids.push(id);

                let per_request = match shape {
                    Shape::Solo => vec![inner.stats()],
                    Shape::Packed8 => {
                        let mut v = inner.take_per_request();
                        v.resize(batch.len(), QuantizedStats::default());
                        // Per-request counters come back in pack order.
                        let order = pack_order(batch);
                        let mut in_order = vec![QuantizedStats::default(); batch.len()];
                        for (&i, s) in order.iter().zip(v) {
                            in_order[i] = s;
                        }
                        in_order
                    }
                };
                for ((out, stats), (ref_out, ref_stats)) in
                    outs.iter().zip(&per_request).zip(&reference.results)
                {
                    report.checked += 1;
                    if !same_bits(out, ref_out) || stats != ref_stats {
                        report.mismatches += 1;
                    }
                }
                if round == 0 {
                    report.stats.merge(&inner.stats());
                }
            }
        }
        let per_forward = batches.len() as f64;
        plain.push(plain_round / per_forward);
        decorated.push(decorated_round / per_forward);
    }
    report.forward_ms = median(&plain);
    report.decorated_ratio = median(&decorated) / report.forward_ms;

    let spans = &log.spans[first_span..];
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    let mut total = 0.0;
    let roots: std::collections::HashSet<u64> = forward_ids.iter().copied().collect();
    for s in spans {
        if roots.contains(&s.id) {
            total += s.duration().as_secs_f64();
            *by_name.entry("other").or_default() += selfs[&s.id].as_secs_f64();
        } else if roots.contains(&s.parent) {
            *by_name.entry(s.name).or_default() += selfs[&s.id].as_secs_f64();
        }
    }
    let share = |k: &str| by_name.get(k).copied().unwrap_or(0.0) / total.max(1e-12);
    report.encode_share = share(ENCODE);
    report.gemm_share = share(GEMM);
    report.snap_share = share(SNAP);
    report.other_share = share("other");
    report
}

fn forward_span_name(mode: ExecMode, shape: Shape) -> &'static str {
    match (mode, shape) {
        (ExecMode::Decoded, Shape::Solo) => "replay.decoded.solo",
        (ExecMode::Decoded, Shape::Packed8) => "replay.decoded.packed8",
        (ExecMode::IndexDomain, Shape::Solo) => "replay.index_domain.solo",
        (ExecMode::IndexDomain, Shape::Packed8) => "replay.index_domain.packed8",
    }
}

/// What the decode replay measured.
#[derive(Debug, Default)]
pub struct DecodeReport {
    pub prefill_ms: f64,
    /// Median step time by the cache position the step writes, in
    /// buckets of 32 positions (0–31, 32–63, 64–95, 96–127).
    pub step_ms_by_bucket: [f64; 4],
    pub cache_bytes_per_position: f64,
}

/// Replays chat turns through `DecodeSession::prefill` and `step`, timing
/// each call.
pub fn replay_decode(
    prepared: &PreparedModel,
    mode: ExecMode,
    prompts: &[Vec<usize>],
    max_new: usize,
    log: &mut SpanLog,
) -> DecodeReport {
    let (model, ctx) = (prepared.model(), prepared.context());
    let mut prefill = Vec::new();
    let mut buckets: [Vec<f64>; 4] = Default::default();
    let mut bytes_per_position = Vec::new();
    for (req, prompt) in prompts.iter().enumerate() {
        let req = req as u64;
        let t = Instant::now();
        let mut session = DecodeSession::prefill(model, ctx, prompt, max_new, None, mode);
        let end = Instant::now();
        log.record(0, "decode.prefill", req, t, end);
        prefill.push(ms(end - t));
        let mut positions = prompt.len();
        while !session.is_done() {
            let t = Instant::now();
            session.step(model, ctx);
            let end = Instant::now();
            log.record(0, "decode.step", req, t, end);
            buckets[(positions / 32).min(3)].push(ms(end - t));
            if !session.is_done() {
                positions += 1;
            }
        }
        bytes_per_position.push(session.cache_bytes() as f64 / positions as f64);
    }
    let mut report = DecodeReport {
        prefill_ms: median(&prefill),
        cache_bytes_per_position: median(&bytes_per_position),
        ..DecodeReport::default()
    };
    for (slot, samples) in report.step_ms_by_bucket.iter_mut().zip(&buckets) {
        *slot = if samples.is_empty() { f64::NAN } else { median(samples) };
    }
    report
}
