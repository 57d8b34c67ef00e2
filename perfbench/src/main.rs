//! End-to-end serving benchmark for the Mokey workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload decoded --seed 1 --seconds 50 --trace 0
//! ```
//!
//! One run sets the server up several times (timing each set-up), then
//! drives seeded traffic through the production TCP front door
//! (`serve_net` + `NetClient`) in three phases, interleaved over rounds —
//! open-loop one-shots for latency, closed-loop one-shots for throughput,
//! chat generations for token streaming — and checks a seeded sample of
//! replies bit-exactly against the library outside the timed windows. With `--trace 1` it
//! repeats the traffic traced, replays sampled batches through the
//! model's public entry points under a timing executor, writes the spans
//! to `perfbench/traces/`, and reports per-layer metrics instead.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod catalogue;
mod replay;
mod rng;
mod stats;
mod trace;
mod traffic;

use mokey_serve::{serve_net, Frame, ModelRegistry, NetConfig, PreparedModel, ServeConfig};
use mokey_transformer::{generate, ExecMode, Head, Model, ModelConfig, QuantizeSpec};
use replay::{mode_label, replay_decode, replay_forwards, same_bits, Shape};
use rng::{mix, Rng};
use stats::{median, ms, nearest_rank, rate, sorted};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::SpanLog;
use traffic::{stream, ChatPhase, OneShotPhase, OpenPlan, MAX_NEW};

/// One benchmark workload: the engine's execution mode and the open-loop
/// rate (about a third of that mode's closed-loop capacity on a 2-core
/// host, well below the knee where queueing amplifies host noise).
struct Workload {
    name: &'static str,
    mode: ExecMode,
    open_rate: f64,
}

const WORKLOADS: [Workload; 2] = [
    Workload { name: "decoded", mode: ExecMode::Decoded, open_rate: 100.0 },
    Workload { name: "index_domain", mode: ExecMode::IndexDomain, open_rate: 60.0 },
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Weights of the served model (fixed: the seed varies the traffic).
const MODEL_SEED: u64 = 2025;
/// Shares of `--seconds` given to the open, closed and chat phases.
const PHASE_SHARES: [f64; 3] = [0.6, 0.2, 0.2];
/// Rounds the phases are interleaved over.
const ROUNDS: usize = 5;
/// Correlation-id bases: one range per phase, one million per round, one
/// hundred thousand per chat connection.
const OPEN_CORR: u64 = 1;
const CLOSED_CORR: u64 = 100_000_000;
const CHAT_CORR: u64 = 200_000_000;
const WARMUP_CORR: u64 = 300_000_000;
/// One in this many one-shots (and chat turns) is checked bit-exactly.
const ONESHOT_SAMPLE: u64 = 32;
const CHAT_SAMPLE: u64 = 16;
/// Replay sizes of the traced run.
const REPLAY_ROUNDS: usize = 12;
const REPLAY_SOLO: usize = 8;
const REPLAY_PROMPTS: usize = 4;
/// Lengths that pack eight requests into one group (within the packer's
/// 25% padding limit of 24).
const PACK_LEN: (usize, usize) = (19, 24);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: not {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.iter().find(|w| w.name == value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {names:?})")
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| bad("a positive integer"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(result) => println!("{}", result.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Operations attempted and failed, by phase.
#[derive(Default)]
struct Tally(BTreeMap<&'static str, (u64, u64)>);

impl Tally {
    fn add(&mut self, phase: &'static str, attempted: u64, failed: u64) {
        let e = self.0.entry(phase).or_default();
        e.0 += attempted;
        e.1 += failed;
    }
    fn totals(&self) -> (u64, u64) {
        self.0.values().fold((0, 0), |(a, f), &(x, y)| (a + x, f + y))
    }
}

struct Outcome {
    tally: Tally,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let (attempted, failed) = self.tally.totals();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}

/// The timed traffic of one pass: per round, an open-loop, a
/// closed-loop and a chat segment.
struct Phases {
    open: Vec<OneShotPhase>,
    closed: Vec<OneShotPhase>,
    chat: Vec<ChatPhase>,
}

impl Phases {
    fn generations(&self) -> impl Iterator<Item = &traffic::Generation> {
        self.chat.iter().flat_map(|c| &c.generations)
    }
}

/// Set-up timings of one server start.
struct Setup {
    total: Duration,
    synthesize: Duration,
    register: Duration,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let epoch = Instant::now();
    let config = ModelConfig::bert_base().scaled(6, 6);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut outcome = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let model = Model::synthesize(&config, Head::Classification { classes: 3 }, MODEL_SEED);
        let t1 = Instant::now();
        let profile: Vec<Vec<usize>> = (0..4).map(|s| model.random_tokens(24, 500 + s)).collect();
        let mut registry = ModelRegistry::new();
        registry
            .register(traffic::MODEL, model, QuantizeSpec::weights_and_activations(), &profile)
            .map_err(|e| format!("register: {e}"))?;
        let t2 = Instant::now();
        let serve_config = ServeConfig { mode: w.mode, ..ServeConfig::default() };
        let last = i + 1 == SETUPS;
        let (result, _) = serve_net(&registry, serve_config, NetConfig::default(), |net| {
            setups.push(Setup { total: t0.elapsed(), synthesize: t1 - t0, register: t2 - t1 });
            last.then(|| {
                let addr = net.addr().to_string();
                let prepared = registry.iter().next().expect("one model registered").2;
                drive(args, &addr, prepared, epoch)
            })
        })
        .map_err(|e| format!("serve_net: {e}"))?;
        outcome = result;
    }
    let mut outcome = outcome.expect("the last set-up drives the workload")?;
    let secs = |f: fn(&Setup) -> Duration| {
        median(&setups.iter().map(|s| f(s).as_secs_f64()).collect::<Vec<_>>())
    };
    if args.trace {
        outcome.metrics.insert("setup.synthesize_s".into(), (secs(|s| s.synthesize), "s"));
        outcome.metrics.insert("setup.register_s".into(), (secs(|s| s.register), "s"));
    } else {
        outcome.metrics.insert("setup_s".into(), (secs(|s| s.total), "s"));
    }
    check_catalogue(args.trace, &outcome.metrics)?;
    Ok(outcome)
}

/// A result must carry exactly the catalogued metrics, with their units,
/// each a finite number.
fn check_catalogue(
    trace: bool,
    metrics: &BTreeMap<String, (f64, &'static str)>,
) -> Result<(), String> {
    let expected: BTreeMap<String, &str> = if trace {
        catalogue::per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        catalogue::END_TO_END.iter().map(|&(n, u, _)| (n.to_string(), u)).collect()
    };
    let got: BTreeMap<String, &str> = metrics.iter().map(|(n, (_, u))| (n.clone(), *u)).collect();
    if got != expected {
        return Err(format!(
            "metrics drifted from the catalogue: got {got:?}, expected {expected:?}"
        ));
    }
    for (name, (value, _)) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
    }
    Ok(())
}

/// Runs the timed phases for `seconds` in total, interleaved over
/// `ROUNDS` rounds of open loop, closed loop and chat, so a slow stretch
/// of the host lands on every metric alike rather than on one phase.
fn run_phases(
    addr: &str,
    w: &Workload,
    seed: u64,
    seconds: f64,
    vocab: usize,
) -> Result<Phases, String> {
    let part = |i: usize| Duration::from_secs_f64(seconds * PHASE_SHARES[i] / ROUNDS as f64);
    let mut p = Phases { open: Vec::new(), closed: Vec::new(), chat: Vec::new() };
    let mut closed_rng = Rng::new(seed, stream::CLOSED);
    for round in 0..ROUNDS as u64 {
        let base = 1_000_000 * round;
        let plan = OpenPlan::new(seed, round, w.open_rate, part(0), vocab);
        let open = traffic::run_open(addr, &plan, OPEN_CORR + base)
            .map_err(|e| format!("open loop: {e}"))?;
        check_backlog(&open)?;
        p.open.push(open);
        let closed = traffic::run_closed(addr, &mut closed_rng, vocab, part(1), CLOSED_CORR + base)
            .map_err(|e| format!("closed loop: {e}"))?;
        p.closed.push(closed);
        let chat_stream = stream::CHAT + 1000 * round;
        p.chat.push(traffic::run_chat(addr, seed, chat_stream, vocab, part(2), CHAT_CORR + base));
    }
    Ok(p)
}

/// Refuses to report open-loop latency from a server whose queue grew
/// over the phase: the mean backlog of the last quarter of arrivals must
/// stay within twice that of the first quarter, plus a small allowance.
fn check_backlog(open: &OneShotPhase) -> Result<(), String> {
    let q = open.requests.len() / 4;
    if q == 0 {
        return Ok(());
    }
    let mean =
        |r: &[traffic::OneShot]| r.iter().map(|x| x.backlog as f64).sum::<f64>() / r.len() as f64;
    let first = mean(&open.requests[..q]);
    let last = mean(&open.requests[open.requests.len() - q..]);
    if last > 2.0 * first + 4.0 {
        return Err(format!(
            "open-loop backlog grew from {first:.2} to {last:.2} outstanding requests: \
             the offered rate exceeds what this host serves"
        ));
    }
    Ok(())
}

fn drive(
    args: &Args,
    addr: &str,
    prepared: &PreparedModel,
    epoch: Instant,
) -> Result<Outcome, String> {
    let w = args.workload;
    let vocab = prepared.vocab();
    // Warm-up, unmeasured: both request kinds through every thread.
    let mut warm = Rng::new(args.seed, stream::WARMUP);
    traffic::run_closed(addr, &mut warm, vocab, Duration::from_millis(500), WARMUP_CORR)
        .map_err(|e| format!("warm-up: {e}"))?;
    let (chat_warm, brief) = (WARMUP_CORR + 1_000_000, Duration::from_millis(50));
    traffic::run_chat(addr, args.seed, stream::WARMUP, vocab, brief, chat_warm);

    let seconds = args.seconds as f64;
    let mut tally = Tally::default();
    let mut metrics = BTreeMap::new();
    if !args.trace {
        let phases = run_phases(addr, w, args.seed, seconds, vocab)?;
        let e2e = end_to_end(&phases)?;
        verify(args, prepared, &phases, &mut tally);
        summarize(&phases, &e2e);
        for (name, value) in e2e {
            metrics.insert(name.to_string(), (value, catalogue::unit(name)));
        }
        return Ok(Outcome { tally, metrics });
    }

    // Traced run: an untraced and a traced pass of half the length each,
    // so the difference is the tracing overhead, then the replays.
    let plain = end_to_end(&run_phases(addr, w, args.seed, seconds / 2.0, vocab)?)?;
    let phases = run_phases(addr, w, args.seed, seconds / 2.0, vocab)?;
    let mut log = SpanLog::new(epoch);
    record_traffic_spans(&phases, &mut log);
    let traced = end_to_end(&phases)?;
    verify(args, prepared, &phases, &mut tally);
    summarize(&phases, &traced);
    for ((name, t), (_, p)) in traced.iter().zip(&plain) {
        metrics.insert(format!("trace.overhead.{name}"), (t - p, catalogue::unit(name)));
    }
    layer_metrics(&phases, &mut metrics);
    replay_metrics(args, prepared, &mut log, &mut tally, &mut metrics);

    let path =
        PathBuf::from("perfbench/traces").join(format!("{}-seed{}.jsonl", w.name, args.seed));
    match log.write_jsonl(&path) {
        Ok(()) => eprintln!("perfbench: {} spans written to {}", log.spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
    }
    Ok(Outcome { tally, metrics })
}

/// Answered one-shots of a phase's segments: (request, arrival, frame).
fn answered(
    segments: &[OneShotPhase],
) -> impl Iterator<Item = (&traffic::OneShot, Instant, &Frame)> {
    segments.iter().flat_map(|s| &s.requests).filter_map(|r| match &r.reply {
        Some((at, frame @ Frame::Response { .. })) => Some((r, *at, frame)),
        _ => None,
    })
}

fn percentile_ms(samples: Vec<f64>, per_mille: usize, what: &str) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("no samples for {what}"));
    }
    Ok(nearest_rank(&sorted(samples), per_mille))
}

/// The end-to-end metrics of one pass (all but `setup_s`), in catalogue
/// order. Each is the median over rounds of that round's value, so a slow
/// stretch of the host that spans fewer than half the rounds does not
/// move it; `ttft_p50_ms` is the exception, the median over every round's
/// turns pooled, because one round holds only about twenty turns.
fn end_to_end(p: &Phases) -> Result<Vec<(&'static str, f64)>, String> {
    let rounds = per_round(p)?;
    let ttft = p.generations().filter_map(|g| g.token_at.first().map(|&t| ms(t - g.send_start)));
    let ttft_p50 = percentile_ms(ttft.collect(), 500, "ttft")?;
    Ok((0..rounds[0].len())
        .map(|i| {
            let name = rounds[0][i].0;
            let value = if name == "ttft_p50_ms" {
                ttft_p50
            } else {
                median(&rounds.iter().map(|r| r[i].1).collect::<Vec<_>>())
            };
            (name, value)
        })
        .collect())
}

fn per_round(p: &Phases) -> Result<Vec<Vec<(&'static str, f64)>>, String> {
    (0..p.open.len()).map(|r| round_metrics(&p.open[r], &p.closed[r], &p.chat[r])).collect()
}

/// One round's end-to-end values: rates over the exact span of the
/// round's completions, percentiles nearest-rank over its raw samples.
fn round_metrics(
    open: &OneShotPhase,
    closed: &OneShotPhase,
    chat: &ChatPhase,
) -> Result<Vec<(&'static str, f64)>, String> {
    let latency: Vec<f64> =
        answered(std::slice::from_ref(open)).map(|(r, at, _)| ms(at - r.due)).collect();
    let done: Vec<Instant> = answered(std::slice::from_ref(closed)).map(|(_, at, _)| at).collect();
    let throughput = rate(&done, closed.start, closed.end).ok_or("no one-shots completed")?;
    let token_at: Vec<Instant> =
        chat.generations.iter().flat_map(|g| g.token_at.iter().copied()).collect();
    let tokens_per_s = rate(&token_at, chat.start, chat.end).ok_or("no tokens streamed")?;
    let ttft: Vec<f64> = chat
        .generations
        .iter()
        .filter_map(|g| g.token_at.first().map(|&t| ms(t - g.send_start)))
        .collect();
    let itl: Vec<f64> = chat
        .generations
        .iter()
        .flat_map(|g| g.token_at.windows(2).map(|w| ms(w[1] - w[0])))
        .collect();
    Ok(vec![
        ("throughput_rps", throughput),
        ("latency_p50_ms", percentile_ms(latency, 500, "latency")?),
        ("tokens_per_s", tokens_per_s),
        ("ttft_p50_ms", percentile_ms(ttft, 500, "ttft")?),
        ("itl_p50_ms", percentile_ms(itl, 500, "itl")?),
    ])
}

/// Sample counts, tail support and per-round values, on standard error.
fn summarize(p: &Phases, e2e: &[(&'static str, f64)]) {
    let least = |counts: Vec<usize>| counts.into_iter().min().unwrap_or(0);
    let open = least(p.open.iter().map(|s| answered(std::slice::from_ref(s)).count()).collect());
    let gens = least(p.chat.iter().map(|c| c.generations.len()).collect());
    let gaps = least(
        p.chat
            .iter()
            .map(|c| c.generations.iter().map(|g| g.token_at.len().saturating_sub(1)).sum())
            .collect(),
    );
    eprintln!(
        "perfbench: per round at least {open} open-loop replies, {gens} chat turns \
         and {gaps} token gaps"
    );
    let rounds = per_round(p).unwrap_or_default();
    for (i, (name, value)) in e2e.iter().enumerate() {
        let each: Vec<String> = rounds.iter().map(|m| format!("{:.3}", m[i].1)).collect();
        eprintln!("perfbench:   {name} = {value:.4} (rounds: {})", each.join(" "));
    }
}

/// Whether the request with correlation id `corr` is in the seeded
/// correctness sample (the first of every segment and connection always
/// is).
fn sampled(seed: u64, corr: u64, one_in: u64) -> bool {
    corr % 100_000 <= 1 || mix(seed ^ mix(stream::SAMPLE ^ corr)).is_multiple_of(one_in)
}

/// Counts attempted and failed operations per phase. Every reply is
/// checked for presence and kind; a seeded sample is compared bit-exactly
/// against the library (one-shots against `PreparedModel::infer`, chat
/// turns against `generate`), after the timed windows.
fn verify(args: &Args, prepared: &PreparedModel, p: &Phases, tally: &mut Tally) {
    for (name, segments) in [("open", &p.open), ("closed", &p.closed)] {
        for seg in segments {
            // Requests the segment meant to send but could not count as
            // failed.
            let mut failed = (seg.attempted - seg.requests.len()) as u64;
            for r in &seg.requests {
                match &r.reply {
                    Some((_, Frame::Response { output, stats, .. })) => {
                        if sampled(args.seed, r.corr, ONESHOT_SAMPLE) {
                            let (want, want_stats) = prepared.infer(&r.tokens);
                            if !same_bits(output, &want) || *stats != want_stats {
                                failed += 1;
                            }
                        }
                    }
                    _ => failed += 1,
                }
            }
            if let Some(e) = &seg.error {
                eprintln!("perfbench: {name}: {e}");
            }
            tally.add(name, seg.attempted as u64, failed);
        }
    }
    let (model, ctx) = (prepared.model(), prepared.context());
    for seg in &p.chat {
        let mut failed = seg.errors.len() as u64;
        for e in &seg.errors {
            eprintln!("perfbench: chat: {e}");
        }
        for g in &seg.generations {
            let complete = !g.rejected && g.summary.is_some() && g.tokens.len() == MAX_NEW;
            if !complete {
                failed += 1;
            } else if sampled(args.seed, g.corr, CHAT_SAMPLE) {
                let want = generate(model, ctx, &g.prompt, MAX_NEW, None, args.workload.mode);
                let summary = g.summary.expect("complete turns have a summary").1;
                if want.tokens != g.tokens || want.stats != summary.stats {
                    failed += 1;
                }
            }
        }
        tally.add("chat", (seg.generations.len() + seg.errors.len()) as u64, failed);
    }
    for (phase, (a, f)) in &tally.0 {
        eprintln!("perfbench: {phase}: {f} of {a} operations failed");
    }
}

/// Client-side spans of the traced pass: each one-shot is a `request`
/// (due → reply) with a `send` and a `reply` wait; each chat turn is a
/// `generation` with its `send`, the wait for the `first_token`, and one
/// `token` span per later token.
fn record_traffic_spans(p: &Phases, log: &mut SpanLog) {
    for r in p.open.iter().chain(&p.closed).flat_map(|s| &s.requests) {
        let Some((at, _)) = &r.reply else { continue };
        let id = log.record(0, "request", r.corr, r.due, *at);
        log.record(id, "send", r.corr, r.send_start, r.send_end);
        log.record(id, "reply", r.corr, r.send_end, *at);
    }
    for g in p.generations() {
        let end = g.summary.map_or(g.send_start, |(at, _)| at);
        let id = log.record(0, "generation", g.corr, g.send_start, end);
        log.record(id, "send", g.corr, g.send_start, g.send_end);
        if let Some(&first) = g.token_at.first() {
            log.record(id, "first_token", g.corr, g.send_end, first);
        }
        for w in g.token_at.windows(2) {
            log.record(id, "token", g.corr, w[0], w[1]);
        }
    }
}

/// Per-layer metrics read from the traced pass's replies and frames.
fn layer_metrics(p: &Phases, m: &mut BTreeMap<String, (f64, &'static str)>) {
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_string(), (value, unit));
    };
    let pct = |v: Vec<f64>, per_mille| {
        if v.is_empty() {
            0.0
        } else {
            nearest_rank(&sorted(v), per_mille)
        }
    };

    // net: client-observed latency beyond what the server reports, and
    // frame counts.
    let mut overhead = Vec::new();
    let (mut queue_wait, mut service) = (Vec::new(), Vec::new());
    for (r, at, frame) in answered(&p.open) {
        if let Frame::Response { queue_wait: qw, latency, .. } = frame {
            overhead.push(ms(at - r.send_start) - ms(*latency));
            queue_wait.push(ms(*qw));
            service.push(ms(latency.saturating_sub(*qw)));
        }
    }
    put("net.overhead_p50_ms", pct(overhead.clone(), 500), "ms");
    put("net.overhead_p99_ms", pct(overhead, 990), "ms");
    let (mut frames_out, mut frames_in, mut bytes_in, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    for r in p.open.iter().chain(&p.closed).flat_map(|s| &s.requests) {
        frames_out += 1;
        if let Some((_, frame)) = &r.reply {
            frames_in += 1;
            bytes_in += 4 + frame.encode_payload().len() as u64;
            rejected += matches!(frame, Frame::Error { .. }) as u64;
        }
    }
    for g in p.generations() {
        frames_out += 1;
        rejected += g.rejected as u64;
        for (index, &token) in g.tokens.iter().enumerate() {
            let frame = Frame::Generated {
                corr: g.corr,
                index: index as u32,
                token: token as u32,
                summary: None,
            };
            frames_in += 1;
            bytes_in += 4 + frame.encode_payload().len() as u64;
        }
        if let Some((_, summary)) = g.summary {
            let frame = Frame::Generated {
                corr: g.corr,
                index: g.tokens.len() as u32,
                token: 0,
                summary: Some(summary),
            };
            frames_in += 1;
            bytes_in += 4 + frame.encode_payload().len() as u64;
        }
    }
    put("net.frames_out", frames_out as f64, "count");
    put("net.frames_in", frames_in as f64, "count");
    put("net.bytes_in", bytes_in as f64, "bytes");

    // engine: queue wait and service from the reply fields.
    put("engine.queue_wait_p50_ms", pct(queue_wait.clone(), 500), "ms");
    put("engine.queue_wait_p99_ms", pct(queue_wait, 990), "ms");
    put("engine.service_p50_ms", pct(service, 500), "ms");
    for (name, phase) in [("open", &p.open), ("closed", &p.closed)] {
        let sizes: Vec<f64> = answered(phase)
            .filter_map(|(_, _, f)| match f {
                Frame::Response { batch_size, .. } => Some(f64::from(*batch_size)),
                _ => None,
            })
            .collect();
        let mean = sizes.iter().sum::<f64>() / sizes.len().max(1) as f64;
        put(&format!("engine.{name}.batch_size_mean"), mean, "requests");
    }
    put("engine.rejected", rejected as f64, "count");
    let summaries: Vec<_> = p.generations().filter_map(|g| g.summary.map(|s| (g, s.1))).collect();
    let gen_wait = summaries.iter().map(|(_, s)| ms(s.queue_wait)).collect();
    put("engine.gen_queue_wait_p50_ms", pct(gen_wait, 500), "ms");
    let steps: u64 = summaries.iter().map(|(_, s)| u64::from(s.steps)).sum();
    let tokens: usize = summaries.iter().map(|(g, _)| g.tokens.len()).sum();
    put("engine.gen_steps_per_token", steps as f64 / tokens.max(1) as f64, "ratio");

    // Tails of the end-to-end latencies, over the pass's pooled samples.
    // They are per-layer rather than end-to-end because on a shared host
    // they swing with the neighbours' load more than any bound allows.
    let latency: Vec<f64> = answered(&p.open).map(|(r, at, _)| ms(at - r.due)).collect();
    put("tail.latency_p95_ms", pct(latency.clone(), 950), "ms");
    put("tail.latency_p99_ms", pct(latency, 990), "ms");
    let ttft = p.generations().filter_map(|g| g.token_at.first().map(|&t| ms(t - g.send_start)));
    put("tail.ttft_p90_ms", pct(ttft.collect(), 900), "ms");
    let itl: Vec<f64> =
        p.generations().flat_map(|g| g.token_at.windows(2).map(|w| ms(w[1] - w[0]))).collect();
    put("tail.itl_p95_ms", pct(itl.clone(), 950), "ms");
    put("tail.itl_p99_ms", pct(itl, 990), "ms");

    // The open-loop generator's own lateness.
    let late = p.open.iter().flat_map(|s| &s.requests).map(|r| ms(r.send_start - r.due)).collect();
    put("gen.late_p99_ms", pct(late, 990), "ms");
}

/// Replays sampled batches through both execution modes and sampled chat
/// turns through the decode session, under the timing executor.
fn replay_metrics(
    args: &Args,
    prepared: &PreparedModel,
    log: &mut SpanLog,
    tally: &mut Tally,
    m: &mut BTreeMap<String, (f64, &'static str)>,
) {
    let vocab = prepared.vocab();
    let mut rng = Rng::new(args.seed, stream::REPLAY);
    let solo: Vec<Vec<Vec<usize>>> =
        (0..REPLAY_SOLO).map(|_| vec![traffic::oneshot_tokens(&mut rng, vocab)]).collect();
    let mut pack = Vec::new();
    while pack.len() < 8 {
        let len = rng.range(PACK_LEN.0, PACK_LEN.1);
        pack.push(rng.tokens(len, vocab));
    }
    let packed = vec![pack];
    for mode in [ExecMode::Decoded, ExecMode::IndexDomain] {
        let ml = mode_label(mode);
        let mut stats = mokey_transformer::exec::QuantizedStats::default();
        for (shape, batches) in [(Shape::Solo, &solo), (Shape::Packed8, &packed)] {
            let r = replay_forwards(prepared, mode, shape, batches, REPLAY_ROUNDS, log);
            tally.add("replay", r.checked as u64, r.mismatches as u64);
            let key = |what: &str| format!("exec.{ml}.{}.{what}", shape.label());
            m.insert(format!("model.{ml}.{}.forward_ms", shape.label()), (r.forward_ms, "ms"));
            m.insert(key("encode_share"), (r.encode_share, "share"));
            m.insert(key("gemm_share"), (r.gemm_share, "share"));
            m.insert(key("snap_share"), (r.snap_share, "share"));
            m.insert(key("other_share"), (r.other_share, "share"));
            m.insert(key("decorated_ratio"), (r.decorated_ratio, "ratio"));
            stats.merge(&r.stats);
        }
        m.insert(format!("exec.{ml}.outlier_frac"), (stats.outlier_fraction(), "share"));
        if mode == ExecMode::IndexDomain {
            m.insert(
                "exec.index_domain.counter_gemms".into(),
                (stats.counter_array_gemms as f64, "count"),
            );
            m.insert(
                "exec.index_domain.pair_lut_gemms".into(),
                (stats.pair_lut_gemms as f64, "count"),
            );
        }
    }
    let prompts: Vec<Vec<usize>> =
        (0..REPLAY_PROMPTS).map(|_| traffic::prompt_tokens(&mut rng, vocab)).collect();
    let d = replay_decode(prepared, args.workload.mode, &prompts, MAX_NEW, log);
    m.insert("decode.prefill_ms".into(), (d.prefill_ms, "ms"));
    for (i, v) in d.step_ms_by_bucket.iter().enumerate() {
        m.insert(format!("decode.step_ms_pos_{}_{}", 32 * i, 32 * i + 31), (*v, "ms"));
    }
    m.insert("decode.cache_bytes_per_position".into(), (d.cache_bytes_per_position, "bytes"));
}
