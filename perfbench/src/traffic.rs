//! Seeded client traffic through the production TCP front door
//! (`serve_net` on the server side, `NetClient` and the wire codec on
//! this side).
//!
//! Three phase shapes, each driven by at most two client threads:
//!
//! * **open loop** — one connection; a sender thread sends one-shots at
//!   Poisson arrival times fixed in advance by the seed while the
//!   receiver thread collects replies, so a slow server faces the same
//!   schedule and its queue can grow;
//! * **closed loop** — one connection with a fixed window of outstanding
//!   one-shots: each reply releases the next request;
//! * **chat** — one thread per connection, each running one greedy
//!   generation at a time and timing every streamed token frame.

use crate::rng::Rng;
use mokey_serve::wire::DEFAULT_MAX_FRAME_BYTES;
use mokey_serve::{read_frame, Frame, GenSummary, NetClient};
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// The registered model name every request addresses.
pub const MODEL: &str = "classify";
/// One-shot lengths, in tokens (inclusive).
pub const ONESHOT_LEN: (usize, usize) = (8, 32);
/// Chat prompt lengths, in tokens (inclusive).
pub const PROMPT_LEN: (usize, usize) = (8, 24);
/// Tokens generated per chat turn (no EOS, so every turn runs them all).
pub const MAX_NEW: usize = 96;
/// Outstanding one-shots in the closed loop.
pub const WINDOW: usize = 16;
/// Concurrent chat connections.
pub const CHAT_CONNS: usize = 2;
/// A server silent for this long is treated as hung: the phase ends and
/// whatever is unanswered counts as missing.
const STALL: Duration = Duration::from_secs(60);
/// Lead time between building an open-loop phase and its first arrival.
const LEAD: Duration = Duration::from_millis(20);

/// Seed stream tags: each input sequence draws from its own stream.
pub mod stream {
    pub const ARRIVALS: u64 = 1;
    pub const OPEN: u64 = 2;
    pub const CLOSED: u64 = 3;
    pub const CHAT: u64 = 4;
    pub const WARMUP: u64 = 5;
    pub const SAMPLE: u64 = 6;
    pub const REPLAY: u64 = 7;
}

/// A one-shot request as the client saw it.
#[derive(Debug)]
pub struct OneShot {
    pub corr: u64,
    pub tokens: Vec<usize>,
    /// When the schedule wanted it sent (the send start in a closed loop).
    pub due: Instant,
    pub send_start: Instant,
    pub send_end: Instant,
    /// Requests sent before this one and not yet answered.
    pub backlog: usize,
    /// The reply frame and when it arrived (`None`: missing).
    pub reply: Option<(Instant, Frame)>,
}

/// One one-shot phase.
#[derive(Debug)]
pub struct OneShotPhase {
    /// The measured window.
    pub start: Instant,
    pub end: Instant,
    pub requests: Vec<OneShot>,
    /// Requests the phase meant to send: the whole schedule in the open
    /// loop; in the closed loop, the sent ones plus one that a transport
    /// failure stopped.
    pub attempted: usize,
    /// A transport failure that ended the phase early.
    pub error: Option<String>,
}

/// One chat turn as the client saw it.
#[derive(Debug)]
pub struct Generation {
    pub corr: u64,
    pub prompt: Vec<usize>,
    pub send_start: Instant,
    pub send_end: Instant,
    pub tokens: Vec<usize>,
    /// Arrival of each token frame, parallel to `tokens`.
    pub token_at: Vec<Instant>,
    /// The closing summary frame and its arrival.
    pub summary: Option<(Instant, GenSummary)>,
    pub rejected: bool,
}

/// The chat phase.
#[derive(Debug)]
pub struct ChatPhase {
    pub start: Instant,
    pub end: Instant,
    pub generations: Vec<Generation>,
    pub errors: Vec<String>,
}

/// A one-shot drawn from the traffic distribution.
pub fn oneshot_tokens(rng: &mut Rng, vocab: usize) -> Vec<usize> {
    let len = rng.range(ONESHOT_LEN.0, ONESHOT_LEN.1);
    rng.tokens(len, vocab)
}

/// A chat prompt drawn from the traffic distribution.
pub fn prompt_tokens(rng: &mut Rng, vocab: usize) -> Vec<usize> {
    let len = rng.range(PROMPT_LEN.0, PROMPT_LEN.1);
    rng.tokens(len, vocab)
}

/// The open-loop schedule: Poisson arrivals at `rate` per second over
/// `duration`, and each arrival's tokens — a function of the seed alone.
#[derive(Debug, Clone)]
pub struct OpenPlan {
    pub duration: Duration,
    pub arrivals: Vec<(Duration, Vec<usize>)>,
}

impl OpenPlan {
    /// The schedule of open-loop segment `segment`.
    pub fn new(seed: u64, segment: u64, rate: f64, duration: Duration, vocab: usize) -> Self {
        let mut gaps = Rng::new(seed, stream::ARRIVALS + 100 * segment);
        let mut reqs = Rng::new(seed, stream::OPEN + 100 * segment);
        let mut arrivals = Vec::new();
        let mut t = gaps.exp(rate);
        while t < duration.as_secs_f64() {
            arrivals.push((Duration::from_secs_f64(t), oneshot_tokens(&mut reqs, vocab)));
            t += gaps.exp(rate);
        }
        Self { duration, arrivals }
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        thread::sleep(t - now);
    }
}

/// Reads reply frames until `expected` (which the sender may set late)
/// have arrived, the server hangs up, or it stalls. Each reply releases a
/// credit when a closed-loop sender is listening.
fn receive(
    mut stream: TcpStream,
    expected: &AtomicUsize,
    received: &AtomicUsize,
    credit: Option<mpsc::Sender<()>>,
) -> Vec<(Instant, Frame)> {
    let mut out = Vec::new();
    while received.load(Ordering::SeqCst) < expected.load(Ordering::SeqCst) {
        let Ok(Some(frame)) = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES) else {
            break;
        };
        out.push((Instant::now(), frame));
        received.fetch_add(1, Ordering::SeqCst);
        if let Some(credit) = &credit {
            let _ = credit.send(());
        }
    }
    out
}

/// Matches reply frames to requests by correlation id.
fn attach_replies(requests: &mut [OneShot], corr_base: u64, replies: Vec<(Instant, Frame)>) {
    for (at, frame) in replies {
        let corr = match &frame {
            Frame::Response { corr, .. } | Frame::Error { corr, .. } => *corr,
            _ => continue,
        };
        let Some(i) = corr.checked_sub(corr_base).map(|i| i as usize) else { continue };
        if let Some(req) = requests.get_mut(i) {
            req.reply.get_or_insert((at, frame));
        }
    }
}

fn connect(addr: &str) -> io::Result<(NetClient, TcpStream)> {
    let client = NetClient::connect(addr)?;
    let rx = client.stream().try_clone()?;
    rx.set_read_timeout(Some(STALL))?;
    Ok((client, rx))
}

/// Runs the open-loop phase: every arrival of `plan` is sent at its due
/// time on one connection, whatever the server's state.
///
/// # Errors
///
/// Fails only if the connection cannot be opened; a transport failure
/// mid-phase is recorded in [`OneShotPhase::error`].
pub fn run_open(addr: &str, plan: &OpenPlan, corr_base: u64) -> io::Result<OneShotPhase> {
    let (mut client, rx_stream) = connect(addr)?;
    let expected = AtomicUsize::new(plan.arrivals.len());
    let received = AtomicUsize::new(0);
    let start = Instant::now() + LEAD;
    let (mut requests, replies, error) = thread::scope(|s| {
        let rx = s.spawn(|| receive(rx_stream, &expected, &received, None));
        let mut requests = Vec::with_capacity(plan.arrivals.len());
        let mut error = None;
        for (i, (offset, tokens)) in plan.arrivals.iter().enumerate() {
            let due = start + *offset;
            sleep_until(due);
            let send_start = Instant::now();
            let backlog = i - received.load(Ordering::SeqCst);
            if let Err(e) = client.send(corr_base + i as u64, MODEL, tokens) {
                error = Some(format!("open-loop send {i}: {e}"));
                let _ = client.stream().shutdown(Shutdown::Both);
                break;
            }
            let send_end = Instant::now();
            requests.push(OneShot {
                corr: corr_base + i as u64,
                tokens: tokens.clone(),
                due,
                send_start,
                send_end,
                backlog,
                reply: None,
            });
        }
        (requests, rx.join().expect("receiver thread panicked"), error)
    });
    attach_replies(&mut requests, corr_base, replies);
    let attempted = plan.arrivals.len();
    Ok(OneShotPhase { start, end: start + plan.duration, requests, attempted, error })
}

/// Runs the closed-loop phase for `duration`: `WINDOW` one-shots stay
/// outstanding on one connection; each reply releases the next request.
///
/// # Errors
///
/// Fails only if the connection cannot be opened.
pub fn run_closed(
    addr: &str,
    rng: &mut Rng,
    vocab: usize,
    duration: Duration,
    corr_base: u64,
) -> io::Result<OneShotPhase> {
    let (mut client, rx_stream) = connect(addr)?;
    let expected = AtomicUsize::new(usize::MAX);
    let received = AtomicUsize::new(0);
    let (credit_tx, credit_rx) = mpsc::channel();
    let start = Instant::now();
    let end = start + duration;
    let (mut requests, replies, error) = thread::scope(|s| {
        let rx = s.spawn(|| receive(rx_stream, &expected, &received, Some(credit_tx)));
        let mut requests: Vec<OneShot> = Vec::new();
        let mut send = |requests: &mut Vec<OneShot>| -> Result<(), String> {
            let tokens = oneshot_tokens(rng, vocab);
            let i = requests.len();
            let send_start = Instant::now();
            let backlog = i - received.load(Ordering::SeqCst);
            client.send(corr_base + i as u64, MODEL, &tokens).map_err(|e| {
                let _ = client.stream().shutdown(Shutdown::Both);
                format!("closed-loop send {i}: {e}")
            })?;
            requests.push(OneShot {
                corr: corr_base + i as u64,
                tokens,
                due: send_start,
                send_start,
                send_end: Instant::now(),
                backlog,
                reply: None,
            });
            Ok(())
        };
        let mut error = (0..WINDOW).try_for_each(|_| send(&mut requests)).err();
        while error.is_none() && credit_rx.recv().is_ok() {
            if Instant::now() >= end {
                // Publish the total before the last send, so the receiver
                // knows when to stop however the replies interleave.
                expected.store(requests.len() + 1, Ordering::SeqCst);
                error = send(&mut requests).err();
                break;
            }
            error = send(&mut requests).err();
        }
        if error.is_some() {
            expected.store(requests.len(), Ordering::SeqCst);
        }
        (requests, rx.join().expect("receiver thread panicked"), error)
    });
    attach_replies(&mut requests, corr_base, replies);
    let attempted = requests.len() + usize::from(error.is_some());
    Ok(OneShotPhase { start, end, requests, attempted, error })
}

/// Runs the chat phase for `duration`: `CHAT_CONNS` connections, each a
/// closed loop of one generation at a time. A turn still streaming when
/// the window closes runs to completion.
pub fn run_chat(
    addr: &str,
    seed: u64,
    seed_stream: u64,
    vocab: usize,
    duration: Duration,
    corr_base: u64,
) -> ChatPhase {
    let start = Instant::now();
    let end = start + duration;
    let per_conn: Vec<(Vec<Generation>, Option<String>)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CHAT_CONNS)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed, seed_stream + 100 * c as u64);
                    let base = corr_base + 100_000 * c as u64;
                    chat_connection(addr, &mut rng, vocab, end, base)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("chat thread panicked")).collect()
    });
    let mut generations = Vec::new();
    let mut errors = Vec::new();
    for (g, error) in per_conn {
        generations.extend(g);
        errors.extend(error);
    }
    ChatPhase { start, end, generations, errors }
}

/// One chat connection's turns, and the failure that ended it early.
fn chat_connection(
    addr: &str,
    rng: &mut Rng,
    vocab: usize,
    end: Instant,
    corr_base: u64,
) -> (Vec<Generation>, Option<String>) {
    let mut out = Vec::new();
    let error = chat_turns(addr, rng, vocab, end, corr_base, &mut out).err();
    (out, error)
}

fn chat_turns(
    addr: &str,
    rng: &mut Rng,
    vocab: usize,
    end: Instant,
    corr_base: u64,
    out: &mut Vec<Generation>,
) -> Result<(), String> {
    let (mut client, _) = connect(addr).map_err(|e| format!("chat connect: {e}"))?;
    while Instant::now() < end {
        let corr = corr_base + out.len() as u64;
        let prompt = prompt_tokens(rng, vocab);
        let send_start = Instant::now();
        client
            .send_generate(corr, MODEL, &prompt, MAX_NEW, None)
            .map_err(|e| format!("chat send {corr}: {e}"))?;
        let mut g = Generation {
            corr,
            prompt,
            send_start,
            send_end: Instant::now(),
            tokens: Vec::with_capacity(MAX_NEW),
            token_at: Vec::with_capacity(MAX_NEW),
            summary: None,
            rejected: false,
        };
        let mut stream = client.stream();
        loop {
            let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES);
            let at = Instant::now();
            match frame {
                Ok(Some(Frame::Generated { corr: got, index, token, summary })) if got == corr => {
                    if index as usize != g.tokens.len() {
                        return Err(format!("chat {corr}: token index {index} out of order"));
                    }
                    match summary {
                        None => {
                            g.tokens.push(token as usize);
                            g.token_at.push(at);
                        }
                        Some(summary) => {
                            g.summary = Some((at, summary));
                            break;
                        }
                    }
                }
                Ok(Some(Frame::Error { .. })) => {
                    g.rejected = true;
                    break;
                }
                other => return Err(format!("chat {corr}: unexpected read {other:?}")),
            }
        }
        out.push(g);
    }
    Ok(())
}
