//! The TCP serving frontend: a listener + per-connection reader/writer
//! threads translating [wire](crate::wire) frames into engine
//! submissions.
//!
//! ```text
//!  client ──TCP──▶ acceptor thread ──▶ connection thread (reader)
//!                                           │ read_frame → name lookup
//!                                           │ → submit_to /
//!                                           │   submit_generate_to
//!                                           ▼
//!                                      writer thread: wait Tickets,
//!                                      write response/error frames,
//!                                      stream Generated tokens
//! ```
//!
//! Everything is plain `std::net` blocking I/O on scoped threads — no
//! async runtime, consistent with the engine's `std::thread::scope`
//! design. Backpressure propagates naturally: a connection whose
//! requests hit the model's admission quota gets typed error frames,
//! while shared-capacity backpressure blocks that connection's reader
//! (and therefore, via TCP flow control, the client).
//!
//! Shutdown is graceful and structural, mirroring the engine's
//! close-then-drain: when the driver closure returns, the listener stops
//! accepting, open connections are read-shutdown (unblocking parked
//! readers), every in-flight request drains through the still-running
//! workers, the writer threads flush the responses, and only then does
//! the engine close. No accepted request is ever dropped.

use crate::engine::{GenTicket, GenUpdate, ServeConfig, ServeHandle, Ticket};
use crate::metrics::ServeReport;
use crate::registry::{ModelId, ModelRegistry};
use crate::serve_registry;
use crate::wire::{
    read_frame, write_frame, Frame, GenSummary, ReadFrameError, WireError, WireErrorCode,
    CORR_CONNECTION, DEFAULT_MAX_FRAME_BYTES,
};
use std::collections::HashMap;
use std::io::{self, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Frontend sizing: where to listen and how defensive to be.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Listen address; port 0 picks a free port (read the bound address
    /// back from [`NetHandle::addr`]).
    pub addr: String,
    /// Largest frame either direction may carry; an oversized length
    /// prefix is rejected before allocation.
    pub max_frame_bytes: usize,
    /// Per-connection write timeout (`None` = block indefinitely). A
    /// client that stops reading its responses eventually errors its
    /// writer instead of wedging shutdown.
    pub write_timeout: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// The driver's view of a running network frontend.
pub struct NetHandle<'a, 'e> {
    addr: SocketAddr,
    engine: &'a ServeHandle<'e>,
    accepted: &'a AtomicU64,
    conns: &'a Mutex<HashMap<u64, TcpStream>>,
}

impl<'e> NetHandle<'_, 'e> {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The in-process engine handle — local submissions and live metrics
    /// work alongside socket traffic.
    pub fn engine(&self) -> &ServeHandle<'e> {
        self.engine
    }

    /// Connections accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections still open: the sockets the server holds for them.
    /// A connection's socket is released as soon as it ends.
    pub fn open_connections(&self) -> usize {
        self.conns.lock().expect("conn list poisoned").len()
    }
}

/// What one request's journey through a connection produced: either a
/// claim on a future engine response or an immediate typed rejection.
/// The writer thread serializes these in submission order per
/// connection.
enum Outcome {
    Pending(u64, Ticket),
    /// A generation's token stream: the writer drains the ticket into
    /// one `Generated` frame per token plus the closing summary frame.
    /// Replies queued behind a streaming generation wait for it — a
    /// connection's responses are strictly ordered.
    PendingGen(u64, GenTicket),
    Reject(u64, WireErrorCode, String),
}

/// Runs the multi-model engine with a TCP frontend for the lifetime of
/// the driver closure `f`.
///
/// Clients address models by their registered *name* (resolved to
/// [`ModelId`]s at the boundary, so wire traffic can never alias across
/// registries). When `f` returns, the frontend shuts down gracefully:
/// listener closed, open connections read-shutdown, accepted requests
/// drained and their responses flushed, then the engine itself drains.
///
/// # Errors
///
/// Returns the bind/listen failure. Per-connection I/O errors never
/// fail the server; they end that connection.
///
/// # Example
///
/// ```
/// use mokey_serve::{serve_net, ModelRegistry, NetClient, NetConfig, ServeConfig, ServerReply};
/// use mokey_transformer::{Head, Model, ModelConfig, QuantizeSpec};
///
/// let config = ModelConfig::bert_base().scaled(16, 16);
/// let model = Model::synthesize(&config, Head::Classification { classes: 3 }, 1);
/// let profile: Vec<Vec<usize>> = (0..2).map(|s| model.random_tokens(12, s)).collect();
/// let mut registry = ModelRegistry::new();
/// registry
///     .register("classify", model, QuantizeSpec::weights_and_activations(), &profile)
///     .unwrap();
/// let tokens = registry.iter().next().unwrap().2.model().random_tokens(12, 9);
/// let (reply, report) = serve_net(
///     &registry,
///     ServeConfig::default(),
///     NetConfig::default(),
///     |net| {
///         let mut client = NetClient::connect(&net.addr().to_string()).unwrap();
///         client.call(1, "classify", &tokens).unwrap()
///     },
/// )
/// .unwrap();
/// assert!(matches!(reply, ServerReply::Response { .. }));
/// assert_eq!(report.aggregate.completed, 1);
/// ```
pub fn serve_net<R, F>(
    registry: &ModelRegistry,
    config: ServeConfig,
    net: NetConfig,
    f: F,
) -> io::Result<(R, ServeReport)>
where
    F: FnOnce(&NetHandle<'_, '_>) -> R,
{
    let listener = TcpListener::bind(&net.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let names: HashMap<String, ModelId> =
        registry.iter().map(|(id, name, _)| (name.to_owned(), id)).collect();
    let shutdown = AtomicBool::new(false);
    let accepted = AtomicU64::new(0);

    Ok(serve_registry(registry, config, |handle| {
        // Clones of every open connection's socket, keyed by accept
        // order, so shutdown can unblock readers parked in `read` via
        // `Shutdown::Read`. A connection removes its own entry when it
        // ends, so the server holds no socket for a closed one.
        let conns: Mutex<HashMap<u64, TcpStream>> = Mutex::new(HashMap::new());
        std::thread::scope(|scope| {
            let acceptor = scope.spawn(|| {
                while !shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let _ = stream.set_nodelay(true);
                            let _ = stream.set_write_timeout(net.write_timeout);
                            let id = accepted.fetch_add(1, Ordering::Relaxed);
                            if let Ok(clone) = stream.try_clone() {
                                conns.lock().expect("conn list poisoned").insert(id, clone);
                            }
                            let (names, conns) = (&names, &conns);
                            let max = net.max_frame_bytes;
                            scope.spawn(move || {
                                serve_connection(stream, handle, names, max);
                                conns.lock().expect("conn list poisoned").remove(&id);
                            });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            });

            // Graceful drain: stop accepting first (joining the acceptor
            // closes the race where a just-accepted socket misses the
            // shutdown), then unblock every parked reader. Connection
            // threads finish their in-flight requests and flush before
            // the scope joins them; only after that does the engine's
            // own close-then-drain run. The sequence lives in a drop
            // guard so a panicking driver closure still runs it — the
            // scope would otherwise wait forever on the polling
            // acceptor.
            struct DrainOnDrop<'s, 'a> {
                shutdown: &'a AtomicBool,
                conns: &'a Mutex<HashMap<u64, TcpStream>>,
                acceptor: Option<std::thread::ScopedJoinHandle<'s, ()>>,
            }
            impl Drop for DrainOnDrop<'_, '_> {
                fn drop(&mut self) {
                    self.shutdown.store(true, Ordering::SeqCst);
                    if let Some(acceptor) = self.acceptor.take() {
                        let _ = acceptor.join();
                    }
                    if let Ok(mut conns) = self.conns.lock() {
                        for (_, conn) in conns.drain() {
                            let _ = conn.shutdown(Shutdown::Read);
                        }
                    }
                }
            }
            let _drain =
                DrainOnDrop { shutdown: &shutdown, conns: &conns, acceptor: Some(acceptor) };
            f(&NetHandle { addr, engine: handle, accepted: &accepted, conns: &conns })
        })
    }))
}

/// One connection's lifetime: this thread reads and routes frames, a
/// sibling writer thread waits tickets and writes replies, so a slow
/// model never stops the connection from accepting pipelined requests.
fn serve_connection(
    mut stream: TcpStream,
    engine: &ServeHandle<'_>,
    names: &HashMap<String, ModelId>,
    max_frame_bytes: usize,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<Outcome>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut w = BufWriter::new(write_half);
            let mut client_gone = false;
            let emit = |w: &mut BufWriter<TcpStream>, gone: &mut bool, frame: &Frame| {
                if !*gone && write_frame(w, frame, max_frame_bytes).is_err() {
                    *gone = true;
                }
            };
            while let Ok(outcome) = rx.recv() {
                // A vanished client stops the writing but never the
                // waiting: every accepted ticket is still claimed (and
                // every generation stream drained), so the engine's
                // drain accounting stays exact.
                match outcome {
                    Outcome::Pending(corr, ticket) => {
                        let frame = Frame::from_response(corr, ticket.wait());
                        emit(&mut w, &mut client_gone, &frame);
                    }
                    Outcome::PendingGen(corr, ticket) => loop {
                        match ticket.next() {
                            GenUpdate::Token { index, token } => {
                                let frame = Frame::Generated {
                                    corr,
                                    index: index as u32,
                                    token: token as u32,
                                    summary: None,
                                };
                                emit(&mut w, &mut client_gone, &frame);
                            }
                            GenUpdate::Done(response) => {
                                let frame = Frame::Generated {
                                    corr,
                                    index: response.tokens.len() as u32,
                                    token: 0,
                                    summary: Some(GenSummary::from_response(&response)),
                                };
                                emit(&mut w, &mut client_gone, &frame);
                                break;
                            }
                        }
                    },
                    Outcome::Reject(corr, code, message) => {
                        let frame = Frame::Error { corr, code, message };
                        emit(&mut w, &mut client_gone, &frame);
                    }
                }
            }
        });

        loop {
            match read_frame(&mut stream, max_frame_bytes) {
                Ok(Some(Frame::Request { corr, model, tokens })) => {
                    let outcome = match names.get(&model) {
                        Some(&id) => match engine.submit_to(id, tokens) {
                            Ok(ticket) => Outcome::Pending(corr, ticket),
                            Err(err) => Outcome::Reject(
                                corr,
                                WireErrorCode::from_submit_error(&err),
                                err.to_string(),
                            ),
                        },
                        None => Outcome::Reject(
                            corr,
                            WireErrorCode::UnknownModel,
                            format!("no model registered as {model:?}"),
                        ),
                    };
                    if tx.send(outcome).is_err() {
                        break;
                    }
                }
                Ok(Some(Frame::Generate { corr, model, prompt, max_tokens, eos })) => {
                    let outcome = match names.get(&model) {
                        Some(&id) => match engine.submit_generate_to(
                            id,
                            prompt,
                            max_tokens as usize,
                            eos.map(|t| t as usize),
                        ) {
                            Ok(ticket) => Outcome::PendingGen(corr, ticket),
                            Err(err) => Outcome::Reject(
                                corr,
                                WireErrorCode::from_submit_error(&err),
                                err.to_string(),
                            ),
                        },
                        None => Outcome::Reject(
                            corr,
                            WireErrorCode::UnknownModel,
                            format!("no model registered as {model:?}"),
                        ),
                    };
                    if tx.send(outcome).is_err() {
                        break;
                    }
                }
                Ok(Some(_)) => {
                    // Response/error/generated frames only flow server →
                    // client.
                    let _ = tx.send(Outcome::Reject(
                        CORR_CONNECTION,
                        WireErrorCode::MalformedFrame,
                        "clients may only send request frames".into(),
                    ));
                    break;
                }
                Ok(None) => break, // clean hangup at a frame boundary
                Err(ReadFrameError::Wire(WireError::UnsupportedTag { tag })) => {
                    // A well-framed payload with a tag we don't serve:
                    // answer with the dedicated kind error, not a
                    // generic malformed complaint, so newer clients can
                    // tell "old server" from "corrupt stream".
                    let _ = tx.send(Outcome::Reject(
                        CORR_CONNECTION,
                        WireErrorCode::UnsupportedKind,
                        format!("unsupported frame tag 0x{tag:02x}"),
                    ));
                    break;
                }
                Err(ReadFrameError::Wire(WireError::FrameTooLarge { declared, max })) => {
                    let _ = tx.send(Outcome::Reject(
                        CORR_CONNECTION,
                        WireErrorCode::FrameTooLarge,
                        format!("frame of {declared} bytes exceeds the {max}-byte maximum"),
                    ));
                    break;
                }
                Err(ReadFrameError::Wire(e)) => {
                    let _ = tx.send(Outcome::Reject(
                        CORR_CONNECTION,
                        WireErrorCode::MalformedFrame,
                        e.to_string(),
                    ));
                    break;
                }
                Err(ReadFrameError::Io(_)) => break,
            }
        }
        // Dropping the sender lets the writer drain its backlog and
        // exit; the scope joins it, so the connection never outlives its
        // in-flight responses.
        drop(tx);
    });
    // The shutdown list still holds a clone of this socket until the
    // caller removes it, so dropping our handles alone would not send FIN
    // yet; shut the socket down explicitly (after the writer flushed) so
    // the peer sees a clean EOF.
    let _ = stream.shutdown(Shutdown::Both);
}
