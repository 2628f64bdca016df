//! The TCP serving front-end: two accept loops and one thread per
//! connection over one tier that takes models through [`Publish`].
//!
//! # Topology
//!
//! ```text
//!   serve port ──► accept loop ─┬─► connection thread 1 ─┐
//!   admin port ──► accept loop ─┼─► connection thread 2 ─┼─► Publish
//!                               └─► connection thread N ─┘
//! ```
//!
//! The serve port speaks only traffic opcodes; `PUBLISH` or
//! `ROLLING_PUBLISH` arriving there is answered with a typed `ADMIN_ONLY`
//! error and the connection is closed. The admin port accepts everything,
//! so an operator (or the retrain loop) pushes a freshly saved snapshot
//! into a live server with one frame: the connection's thread loads the
//! file from the server's own disk through the tier's [`Publish`] impl
//! ([`publish_from_path`] for `PUBLISH`, [`Publish::rolling_publish`] for
//! `ROLLING_PUBLISH`) and replies when it has landed.
//!
//! A connection's thread does the whole job for that connection: read a
//! frame, decode it, call the surface, encode and write the reply, into
//! read, write and batch buffers it owns and reuses. One thread per
//! connection is what makes replies come back in request order, and a
//! client that pipelines is paced by plain TCP backpressure: the thread
//! does not read frame `n + 1` until reply `n` is written.
//!
//! # Suggestions are rendered into the frame
//!
//! For `SUGGEST`, `TRACK_SUGGEST` and `SUGGEST_BATCH` the reply buffer
//! *is* the surface's [`SuggestSink`](sqp_serve::SuggestSink): the thread
//! writes the reply header, wraps the buffer in a [`ListWriter`] and hands
//! that to the surface's `try_*_into` form, so each suggestion's text is
//! copied once, from the model's interner into the bytes that go to the
//! socket. No `Vec<Suggestion>` exists on this path. Only the surface
//! writes to the sink, only whole answers (see `sqp_serve::SuggestSink`), and it
//! has returned before the frame is written.
//!
//! # Overload behavior
//!
//! The one typed overload bound is the engine's admission control:
//! traffic opcodes use the surface's `try_*` forms, and a typed
//! [`Overloaded`] becomes `R_OVERLOADED` with the
//! exhausted budget (always `> 0`) in the body: the reply buffer is
//! truncated back to where the reply began, so a shed reply carries
//! nothing of the answer it replaced. Engine calls in flight are bounded
//! by open connections; `EngineConfig::max_in_flight` is the knob that
//! caps them lower.
//!
//! # Failure isolation
//!
//! A panic inside a request handler unwinds that connection's thread
//! only: the client sees a disconnect, the panic is counted in
//! [`NetServerStats::handler_panics`], and every other connection (and
//! the accept loops) keeps serving.

use crate::frame::{read_frame, write_frame, FrameRead};
use crate::wire::{self, ListWriter, Request, RollSummary, WireStats};
use sqp_serve::{Overloaded, SuggestRequest};
use sqp_store::{publish_from_path, Publish, RollPolicy};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// Tuning for [`NetServer::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address for the public serve listener (`127.0.0.1:0` picks a free
    /// port; read it back with [`NetServer::serve_addr`]).
    pub addr: SocketAddr,
    /// Address for the admin listener.
    pub admin_addr: SocketAddr,
    /// Maximum accepted frame *body* length, both directions.
    pub max_frame_len: usize,
    /// Per-write socket timeout. A client that stops reading its replies
    /// eventually times a write out and is disconnected, so it can never
    /// pin its connection thread (or wedge shutdown's join)
    /// indefinitely. `None` disables the guard.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("static addr"),
            admin_addr: "127.0.0.1:0".parse().expect("static addr"),
            max_frame_len: wire::DEFAULT_MAX_FRAME,
            write_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// Snapshot of the server's own counters (engine counters are served by
/// the `STATS` opcode instead — see [`WireStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetServerStats {
    /// Connections accepted (both ports).
    pub(crate) accepted: u64,
    /// Complete frames read off sockets.
    pub frames_in: u64,
    /// Reply frames written.
    pub replies_out: u64,
    /// Always 0: the server has no request queue of its own to shed
    /// from. The field stays only because `benchmark/` reads it; it
    /// goes when that crate is next revised.
    pub queue_shed: u64,
    /// Requests shed by the engine's admission control.
    pub engine_shed: u64,
    /// Frames rejected with a typed protocol error.
    pub protocol_errors: u64,
    /// Admin publishes (plain or rolling) that fully succeeded.
    pub publishes_ok: u64,
    /// Admin publishes that failed or rolled with failures.
    pub publishes_failed: u64,
    /// Connection threads that unwound from a panic in a request
    /// handler. Each cost exactly one connection; anything but 0 is a
    /// bug in the surface being served.
    pub handler_panics: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    frames_in: AtomicU64,
    replies_out: AtomicU64,
    engine_shed: AtomicU64,
    protocol_errors: AtomicU64,
    publishes_ok: AtomicU64,
    publishes_failed: AtomicU64,
    handler_panics: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> NetServerStats {
        NetServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            replies_out: self.replies_out.load(Ordering::Relaxed),
            queue_shed: 0,
            engine_shed: self.engine_shed.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            publishes_ok: self.publishes_ok.load(Ordering::Relaxed),
            publishes_failed: self.publishes_failed.load(Ordering::Relaxed),
            handler_panics: self.handler_panics.load(Ordering::Relaxed),
        }
    }
}

struct Shared {
    surface: Arc<dyn Publish>,
    max_frame_len: usize,
    write_timeout: Option<Duration>,
    /// Open connections, so `shutdown()` can unblock a thread parked in
    /// `read`. A connection's thread removes its own entry on exit.
    conns: Mutex<HashMap<u64, Arc<TcpStream>>>,
    conn_handles: Mutex<Vec<thread::JoinHandle<()>>>,
    next_id: AtomicU64,
    /// Stop accepting; connection threads exit after the reply in hand.
    closing: AtomicBool,
    counters: Counters,
}

impl Shared {
    /// The map is only ever inserted into and removed from, so it is
    /// valid at every step and a poisoned lock is safe to recover.
    fn lock_conns(&self) -> MutexGuard<'_, HashMap<u64, Arc<TcpStream>>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running TCP front-end over a tier ([`Publish`]). Dropping the server
/// (or calling [`shutdown`](NetServer::shutdown)) stops accepting, lets
/// every connection finish the reply it is working on, and joins every
/// thread.
pub struct NetServer {
    shared: Arc<Shared>,
    serve_addr: SocketAddr,
    admin_addr: SocketAddr,
    accept_handles: Mutex<Vec<(SocketAddr, thread::JoinHandle<()>)>>,
    stopped: AtomicBool,
}

impl NetServer {
    /// Bind both listeners and spawn the accept loops.
    pub fn start<S: Publish + 'static>(surface: Arc<S>, cfg: ServerConfig) -> io::Result<Self> {
        let serve_listener = TcpListener::bind(cfg.addr)?;
        let admin_listener = TcpListener::bind(cfg.admin_addr)?;
        let serve_addr = serve_listener.local_addr()?;
        let admin_addr = admin_listener.local_addr()?;

        let shared = Arc::new(Shared {
            surface: surface as Arc<dyn Publish>,
            max_frame_len: cfg.max_frame_len,
            write_timeout: cfg.write_timeout,
            conns: Mutex::new(HashMap::new()),
            conn_handles: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            closing: AtomicBool::new(false),
            counters: Counters::default(),
        });

        let mut accept_handles = Vec::with_capacity(2);
        for (listener, addr, admin) in [
            (serve_listener, serve_addr, false),
            (admin_listener, admin_addr, true),
        ] {
            let shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!(
                    "sqp-net-accept{}",
                    if admin { "-admin" } else { "" }
                ))
                .spawn(move || accept_loop(&shared, listener, admin))?;
            accept_handles.push((addr, handle));
        }

        Ok(NetServer {
            shared,
            serve_addr,
            admin_addr,
            accept_handles: Mutex::new(accept_handles),
            stopped: AtomicBool::new(false),
        })
    }

    /// The bound public serve address.
    pub fn serve_addr(&self) -> SocketAddr {
        self.serve_addr
    }

    /// The bound admin address.
    pub fn admin_addr(&self) -> SocketAddr {
        self.admin_addr
    }

    /// Snapshot the server's own counters.
    pub fn stats(&self) -> NetServerStats {
        self.shared.counters.snapshot()
    }

    /// Connections currently open (their threads still running).
    pub fn active_connections(&self) -> usize {
        self.shared.lock_conns().len()
    }

    /// Stop accepting, let every connection finish the reply it is
    /// working on, and join all threads. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.closing.store(true, Ordering::Release);

        // Wake both accept loops: connect-and-drop is observed as one
        // accepted stream, after which the loop re-checks `closing`. Poke
        // until each accept thread has really exited — a single poke can
        // be swallowed if it races an in-progress accept of a client
        // connection that arrived just before shutdown.
        for (addr, h) in self
            .accept_handles
            .lock()
            .expect("accepts poisoned")
            .drain(..)
        {
            while !h.is_finished() {
                let _ = TcpStream::connect(addr);
                thread::sleep(Duration::from_millis(1));
            }
            let _ = h.join();
        }

        // No new connection can register now. Unblock every thread parked
        // in `read`; the write halves stay open, so a thread that is
        // mid-request still delivers its reply before it sees `closing`.
        for stream in self.shared.lock_conns().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let handles =
            std::mem::take(&mut *self.shared.conn_handles.lock().expect("handles poisoned"));
        for h in handles {
            // A handler panic was already counted by the thread's guard.
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener, admin: bool) {
    for stream in listener.incoming() {
        if shared.closing.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else {
            // Typically EMFILE, which lasts until some connection closes:
            // back off instead of spinning a core on the failing accept.
            thread::sleep(Duration::from_millis(5));
            continue;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(shared.write_timeout);
        Counters::bump(&shared.counters.accepted);

        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let stream = Arc::new(stream);
        shared.lock_conns().insert(id, Arc::clone(&stream));

        let shared2 = Arc::clone(shared);
        let spawned = thread::Builder::new()
            .name(format!("sqp-net-conn-{id}"))
            .spawn(move || serve_conn(&shared2, id, &stream, admin));
        match spawned {
            Ok(h) => {
                let mut handles = shared.conn_handles.lock().expect("handles poisoned");
                handles.retain(|h| !h.is_finished());
                handles.push(h);
            }
            // Could not spawn a thread: drop the connection (the failed
            // spawn already dropped the closure's handle on the socket).
            Err(_) => {
                shared.lock_conns().remove(&id);
            }
        }
    }
}

/// Unregisters a connection when its thread exits, normally or by
/// unwinding, and counts the unwinding case.
struct ConnGuard<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            Counters::bump(&self.shared.counters.handler_panics);
        }
        self.shared.lock_conns().remove(&self.id);
    }
}

/// One connection's whole life: frames in, replies out, in order.
fn serve_conn(shared: &Shared, id: u64, stream: &TcpStream, admin: bool) {
    let _guard = ConnGuard { shared, id };
    let mut io = stream;
    // Per-connection scratch, reused across every frame.
    let mut rbuf: Vec<u8> = Vec::new();
    let mut wbuf: Vec<u8> = Vec::new();
    let mut batch: Vec<SuggestRequest> = Vec::new();

    // `closing` is only looked at between frames, so every frame that was
    // fully read is answered (`frames_in == replies_out` at shutdown).
    while !shared.closing.load(Ordering::Acquire) {
        match read_frame(&mut io, &mut rbuf, shared.max_frame_len) {
            Ok(FrameRead::Frame) => {
                Counters::bump(&shared.counters.frames_in);
                let keep_open = match wire::decode_request(&rbuf) {
                    Ok(req) if req.is_admin() && !admin => {
                        wire::encode_error(
                            &mut wbuf,
                            wire::code::ADMIN_ONLY,
                            "admin opcodes are only served on the admin port",
                        );
                        false
                    }
                    Ok(req) => {
                        execute(shared, req, &mut wbuf, &mut batch);
                        true
                    }
                    Err(err) => {
                        wire::encode_error(&mut wbuf, err.code(), &err.to_string());
                        false
                    }
                };
                if !keep_open {
                    // Both refusals leave the stream untrustworthy.
                    Counters::bump(&shared.counters.protocol_errors);
                }
                if !(write_reply(shared, stream, &mut wbuf) && keep_open) {
                    break;
                }
            }
            Ok(FrameRead::CleanEof) => break,
            Ok(FrameRead::Reject(err)) => {
                // The stream is desynchronized past this prefix: answer
                // with the typed error and stop parsing frames.
                Counters::bump(&shared.counters.protocol_errors);
                wire::encode_error(&mut wbuf, err.code(), &err.to_string());
                write_reply(shared, stream, &mut wbuf);
                break;
            }
            // Torn frame, reset, or shutdown's `Shutdown::Read`.
            Err(_) => break,
        }
    }

    // FIN the write half, then leave the receive queue empty before the
    // socket drops: a close with unread inbound bytes becomes a TCP RST,
    // and an RST can wipe out replies (including a just-written typed
    // error) that the client has not read yet.
    let _ = stream.shutdown(Shutdown::Write);
    drain_until_eof(stream);
}

/// Discard inbound bytes until EOF or a short deadline, so the socket
/// can close with an empty receive queue (FIN, not RST). Bounded: EOF,
/// an error, or a 200ms read timeout ends it.
fn drain_until_eof(mut stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut scrap = [0u8; 4096];
    for _ in 0..256 {
        match stream.read(&mut scrap) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Frame and write the reply in `wbuf`, leaving it empty for the next
/// one. Returns false when the write failed and the connection must
/// close.
fn write_reply(shared: &Shared, mut stream: &TcpStream, wbuf: &mut Vec<u8>) -> bool {
    // Counted before the bytes can reach the client, so whoever has read
    // reply `n` never observes `replies_out < n` (the soaks and the
    // benchmark compare it with `frames_in` the moment their last reply
    // arrives). A failed write takes the count back.
    Counters::bump(&shared.counters.replies_out);
    let mut written = write_frame(&mut stream, wbuf, shared.max_frame_len);
    if matches!(&written, Err(e) if e.kind() == io::ErrorKind::InvalidInput) {
        // The assembled reply exceeded the frame limit (e.g. a huge
        // batch): substitute a typed, guaranteed-small error. Framing is
        // intact, so the connection survives.
        wbuf.clear();
        wire::encode_error(
            wbuf,
            wire::code::LIMIT_EXCEEDED,
            "reply exceeds the frame size limit",
        );
        written = write_frame(&mut stream, wbuf, shared.max_frame_len);
    }
    wbuf.clear();
    if written.is_err() {
        shared.counters.replies_out.fetch_sub(1, Ordering::Relaxed);
    }
    written.is_ok()
}

/// Close a suggest-family reply that began at `start` in `wbuf`. The
/// surface was handed the reply frame itself as its sink; on a shed the
/// frame is rewound to where the reply began (dropping the header, and
/// anything a surface wrote before refusing) and the typed `R_OVERLOADED`
/// takes its place, so no stale byte can ride along with it.
fn shed_if_overloaded(
    shared: &Shared,
    wbuf: &mut Vec<u8>,
    start: usize,
    answered: Result<(), Overloaded>,
) {
    if let Err(overloaded) = answered {
        Counters::bump(&shared.counters.engine_shed);
        wbuf.truncate(start);
        wire::encode_overloaded(wbuf, overloaded.limit as u64);
    }
}

/// Decode-independent request execution: surface calls plus reply
/// encoding. The reply body is appended to `wbuf`. The three
/// suggest opcodes hand the surface a [`ListWriter`] over `wbuf`, so the
/// answer is rendered from the model's interner straight into the frame.
fn execute(shared: &Shared, req: Request<'_>, wbuf: &mut Vec<u8>, batch: &mut Vec<SuggestRequest>) {
    let surface = &*shared.surface;
    let start = wbuf.len();
    match req {
        Request::Track { user, now, query } => {
            let outcome = surface.track(user, query, now);
            wire::encode_ack(wbuf, outcome.new_session, outcome.context_len);
        }
        Request::Suggest { user, now, k } => {
            let mut frame = ListWriter::suggestions(wbuf);
            let answered = surface.try_suggest_into(user, k, now, &mut frame);
            shed_if_overloaded(shared, wbuf, start, answered);
        }
        Request::TrackSuggest {
            user,
            now,
            k,
            query,
        } => {
            let mut frame = ListWriter::suggestions(wbuf);
            let answered = surface.try_track_and_suggest_into(user, query, k, now, &mut frame);
            shed_if_overloaded(shared, wbuf, start, answered);
        }
        Request::SuggestBatch { now, entries } => {
            batch.clear();
            batch.extend(entries.iter().map(|e| SuggestRequest {
                user: e.user,
                k: e.k,
            }));
            let mut frame = ListWriter::batch(wbuf, batch.len());
            let answered = surface.try_suggest_batch_into(batch, now, &mut frame);
            shed_if_overloaded(shared, wbuf, start, answered);
        }
        Request::Stats => wire::encode_stats_reply(wbuf, &WireStats::from(surface.stats())),
        Request::Ping => wire::encode_pong(wbuf),
        Request::Evict { now } => {
            let count = surface.evict_idle(now) as u64;
            wire::encode_evicted(wbuf, count);
        }
        Request::Publish { path } => match publish_from_path(surface, path) {
            Ok(published) => {
                Counters::bump(&shared.counters.publishes_ok);
                wire::encode_published(wbuf, published.engine_generation);
            }
            Err(error) => {
                Counters::bump(&shared.counters.publishes_failed);
                wire::encode_error(wbuf, wire::code::PUBLISH_FAILED, &error.to_string());
            }
        },
        Request::RollingPublish {
            abort_on_failure,
            path,
        } => {
            let policy = if abort_on_failure {
                RollPolicy::AbortOnFailure
            } else {
                RollPolicy::ContinueOnFailure
            };
            let report = surface.rolling_publish(Path::new(path), policy);
            let summary = RollSummary {
                aborted: report.aborted,
                upgraded: report.upgraded.len() as u64,
                failed: report.failed.len() as u64,
                skipped: report.skipped.len() as u64,
            };
            if summary.failed == 0 && !summary.aborted {
                Counters::bump(&shared.counters.publishes_ok);
            } else {
                Counters::bump(&shared.counters.publishes_failed);
            }
            wire::encode_rolled(wbuf, &summary);
        }
    }
}
