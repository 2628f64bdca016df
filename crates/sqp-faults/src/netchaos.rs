//! [`ChaosProxy`]: a hermetic fault-injecting TCP forwarder.
//!
//! The disk seams ([`FaultyFs`](crate::FaultyFs)) make storage chaos
//! deterministic; this module does the same for the *network* between a
//! client and a server (`sqp-net`'s `NetServer`, or anything else TCP) —
//! without touching either side's code. A `ChaosProxy` listens on a loopback port, forwards bytes to a
//! real upstream, and injects the failure modes a remote serving client
//! must survive, scripted by the same seeded [`FaultPlan`](crate::FaultPlan):
//!
//! * **refuse-accept** (`refuse_accept_on` ordinals) — the connection is
//!   accepted and instantly closed, the closest a bound listener gets to a
//!   dead endpoint: the client sees an immediate EOF/reset instead of
//!   service.
//! * **black-hole** (`blackhole_conn_on` ordinals, or
//!   [`set_blackhole`](ChaosProxy::set_blackhole)) — bytes are swallowed
//!   and nothing is ever forwarded or answered; the connection stays open
//!   so only the client's own deadline gets it out.
//! * **close-mid-frame** (`cut_frame_c2s_on`) — the scheduled
//!   client→server frame is forwarded up to the middle of its body, then
//!   both sides are killed: the server sees a torn frame, the client a
//!   dead connection.
//! * **byte-truncate** (`truncate_frame_s2c_on`) — the scheduled
//!   server→client reply is forwarded missing its final byte, then both
//!   sides are killed: the client's decoder sees an EOF inside a frame.
//! * **delay** — every forwarded frame strikes the hazard sites
//!   `net.proxy.c2s` / `net.proxy.s2c`, so plans with a `"net."` delay
//!   prefix inject seeded probabilistic stalls.
//!
//! The forwarders are frame-aware (they parse the wire protocol's `u32`
//! little-endian length prefix) so "mid-frame" is exact, but they degrade
//! to transparent byte forwarding if the stream stops looking like
//! frames — the proxy never deadlocks an unknown protocol. Half-closes
//! propagate (client `shutdown(Write)` reaches the upstream as EOF), so
//! the server's FIN-not-RST close discipline survives proxying.

use crate::chaos::Chaos;
use sqp_common::hazard::Hazard;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Poll interval for forwarder reads: how fast runtime flag flips
/// (black-hole, shutdown) take effect on an otherwise idle connection.
const POLL: Duration = Duration::from_millis(25);

/// Streams that stop parsing as length-prefixed frames (a prefix of 0 or
/// beyond this) are forwarded transparently instead.
const MAX_PLAUSIBLE_FRAME: usize = 64 << 20;

/// Counters of one proxy's life, snapshotted by [`ChaosProxy::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Connections accepted (including refused and black-holed ones).
    pub accepted: u64,
    /// Connections dropped immediately after accept.
    pub refused: u64,
    /// Connections black-holed from the start.
    pub blackholed: u64,
    /// Complete client→server frames forwarded or killed.
    pub frames_c2s: u64,
    /// Complete server→client frames forwarded or killed.
    pub frames_s2c: u64,
    /// Frames killed mid-body (client→server cuts).
    pub cut_frames: u64,
    /// Frames forwarded missing their last byte (server→client).
    pub truncated_frames: u64,
}

#[derive(Clone, Copy)]
enum Dir {
    C2s,
    S2c,
}

struct ProxyInner {
    chaos: Arc<Chaos>,
    upstream: SocketAddr,
    closing: AtomicBool,
    blackhole: AtomicBool,
    conn_seq: AtomicU64,
    frames_c2s: AtomicU64,
    frames_s2c: AtomicU64,
    refused: AtomicU64,
    blackholed: AtomicU64,
    cut_frames: AtomicU64,
    truncated_frames: AtomicU64,
    conns: Mutex<Vec<ConnHandle>>,
}

struct ConnHandle {
    kill: Arc<ConnKill>,
    threads: Vec<JoinHandle<()>>,
}

/// Both sides of one proxied connection, shared by its forwarder threads
/// so either can kill the whole connection on a scheduled fault.
struct ConnKill {
    client: TcpStream,
    upstream: Option<TcpStream>,
}

impl ConnKill {
    fn kill(&self) {
        let _ = self.client.shutdown(Shutdown::Both);
        if let Some(up) = &self.upstream {
            let _ = up.shutdown(Shutdown::Both);
        }
    }
}

impl ProxyInner {
    fn lock_conns(&self) -> MutexGuard<'_, Vec<ConnHandle>> {
        // The registry only holds handles; recover from poisoning.
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn frames(&self, dir: Dir) -> &AtomicU64 {
        match dir {
            Dir::C2s => &self.frames_c2s,
            Dir::S2c => &self.frames_s2c,
        }
    }

    fn site(dir: Dir) -> &'static str {
        match dir {
            Dir::C2s => "net.proxy.c2s",
            Dir::S2c => "net.proxy.s2c",
        }
    }

    /// The scheduled fate of frame `ordinal` in direction `dir`.
    fn frame_fault(&self, dir: Dir, ordinal: u64) -> FrameFault {
        let plan = self.chaos.plan();
        match dir {
            Dir::C2s if plan.cut_frame_c2s_on.contains(&ordinal) => FrameFault::Cut,
            Dir::S2c if plan.truncate_frame_s2c_on.contains(&ordinal) => FrameFault::Truncate,
            _ => FrameFault::None,
        }
    }
}

#[derive(PartialEq)]
enum FrameFault {
    None,
    Cut,
    Truncate,
}

/// A loopback TCP forwarder that injects the [`FaultPlan`]'s network
/// faults between any client and one upstream address. See the
/// [module docs](self) for the fault menu.
///
/// [`FaultPlan`]: crate::FaultPlan
pub struct ChaosProxy {
    listen_addr: SocketAddr,
    inner: Arc<ProxyInner>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Start a proxy on an ephemeral loopback port forwarding to
    /// `upstream`, injecting `chaos`'s plan.
    pub fn start(upstream: SocketAddr, chaos: Arc<Chaos>) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let listen_addr = listener.local_addr()?;
        let inner = Arc::new(ProxyInner {
            chaos,
            upstream,
            closing: AtomicBool::new(false),
            blackhole: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            frames_c2s: AtomicU64::new(0),
            frames_s2c: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            blackholed: AtomicU64::new(0),
            cut_frames: AtomicU64::new(0),
            truncated_frames: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::Builder::new()
            .name("chaos-proxy-accept".into())
            .spawn(move || accept_loop(listener, accept_inner))?;
        Ok(Self {
            listen_addr,
            inner,
            accept_thread: Some(accept_thread),
        })
    }

    /// Where clients connect (the proxy's own loopback listener).
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// The upstream this proxy forwards to.
    pub fn upstream(&self) -> SocketAddr {
        self.inner.upstream
    }

    /// Black-hole the proxy from now on: existing and new connections
    /// have their bytes swallowed (connections stay open; nothing is
    /// forwarded or answered). `false` restores forwarding for *new*
    /// frames on live connections and for new connections.
    pub fn set_blackhole(&self, on: bool) {
        self.inner.blackhole.store(on, Ordering::SeqCst);
    }

    /// Kill every live proxied connection (both sides) right now —
    /// the "endpoint process dies" event of a soak scenario.
    pub fn kill_connections(&self) {
        let mut conns = self.inner.lock_conns();
        for conn in conns.iter() {
            conn.kill.kill();
        }
        // Reap finished forwarders so a long soak's registry stays small.
        conns.retain_mut(|c| {
            c.threads.retain(|t| !t.is_finished());
            !c.threads.is_empty()
        });
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ProxyStats {
        ProxyStats {
            accepted: self.inner.conn_seq.load(Ordering::Relaxed),
            refused: self.inner.refused.load(Ordering::Relaxed),
            blackholed: self.inner.blackholed.load(Ordering::Relaxed),
            frames_c2s: self.inner.frames_c2s.load(Ordering::Relaxed),
            frames_s2c: self.inner.frames_s2c.load(Ordering::Relaxed),
            cut_frames: self.inner.cut_frames.load(Ordering::Relaxed),
            truncated_frames: self.inner.truncated_frames.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, kill every connection, and join all proxy threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.inner.closing.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect_timeout(&self.listen_addr, Duration::from_secs(1));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let conns = {
            let mut guard = self.inner.lock_conns();
            std::mem::take(&mut *guard)
        };
        for conn in &conns {
            conn.kill.kill();
        }
        for conn in conns {
            for t in conn.threads {
                let _ = t.join();
            }
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if !self.inner.closing.load(Ordering::SeqCst) {
            self.stop();
        }
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<ProxyInner>) {
    loop {
        let Ok((client, _)) = listener.accept() else {
            return;
        };
        if inner.closing.load(Ordering::SeqCst) {
            return;
        }
        let ordinal = inner.conn_seq.fetch_add(1, Ordering::SeqCst) + 1;
        let plan = inner.chaos.plan();
        if plan.refuse_accept_on.contains(&ordinal) {
            inner.refused.fetch_add(1, Ordering::Relaxed);
            drop(client);
            continue;
        }
        let _ = client.set_nodelay(true);
        if inner.blackhole.load(Ordering::SeqCst) || plan.blackhole_conn_on.contains(&ordinal) {
            // No upstream at all: the client's bytes fall into the void.
            inner.blackholed.fetch_add(1, Ordering::Relaxed);
            spawn_conn(&inner, client, None);
            continue;
        }
        match TcpStream::connect_timeout(&inner.upstream, Duration::from_secs(1)) {
            Ok(upstream) => {
                let _ = upstream.set_nodelay(true);
                spawn_conn(&inner, client, Some(upstream));
            }
            Err(_) => drop(client), // upstream down: client sees EOF
        }
    }
}

fn spawn_conn(inner: &Arc<ProxyInner>, client: TcpStream, upstream: Option<TcpStream>) {
    let kill = Arc::new(ConnKill {
        client: match client.try_clone() {
            Ok(c) => c,
            Err(_) => return,
        },
        upstream: upstream.as_ref().and_then(|u| u.try_clone().ok()),
    });
    let mut threads = Vec::new();
    match upstream {
        None => {
            // Black-holed from birth: one swallower, no upstream.
            let inner = Arc::clone(inner);
            let kill2 = Arc::clone(&kill);
            if let Ok(t) = std::thread::Builder::new()
                .name("chaos-proxy-void".into())
                .spawn(move || swallow(client, &inner, &kill2))
            {
                threads.push(t);
            }
        }
        Some(upstream) => {
            let up2 = upstream.try_clone();
            let c2 = client.try_clone();
            let (Ok(up2), Ok(c2)) = (up2, c2) else {
                return;
            };
            for (src, dst, dir, name) in [
                (client, upstream, Dir::C2s, "chaos-proxy-c2s"),
                (up2, c2, Dir::S2c, "chaos-proxy-s2c"),
            ] {
                let inner = Arc::clone(inner);
                let kill2 = Arc::clone(&kill);
                if let Ok(t) = std::thread::Builder::new()
                    .name(name.into())
                    .spawn(move || forward(src, dst, dir, &inner, &kill2))
                {
                    threads.push(t);
                }
            }
        }
    }
    let mut conns = inner.lock_conns();
    conns.retain_mut(|c| {
        c.threads.retain(|t| !t.is_finished());
        !c.threads.is_empty()
    });
    conns.push(ConnHandle { kill, threads });
}

/// Read and discard everything from a black-holed client until it gives
/// up or the proxy closes.
fn swallow(mut client: TcpStream, inner: &ProxyInner, kill: &ConnKill) {
    let _ = client.set_read_timeout(Some(POLL));
    let mut buf = [0u8; 4096];
    loop {
        if inner.closing.load(Ordering::SeqCst) {
            kill.kill();
            return;
        }
        match client.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => return,
        }
    }
}

/// One direction of a proxied connection: parse frames off `src`, apply
/// the plan's per-frame faults, forward to `dst`.
fn forward(mut src: TcpStream, mut dst: TcpStream, dir: Dir, inner: &ProxyInner, kill: &ConnKill) {
    let _ = src.set_read_timeout(Some(POLL));
    let _ = dst.set_write_timeout(Some(Duration::from_secs(5)));
    let mut pending: Vec<u8> = Vec::new();
    let mut buf = [0u8; 16384];
    let mut raw_mode = false;
    loop {
        if inner.closing.load(Ordering::SeqCst) {
            kill.kill();
            return;
        }
        let n = match src.read(&mut buf) {
            Ok(0) => {
                // Half-close: propagate the FIN and let the opposite
                // direction keep draining queued replies.
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => {
                kill.kill();
                return;
            }
        };
        if inner.blackhole.load(Ordering::SeqCst) {
            // Swallow everything read while black-holed, including any
            // half-accumulated frame: the stream is desynchronized by
            // design and the connection only ends by deadline or kill.
            pending.clear();
            continue;
        }
        pending.extend_from_slice(&buf[..n]);
        if raw_mode {
            if dst.write_all(&pending).is_err() {
                kill.kill();
                return;
            }
            pending.clear();
            continue;
        }
        // Forward every complete frame in the pending buffer.
        loop {
            if pending.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
            if len == 0 || len > MAX_PLAUSIBLE_FRAME {
                // Not our framing: degrade to transparent forwarding.
                raw_mode = true;
                if dst.write_all(&pending).is_err() {
                    kill.kill();
                    return;
                }
                pending.clear();
                break;
            }
            if pending.len() < 4 + len {
                break;
            }
            let ordinal = inner.frames(dir).fetch_add(1, Ordering::SeqCst) + 1;
            inner.chaos.strike(ProxyInner::site(dir));
            match inner.frame_fault(dir, ordinal) {
                FrameFault::Cut => {
                    inner.cut_frames.fetch_add(1, Ordering::Relaxed);
                    let _ = dst.write_all(&pending[..4 + len / 2]);
                    kill.kill();
                    return;
                }
                FrameFault::Truncate => {
                    inner.truncated_frames.fetch_add(1, Ordering::Relaxed);
                    let _ = dst.write_all(&pending[..4 + len - 1]);
                    kill.kill();
                    return;
                }
                FrameFault::None => {
                    if dst.write_all(&pending[..4 + len]).is_err() {
                        kill.kill();
                        return;
                    }
                    pending.drain(..4 + len);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    /// A minimal framed echo server: accepts up to `max_conns`
    /// connections, echoes every frame back verbatim, exits on EOF.
    fn echo_server(max_conns: usize) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut handlers = Vec::new();
            for _ in 0..max_conns {
                let Ok((mut conn, _)) = listener.accept() else {
                    break;
                };
                handlers.push(std::thread::spawn(move || {
                    while let Some(body) = read_body(&mut conn) {
                        send_frame(&mut conn, &body);
                    }
                }));
            }
            for h in handlers {
                let _ = h.join();
            }
        });
        (addr, t)
    }

    fn send_frame(stream: &mut TcpStream, body: &[u8]) {
        let _ = stream.write_all(&(body.len() as u32).to_le_bytes());
        let _ = stream.write_all(body);
    }

    fn read_body(stream: &mut TcpStream) -> Option<Vec<u8>> {
        let mut prefix = [0u8; 4];
        stream.read_exact(&mut prefix).ok()?;
        let mut body = vec![0u8; u32::from_le_bytes(prefix) as usize];
        stream.read_exact(&mut body).ok()?;
        Some(body)
    }

    fn proxy_with(plan: FaultPlan, max_conns: usize) -> (ChaosProxy, JoinHandle<()>) {
        let (upstream, server) = echo_server(max_conns);
        let proxy = ChaosProxy::start(upstream, Chaos::new(plan)).unwrap();
        (proxy, server)
    }

    #[test]
    fn forwards_frames_and_refuses_scheduled_accepts() {
        let (proxy, server) = proxy_with(
            FaultPlan {
                seed: 1,
                refuse_accept_on: vec![1],
                ..FaultPlan::default()
            },
            1,
        );

        // Connection #1 is accepted then instantly dropped: the client
        // sees EOF (or a reset) where the echo was due.
        let mut refused = TcpStream::connect(proxy.listen_addr()).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        send_frame(&mut refused, b"never answered");
        assert!(read_body(&mut refused).is_none());

        // Connection #2 forwards transparently, both directions.
        let mut ok = TcpStream::connect(proxy.listen_addr()).unwrap();
        ok.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        send_frame(&mut ok, b"hello");
        assert_eq!(read_body(&mut ok).unwrap(), b"hello");
        send_frame(&mut ok, b"again");
        assert_eq!(read_body(&mut ok).unwrap(), b"again");

        let stats = proxy.stats();
        assert_eq!(stats.refused, 1);
        assert_eq!(stats.frames_c2s, 2);
        assert_eq!(stats.frames_s2c, 2);
        drop(ok);
        proxy.shutdown();
        server.join().unwrap();
    }

    #[test]
    fn cuts_the_scheduled_frame_mid_body() {
        let (proxy, _server) = proxy_with(
            FaultPlan {
                seed: 2,
                cut_frame_c2s_on: vec![2],
                ..FaultPlan::default()
            },
            1,
        );
        let mut client = TcpStream::connect(proxy.listen_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        send_frame(&mut client, b"first survives");
        assert_eq!(read_body(&mut client).unwrap(), b"first survives");
        // Frame #2 is forwarded only halfway, then the connection dies in
        // both directions: no reply ever comes.
        send_frame(&mut client, b"second is cut");
        assert!(read_body(&mut client).is_none());
        assert_eq!(proxy.stats().cut_frames, 1);
        proxy.shutdown();
    }

    #[test]
    fn truncates_the_scheduled_reply_by_one_byte() {
        let (proxy, _server) = proxy_with(
            FaultPlan {
                seed: 3,
                truncate_frame_s2c_on: vec![1],
                ..FaultPlan::default()
            },
            1,
        );
        let mut client = TcpStream::connect(proxy.listen_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        send_frame(&mut client, b"echo me");
        // The prefix announces 7 bytes but only 6 arrive before the kill:
        // an EOF inside the frame body.
        let mut prefix = [0u8; 4];
        client.read_exact(&mut prefix).unwrap();
        assert_eq!(u32::from_le_bytes(prefix), 7);
        let mut body = vec![0u8; 7];
        assert!(client.read_exact(&mut body).is_err());
        assert_eq!(proxy.stats().truncated_frames, 1);
        proxy.shutdown();
    }

    #[test]
    fn blackhole_swallows_then_recovers_and_kill_drops_live_conns() {
        let (proxy, _server) = proxy_with(FaultPlan::quiet(4), 2);
        let mut client = TcpStream::connect(proxy.listen_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        send_frame(&mut client, b"before");
        assert_eq!(read_body(&mut client).unwrap(), b"before");

        // Black-holed: the frame vanishes, the read hits its timeout, the
        // connection itself stays open.
        proxy.set_blackhole(true);
        std::thread::sleep(Duration::from_millis(60)); // let the flag land
        send_frame(&mut client, b"into the void");
        assert!(read_body(&mut client).is_none());

        // Recovery: new frames on the same connection forward again.
        proxy.set_blackhole(false);
        std::thread::sleep(Duration::from_millis(60));
        send_frame(&mut client, b"after");
        assert_eq!(read_body(&mut client).unwrap(), b"after");

        // Kill: the live connection dies under the client.
        proxy.kill_connections();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        assert!(read_body(&mut client).is_none());
        proxy.shutdown();
    }

    #[test]
    fn blackholed_conn_ordinal_never_reaches_upstream() {
        let (proxy, _server) = proxy_with(
            FaultPlan {
                seed: 5,
                blackhole_conn_on: vec![1],
                ..FaultPlan::default()
            },
            1,
        );
        let mut doomed = TcpStream::connect(proxy.listen_addr()).unwrap();
        doomed
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        send_frame(&mut doomed, b"hello?");
        assert!(read_body(&mut doomed).is_none());

        let mut fine = TcpStream::connect(proxy.listen_addr()).unwrap();
        fine.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        send_frame(&mut fine, b"works");
        assert_eq!(read_body(&mut fine).unwrap(), b"works");

        let stats = proxy.stats();
        assert_eq!(stats.blackholed, 1);
        assert_eq!(stats.frames_c2s, 1, "the void frame was never counted");
        proxy.shutdown();
    }
}
