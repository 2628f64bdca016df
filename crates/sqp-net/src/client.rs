//! A blocking wire client with per-connection buffer reuse.
//!
//! [`NetClient`] owns one keep-alive TCP connection and three buffers that
//! every request reuses — one outbound frame, one inbound frame, and the
//! [`FlatAnswer`] a suggestion reply is decoded into — so a serve loop
//! driving millions of requests allocates only for the answers it keeps,
//! and an owned answer is one text allocation plus one `Vec` per
//! non-empty list, converted from that flat answer.
//! One client is one connection and is deliberately `!Sync` usage-wise:
//! the protocol answers in request order, so concurrent callers would
//! read each other's replies. Open one client per thread instead — the
//! server runs one thread per connection, so that is also what lets
//! requests execute in parallel.

use crate::frame::{read_frame, write_frame, FrameRead};
use crate::wire::{self, BatchEntry, Reply, RollSummary, WireError, WireStats};
use sqp_serve::{FlatAnswer, Suggestion};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side failure of one request.
///
/// Transport failures (the old collapsed `Transport` case) are split by
/// cause — [`Timeout`](NetError::Timeout) /
/// [`Disconnected`](NetError::Disconnected) /
/// [`Refused`](NetError::Refused) — because a resilient caller treats
/// them differently: a timeout means the request *may have executed*
/// (never blindly resend a non-idempotent op), a refused connect means it
/// certainly did not (always safe to fail over), and a disconnect on an
/// idle pooled connection is routine churn worth one reconnect.
#[derive(Debug)]
pub enum NetError {
    /// An I/O deadline expired (connect, read, or write). The request may
    /// or may not have reached the server.
    Timeout(io::Error),
    /// The connection dropped: clean EOF where a reply was due, a reset,
    /// a broken pipe, or an EOF mid-frame.
    Disconnected,
    /// The endpoint actively refused the connection — nothing is
    /// listening there, so the request certainly never executed.
    Refused(io::Error),
    /// Any other transport failure.
    Io(io::Error),
    /// The reply frame did not decode.
    Wire(WireError),
    /// The server answered with a typed `R_ERROR`.
    Remote {
        /// A [`wire::code`] constant.
        code: u8,
        /// The server's message.
        message: String,
    },
    /// The reply decoded but had the wrong opcode for the request.
    UnexpectedReply {
        /// The reply opcode that arrived.
        opcode: u8,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Timeout(e) => write!(f, "i/o deadline expired: {e}"),
            NetError::Disconnected => write!(f, "server disconnected"),
            NetError::Refused(e) => write!(f, "connection refused: {e}"),
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Wire(e) => write!(f, "undecodable reply: {e}"),
            NetError::Remote { code, message } => {
                write!(f, "server error (code {code}): {message}")
            }
            NetError::UnexpectedReply { opcode } => {
                write!(f, "unexpected reply opcode 0x{opcode:02X}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        use io::ErrorKind::*;
        match e.kind() {
            // Blocking sockets report an expired SO_RCVTIMEO/SO_SNDTIMEO
            // as either kind depending on platform.
            TimedOut | WouldBlock => NetError::Timeout(e),
            ConnectionRefused => NetError::Refused(e),
            ConnectionReset | ConnectionAborted | BrokenPipe | UnexpectedEof | NotConnected => {
                NetError::Disconnected
            }
            _ => NetError::Io(e),
        }
    }
}

/// The serve-path answer shape: either ranked suggestions or a typed
/// shed. Separating the shed from `NetError` keeps overload a *value* a
/// load generator can count, not a failure it has to untangle.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeAnswer {
    /// Ranked suggestions (possibly empty).
    Suggestions(Vec<Suggestion>),
    /// The request was shed by the engine's admission budget.
    Overloaded {
        /// The exhausted budget (`0` is reserved — see WIRE.md).
        limit: u64,
    },
}

/// Batched answer: per-entry suggestion lists or one whole-batch shed.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchAnswer {
    /// One list per batch entry, in request order.
    Lists(Vec<Vec<Suggestion>>),
    /// The whole batch was shed (batches are all-or-nothing).
    Overloaded {
        /// The exhausted budget (`0` is reserved — see WIRE.md).
        limit: u64,
    },
}

/// A suggestion reply as decoded into the connection's [`FlatAnswer`]:
/// what the owned [`ServeAnswer`] and [`BatchAnswer`] are converted from,
/// and what `RemoteEngine` writes into a caller's sink.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Answered<'a> {
    /// The lists, as many as the request asked for.
    Lists(&'a FlatAnswer),
    /// The request was shed.
    Overloaded {
        /// The exhausted budget.
        limit: u64,
    },
}

impl From<Answered<'_>> for ServeAnswer {
    fn from(answered: Answered<'_>) -> Self {
        match answered {
            Answered::Lists(answer) => ServeAnswer::Suggestions(answer.to_list()),
            Answered::Overloaded { limit } => ServeAnswer::Overloaded { limit },
        }
    }
}

impl From<Answered<'_>> for BatchAnswer {
    fn from(answered: Answered<'_>) -> Self {
        match answered {
            Answered::Lists(answer) => BatchAnswer::Lists(answer.to_lists()),
            Answered::Overloaded { limit } => BatchAnswer::Overloaded { limit },
        }
    }
}

/// Acknowledgement of a `TRACK`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackAck {
    /// The track started a fresh session (idle cutoff or first contact).
    pub new_session: bool,
    /// Queries now in the user's context window.
    pub context_len: usize,
}

/// One blocking keep-alive connection to a [`NetServer`](crate::NetServer)
/// port (serve or admin).
pub struct NetClient {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    /// The lists of the last suggestion reply, decoded out of `rbuf`.
    answer: FlatAnswer,
    max_frame_len: usize,
    /// The read and write timeout last set on `stream`; `None` when not
    /// known (a set that failed halfway).
    io_timeout: Option<Option<Duration>>,
}

impl NetClient {
    /// Connect with no I/O timeouts (reads block until the server
    /// replies or disconnects).
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?, None)
    }

    /// Connect and bound the connect itself *and* every read/write by
    /// `timeout` — what resilient callers use so a black-holed SYN (a
    /// firewalled or fault-injected endpoint) fails fast instead of
    /// hanging the OS connect default, and a hung server fails fast
    /// instead of wedging the caller.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Self::from_stream(stream, Some(timeout))
    }

    /// Wrap a connected stream whose read and write timeouts are both
    /// `io_timeout`.
    fn from_stream(stream: TcpStream, io_timeout: Option<Duration>) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(NetClient {
            stream,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            answer: FlatAnswer::default(),
            max_frame_len: wire::DEFAULT_MAX_FRAME,
            io_timeout: Some(io_timeout),
        })
    }

    /// Rebound (or clear, with `None`) the read/write timeouts of this
    /// connection — how a pooled connection gets a fresh per-attempt
    /// deadline without reconnecting. Setting the timeout the connection
    /// already has makes no system call.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        if self.io_timeout == Some(timeout) {
            return Ok(());
        }
        self.io_timeout = None;
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        self.io_timeout = Some(timeout);
        Ok(())
    }

    fn send(&mut self) -> Result<(), NetError> {
        write_frame(&mut self.stream, &self.wbuf, self.max_frame_len)?;
        Ok(())
    }

    /// Read the next reply frame into `rbuf`.
    fn recv_frame(&mut self) -> Result<(), NetError> {
        match read_frame(&mut self.stream, &mut self.rbuf, self.max_frame_len)? {
            FrameRead::Frame => Ok(()),
            FrameRead::CleanEof => Err(NetError::Disconnected),
            FrameRead::Reject(err) => Err(NetError::Wire(err)),
        }
    }

    fn recv(&mut self) -> Result<Reply<'_>, NetError> {
        self.recv_frame()?;
        wire::decode_reply(&self.rbuf).map_err(NetError::Wire)
    }

    /// Read a suggestion reply: its lists are decoded into the
    /// connection's [`FlatAnswer`] in the decoder's single validating walk,
    /// and are only there when the reply is `Ok` — a reply that fails to
    /// decode part-way is an `Err`, never a shorter answer. `batch` is the
    /// entry count of a batch request (`None` for a single-list one); an
    /// `R_BATCH` with any other list count is the wrong reply.
    fn recv_answer(&mut self, batch: Option<usize>) -> Result<Answered<'_>, NetError> {
        self.recv_frame()?;
        self.answer.clear();
        let reply =
            wire::decode_reply_into(&self.rbuf, &mut self.answer).map_err(NetError::Wire)?;
        match reply {
            Reply::Suggestions(_) if batch.is_none() => Ok(Answered::Lists(&self.answer)),
            Reply::Batch(lists) if batch == Some(lists.len()) => Ok(Answered::Lists(&self.answer)),
            Reply::Overloaded { limit } => Ok(Answered::Overloaded { limit }),
            other => Err(unexpected(&other)),
        }
    }

    /// Track `query` for `user` at `now`.
    pub fn track(&mut self, user: u64, query: &str, now: u64) -> Result<TrackAck, NetError> {
        self.wbuf.clear();
        wire::encode_track(&mut self.wbuf, user, query, now);
        self.send()?;
        match self.recv()? {
            Reply::Ack {
                new_session,
                context_len,
            } => Ok(TrackAck {
                new_session,
                context_len,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Suggest `k` continuations against `user`'s tracked session.
    pub fn suggest(&mut self, user: u64, k: usize, now: u64) -> Result<ServeAnswer, NetError> {
        self.suggest_flat(user, k, now).map(ServeAnswer::from)
    }

    /// [`suggest`](Self::suggest), leaving the list in the connection's
    /// flat answer.
    pub(crate) fn suggest_flat(
        &mut self,
        user: u64,
        k: usize,
        now: u64,
    ) -> Result<Answered<'_>, NetError> {
        self.wbuf.clear();
        wire::encode_suggest(&mut self.wbuf, user, k, now);
        self.send()?;
        self.recv_answer(None)
    }

    /// Track `query`, then suggest `k` continuations, in one round trip.
    pub fn track_and_suggest(
        &mut self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
    ) -> Result<ServeAnswer, NetError> {
        self.track_and_suggest_flat(user, query, k, now)
            .map(ServeAnswer::from)
    }

    /// [`track_and_suggest`](Self::track_and_suggest), leaving the list in
    /// the connection's flat answer.
    pub(crate) fn track_and_suggest_flat(
        &mut self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
    ) -> Result<Answered<'_>, NetError> {
        self.wbuf.clear();
        wire::encode_track_suggest(&mut self.wbuf, user, query, k, now);
        self.send()?;
        self.recv_answer(None)
    }

    /// Batched suggestion at one shared timestamp. The reply is validated
    /// and laid out flat in one walk, then converted to owned lists; a
    /// reply that fails to decode part-way, or carries a list count other
    /// than `entries.len()`, is an `Err`, never a shorter answer.
    pub fn suggest_batch(
        &mut self,
        entries: &[BatchEntry],
        now: u64,
    ) -> Result<BatchAnswer, NetError> {
        self.suggest_batch_flat(entries, now).map(BatchAnswer::from)
    }

    /// [`suggest_batch`](Self::suggest_batch), leaving the lists in the
    /// connection's flat answer.
    pub(crate) fn suggest_batch_flat(
        &mut self,
        entries: &[BatchEntry],
        now: u64,
    ) -> Result<Answered<'_>, NetError> {
        self.wbuf.clear();
        wire::encode_suggest_batch(&mut self.wbuf, entries, now);
        self.send()?;
        self.recv_answer(Some(entries.len()))
    }

    /// Read the surface's counters and generation.
    pub fn stats(&mut self) -> Result<WireStats, NetError> {
        self.wbuf.clear();
        wire::encode_stats(&mut self.wbuf);
        self.send()?;
        match self.recv()? {
            Reply::Stats(stats) => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        self.wbuf.clear();
        wire::encode_ping(&mut self.wbuf);
        self.send()?;
        match self.recv()? {
            Reply::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Evict sessions idle as of `now`; returns how many.
    pub fn evict_idle(&mut self, now: u64) -> Result<u64, NetError> {
        self.wbuf.clear();
        wire::encode_evict(&mut self.wbuf, now);
        self.send()?;
        match self.recv()? {
            Reply::Evicted { count } => Ok(count),
            other => Err(unexpected(&other)),
        }
    }

    /// Admin: publish the server-local snapshot file at `path` to the
    /// whole surface; returns the surface generation afterwards. Only
    /// answered on the admin port.
    pub fn publish(&mut self, path: &str) -> Result<u64, NetError> {
        self.wbuf.clear();
        wire::encode_publish(&mut self.wbuf, path);
        self.send()?;
        match self.recv()? {
            Reply::Published { generation } => Ok(generation),
            other => Err(unexpected(&other)),
        }
    }

    /// Admin: roll the server-local snapshot file at `path` across
    /// replicas (a single engine is one replica). Only answered on the
    /// admin port.
    pub fn rolling_publish(
        &mut self,
        path: &str,
        abort_on_failure: bool,
    ) -> Result<RollSummary, NetError> {
        self.wbuf.clear();
        wire::encode_rolling_publish(&mut self.wbuf, path, abort_on_failure);
        self.send()?;
        match self.recv()? {
            Reply::Rolled(summary) => Ok(summary),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(reply: &Reply<'_>) -> NetError {
    if let Reply::Error { code, message } = reply {
        return NetError::Remote {
            code: *code,
            message: (*message).to_string(),
        };
    }
    let opcode = match reply {
        Reply::Ack { .. } => wire::op::R_ACK,
        Reply::Suggestions(_) => wire::op::R_SUGGESTIONS,
        Reply::Batch(_) => wire::op::R_BATCH,
        Reply::Stats(_) => wire::op::R_STATS,
        Reply::Overloaded { .. } => wire::op::R_OVERLOADED,
        Reply::Error { .. } => wire::op::R_ERROR,
        Reply::Published { .. } => wire::op::R_PUBLISHED,
        Reply::Rolled(_) => wire::op::R_ROLLED,
        Reply::Pong => wire::op::R_PONG,
        Reply::Evicted { .. } => wire::op::R_EVICTED,
    };
    NetError::UnexpectedReply { opcode }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn set_io_timeout_skips_an_unchanged_timeout_and_applies_a_changed_one() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ms = Duration::from_millis;
        // The kernel keeps a timeout at its own granularity; a second
        // socket shows what it reports back for a value.
        let reference = TcpStream::connect(addr).unwrap();
        let kernel = |timeout: Option<Duration>| {
            reference.set_read_timeout(timeout).unwrap();
            let got = reference.read_timeout().unwrap();
            (got, got)
        };
        let read_back = |client: &NetClient| {
            (
                client.stream.read_timeout().unwrap(),
                client.stream.write_timeout().unwrap(),
            )
        };
        let mut client = NetClient::connect_timeout(addr, ms(250)).unwrap();
        assert_eq!(read_back(&client), kernel(Some(ms(250))));

        // The same value again is skipped: a timeout changed behind the
        // client's back stays as it is.
        client.stream.set_read_timeout(Some(ms(900))).unwrap();
        client.set_io_timeout(Some(ms(250))).unwrap();
        assert_eq!(read_back(&client).0, kernel(Some(ms(900))).0);
        assert_eq!(read_back(&client).1, kernel(Some(ms(250))).1);

        // A changed value reaches both directions.
        client.set_io_timeout(Some(ms(400))).unwrap();
        assert_eq!(read_back(&client), kernel(Some(ms(400))));
        client.set_io_timeout(Some(ms(400))).unwrap();
        assert_eq!(read_back(&client), kernel(Some(ms(400))));
        client.set_io_timeout(None).unwrap();
        assert_eq!(read_back(&client), (None, None));

        // A set that fails leaves nothing cached to skip against.
        assert!(client.set_io_timeout(Some(Duration::ZERO)).is_err());
        assert_eq!(client.io_timeout, None);
        client.set_io_timeout(None).unwrap();
        assert_eq!(read_back(&client), (None, None));
        assert_eq!(client.io_timeout, Some(None));
    }
}
