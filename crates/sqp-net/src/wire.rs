//! The sqp wire protocol: a compact length-prefixed binary codec.
//!
//! Every message is a **frame**: a `u32` little-endian body length followed
//! by the body, whose first byte is an opcode. Requests use opcodes
//! `0x01..=0x11`, replies `0x81..=0x8A`, so a captured byte stream is
//! self-describing about direction. Multi-byte integers are little-endian;
//! open-ended counts and lengths are LEB128 unsigned varints
//! ([`sqp_common::bytes::put_uvarint`]); strings are UTF-8 with a varint
//! byte-length prefix. The normative byte-level layout (with a worked
//! example verified by `tests/wire_conformance.rs`) lives in `WIRE.md` at
//! the repository root.
//!
//! The codec is allocation-free on the steady-state path in both
//! directions: encoders append into a caller-owned `Vec<u8>` that the
//! connection reuses, and decoders hand back [`Request`]/[`Reply`] values
//! that *borrow* the frame body — list-shaped fields ([`SuggestionList`],
//! [`BatchEntries`]) are validated up front and then iterated straight off
//! the raw bytes, so a server turns a frame into engine calls without
//! copying a single query string.
//!
//! # The suggestion-list grammar has one encoder and one walker
//!
//! `R_SUGGESTIONS` carries one list, `R_BATCH` a count and that many
//! lists; a list is a count and that many `(score, query)` pairs. Both
//! directions speak it through [`SuggestSink`]:
//!
//! * **Encoding** is [`ListWriter`], a sink over the reply buffer. The
//!   server hands it to the serving tier, which renders straight into the
//!   frame; [`encode_suggestions`]/[`encode_batch`] replay owned lists
//!   into the same writer. Nothing else emits the grammar.
//! * **Decoding** is one walk — bounds, protocol limits, UTF-8 — that
//!   pushes what it validates into a sink: [`decode_reply_into`].
//!   [`decode_reply`] is that walk with a sink that keeps nothing (the
//!   borrowed [`SuggestionList`]/[`BatchLists`] views then re-read bytes
//!   the walk has already vetted); the client passes its connection's
//!   [`FlatAnswer`](sqp_serve::FlatAnswer) and pays one validation and
//!   one copy of the text. A sink may have been written to when the walk
//!   fails — the error, not the sink, is the answer — so callers drop it.

use sqp_common::bytes::{get_uvarint, put_uvarint};
use sqp_serve::{EngineStats, SuggestSink, Suggestion};
use std::fmt;

/// Size of the frame length prefix (`u32` little-endian), in bytes.
pub const LEN_PREFIX: usize = 4;

/// Default maximum frame *body* length a peer will accept.
pub const DEFAULT_MAX_FRAME: usize = 256 * 1024;

/// Maximum byte length of a query string on the wire.
pub const MAX_QUERY_LEN: usize = 4096;

/// Maximum byte length of a snapshot path in an admin request.
pub const MAX_PATH_LEN: usize = 4096;

/// Maximum entries in one `SUGGEST_BATCH` request.
pub const MAX_BATCH: usize = 4096;

/// Maximum `k` (suggestions requested) in any single request.
pub const MAX_K: usize = 1024;

/// Maximum byte length of an error message on the wire (longer messages
/// are truncated at a char boundary by the encoder).
pub const MAX_ERROR_MSG: usize = 512;

/// Request and reply opcodes (the first body byte of every frame).
pub mod op {
    /// Track a query for a user (no suggestions wanted).
    pub const TRACK: u8 = 0x01;
    /// Suggest against a user's tracked session.
    pub const SUGGEST: u8 = 0x02;
    /// Track a query, then suggest against the updated session.
    pub const TRACK_SUGGEST: u8 = 0x03;
    /// Batched suggestion for many users at one timestamp.
    pub const SUGGEST_BATCH: u8 = 0x04;
    /// Read the surface's counters and generation.
    pub const STATS: u8 = 0x05;
    /// Liveness probe.
    pub const PING: u8 = 0x06;
    /// Evict idle sessions as of a timestamp.
    pub const EVICT: u8 = 0x07;
    /// Admin: load a snapshot file and publish it to the whole surface.
    pub const PUBLISH: u8 = 0x10;
    /// Admin: load a snapshot file and roll it across replicas.
    pub const ROLLING_PUBLISH: u8 = 0x11;

    /// Reply to [`TRACK`].
    pub const R_ACK: u8 = 0x81;
    /// Reply to [`SUGGEST`]/[`TRACK_SUGGEST`]: a suggestion list.
    pub const R_SUGGESTIONS: u8 = 0x82;
    /// Reply to [`SUGGEST_BATCH`]: one suggestion list per entry.
    pub const R_BATCH: u8 = 0x83;
    /// Reply to [`STATS`].
    pub const R_STATS: u8 = 0x84;
    /// The surface shed the request.
    pub const R_OVERLOADED: u8 = 0x85;
    /// Typed protocol or execution error.
    pub const R_ERROR: u8 = 0x86;
    /// Reply to [`PUBLISH`].
    pub const R_PUBLISHED: u8 = 0x87;
    /// Reply to [`ROLLING_PUBLISH`].
    pub const R_ROLLED: u8 = 0x88;
    /// Reply to [`PING`].
    pub const R_PONG: u8 = 0x89;
    /// Reply to [`EVICT`].
    pub const R_EVICTED: u8 = 0x8A;
}

/// Typed error codes carried in an `R_ERROR` reply body.
pub mod code {
    /// The opcode byte is not one this peer understands.
    pub const UNKNOWN_OPCODE: u8 = 1;
    /// The body ended before a field was complete.
    pub const TRUNCATED: u8 = 2;
    /// The body continued past the last field of its opcode.
    pub const TRAILING_BYTES: u8 = 3;
    /// The length prefix exceeded the receiver's frame limit.
    pub const FRAME_TOO_LARGE: u8 = 4;
    /// The length prefix was zero (a frame must carry an opcode).
    pub const EMPTY_FRAME: u8 = 5;
    /// A string field was not valid UTF-8.
    pub const BAD_UTF8: u8 = 6;
    /// An admin opcode arrived on the public serve port.
    pub const ADMIN_ONLY: u8 = 7;
    /// An admin publish was attempted and failed (body carries why).
    pub const PUBLISH_FAILED: u8 = 8;
    /// A count/length field exceeded a protocol limit.
    pub const LIMIT_EXCEEDED: u8 = 9;
}

/// A malformed frame, as discovered while decoding.
///
/// Every variant maps onto a typed wire error code ([`WireError::code`]),
/// so a server can reject bad input with a structured `R_ERROR` reply
/// instead of a panic or a silent hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame body was empty (no opcode byte).
    EmptyFrame,
    /// The opcode byte is not part of the protocol.
    UnknownOpcode(u8),
    /// The body ended before a field was complete (includes malformed
    /// varints).
    Truncated,
    /// The body continued past the last field of its opcode.
    TrailingBytes {
        /// How many unconsumed bytes followed the last field.
        extra: usize,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A declared frame body length exceeded the receiver's limit.
    FrameTooLarge {
        /// The declared body length.
        len: u64,
        /// The receiver's limit.
        max: u64,
    },
    /// A count or length field exceeded a protocol limit.
    LimitExceeded {
        /// Which limit (static description).
        what: &'static str,
        /// The value the frame declared.
        got: u64,
        /// The protocol maximum.
        max: u64,
    },
}

impl WireError {
    /// The typed wire error code for this error (for `R_ERROR` replies).
    pub fn code(&self) -> u8 {
        match self {
            WireError::EmptyFrame => code::EMPTY_FRAME,
            WireError::UnknownOpcode(_) => code::UNKNOWN_OPCODE,
            WireError::Truncated => code::TRUNCATED,
            WireError::TrailingBytes { .. } => code::TRAILING_BYTES,
            WireError::BadUtf8 => code::BAD_UTF8,
            WireError::FrameTooLarge { .. } => code::FRAME_TOO_LARGE,
            WireError::LimitExceeded { .. } => code::LIMIT_EXCEEDED,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::EmptyFrame => write!(f, "empty frame body"),
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02X}"),
            WireError::Truncated => write!(f, "frame body truncated mid-field"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after last field")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds limit {max}")
            }
            WireError::LimitExceeded { what, got, max } => {
                write!(f, "{what} of {got} exceeds protocol limit {max}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Borrowing reader over a frame body. All field decoders live here so
/// request and reply decoding share the exact same bounds discipline.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.at).ok_or(WireError::Truncated)?;
        self.at += 1;
        Ok(b)
    }

    /// The next `len` bytes, or `Truncated`.
    fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(len).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.at..end).ok_or(WireError::Truncated)?;
        self.at = end;
        Ok(bytes)
    }

    fn u64_le(&mut self) -> Result<u64, WireError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    fn f64_le(&mut self) -> Result<f64, WireError> {
        self.u64_le().map(f64::from_bits)
    }

    fn uvarint(&mut self) -> Result<u64, WireError> {
        get_uvarint(self.buf, &mut self.at).ok_or(WireError::Truncated)
    }

    /// A varint-bounded count/length field, checked against a protocol
    /// limit before anything is allocated or iterated on its behalf.
    fn bounded(&mut self, what: &'static str, max: usize) -> Result<usize, WireError> {
        let got = self.uvarint()?;
        if got > max as u64 {
            return Err(WireError::LimitExceeded {
                what,
                got,
                max: max as u64,
            });
        }
        Ok(got as usize)
    }

    fn str_field(&mut self, what: &'static str, max: usize) -> Result<&'a str, WireError> {
        let len = self.bounded(what, max)?;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::BadUtf8)
    }

    /// The one walker of the suggestion-list grammar: a list is a bounded
    /// count and that many `(score, query)` pairs, checked for bounds,
    /// protocol limits and UTF-8 and handed to `sink` as they pass.
    /// Returns the list's count and the offset of its first pair.
    fn walk_list(&mut self, sink: &mut dyn SuggestSink) -> Result<(usize, usize), WireError> {
        let count = self.bounded("suggestion count", MAX_K)?;
        let entries = self.at;
        sink.list(count);
        for _ in 0..count {
            let score = self.f64_le()?;
            let query = self.str_field("query length", MAX_QUERY_LEN)?;
            sink.suggestion(query, score);
        }
        Ok((count, entries))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.buf.len() - self.at,
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One `(user, k)` entry of a `SUGGEST_BATCH` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchEntry {
    /// The user whose session to suggest against.
    pub user: u64,
    /// How many suggestions that user wants.
    pub k: usize,
}

/// The entry list of a `SUGGEST_BATCH` request, validated at decode time
/// and iterated straight off the frame bytes (no per-entry allocation).
#[derive(Debug, Clone, Copy)]
pub struct BatchEntries<'a> {
    raw: &'a [u8],
    count: usize,
}

impl<'a> BatchEntries<'a> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the batch carries no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterate the entries in wire order.
    pub fn iter(&self) -> impl Iterator<Item = BatchEntry> + 'a {
        let raw = self.raw;
        let mut at = 0usize;
        (0..self.count).map(move |_| {
            // The whole region was walked and bounds-checked at decode
            // time, so re-parsing here cannot fail.
            let mut r = Reader { buf: raw, at };
            let user = r.u64_le().expect("validated batch entry");
            let k = r.uvarint().expect("validated batch entry") as usize;
            at = r.at;
            BatchEntry { user, k }
        })
    }
}

/// A decoded request frame, borrowing string fields from the frame body.
#[derive(Debug, Clone, Copy)]
pub enum Request<'a> {
    /// Track `query` for `user` at `now`; reply is `R_ACK`.
    Track {
        /// User id.
        user: u64,
        /// Logical timestamp (seconds).
        now: u64,
        /// The query text, borrowed from the frame.
        query: &'a str,
    },
    /// Suggest `k` continuations against `user`'s session at `now`.
    Suggest {
        /// User id.
        user: u64,
        /// Logical timestamp (seconds).
        now: u64,
        /// How many suggestions.
        k: usize,
    },
    /// Track `query` then suggest `k` continuations in one round trip.
    TrackSuggest {
        /// User id.
        user: u64,
        /// Logical timestamp (seconds).
        now: u64,
        /// How many suggestions.
        k: usize,
        /// The query text, borrowed from the frame.
        query: &'a str,
    },
    /// Batched suggestion at one shared timestamp.
    SuggestBatch {
        /// Logical timestamp (seconds).
        now: u64,
        /// The `(user, k)` entries.
        entries: BatchEntries<'a>,
    },
    /// Read counters and generation.
    Stats,
    /// Liveness probe.
    Ping,
    /// Evict sessions idle as of `now`.
    Evict {
        /// Logical timestamp (seconds).
        now: u64,
    },
    /// Admin: publish the snapshot file at `path` to the whole surface.
    Publish {
        /// Server-local snapshot path.
        path: &'a str,
    },
    /// Admin: roll the snapshot file at `path` across replicas.
    RollingPublish {
        /// Abort the roll on the first replica failure.
        abort_on_failure: bool,
        /// Server-local snapshot path.
        path: &'a str,
    },
}

impl Request<'_> {
    /// True for opcodes that may only be served on the admin port.
    pub fn is_admin(&self) -> bool {
        matches!(
            self,
            Request::Publish { .. } | Request::RollingPublish { .. }
        )
    }
}

/// Decode a request frame body (everything after the length prefix).
pub fn decode_request(body: &[u8]) -> Result<Request<'_>, WireError> {
    let mut r = Reader::new(body);
    let opcode = r.u8().map_err(|_| WireError::EmptyFrame)?;
    let req = match opcode {
        op::TRACK => {
            let user = r.u64_le()?;
            let now = r.u64_le()?;
            let query = r.str_field("query length", MAX_QUERY_LEN)?;
            Request::Track { user, now, query }
        }
        op::SUGGEST => {
            let user = r.u64_le()?;
            let now = r.u64_le()?;
            let k = r.bounded("k", MAX_K)?;
            Request::Suggest { user, now, k }
        }
        op::TRACK_SUGGEST => {
            let user = r.u64_le()?;
            let now = r.u64_le()?;
            let k = r.bounded("k", MAX_K)?;
            let query = r.str_field("query length", MAX_QUERY_LEN)?;
            Request::TrackSuggest {
                user,
                now,
                k,
                query,
            }
        }
        op::SUGGEST_BATCH => {
            let now = r.u64_le()?;
            let count = r.bounded("batch size", MAX_BATCH)?;
            let start = r.at;
            for _ in 0..count {
                r.u64_le()?;
                r.bounded("k", MAX_K)?;
            }
            let entries = BatchEntries {
                raw: &body[start..r.at],
                count,
            };
            Request::SuggestBatch { now, entries }
        }
        op::STATS => Request::Stats,
        op::PING => Request::Ping,
        op::EVICT => {
            let now = r.u64_le()?;
            Request::Evict { now }
        }
        op::PUBLISH => {
            let path = r.str_field("path length", MAX_PATH_LEN)?;
            Request::Publish { path }
        }
        op::ROLLING_PUBLISH => {
            let abort_on_failure = r.u8()? != 0;
            let path = r.str_field("path length", MAX_PATH_LEN)?;
            Request::RollingPublish {
                abort_on_failure,
                path,
            }
        }
        other => return Err(WireError::UnknownOpcode(other)),
    };
    r.done()?;
    Ok(req)
}

#[inline]
fn put_u64_le(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Append a `TRACK` request body to `buf`.
pub fn encode_track(buf: &mut Vec<u8>, user: u64, query: &str, now: u64) {
    buf.push(op::TRACK);
    put_u64_le(buf, user);
    put_u64_le(buf, now);
    put_str(buf, query);
}

/// Append a `SUGGEST` request body to `buf`.
pub fn encode_suggest(buf: &mut Vec<u8>, user: u64, k: usize, now: u64) {
    buf.push(op::SUGGEST);
    put_u64_le(buf, user);
    put_u64_le(buf, now);
    put_uvarint(buf, k as u64);
}

/// Append a `TRACK_SUGGEST` request body to `buf`.
pub fn encode_track_suggest(buf: &mut Vec<u8>, user: u64, query: &str, k: usize, now: u64) {
    buf.push(op::TRACK_SUGGEST);
    put_u64_le(buf, user);
    put_u64_le(buf, now);
    put_uvarint(buf, k as u64);
    put_str(buf, query);
}

/// Append a `SUGGEST_BATCH` request body to `buf`.
pub fn encode_suggest_batch(buf: &mut Vec<u8>, entries: &[BatchEntry], now: u64) {
    buf.push(op::SUGGEST_BATCH);
    put_u64_le(buf, now);
    put_uvarint(buf, entries.len() as u64);
    for e in entries {
        put_u64_le(buf, e.user);
        put_uvarint(buf, e.k as u64);
    }
}

/// Append a `STATS` request body to `buf`.
pub fn encode_stats(buf: &mut Vec<u8>) {
    buf.push(op::STATS);
}

/// Append a `PING` request body to `buf`.
pub fn encode_ping(buf: &mut Vec<u8>) {
    buf.push(op::PING);
}

/// Append an `EVICT` request body to `buf`.
pub fn encode_evict(buf: &mut Vec<u8>, now: u64) {
    buf.push(op::EVICT);
    put_u64_le(buf, now);
}

/// Append a `PUBLISH` admin request body to `buf`.
pub fn encode_publish(buf: &mut Vec<u8>, path: &str) {
    buf.push(op::PUBLISH);
    put_str(buf, path);
}

/// Append a `ROLLING_PUBLISH` admin request body to `buf`.
pub fn encode_rolling_publish(buf: &mut Vec<u8>, path: &str, abort_on_failure: bool) {
    buf.push(op::ROLLING_PUBLISH);
    buf.push(u8::from(abort_on_failure));
    put_str(buf, path);
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

/// The counters an `R_STATS` reply carries (a fixed block of seven
/// little-endian `u64`s — see `WIRE.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// The surface's model generation: the same number as `publishes`
    /// (both slots stay for deployed peers).
    pub generation: u64,
    /// Queries tracked.
    pub tracks: u64,
    /// Individual suggestions computed.
    pub suggests: u64,
    /// The surface's [`EngineStats::publishes`].
    pub publishes: u64,
    /// Requests shed by admission control (engine-level).
    pub shed: u64,
    /// Idle sessions evicted.
    pub evictions: u64,
    /// Sessions currently resident.
    pub active_sessions: u64,
}

impl From<EngineStats> for WireStats {
    fn from(stats: EngineStats) -> Self {
        WireStats {
            generation: stats.publishes,
            tracks: stats.tracks,
            suggests: stats.suggests,
            publishes: stats.publishes,
            shed: stats.shed,
            evictions: stats.evictions,
            active_sessions: stats.active_sessions,
        }
    }
}

impl From<WireStats> for EngineStats {
    fn from(stats: WireStats) -> Self {
        EngineStats {
            tracks: stats.tracks,
            suggests: stats.suggests,
            publishes: stats.publishes,
            shed: stats.shed,
            evictions: stats.evictions,
            active_sessions: stats.active_sessions,
        }
    }
}

/// Outcome summary of a `ROLLING_PUBLISH`, as carried by `R_ROLLED`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RollSummary {
    /// The roll stopped early under the abort-on-failure policy.
    pub aborted: bool,
    /// Replicas upgraded to the new snapshot.
    pub upgraded: u64,
    /// Replicas whose load or validation failed: a router's are
    /// quarantined on their last-good snapshot, a single engine keeps
    /// serving its current model.
    pub failed: u64,
    /// Replicas left unvisited because the roll aborted first. A replica
    /// that left the tier mid-roll is in none of the three counts.
    pub skipped: u64,
}

/// One suggestion list inside an `R_SUGGESTIONS`/`R_BATCH` reply,
/// validated at decode time and iterated straight off the frame bytes.
#[derive(Debug, Clone, Copy)]
pub struct SuggestionList<'a> {
    raw: &'a [u8],
    count: usize,
}

impl<'a> SuggestionList<'a> {
    /// Number of suggestions in the list.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterate `(score, query)` pairs in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &'a str)> + 'a {
        let raw = self.raw;
        let mut at = 0usize;
        (0..self.count).map(move |_| {
            let mut r = Reader { buf: raw, at };
            let score = r.f64_le().expect("validated suggestion entry");
            let query = r
                .str_field("query length", MAX_QUERY_LEN)
                .expect("validated suggestion entry");
            at = r.at;
            (score, query)
        })
    }
}

/// The per-entry lists of an `R_BATCH` reply.
#[derive(Debug, Clone, Copy)]
pub struct BatchLists<'a> {
    raw: &'a [u8],
    count: usize,
}

impl<'a> BatchLists<'a> {
    /// Number of per-entry suggestion lists.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the reply carries no lists.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterate the per-entry lists in request order. Finding where a list
    /// ends only needs its lengths: the text was validated when the reply
    /// was decoded and is not looked at again here.
    pub fn iter(&self) -> impl Iterator<Item = SuggestionList<'a>> + 'a {
        let raw = self.raw;
        let mut at = 0usize;
        (0..self.count).map(move |_| {
            let mut r = Reader { buf: raw, at };
            let count = r.uvarint().expect("validated batch list") as usize;
            let entries_start = r.at;
            for _ in 0..count {
                r.take(8).expect("validated batch list");
                let len = r.uvarint().expect("validated batch list") as usize;
                r.take(len).expect("validated batch list");
            }
            at = r.at;
            SuggestionList {
                raw: &raw[entries_start..at],
                count,
            }
        })
    }
}

/// A decoded reply frame, borrowing string fields from the frame body.
#[derive(Debug, Clone, Copy)]
pub enum Reply<'a> {
    /// `R_ACK`: a track landed.
    Ack {
        /// The track started a fresh session.
        new_session: bool,
        /// Queries now in the user's context window.
        context_len: usize,
    },
    /// `R_SUGGESTIONS`: ranked suggestions.
    Suggestions(SuggestionList<'a>),
    /// `R_BATCH`: one suggestion list per batch entry, in request order.
    Batch(BatchLists<'a>),
    /// `R_STATS`: surface counters.
    Stats(WireStats),
    /// `R_OVERLOADED`: the request was shed.
    Overloaded {
        /// The in-flight budget that was exhausted. `0` is reserved:
        /// this server never emits it, decoders still accept it.
        limit: u64,
    },
    /// `R_ERROR`: typed error.
    Error {
        /// A [`code`] constant.
        code: u8,
        /// Human-readable detail, borrowed from the frame.
        message: &'a str,
    },
    /// `R_PUBLISHED`: an admin publish landed.
    Published {
        /// The surface's generation after the publish.
        generation: u64,
    },
    /// `R_ROLLED`: a rolling publish finished.
    Rolled(RollSummary),
    /// `R_PONG`: liveness answer.
    Pong,
    /// `R_EVICTED`: idle-session eviction ran.
    Evicted {
        /// Sessions evicted.
        count: u64,
    },
}

/// A sink that keeps nothing: what [`decode_reply`] validates into.
struct Discard;

impl SuggestSink for Discard {
    fn list(&mut self, _len: usize) {}
    fn suggestion(&mut self, _query: &str, _score: f64) {}
}

/// Decode a reply frame body (everything after the length prefix).
pub fn decode_reply(body: &[u8]) -> Result<Reply<'_>, WireError> {
    decode_reply_into(body, &mut Discard)
}

/// [`decode_reply`], handing the lists of an `R_SUGGESTIONS` (one list) or
/// `R_BATCH` (one per entry) body to `sink` during the single validating
/// walk; any other reply leaves the sink alone. On `Err` the sink may hold
/// a validated prefix of the lists — drop it.
pub fn decode_reply_into<'a>(
    body: &'a [u8],
    sink: &mut dyn SuggestSink,
) -> Result<Reply<'a>, WireError> {
    let mut r = Reader::new(body);
    let opcode = r.u8().map_err(|_| WireError::EmptyFrame)?;
    let reply = match opcode {
        op::R_ACK => {
            let new_session = r.u8()? != 0;
            let context_len = r.bounded("context length", u32::MAX as usize)?;
            Reply::Ack {
                new_session,
                context_len,
            }
        }
        op::R_SUGGESTIONS => {
            let (count, entries) = r.walk_list(sink)?;
            Reply::Suggestions(SuggestionList {
                raw: &body[entries..r.at],
                count,
            })
        }
        op::R_BATCH => {
            let count = r.bounded("batch size", MAX_BATCH)?;
            let start = r.at;
            for _ in 0..count {
                r.walk_list(sink)?;
            }
            Reply::Batch(BatchLists {
                raw: &body[start..r.at],
                count,
            })
        }
        op::R_STATS => Reply::Stats(WireStats {
            generation: r.u64_le()?,
            tracks: r.u64_le()?,
            suggests: r.u64_le()?,
            publishes: r.u64_le()?,
            shed: r.u64_le()?,
            evictions: r.u64_le()?,
            active_sessions: r.u64_le()?,
        }),
        op::R_OVERLOADED => Reply::Overloaded { limit: r.u64_le()? },
        op::R_ERROR => {
            let code = r.u8()?;
            let message = r.str_field("message length", MAX_ERROR_MSG)?;
            Reply::Error { code, message }
        }
        op::R_PUBLISHED => Reply::Published {
            generation: r.u64_le()?,
        },
        op::R_ROLLED => Reply::Rolled(RollSummary {
            aborted: r.u8()? != 0,
            upgraded: r.uvarint()?,
            failed: r.uvarint()?,
            skipped: r.uvarint()?,
        }),
        op::R_PONG => Reply::Pong,
        op::R_EVICTED => Reply::Evicted { count: r.u64_le()? },
        other => return Err(WireError::UnknownOpcode(other)),
    };
    r.done()?;
    Ok(reply)
}

/// Append an `R_ACK` reply body to `buf`.
pub fn encode_ack(buf: &mut Vec<u8>, new_session: bool, context_len: usize) {
    buf.push(op::R_ACK);
    buf.push(u8::from(new_session));
    put_uvarint(buf, context_len as u64);
}

/// The one encoder of the suggestion-list grammar: a [`SuggestSink`] that
/// appends each list, in wire form, to a reply body. A connection's thread
/// hands one to the serving tier so an answer is rendered straight into
/// the frame it leaves in; the writer holds no state of its own, so a
/// reply that turns out not to be an answer (a shed) is undone by
/// truncating the buffer to where the reply began.
pub struct ListWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> ListWriter<'a> {
    /// Begin an `R_SUGGESTIONS` body in `buf`; exactly one list must
    /// follow.
    pub fn suggestions(buf: &'a mut Vec<u8>) -> Self {
        buf.push(op::R_SUGGESTIONS);
        ListWriter { buf }
    }

    /// Begin an `R_BATCH` body in `buf`; exactly `lists` lists must
    /// follow.
    pub fn batch(buf: &'a mut Vec<u8>, lists: usize) -> Self {
        buf.push(op::R_BATCH);
        put_uvarint(buf, lists as u64);
        ListWriter { buf }
    }
}

impl SuggestSink for ListWriter<'_> {
    fn list(&mut self, len: usize) {
        put_uvarint(self.buf, len as u64);
    }

    fn suggestion(&mut self, query: &str, score: f64) {
        put_u64_le(self.buf, score.to_bits());
        put_str(self.buf, query);
    }
}

/// Append an `R_SUGGESTIONS` reply body to `buf`.
pub fn encode_suggestions(buf: &mut Vec<u8>, suggestions: &[Suggestion]) {
    ListWriter::suggestions(buf).replay(suggestions);
}

/// Append an `R_BATCH` reply body to `buf`.
pub fn encode_batch(buf: &mut Vec<u8>, lists: &[Vec<Suggestion>]) {
    let mut writer = ListWriter::batch(buf, lists.len());
    for list in lists {
        writer.replay(list);
    }
}

/// Append an `R_STATS` reply body to `buf`.
pub fn encode_stats_reply(buf: &mut Vec<u8>, stats: &WireStats) {
    buf.push(op::R_STATS);
    put_u64_le(buf, stats.generation);
    put_u64_le(buf, stats.tracks);
    put_u64_le(buf, stats.suggests);
    put_u64_le(buf, stats.publishes);
    put_u64_le(buf, stats.shed);
    put_u64_le(buf, stats.evictions);
    put_u64_le(buf, stats.active_sessions);
}

/// Append an `R_OVERLOADED` reply body to `buf`.
pub fn encode_overloaded(buf: &mut Vec<u8>, limit: u64) {
    buf.push(op::R_OVERLOADED);
    put_u64_le(buf, limit);
}

/// Append an `R_ERROR` reply body to `buf`, truncating the message to
/// [`MAX_ERROR_MSG`] bytes at a char boundary.
pub fn encode_error(buf: &mut Vec<u8>, code: u8, message: &str) {
    let mut end = message.len().min(MAX_ERROR_MSG);
    while !message.is_char_boundary(end) {
        end -= 1;
    }
    buf.push(op::R_ERROR);
    buf.push(code);
    put_str(buf, &message[..end]);
}

/// Append an `R_PUBLISHED` reply body to `buf`.
pub fn encode_published(buf: &mut Vec<u8>, generation: u64) {
    buf.push(op::R_PUBLISHED);
    put_u64_le(buf, generation);
}

/// Append an `R_ROLLED` reply body to `buf`.
pub fn encode_rolled(buf: &mut Vec<u8>, summary: &RollSummary) {
    buf.push(op::R_ROLLED);
    buf.push(u8::from(summary.aborted));
    put_uvarint(buf, summary.upgraded);
    put_uvarint(buf, summary.failed);
    put_uvarint(buf, summary.skipped);
}

/// Append an `R_PONG` reply body to `buf`.
pub fn encode_pong(buf: &mut Vec<u8>) {
    buf.push(op::R_PONG);
}

/// Append an `R_EVICTED` reply body to `buf`.
pub fn encode_evicted(buf: &mut Vec<u8>, count: u64) {
    buf.push(op::R_EVICTED);
    put_u64_le(buf, count);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let mut buf = Vec::new();

        encode_track(&mut buf, 7, "rust", 1_000);
        match decode_request(&buf).unwrap() {
            Request::Track { user, now, query } => {
                assert_eq!((user, now, query), (7, 1_000, "rust"));
            }
            other => panic!("wrong request: {other:?}"),
        }

        buf.clear();
        encode_track_suggest(&mut buf, 7, "rust", 3, 1_000);
        match decode_request(&buf).unwrap() {
            Request::TrackSuggest {
                user,
                now,
                k,
                query,
            } => assert_eq!((user, now, k, query), (7, 1_000, 3, "rust")),
            other => panic!("wrong request: {other:?}"),
        }

        buf.clear();
        let entries = [
            BatchEntry { user: 1, k: 5 },
            BatchEntry {
                user: u64::MAX,
                k: 200,
            },
        ];
        encode_suggest_batch(&mut buf, &entries, 42);
        match decode_request(&buf).unwrap() {
            Request::SuggestBatch { now, entries: got } => {
                assert_eq!(now, 42);
                assert_eq!(got.iter().collect::<Vec<_>>(), entries);
            }
            other => panic!("wrong request: {other:?}"),
        }

        buf.clear();
        encode_rolling_publish(&mut buf, "/tmp/snap.sqp", true);
        match decode_request(&buf).unwrap() {
            Request::RollingPublish {
                abort_on_failure,
                path,
            } => assert_eq!((abort_on_failure, path), (true, "/tmp/snap.sqp")),
            other => panic!("wrong request: {other:?}"),
        }
        assert!(decode_request(&buf).unwrap().is_admin());
    }

    #[test]
    fn reply_roundtrips() {
        let mut buf = Vec::new();
        let sugg = |q: &str, s: f64| Suggestion {
            query: q.into(),
            score: s,
        };

        encode_suggestions(&mut buf, &[sugg("rust book", 0.5), sugg("rust lang", 0.25)]);
        match decode_reply(&buf).unwrap() {
            Reply::Suggestions(list) => {
                let got: Vec<_> = list.iter().collect();
                assert_eq!(got, vec![(0.5, "rust book"), (0.25, "rust lang")]);
            }
            other => panic!("wrong reply: {other:?}"),
        }

        buf.clear();
        encode_batch(
            &mut buf,
            &[
                vec![sugg("a", 1.0)],
                vec![],
                vec![sugg("b", 0.5), sugg("c", 0.25)],
            ],
        );
        match decode_reply(&buf).unwrap() {
            Reply::Batch(lists) => {
                let got: Vec<Vec<_>> = lists.iter().map(|l| l.iter().collect()).collect();
                assert_eq!(
                    got,
                    vec![vec![(1.0, "a")], vec![], vec![(0.5, "b"), (0.25, "c")],]
                );
            }
            other => panic!("wrong reply: {other:?}"),
        }

        buf.clear();
        let stats = WireStats {
            generation: 3,
            tracks: 10,
            suggests: 20,
            publishes: 3,
            shed: 1,
            evictions: 2,
            active_sessions: 4,
        };
        encode_stats_reply(&mut buf, &stats);
        match decode_reply(&buf).unwrap() {
            Reply::Stats(got) => assert_eq!(got, stats),
            other => panic!("wrong reply: {other:?}"),
        }

        buf.clear();
        encode_rolled(
            &mut buf,
            &RollSummary {
                aborted: true,
                upgraded: 2,
                failed: 1,
                skipped: 1,
            },
        );
        match decode_reply(&buf).unwrap() {
            Reply::Rolled(summary) => {
                assert_eq!(
                    (summary.upgraded, summary.failed, summary.skipped),
                    (2, 1, 1)
                );
                assert!(summary.aborted);
            }
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_get_typed_errors() {
        assert!(matches!(decode_request(&[]), Err(WireError::EmptyFrame)));
        assert!(matches!(
            decode_request(&[0x55]),
            Err(WireError::UnknownOpcode(0x55))
        ));

        // Truncation anywhere inside a valid request body.
        let mut buf = Vec::new();
        encode_track_suggest(&mut buf, 7, "rust", 3, 1_000);
        for cut in 1..buf.len() {
            assert!(
                decode_request(&buf[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }

        // Trailing garbage after a complete request.
        buf.push(0);
        assert!(matches!(
            decode_request(&buf),
            Err(WireError::TrailingBytes { extra: 1 })
        ));

        // A declared query length larger than the protocol limit is
        // rejected before any allocation happens on its behalf.
        let mut huge = vec![op::TRACK];
        huge.extend_from_slice(&7u64.to_le_bytes());
        huge.extend_from_slice(&1_000u64.to_le_bytes());
        put_uvarint(&mut huge, (MAX_QUERY_LEN as u64) + 1);
        assert!(matches!(
            decode_request(&huge),
            Err(WireError::LimitExceeded {
                what: "query length",
                ..
            })
        ));

        // Invalid UTF-8 in a string field.
        let mut bad = vec![op::TRACK];
        bad.extend_from_slice(&7u64.to_le_bytes());
        bad.extend_from_slice(&1_000u64.to_le_bytes());
        put_uvarint(&mut bad, 2);
        bad.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(decode_request(&bad).unwrap_err(), WireError::BadUtf8);
        assert_eq!(WireError::BadUtf8.code(), code::BAD_UTF8);
    }
}
