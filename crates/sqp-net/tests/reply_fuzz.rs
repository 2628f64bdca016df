//! Hostile replies: the client side of the suggestion-list grammar.
//!
//! `net_fuzz` attacks the server's request decoder; this is the other
//! direction, for the two replies whose bodies are attacker-sized:
//! `R_SUGGESTIONS` and `R_BATCH`. One function walks that grammar
//! (`wire::decode_reply_into`); it must give every malformed body the
//! same typed [`WireError`] the decoder it replaced gave — kept here as a
//! plain reference implementation — and every well-formed one the same
//! lists, whatever sink it is pushing into. The sweep is exhaustive over
//! two seed bodies: every strict prefix and every value of every byte,
//! plus the protocol-limit and trailing-byte cases by construction.
//!
//! Every other reply opcode gets the same sweep over one seed body each,
//! with no reference to agree with: each prefix and each corruption must
//! decode to a whole [`Reply`] or a typed [`WireError`], never a panic.
//!
//! The last test puts a lying server behind a real socket: `NetClient`
//! must answer `Err`, never a shorter `BatchAnswer` than the server
//! claimed.

use sqp_common::bytes::{get_uvarint, put_uvarint};
use sqp_net::frame::{read_frame, write_frame, FrameRead};
use sqp_net::wire::{
    self, op, BatchEntry, Reply, RollSummary, WireError, WireStats, MAX_BATCH, MAX_K, MAX_QUERY_LEN,
};
use sqp_net::{BatchAnswer, NetClient, NetError};
use sqp_serve::{SuggestSink, Suggestion};
use std::net::TcpListener;

type Lists = Vec<Vec<Suggestion>>;

/// The decoder this PR's walker replaced, for these two opcodes: bounds,
/// then limits, then UTF-8, field by field, then trailing bytes.
fn reference(body: &[u8]) -> Result<Lists, WireError> {
    fn bounded(
        body: &[u8],
        at: &mut usize,
        what: &'static str,
        max: usize,
    ) -> Result<usize, WireError> {
        let got = get_uvarint(body, at).ok_or(WireError::Truncated)?;
        if got > max as u64 {
            return Err(WireError::LimitExceeded {
                what,
                got,
                max: max as u64,
            });
        }
        Ok(got as usize)
    }
    fn take<'a>(body: &'a [u8], at: &mut usize, len: usize) -> Result<&'a [u8], WireError> {
        let end = at.checked_add(len).ok_or(WireError::Truncated)?;
        let bytes = body.get(*at..end).ok_or(WireError::Truncated)?;
        *at = end;
        Ok(bytes)
    }
    fn list(body: &[u8], at: &mut usize) -> Result<Vec<Suggestion>, WireError> {
        let count = bounded(body, at, "suggestion count", MAX_K)?;
        let mut out = Vec::new();
        for _ in 0..count {
            let score = take(body, at, 8)?;
            let score = f64::from_bits(u64::from_le_bytes(score.try_into().unwrap()));
            let len = bounded(body, at, "query length", MAX_QUERY_LEN)?;
            let query =
                std::str::from_utf8(take(body, at, len)?).map_err(|_| WireError::BadUtf8)?;
            out.push(Suggestion {
                query: query.into(),
                score,
            });
        }
        Ok(out)
    }

    let mut at = 1;
    let lists = match *body.first().ok_or(WireError::EmptyFrame)? {
        op::R_SUGGESTIONS => vec![list(body, &mut at)?],
        op::R_BATCH => {
            let count = bounded(body, &mut at, "batch size", MAX_BATCH)?;
            let mut lists = Vec::new();
            for _ in 0..count {
                lists.push(list(body, &mut at)?);
            }
            lists
        }
        other => panic!("the sweep left the grammar: opcode {other:#04x}"),
    };
    if at != body.len() {
        return Err(WireError::TrailingBytes {
            extra: body.len() - at,
        });
    }
    Ok(lists)
}

/// A sink that also records every announced list length, to show no
/// announcement ever exceeds the protocol limit.
#[derive(Default)]
struct Recording {
    lists: Lists,
    announced: Vec<usize>,
}

impl SuggestSink for Recording {
    fn list(&mut self, len: usize) {
        self.announced.push(len);
        self.lists.push(Vec::new());
    }
    fn suggestion(&mut self, query: &str, score: f64) {
        self.lists.last_mut().unwrap().push(Suggestion {
            query: query.into(),
            score,
        });
    }
}

/// `f64` payloads must compare bit for bit (a corrupted score may be NaN).
fn bits(lists: &Lists) -> Vec<Vec<(&str, u64)>> {
    lists
        .iter()
        .map(|l| {
            l.iter()
                .map(|s| (s.query.as_str(), s.score.to_bits()))
                .collect()
        })
        .collect()
}

/// Decode `body` every way the crate offers and hold all of them to the
/// reference: same error, or same lists through the sink *and* through the
/// borrowed views.
fn check(body: &[u8], what: &str) {
    let expected = reference(body);
    let mut sink = Recording::default();
    let walked = wire::decode_reply_into(body, &mut sink);
    let viewed = wire::decode_reply(body);
    assert!(
        sink.announced.iter().all(|&len| len <= MAX_K),
        "{what}: a list of {:?} was announced to the sink",
        sink.announced.iter().max()
    );
    match expected {
        Err(expected) => {
            assert_eq!(walked.err(), Some(expected.clone()), "{what}");
            assert_eq!(viewed.err(), Some(expected), "{what}");
        }
        Ok(expected) => {
            assert!(walked.is_ok(), "{what}: {walked:?}");
            assert_eq!(bits(&sink.lists), bits(&expected), "{what}");
            let from_views: Lists = match viewed.unwrap_or_else(|e| panic!("{what}: {e}")) {
                Reply::Suggestions(list) => vec![owned(list.iter())],
                Reply::Batch(lists) => lists.iter().map(|l| owned(l.iter())).collect(),
                other => panic!("{what}: {other:?}"),
            };
            assert_eq!(bits(&from_views), bits(&expected), "{what}");
        }
    }
}

fn owned<'a>(pairs: impl Iterator<Item = (f64, &'a str)>) -> Vec<Suggestion> {
    pairs
        .map(|(score, query)| Suggestion {
            query: query.into(),
            score,
        })
        .collect()
}

fn sugg(query: &str, score: f64) -> Suggestion {
    Suggestion {
        query: query.into(),
        score,
    }
}

/// Two valid bodies with every feature of the grammar: empty lists, a
/// multi-byte UTF-8 query, an empty query, a two-byte length varint.
fn seed_bodies() -> Vec<Vec<u8>> {
    let long = "q".repeat(200);
    let lists = vec![
        vec![sugg("rust book", 0.5), sugg("naïve café ☕", 0.25)],
        vec![],
        vec![sugg("", 1.0), sugg(&long, -0.0), sugg("z", f64::MAX)],
        vec![],
    ];
    let (mut single, mut batch) = (Vec::new(), Vec::new());
    wire::encode_suggestions(&mut single, &lists[0]);
    wire::encode_batch(&mut batch, &lists);
    vec![single, batch]
}

#[test]
fn every_prefix_and_every_single_byte_corruption_decodes_like_the_reference() {
    for (which, body) in seed_bodies().iter().enumerate() {
        assert!(reference(body).is_ok());
        check(body, "the valid body");
        for cut in 1..body.len() {
            let expected = reference(&body[..cut]);
            assert!(expected.is_err(), "body {which}: a strict prefix decoded");
            check(&body[..cut], &format!("body {which} cut at {cut}"));
        }
        let mut corrupt = body.clone();
        for at in 1..body.len() {
            for value in 0..=u8::MAX {
                if value == body[at] {
                    continue;
                }
                corrupt[at] = value;
                check(&corrupt, &format!("body {which} byte {at} = {value:#04x}"));
            }
            corrupt[at] = body[at];
        }
    }
}

#[test]
fn limits_and_trailing_bytes_are_typed_before_anything_is_kept() {
    // A list count one past MAX_K, in both replies.
    let mut body = vec![op::R_SUGGESTIONS];
    put_uvarint(&mut body, MAX_K as u64 + 1);
    let limit = |what, got, max: usize| WireError::LimitExceeded {
        what,
        got,
        max: max as u64,
    };
    assert_eq!(
        reference(&body).unwrap_err(),
        limit("suggestion count", MAX_K as u64 + 1, MAX_K)
    );
    check(&body, "over-limit suggestion count");

    let mut body = vec![op::R_BATCH];
    put_uvarint(&mut body, 2);
    put_uvarint(&mut body, 0);
    put_uvarint(&mut body, u64::MAX);
    check(
        &body,
        "over-limit suggestion count in a batch's second list",
    );

    let mut body = vec![op::R_BATCH];
    put_uvarint(&mut body, MAX_BATCH as u64 + 1);
    assert_eq!(
        reference(&body).unwrap_err(),
        limit("batch size", MAX_BATCH as u64 + 1, MAX_BATCH)
    );
    check(&body, "over-limit batch size");

    // A query length one past the limit, with the bytes really there.
    let mut body = vec![op::R_SUGGESTIONS];
    put_uvarint(&mut body, 1);
    body.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    put_uvarint(&mut body, MAX_QUERY_LEN as u64 + 1);
    body.extend(std::iter::repeat_n(b'q', MAX_QUERY_LEN + 1));
    assert_eq!(
        reference(&body).unwrap_err(),
        limit("query length", MAX_QUERY_LEN as u64 + 1, MAX_QUERY_LEN)
    );
    check(&body, "over-limit query length");

    // A maximal claim with nothing behind it: typed, and the sink was told
    // of at most one list, within the limit.
    let mut body = vec![op::R_BATCH];
    put_uvarint(&mut body, MAX_BATCH as u64);
    put_uvarint(&mut body, MAX_K as u64);
    assert_eq!(reference(&body).unwrap_err(), WireError::Truncated);
    check(&body, "maximal counts, no entries");

    for mut body in seed_bodies() {
        body.push(0);
        assert_eq!(
            reference(&body).unwrap_err(),
            WireError::TrailingBytes { extra: 1 }
        );
        check(&body, "one trailing byte");
    }
}

/// One seed body per reply opcode outside the list grammar, written by
/// its encoder, with the reply it must decode to. Between them: a two-byte
/// varint, every fixed-width field, a multi-byte UTF-8 message and a body
/// of the opcode alone.
fn other_seed_bodies() -> Vec<(Vec<u8>, Reply<'static>)> {
    let stats = WireStats {
        generation: 7,
        tracks: 1 << 40,
        suggests: 3,
        publishes: 2,
        shed: u64::MAX,
        evictions: 0,
        active_sessions: 12,
    };
    let rolled = RollSummary {
        aborted: true,
        upgraded: 4,
        failed: 200,
        skipped: 1,
    };
    let message = "publish failed: naïve ☕";
    let mut seeds = Vec::new();
    let mut seed = |encode: &dyn Fn(&mut Vec<u8>), reply| {
        let mut body = Vec::new();
        encode(&mut body);
        seeds.push((body, reply));
    };
    seed(
        &|b| wire::encode_ack(b, true, 300),
        Reply::Ack {
            new_session: true,
            context_len: 300,
        },
    );
    seed(
        &|b| wire::encode_stats_reply(b, &stats),
        Reply::Stats(stats),
    );
    seed(
        &|b| wire::encode_overloaded(b, 64),
        Reply::Overloaded { limit: 64 },
    );
    seed(
        &|b| wire::encode_error(b, wire::code::PUBLISH_FAILED, message),
        Reply::Error {
            code: wire::code::PUBLISH_FAILED,
            message,
        },
    );
    seed(
        &|b| wire::encode_published(b, 3),
        Reply::Published { generation: 3 },
    );
    seed(&|b| wire::encode_rolled(b, &rolled), Reply::Rolled(rolled));
    seed(&|b| wire::encode_pong(b), Reply::Pong);
    seed(
        &|b| wire::encode_evicted(b, 12_345),
        Reply::Evicted { count: 12_345 },
    );
    seeds
}

/// Read every field of a decoded reply, lists included: a reply that
/// decoded is whole.
fn read_whole(reply: Reply<'_>) -> String {
    match reply {
        Reply::Suggestions(list) => format!("{:?}", owned(list.iter())),
        Reply::Batch(lists) => format!(
            "{:?}",
            lists.iter().map(|l| owned(l.iter())).collect::<Lists>()
        ),
        other => format!("{other:?}"),
    }
}

#[test]
fn every_other_reply_decodes_whole_or_typed_under_every_prefix_and_corruption() {
    let seeds = other_seed_bodies();
    let opcodes: Vec<u8> = seeds.iter().map(|(body, _)| body[0]).collect();
    assert_eq!(
        opcodes,
        [
            op::R_ACK,
            op::R_STATS,
            op::R_OVERLOADED,
            op::R_ERROR,
            op::R_PUBLISHED,
            op::R_ROLLED,
            op::R_PONG,
            op::R_EVICTED
        ]
    );
    for (body, expected) in &seeds {
        let what = format!("opcode {:#04x}", body[0]);
        // The untouched seed round-trips.
        let decoded = wire::decode_reply(body).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(format!("{decoded:?}"), format!("{expected:?}"), "{what}");
        // Every field is required, so every strict prefix is short.
        for cut in 0..body.len() {
            let expected = if cut == 0 {
                WireError::EmptyFrame
            } else {
                WireError::Truncated
            };
            assert_eq!(
                wire::decode_reply(&body[..cut]).err(),
                Some(expected),
                "{what} cut at {cut}"
            );
        }
        // Any value of any byte, the opcode's included: a whole reply of
        // whatever the bytes now say, or a typed error.
        let mut corrupt = body.clone();
        for at in 0..body.len() {
            for value in 0..=u8::MAX {
                corrupt[at] = value;
                if let Ok(reply) = wire::decode_reply(&corrupt) {
                    read_whole(reply);
                }
            }
            corrupt[at] = body[at];
        }
    }
}

#[test]
fn net_client_returns_err_never_a_partial_answer() {
    let valid = seed_bodies().remove(1);
    // Well-framed bodies that go wrong only after whole lists have been
    // walked: a partial answer is there for the taking.
    let mut bad_utf8 = valid.clone();
    let z = bad_utf8.iter().rposition(|&b| b == b'z').unwrap();
    bad_utf8[z] = 0xFF;
    let mut trailing = valid.clone();
    trailing.push(0);
    let cut = valid[..valid.len() - 3].to_vec();
    let hostile = [bad_utf8, trailing, cut];

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let replies: Vec<Vec<u8>> = hostile.iter().cloned().chain([valid.clone()]).collect();
    let server = std::thread::spawn(move || {
        // One connection per reply: the client drops a connection whose
        // reply did not decode.
        let mut request = Vec::new();
        for reply in replies {
            let (mut stream, _) = listener.accept().unwrap();
            match read_frame(&mut stream, &mut request, wire::DEFAULT_MAX_FRAME).unwrap() {
                FrameRead::Frame => {}
                other => panic!("expected a request, got {other:?}"),
            }
            write_frame(&mut stream, &reply, wire::DEFAULT_MAX_FRAME).unwrap();
        }
    });

    let entries = [BatchEntry { user: 1, k: 3 }; 4];
    for body in &hostile {
        let expected = reference(body).unwrap_err();
        let mut client = NetClient::connect(addr).unwrap();
        match client.suggest_batch(&entries, 10) {
            Err(NetError::Wire(got)) => assert_eq!(got, expected),
            other => panic!("a hostile reply produced {other:?}"),
        }
    }
    let mut client = NetClient::connect(addr).unwrap();
    match client.suggest_batch(&entries, 10).unwrap() {
        BatchAnswer::Lists(lists) => assert_eq!(bits(&lists), bits(&reference(&valid).unwrap())),
        other => panic!("the valid reply produced {other:?}"),
    }
    server.join().unwrap();
}
