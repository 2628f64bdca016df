//! FORMAT.md conformance: build the exact toy snapshot the specification
//! walks through and locate every field using **only the offsets and sizes
//! stated in the document**. If the writer and FORMAT.md drift — a field
//! moves, a size changes, the checksum algorithm changes — this fails.

use sqp_common::{seq, Interner};
use sqp_serve::ModelSnapshot;
use sqp_store::{fnv1a64_words, parse_section_table, snapshot_from_bytes, snapshot_to_bytes};
use sqp_store::{SnapshotMeta, FORMAT_VERSION};

/// The toy corpus of FORMAT.md's worked examples: `[0, 1] × 3`.
fn toy_sessions() -> Vec<(sqp_common::QuerySeq, u64)> {
    vec![(seq(&[0, 1]), 3)]
}

/// The toy snapshot of FORMAT.md's first worked example: Adjacency.
fn toy_snapshot_bytes() -> Vec<u8> {
    toy_bytes(Box::new(sqp_core::Adjacency::train(&toy_sessions())))
}

/// `model` over the toy interner `{0: "rust", 1: "rust book"}` with meta
/// `{generation: 7, trained_sessions: 3, source_records: 6}`.
fn toy_bytes(model: Box<dyn sqp_core::Recommender>) -> Vec<u8> {
    let mut interner = Interner::new();
    interner.intern("rust");
    interner.intern("rust book");
    let snapshot = ModelSnapshot::from_parts(interner, model, 3);
    snapshot_to_bytes(
        &snapshot,
        &SnapshotMeta {
            generation: 7,
            trained_sessions: 3,
            source_records: 6,
        },
    )
    .unwrap()
}

/// The checksum as FORMAT.md words it, written from the document and not
/// from the library: FNV-1a 64 over the body's whole 8-byte words, each
/// read little-endian, then over the 0–7 bytes left one at a time.
fn checksum_per_format_md(body: &[u8]) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut h: u64 = 0xcbf29ce484222325;
    let whole = body.len() / 8 * 8;
    for word in body[..whole].chunks(8) {
        let value = word
            .iter()
            .enumerate()
            .fold(0u64, |v, (i, &b)| v | (b as u64) << (8 * i));
        h = (h ^ value).wrapping_mul(PRIME);
    }
    for &b in &body[whole..] {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h
}

fn u32_at(raw: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(raw[offset..offset + 4].try_into().unwrap())
}

fn u64_at(raw: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(raw[offset..offset + 8].try_into().unwrap())
}

fn f64_at(raw: &[u8], offset: usize) -> f64 {
    f64::from_bits(u64_at(raw, offset))
}

/// The trie block every trie-backed example carries, from its start at
/// `at` as FORMAT.md lays it out: `window_len`, `n_rows` = 3, then the
/// `parent`, `key`, `total` and `at_start` columns, three entries each.
fn assert_toy_trie_block(raw: &[u8], at: usize) {
    assert_eq!(
        (u32_at(raw, at), u64_at(raw, at + 4)),
        (2, 3),
        "window_len, n_rows"
    );
    let u32s = |from: usize| [0, 1, 2].map(|i| u32_at(raw, from + 4 * i));
    let u64s = |from: usize| [0, 1, 2].map(|i| u64_at(raw, from + 8 * i));
    assert_eq!(u32s(at + 12), [0, 0, 1], "parent column");
    assert_eq!(u32s(at + 24), [0, 1, 1], "key column");
    assert_eq!(u64s(at + 36), [3, 3, 3], "total column");
    assert_eq!(u64s(at + 60), [3, 0, 3], "at_start column");
}

/// Checks shared by the trie-backed examples: the MODEL section is
/// where the document says, with the tag and payload length it says, and
/// the file means what the document says it means. Returns the payload.
fn trie_backed_payload(raw: &[u8], tag: u32, payload_len: usize) -> &[u8] {
    assert_eq!(raw.len(), 133 + payload_len + 8, "file length");
    let model = parse_section_table(raw).unwrap()[2];
    assert_eq!(
        (model.id, model.offset, model.len),
        (3, 129, 4 + payload_len)
    );
    assert_eq!(u32_at(raw, 129), tag, "model kind tag");
    let (snapshot, _) = snapshot_from_bytes(raw).unwrap();
    let top = snapshot.suggest(&["rust"], 1);
    assert_eq!(top[0].query, "rust book");
    &raw[133..133 + payload_len]
}

#[test]
fn toy_snapshot_matches_the_documented_layout() {
    let raw = toy_snapshot_bytes();

    // FORMAT.md: "produce this 165-byte file".
    assert_eq!(raw.len(), 165);

    // Header (offsets 0, 4, 8).
    assert_eq!(&raw[0..4], b"SQPS");
    assert_eq!(u32_at(&raw, 4), FORMAT_VERSION);
    assert_eq!(u32_at(&raw, 8), 3, "section count");

    // Section table: entries of 20 bytes at offsets 12 / 32 / 52, with
    // the documented (id, offset, length) triples.
    for (entry_offset, id, offset, len) in [(12, 1, 72, 24), (32, 2, 96, 33), (52, 3, 129, 28)] {
        assert_eq!(u32_at(&raw, entry_offset), id, "section id");
        assert_eq!(u64_at(&raw, entry_offset + 4), offset, "section offset");
        assert_eq!(u64_at(&raw, entry_offset + 12), len, "section length");
    }

    // META at 72: generation 7, trained_sessions 3, source_records 6.
    assert_eq!(u64_at(&raw, 72), 7);
    assert_eq!(u64_at(&raw, 80), 3);
    assert_eq!(u64_at(&raw, 88), 6);

    // INTERNER at 96: 2 queries, 13 content bytes, "rust", "rust book".
    assert_eq!(u32_at(&raw, 96), 2);
    assert_eq!(u64_at(&raw, 100), 13);
    assert_eq!(u32_at(&raw, 108), 4);
    assert_eq!(&raw[112..116], b"rust");
    assert_eq!(u32_at(&raw, 116), 9);
    assert_eq!(&raw[120..129], b"rust book");

    // MODEL at 129: kind 2 (Adjacency), one list: 0 → [(1, count 3)].
    assert_eq!(u32_at(&raw, 129), 2, "model kind tag");
    assert_eq!(u32_at(&raw, 133), 1, "n_lists");
    assert_eq!(u32_at(&raw, 137), 0, "source query id");
    assert_eq!(u32_at(&raw, 141), 1, "count-list entries");
    assert_eq!(u32_at(&raw, 145), 1, "successor query id");
    assert_eq!(u64_at(&raw, 149), 3, "successor count");

    // Checksum at 157: the documented constant, which must equal the
    // document's word-wise FNV-1a 64 of everything before it — as the
    // document states it and as the library computes it.
    assert_eq!(u64_at(&raw, 157), 0xde269e43a5ce96ff);
    assert_eq!(checksum_per_format_md(&raw[..157]), 0xde269e43a5ce96ff);
    assert_eq!(fnv1a64_words(&raw[..157]), 0xde269e43a5ce96ff);

    // The library's own table parser agrees with the documented offsets.
    let entries = parse_section_table(&raw).unwrap();
    assert_eq!(
        entries
            .iter()
            .map(|e| (e.id, e.offset, e.len))
            .collect::<Vec<_>>(),
        vec![(1, 72, 24), (2, 96, 33), (3, 129, 28)]
    );

    // And the file means what the spec says it means.
    let (snapshot, meta) = snapshot_from_bytes(&raw).unwrap();
    assert_eq!(meta.generation, 7);
    let top = snapshot.suggest(&["rust"], 1);
    assert_eq!(top[0].query, "rust book");
    assert_eq!(top[0].score, 3.0);
}

#[test]
fn toy_vmm_payload_matches_the_documented_layout() {
    let vmm = sqp_core::Vmm::train(&toy_sessions(), sqp_core::VmmConfig::with_epsilon(0.05));
    let raw = toy_bytes(Box::new(vmm));
    let p = trie_backed_payload(&raw, 1, 144);

    assert_eq!(
        (f64_at(p, 0), u64_at(p, 8), u64_at(p, 16)),
        (0.05, u64::MAX, 1)
    );
    assert_eq!((u64_at(p, 24), u64_at(p, 32), u64_at(p, 40)), (3, 6, 2));
    assert_toy_trie_block(p, 48);
    assert_eq!(
        (u64_at(p, 132), u32_at(p, 140)),
        (1, 1),
        "one state: node 1"
    );
}

#[test]
fn toy_mvmm_payload_matches_the_documented_layout() {
    let mixture = sqp_core::Mvmm::train(
        &toy_sessions(),
        &sqp_core::MvmmConfig {
            components: vec![
                sqp_core::VmmConfig::with_epsilon(0.0),
                sqp_core::VmmConfig::with_epsilon(0.05),
            ],
            ..sqp_core::MvmmConfig::default()
        },
    );
    let sigmas = mixture.sigmas().to_vec();
    let raw = toy_bytes(Box::new(mixture));
    let p = trie_backed_payload(&raw, 6, 190);

    assert_eq!((u64_at(p, 0), u64_at(p, 8), u64_at(p, 16)), (3, 6, 2));
    assert_toy_trie_block(p, 24);
    assert_eq!(u32_at(p, 108), 2, "K");
    for (component, (at, epsilon)) in [(112, 0.0), (144, 0.05)].into_iter().enumerate() {
        assert_eq!(
            (f64_at(p, at), u64_at(p, at + 8), u64_at(p, at + 16)),
            (epsilon, u64::MAX, 1)
        );
        assert_eq!(
            u64_at(p, at + 24),
            sigmas[component].to_bits(),
            "sigma, bit for bit"
        );
    }
    assert_eq!((u64_at(p, 176), u32_at(p, 184)), (1, 1), "node 1");
    assert_eq!(&p[188..190], &[0b11, 0], "node 1 is both components' state");
}

#[test]
fn toy_snapshot_is_byte_stable() {
    // The hexdump in FORMAT.md is only valid while serialization is
    // deterministic; re-generate twice and compare.
    assert_eq!(toy_snapshot_bytes(), toy_snapshot_bytes());
}

#[test]
fn every_single_byte_change_and_every_truncation_moves_the_checksum() {
    // 1 KiB of scrambled bytes, so no two words are alike.
    let buf: Vec<u8> = (0..1024u32)
        .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8)
        .collect();
    let sum = fnv1a64_words(&buf);
    for i in 0..buf.len() {
        for mask in [0x01, 0x80, 0xff] {
            let mut bad = buf.clone();
            bad[i] ^= mask;
            assert_ne!(fnv1a64_words(&bad), sum, "byte {i} ^ {mask:#04x}");
        }
    }
    // Every length is also every tail length 0–7: the library and the
    // document agree on each.
    for cut in 0..=buf.len() {
        let prefix = &buf[..cut];
        assert_eq!(
            fnv1a64_words(prefix),
            checksum_per_format_md(prefix),
            "{cut}"
        );
        if cut < buf.len() {
            assert_ne!(fnv1a64_words(prefix), sum, "truncation at {cut}");
        }
    }
}

#[test]
fn toy_backoff_payload_matches_the_documented_layout() {
    let backoff = sqp_core::BackoffNgram::train(&toy_sessions(), Default::default());
    let raw = toy_bytes(Box::new(backoff));
    let p = trie_backed_payload(&raw, 5, 108);

    assert_eq!(
        (u64_at(p, 0), f64_at(p, 8), u64_at(p, 16)),
        (4, 0.5, 1),
        "max_order, discount, min_support"
    );
    assert_toy_trie_block(p, 24);
}

#[test]
fn toy_ngram_payload_matches_the_documented_layout() {
    let ngram = sqp_core::NGram::train(&toy_sessions());
    let raw = toy_bytes(Box::new(ngram));
    let p = trie_backed_payload(&raw, 4, 60);

    // The prefix trie: `window_len` 1 (the session is two queries long),
    // two rows, node 1 `[0]` and node 2 `[0, 1]` under it.
    assert_eq!((u32_at(p, 0), u64_at(p, 4)), (1, 2), "window_len, n_rows");
    assert_eq!([u32_at(p, 12), u32_at(p, 16)], [0, 1], "parent column");
    assert_eq!([u32_at(p, 20), u32_at(p, 24)], [0, 1], "key column");
    assert_eq!([u64_at(p, 28), u64_at(p, 36)], [3, 3], "total column");
    assert_eq!([u64_at(p, 44), u64_at(p, 52)], [3, 3], "at_start column");
}
