//! Snapshot container format v10 — one file that boots a serving process.
//!
//! A snapshot file bundles everything [`ModelSnapshot`] needs: the frozen
//! [`Interner`], the trained model behind its
//! [`ModelKind`] tag, and lifecycle metadata
//! ([`SnapshotMeta`]). The layout is a length-prefixed **section table** —
//! the loader learns every section's size before touching its payload, so
//! it pre-sizes the interner tables and model arenas up front and never
//! grows a structure mid-load — followed by the section payloads and a
//! trailing whole-file FNV-1a 64 checksum, taken a word at a time
//! ([`fnv1a64_words`]).
//!
//! The byte-level specification, with a worked hexdump of a toy snapshot,
//! lives in the repository's `FORMAT.md`; a conformance test
//! (`tests/format_spec.rs`) parses a freshly written snapshot using only
//! the offsets and sizes stated there.
//!
//! Writes are atomic-by-rename: [`save_snapshot`] writes `<path>.tmp` and
//! renames over the target, so a reader (or a crash) can never observe a
//! half-written snapshot at the published path.

use crate::error::SnapshotError;
use sqp_common::bytes::{Bytes, BytesMut};
use sqp_common::Interner;
use sqp_core::persist::{model_from_bytes, put_model, ModelKind};
use sqp_serve::ModelSnapshot;
use std::path::Path;

/// First four bytes of every snapshot file.
pub const MAGIC: [u8; 4] = *b"SQPS";
/// Container version this build writes and reads. Version 10's MVMM
/// payload is one merged state list with a component mask per state where
/// version 9 wrote a state list per component; every other payload is
/// version 9's. An older file is refused by version, not decoded.
pub const FORMAT_VERSION: u32 = 10;
/// Size of the fixed header: magic + version + section count.
pub const HEADER_LEN: usize = 12;
/// Size of one section-table entry: id `u32`, offset `u64`, length `u64`.
pub const SECTION_ENTRY_LEN: usize = 20;
/// Size of the trailing checksum.
pub const CHECKSUM_LEN: usize = 8;

/// Section id of the metadata block.
pub const SECTION_META: u32 = 1;
/// Section id of the interner block.
pub const SECTION_INTERNER: u32 = 2;
/// Section id of the model block.
pub const SECTION_MODEL: u32 = 3;
/// Sections every snapshot carries, in file order.
pub const SECTION_IDS: [u32; 3] = [SECTION_META, SECTION_INTERNER, SECTION_MODEL];

/// Byte length of the META section payload (three `u64` fields).
pub const META_SECTION_LEN: usize = 24;

/// Lifecycle metadata stored alongside the model.
///
/// `trained_sessions` duplicates what the reconstructed
/// [`ModelSnapshot`] reports, but `generation` and `source_records` exist
/// *only* here: they let an operator (or the retrainer's rotation logic)
/// reason about a directory of snapshots without loading any model bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Which retrain produced this snapshot (0 = initial offline build;
    /// the retrainer increments per publish).
    pub generation: u64,
    /// Weighted session mass the model was trained on.
    pub trained_sessions: u64,
    /// Raw log records in the training window that produced the model.
    pub source_records: u64,
}

impl SnapshotMeta {
    /// Metadata for `snapshot` at `generation`, trained from
    /// `source_records` raw records.
    pub fn describe(snapshot: &ModelSnapshot, generation: u64, source_records: u64) -> Self {
        Self {
            generation,
            trained_sessions: snapshot.trained_sessions(),
            source_records,
        }
    }
}

/// FNV-1a 64 over `bytes` read as little-endian `u64` words, then over the
/// 0–7 tail bytes one at a time — the snapshot checksum. Stated in full in
/// `FORMAT.md` so independent tooling can verify files: start from the
/// offset basis `0xcbf29ce484222325`; for each whole 8-byte word XOR it in,
/// then multiply by the prime `0x100000001b3` (wrapping); then the same for
/// each remaining byte. Each step is a bijection of the running hash, so a
/// change confined to one word or one byte always changes the result.
pub fn fnv1a64_words(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let step = |h: u64, v: u64| (h ^ v).wrapping_mul(PRIME);
    let mut words = bytes.chunks_exact(8);
    let h = words.by_ref().fold(OFFSET_BASIS, |h, w| {
        let word = w.try_into().expect("chunks_exact(8) yields 8-byte words");
        step(h, u64::from_le_bytes(word))
    });
    words.remainder().iter().fold(h, |h, &b| step(h, b as u64))
}

/// Serialize a snapshot + metadata into the container bytes.
///
/// Fails only when the model behind the snapshot has no [`ModelKind`] —
/// an ad-hoc [`Recommender`](sqp_core::Recommender) handed to
/// [`ModelSnapshot::from_parts`]; everything a
/// [`ModelSpec`](sqp_serve::ModelSpec) trains has one. Output is
/// deterministic: identical snapshots produce bit-identical files.
pub fn snapshot_to_bytes(
    snapshot: &ModelSnapshot,
    meta: &SnapshotMeta,
) -> Result<Vec<u8>, SnapshotError> {
    // Every section is written straight into the file buffer, in table
    // order; the table is filled in once their extents are known. The
    // model payload reserves its own (exact) room as it starts.
    const TABLE_LEN: usize = SECTION_IDS.len() * SECTION_ENTRY_LEN;
    let interner = snapshot.interner();
    let mut out = BytesMut::with_capacity(
        HEADER_LEN + TABLE_LEN + META_SECTION_LEN + 16 + interner.bytes_resident() * 2,
    );
    out.put_slice(&MAGIC);
    out.put_u32_le(FORMAT_VERSION);
    out.put_u32_le(SECTION_IDS.len() as u32);
    out.put_slice(&[0; TABLE_LEN]);
    let mut ends = [0usize; SECTION_IDS.len()];

    out.put_u64_le(meta.generation);
    out.put_u64_le(meta.trained_sessions);
    out.put_u64_le(meta.source_records);
    ends[0] = out.len();

    interner.serialize_into(&mut out);
    ends[1] = out.len();

    // MODEL: kind tag, then the model's own codec.
    out.put_u32_le(0);
    let kind = put_model(&mut out, snapshot.model()).map_err(SnapshotError::UnsupportedModel)?;
    out.as_mut_slice()[ends[1]..ends[1] + 4].copy_from_slice(&kind.code().to_le_bytes());
    ends[2] = out.len();

    let mut start = HEADER_LEN + TABLE_LEN;
    for (i, (id, end)) in SECTION_IDS.into_iter().zip(ends).enumerate() {
        let entry =
            &mut out.as_mut_slice()[HEADER_LEN + i * SECTION_ENTRY_LEN..][..SECTION_ENTRY_LEN];
        entry[..4].copy_from_slice(&id.to_le_bytes());
        entry[4..12].copy_from_slice(&(start as u64).to_le_bytes());
        entry[12..].copy_from_slice(&((end - start) as u64).to_le_bytes());
        start = end;
    }
    let sum = fnv1a64_words(out.as_slice());
    out.put_u64_le(sum);
    Ok(out.into_vec())
}

/// One parsed section-table entry (exposed for format tooling and the
/// `FORMAT.md` conformance test).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section id (one of [`SECTION_IDS`]).
    pub id: u32,
    /// Absolute byte offset of the section payload within the file.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// Validate the fixed header and checksum of `raw` and parse the section
/// table, without touching any payload. The cheap integrity gate every
/// load runs first; exposed so ops tooling can inspect files.
pub fn parse_section_table(raw: &[u8]) -> Result<Vec<SectionEntry>, SnapshotError> {
    if raw.len() < 4 || raw[0..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if raw.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(SnapshotError::Corrupt(format!(
            "file is {} bytes, shorter than header + checksum",
            raw.len()
        )));
    }
    // The `try_into().unwrap()`s below are on fixed-width slices whose
    // length is guaranteed by the bounds checks directly above them —
    // `&raw[a..a + 4]` is always exactly 4 bytes — so they cannot fail.
    let version = u32::from_le_bytes(raw[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let body = &raw[..raw.len() - CHECKSUM_LEN];
    let stored = u64::from_le_bytes(raw[raw.len() - CHECKSUM_LEN..].try_into().unwrap());
    let computed = fnv1a64_words(body);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let n_sections = u32::from_le_bytes(raw[8..12].try_into().unwrap()) as usize;
    let table_end = HEADER_LEN
        .checked_add(
            n_sections
                .checked_mul(SECTION_ENTRY_LEN)
                .ok_or_else(|| SnapshotError::Corrupt("section count overflows".into()))?,
        )
        .ok_or_else(|| SnapshotError::Corrupt("section table overflows".into()))?;
    if table_end > body.len() {
        return Err(SnapshotError::Corrupt(format!(
            "section table ({n_sections} entries) exceeds file body"
        )));
    }
    let mut entries = Vec::with_capacity(n_sections);
    let mut cursor = HEADER_LEN;
    let mut expected_offset = table_end;
    for i in 0..n_sections {
        let id = u32::from_le_bytes(raw[cursor..cursor + 4].try_into().unwrap());
        let offset = u64::from_le_bytes(raw[cursor + 4..cursor + 12].try_into().unwrap());
        let len = u64::from_le_bytes(raw[cursor + 12..cursor + 20].try_into().unwrap());
        cursor += SECTION_ENTRY_LEN;
        let offset: usize = offset
            .try_into()
            .map_err(|_| SnapshotError::Corrupt(format!("section {i} offset overflows")))?;
        let len: usize = len
            .try_into()
            .map_err(|_| SnapshotError::Corrupt(format!("section {i} length overflows")))?;
        // Sections must tile the body contiguously, in table order — the
        // layout the writer produces and FORMAT.md specifies.
        if offset != expected_offset {
            return Err(SnapshotError::Corrupt(format!(
                "section {i} starts at {offset}, expected {expected_offset}"
            )));
        }
        expected_offset = offset
            .checked_add(len)
            .ok_or_else(|| SnapshotError::Corrupt(format!("section {i} extent overflows")))?;
        if expected_offset > body.len() {
            return Err(SnapshotError::Corrupt(format!(
                "section {i} (offset {offset}, len {len}) exceeds file body"
            )));
        }
        entries.push(SectionEntry { id, offset, len });
    }
    if expected_offset != body.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} unaccounted bytes after the last section",
            body.len() - expected_offset
        )));
    }
    Ok(entries)
}

fn required_section(
    entries: &[SectionEntry],
    id: u32,
    label: &str,
) -> Result<SectionEntry, SnapshotError> {
    let mut found = entries.iter().filter(|e| e.id == id);
    let entry = found
        .next()
        .copied()
        .ok_or_else(|| SnapshotError::Corrupt(format!("missing {label} section (id {id})")))?;
    if found.next().is_some() {
        return Err(SnapshotError::Corrupt(format!(
            "duplicate {label} section (id {id})"
        )));
    }
    Ok(entry)
}

/// Reconstruct a snapshot and its metadata from container bytes the
/// caller only borrows; the decoder works on a copy. A caller that owns
/// the buffer hands it to [`snapshot_from_vec`] instead.
pub fn snapshot_from_bytes(raw: &[u8]) -> Result<(ModelSnapshot, SnapshotMeta), SnapshotError> {
    snapshot_from_vec(raw.to_vec())
}

/// Reconstruct a snapshot and its metadata from an owned buffer of
/// container bytes — what a file read yields — without copying it.
///
/// Integrity order: magic → version → whole-file checksum → section table
/// → payloads. The model payload is decoded against the interner's size,
/// so a query id the interner never issued is `Corrupt` here rather than a
/// panic when an answer is rendered. Any violation returns the matching
/// [`SnapshotError`] variant; no code path panics and no partial snapshot
/// escapes.
pub fn snapshot_from_vec(raw: Vec<u8>) -> Result<(ModelSnapshot, SnapshotMeta), SnapshotError> {
    let entries = parse_section_table(&raw)?;
    // The file itself becomes the shared storage; the interner and model
    // payloads below are zero-copy cursor views into it.
    let shared = Bytes::from(raw);
    let raw = shared.as_slice();

    // META.
    let meta_entry = required_section(&entries, SECTION_META, "meta")?;
    if meta_entry.len != META_SECTION_LEN {
        return Err(SnapshotError::Corrupt(format!(
            "meta section is {} bytes, expected {META_SECTION_LEN}",
            meta_entry.len
        )));
    }
    let at = meta_entry.offset;
    // Fixed-width unwraps: the section table validated every section lies
    // inside the body and META_SECTION_LEN covers all three fields.
    let meta = SnapshotMeta {
        generation: u64::from_le_bytes(raw[at..at + 8].try_into().unwrap()),
        trained_sessions: u64::from_le_bytes(raw[at + 8..at + 16].try_into().unwrap()),
        source_records: u64::from_le_bytes(raw[at + 16..at + 24].try_into().unwrap()),
    };

    // INTERNER.
    let interner_entry = required_section(&entries, SECTION_INTERNER, "interner")?;
    let mut interner_bytes =
        shared.slice(interner_entry.offset..interner_entry.offset + interner_entry.len);
    let interner = Interner::deserialize(&mut interner_bytes)
        .map_err(|e| SnapshotError::Corrupt(format!("interner block: {e}")))?;
    if !interner_bytes.is_empty() {
        return Err(SnapshotError::Corrupt(format!(
            "interner block has {} trailing bytes",
            interner_bytes.remaining()
        )));
    }

    // MODEL.
    let model_entry = required_section(&entries, SECTION_MODEL, "model")?;
    if model_entry.len < 4 {
        return Err(SnapshotError::Corrupt(
            "model section shorter than its kind tag".into(),
        ));
    }
    let at = model_entry.offset;
    // Fixed-width unwrap: `model_entry.len >= 4` was just checked and the
    // section table validated the section lies inside the body.
    let code = u32::from_le_bytes(raw[at..at + 4].try_into().unwrap());
    let kind = ModelKind::from_code(code)
        .ok_or_else(|| SnapshotError::Corrupt(format!("unknown model kind tag {code}")))?;
    let payload = shared.slice(at + 4..at + model_entry.len);
    let model = model_from_bytes(kind, payload, interner.len())
        .map_err(|e| SnapshotError::Corrupt(format!("{} payload: {e}", kind.label())))?;

    Ok((
        ModelSnapshot::from_parts(interner, model, meta.trained_sessions),
        meta,
    ))
}

/// Write `snapshot` to `path` atomically (via `<path>.tmp` + rename).
///
/// # Examples
///
/// ```
/// use sqp_logsim::RawLogRecord;
/// use sqp_serve::{ModelSnapshot, ModelSpec, TrainingConfig};
/// use sqp_store::{load_snapshot, save_snapshot, SnapshotMeta};
///
/// let rec = |machine, ts, q: &str| RawLogRecord {
///     machine_id: machine, timestamp: ts, query: q.into(), clicks: vec![],
/// };
/// let mut records = Vec::new();
/// for u in 0..5 {
///     records.push(rec(u, 100, "rust"));
///     records.push(rec(u, 160, "rust atomics"));
/// }
/// let cfg = TrainingConfig { model: ModelSpec::Adjacency, ..TrainingConfig::default() };
/// let trained = ModelSnapshot::from_raw_logs(&records, &cfg);
/// let meta = SnapshotMeta::describe(&trained, 0, records.len() as u64);
///
/// let path = std::env::temp_dir().join(format!("sqp-doc-save-{}.sqps", std::process::id()));
/// save_snapshot(&path, &trained, &meta).unwrap();
///
/// // A fresh process cold-starts from the file alone.
/// let (restored, restored_meta) = load_snapshot(&path).unwrap();
/// assert_eq!(restored.suggest(&["rust"], 1)[0].query, "rust atomics");
/// assert_eq!(restored_meta, meta);
/// # std::fs::remove_file(&path).unwrap();
/// ```
pub fn save_snapshot(
    path: impl AsRef<Path>,
    snapshot: &ModelSnapshot,
    meta: &SnapshotMeta,
) -> Result<(), SnapshotError> {
    save_snapshot_with(&sqp_common::fsio::RealFs, path.as_ref(), snapshot, meta)
}

/// [`save_snapshot`] through an explicit [`FsIo`](sqp_common::fsio::FsIo)
/// seam — the variant the retrain loop uses so fault-injection
/// harnesses can fail or corrupt the write deterministically. Atomicity is
/// the seam's contract ([`FsIo::write_atomic`](sqp_common::fsio::FsIo)).
pub fn save_snapshot_with(
    io: &dyn sqp_common::fsio::FsIo,
    path: &Path,
    snapshot: &ModelSnapshot,
    meta: &SnapshotMeta,
) -> Result<(), SnapshotError> {
    let raw = snapshot_to_bytes(snapshot, meta)?;
    io.write_atomic(path, &raw)?;
    Ok(())
}

/// Load a snapshot file written by [`save_snapshot`].
///
/// # Examples
///
/// ```
/// use sqp_logsim::RawLogRecord;
/// use sqp_serve::{ModelSnapshot, ModelSpec, TrainingConfig};
/// use sqp_store::{load_snapshot, save_snapshot, SnapshotError, SnapshotMeta};
///
/// let rec = |machine, ts, q: &str| RawLogRecord {
///     machine_id: machine, timestamp: ts, query: q.into(), clicks: vec![],
/// };
/// let records: Vec<_> = (0..4)
///     .flat_map(|u| [rec(u, 100, "weather"), rec(u, 150, "weather radar")])
///     .collect();
/// let cfg = TrainingConfig { model: ModelSpec::Adjacency, ..TrainingConfig::default() };
/// let trained = ModelSnapshot::from_raw_logs(&records, &cfg);
///
/// let path = std::env::temp_dir().join(format!("sqp-doc-load-{}.sqps", std::process::id()));
/// save_snapshot(&path, &trained, &SnapshotMeta::describe(&trained, 7, 8)).unwrap();
/// let (warm, meta) = load_snapshot(&path).unwrap();
/// assert_eq!(meta.generation, 7);
/// assert_eq!(warm.model_name(), trained.model_name());
///
/// // Unreadable files are typed errors, never panics.
/// assert!(matches!(
///     load_snapshot("/nonexistent/snapshot.sqps"),
///     Err(SnapshotError::Io(_))
/// ));
/// # std::fs::remove_file(&path).unwrap();
/// ```
pub fn load_snapshot(
    path: impl AsRef<Path>,
) -> Result<(ModelSnapshot, SnapshotMeta), SnapshotError> {
    load_snapshot_with(&sqp_common::fsio::RealFs, path.as_ref())
}

/// [`load_snapshot`] through an explicit [`FsIo`](sqp_common::fsio::FsIo)
/// seam, so fault-injection harnesses can fail or truncate the read. A
/// short read surfaces as the same typed error a truncated file would.
pub fn load_snapshot_with(
    io: &dyn sqp_common::fsio::FsIo,
    path: &Path,
) -> Result<(ModelSnapshot, SnapshotMeta), SnapshotError> {
    snapshot_from_vec(io.read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_core::VmmConfig;
    use sqp_logsim::RawLogRecord;
    use sqp_serve::{ModelSpec, TrainingConfig};

    fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
        RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        }
    }

    fn toy_records() -> Vec<RawLogRecord> {
        let mut records = Vec::new();
        for u in 0..6 {
            records.push(rec(u, 100, "a"));
            records.push(rec(u, 160, "b"));
        }
        records
    }

    fn toy_snapshot(model: ModelSpec) -> ModelSnapshot {
        ModelSnapshot::from_raw_logs(
            &toy_records(),
            &TrainingConfig {
                model,
                ..TrainingConfig::default()
            },
        )
    }

    #[test]
    fn bytes_roundtrip_all_supported_specs() {
        for spec in [
            ModelSpec::Adjacency,
            ModelSpec::Cooccurrence,
            ModelSpec::NGram,
            ModelSpec::Backoff(sqp_core::BackoffConfig::default()),
            ModelSpec::Vmm(VmmConfig::with_epsilon(0.05)),
            ModelSpec::Mvmm(sqp_core::MvmmConfig::small()),
        ] {
            let snapshot = toy_snapshot(spec);
            let meta = SnapshotMeta::describe(&snapshot, 3, 12);
            let raw = snapshot_to_bytes(&snapshot, &meta).unwrap();
            let (restored, restored_meta) = snapshot_from_bytes(&raw).unwrap();
            assert_eq!(restored_meta, meta);
            assert_eq!(restored.model_name(), snapshot.model_name());
            assert_eq!(restored.vocabulary_size(), snapshot.vocabulary_size());
            assert_eq!(restored.suggest(&["a"], 3), snapshot.suggest(&["a"], 3));
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = snapshot_to_bytes(
            &toy_snapshot(ModelSpec::Adjacency),
            &SnapshotMeta::default(),
        )
        .unwrap();
        let b = snapshot_to_bytes(
            &toy_snapshot(ModelSpec::Adjacency),
            &SnapshotMeta::default(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn a_model_without_a_kind_is_a_save_time_error() {
        // An ad-hoc `Recommender` impl: no `ModelSpec` trains it and no
        // `ModelKind` names it.
        struct Adhoc;
        impl sqp_core::Recommender for Adhoc {
            fn name(&self) -> &str {
                "adhoc"
            }
            fn recommend_into(
                &self,
                _: &[sqp_common::QueryId],
                _: usize,
                out: &mut Vec<sqp_common::topk::Scored>,
            ) {
                out.clear();
            }
            fn covers(&self, _: &[sqp_common::QueryId]) -> bool {
                false
            }
            fn memory_bytes(&self) -> usize {
                0
            }
        }
        let snapshot = ModelSnapshot::from_parts(Interner::new(), Box::new(Adhoc), 3);
        let err = snapshot_to_bytes(&snapshot, &SnapshotMeta::default()).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedModel(_)), "{err}");
    }

    /// One toy file per payload layout: a count table, the VMM's trie
    /// columns and state list, and an MVMM whose three state lists read its one
    /// trie to two depth bounds.
    fn toy_files() -> Vec<(&'static str, Vec<u8>)> {
        let mixture = sqp_core::MvmmConfig::depth_mixture(&[(1, 0.0), (2, 0.05), (1, 0.2)]);
        [
            ("adjacency", ModelSpec::Adjacency),
            ("vmm", ModelSpec::Vmm(VmmConfig::with_epsilon(0.05))),
            ("mvmm", ModelSpec::Mvmm(mixture)),
        ]
        .into_iter()
        .map(|(name, spec)| {
            let raw = snapshot_to_bytes(&toy_snapshot(spec), &SnapshotMeta::default()).unwrap();
            (name, raw)
        })
        .collect()
    }

    #[test]
    fn every_truncation_point_fails_with_typed_error() {
        for (name, raw) in toy_files() {
            assert!(snapshot_from_bytes(&raw).is_ok(), "{name}");
            for cut in 0..raw.len() {
                assert!(
                    snapshot_from_bytes(&raw[..cut]).is_err(),
                    "{name}: truncation at {cut}/{} loaded successfully",
                    raw.len()
                );
            }
        }
    }

    #[test]
    fn every_single_byte_corruption_fails() {
        for (name, raw) in toy_files() {
            for i in 0..raw.len() {
                let mut bad = raw.clone();
                bad[i] ^= 0xA5;
                assert!(
                    snapshot_from_bytes(&bad).is_err(),
                    "{name}: flip at byte {i} loaded successfully"
                );
            }
        }
    }

    /// `raw` with its checksum recomputed, as a crafted file would have it.
    fn resealed(mut raw: Vec<u8>) -> Vec<u8> {
        let body = raw.len() - CHECKSUM_LEN;
        let sum = fnv1a64_words(&raw[..body]);
        raw[body..].copy_from_slice(&sum.to_le_bytes());
        raw
    }

    #[test]
    fn a_hostile_payload_behind_a_good_checksum_is_corrupt_not_a_panic() {
        // The checksum catches accidents; a crafted file recomputes it. Flip
        // each byte of the MODEL section, re-seal, and load: the result is
        // `Corrupt` or a model whose answers render — never a panic.
        for (name, raw) in toy_files() {
            let model = parse_section_table(&raw).unwrap()[2];
            for i in model.offset..model.offset + model.len {
                let mut bad = raw.clone();
                bad[i] ^= 0xFF;
                match snapshot_from_bytes(&resealed(bad)) {
                    Ok((snapshot, _)) => {
                        for ctx in [&["a"][..], &["b"], &["b", "a"], &["a", "b", "a"]] {
                            assert!(snapshot.suggest(ctx, 3).len() <= 3);
                        }
                    }
                    Err(SnapshotError::Corrupt(_)) => {}
                    Err(other) => panic!("{name}: byte {i} gave {other}"),
                }
            }
        }
    }

    #[test]
    fn a_query_id_the_interner_never_issued_is_corrupt_at_load() {
        // Adjacency over the two-query interner {"a", "b"}: one list, a → b.
        let raw = snapshot_to_bytes(
            &toy_snapshot(ModelSpec::Adjacency),
            &SnapshotMeta::default(),
        )
        .unwrap();
        let model = parse_section_table(&raw).unwrap()[2];
        // Kind tag, n_lists, source id, list length, then the successor id.
        let successor = model.offset + 16;
        assert_eq!(raw[successor..successor + 4], 1u32.to_le_bytes());
        let mut bad = raw.clone();
        bad[successor..successor + 4].copy_from_slice(&254u32.to_le_bytes());
        match snapshot_from_bytes(&resealed(bad)) {
            Err(SnapshotError::Corrupt(msg)) => assert!(
                msg.contains("query id 254 is outside the vocabulary of 2"),
                "{msg}"
            ),
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("an out-of-vocabulary successor loaded"),
        }
    }

    #[test]
    fn a_file_of_the_previous_version_is_refused_by_version() {
        let spec = ModelSpec::Mvmm(sqp_core::MvmmConfig::small());
        let mut raw = snapshot_to_bytes(&toy_snapshot(spec), &SnapshotMeta::default()).unwrap();
        raw[4] = 9;
        let err = snapshot_from_bytes(&raw).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(9)), "{err}");
        assert!(err.to_string().contains("reads v10"), "{err}");
    }

    #[test]
    fn error_variants_match_the_failure() {
        let snapshot = toy_snapshot(ModelSpec::Adjacency);
        let raw = snapshot_to_bytes(&snapshot, &SnapshotMeta::default()).unwrap();

        assert!(matches!(
            snapshot_from_bytes(b"NOPE").unwrap_err(),
            SnapshotError::BadMagic
        ));
        let mut wrong_version = raw.clone();
        wrong_version[4] = 11;
        // Version is checked before the checksum so operators see the real
        // cause, not a checksum side effect.
        assert!(matches!(
            snapshot_from_bytes(&wrong_version).unwrap_err(),
            SnapshotError::UnsupportedVersion(11)
        ));
        let mut flipped = raw.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(matches!(
            snapshot_from_bytes(&flipped).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn file_roundtrip_and_atomic_tmp_cleanup() {
        let snapshot = toy_snapshot(ModelSpec::Vmm(VmmConfig::with_epsilon(0.0)));
        let meta = SnapshotMeta::describe(&snapshot, 1, 12);
        let dir = std::env::temp_dir().join(format!("sqp-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.sqps");
        save_snapshot(&path, &snapshot, &meta).unwrap();
        assert!(!dir.join("snap.sqps.tmp").exists(), "tmp file left behind");
        let (restored, restored_meta) = load_snapshot(&path).unwrap();
        assert_eq!(restored_meta, meta);
        assert_eq!(restored.suggest(&["a"], 1), snapshot.suggest(&["a"], 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn section_table_is_inspectable_without_payload_parsing() {
        let snapshot = toy_snapshot(ModelSpec::Adjacency);
        let raw = snapshot_to_bytes(&snapshot, &SnapshotMeta::default()).unwrap();
        let entries = parse_section_table(&raw).unwrap();
        assert_eq!(
            entries.iter().map(|e| e.id).collect::<Vec<_>>(),
            SECTION_IDS.to_vec()
        );
        assert_eq!(entries[0].offset, HEADER_LEN + 3 * SECTION_ENTRY_LEN);
        assert_eq!(entries[0].len, META_SECTION_LEN);
        let last = entries.last().unwrap();
        assert_eq!(last.offset + last.len, raw.len() - CHECKSUM_LEN);
    }
}
