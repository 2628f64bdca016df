//! End-to-end model lifecycle: train on a simulated seed corpus, persist a
//! snapshot, reload it in a fresh context, and verify the warm model is
//! **bit-identical** to the in-memory one — same suggestions, same scores,
//! same coverage — for every model kind the snapshot format supports.
//!
//! Also holds the load path's safety contract at the file level: truncated
//! and corrupted snapshot files fail with typed errors, never panics or
//! partial snapshots (the byte-by-byte sweeps live in `sqp-store`'s unit
//! tests; this exercises a realistic multi-kilobyte snapshot).

use sqp::serve::{ModelSnapshot, ModelSpec, TrainingConfig};
use sqp::store::{load_snapshot, save_snapshot, SnapshotError, SnapshotMeta};
use sqp_core::{BackoffConfig, MvmmConfig, VmmConfig};

fn seed_records() -> Vec<sqp::logsim::RawLogRecord> {
    sqp::logsim::generate(&sqp::logsim::SimConfig::small(3_000, 400, 11)).train
}

/// Every context the corpus itself exercises: all prefixes of all
/// segmented sessions, as text (capped — the cap covers every distinct
/// session shape many times over).
fn corpus_contexts(records: &[sqp::logsim::RawLogRecord]) -> Vec<Vec<String>> {
    let mut contexts = Vec::new();
    for session in sqp::sessions::segment_default(records).to_text_sessions() {
        for i in 1..=session.queries.len() {
            contexts.push(session.queries[..i].to_vec());
            if contexts.len() >= 4_000 {
                return contexts;
            }
        }
    }
    contexts
}

fn supported_specs() -> Vec<(&'static str, ModelSpec)> {
    vec![
        ("adjacency", ModelSpec::Adjacency),
        ("cooccurrence", ModelSpec::Cooccurrence),
        ("ngram", ModelSpec::NGram),
        ("backoff", ModelSpec::Backoff(BackoffConfig::default())),
        ("vmm", ModelSpec::Vmm(VmmConfig::bounded(3, 0.05))),
        ("mvmm", ModelSpec::Mvmm(MvmmConfig::small())),
        // Two depth bounds read from one window trie.
        (
            "mvmm-depths",
            ModelSpec::Mvmm(MvmmConfig::depth_mixture(&[(2, 0.1), (3, 0.2)])),
        ),
    ]
}

#[test]
fn every_model_kind_round_trips_bit_identically() {
    let records = seed_records();
    let contexts = corpus_contexts(&records);
    assert!(contexts.len() >= 1_000, "corpus produced too few contexts");
    let dir = std::env::temp_dir().join(format!("sqp-lifecycle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    for (name, spec) in supported_specs() {
        let spec_kind = spec.kind();
        let trained = ModelSnapshot::from_raw_logs(
            &records,
            &TrainingConfig {
                model: spec,
                ..TrainingConfig::default()
            },
        );
        let path = dir.join(format!("{name}.sqps"));
        let meta = SnapshotMeta::describe(&trained, 1, records.len() as u64);
        save_snapshot(&path, &trained, &meta).unwrap();
        // The file carries the tag its spec names.
        let raw = std::fs::read(&path).unwrap();
        let model = sqp::store::parse_section_table(&raw).unwrap()[2];
        let tag = u32::from_le_bytes(raw[model.offset..model.offset + 4].try_into().unwrap());
        assert_eq!(tag, spec_kind.code(), "{name}");

        // "Fresh process": nothing shared with `trained` but the file.
        let (warm, warm_meta) = load_snapshot(&path).unwrap();
        assert_eq!(warm_meta, meta, "{name}");
        assert_eq!(warm.model_name(), trained.model_name(), "{name}");
        assert_eq!(warm.vocabulary_size(), trained.vocabulary_size(), "{name}");
        assert_eq!(
            warm.trained_sessions(),
            trained.trained_sessions(),
            "{name}"
        );

        let mut covered = 0usize;
        for ctx in &contexts {
            let ctx_refs: Vec<&str> = ctx.iter().map(String::as_str).collect();
            let a = trained.suggest(&ctx_refs, 5);
            let b = warm.suggest(&ctx_refs, 5);
            // Bit-identical: query text AND f64 scores compare equal.
            assert_eq!(a, b, "{name} diverged on context {ctx:?}");
            assert_eq!(
                trained.covers(&ctx_refs),
                warm.covers(&ctx_refs),
                "{name} coverage diverged on {ctx:?}"
            );
            covered += usize::from(!a.is_empty());
        }
        assert!(covered > 0, "{name}: no context produced suggestions");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn realistic_snapshot_rejects_truncation_and_corruption_sampled() {
    let records = seed_records();
    let trained = ModelSnapshot::from_raw_logs(
        &records,
        &TrainingConfig {
            model: ModelSpec::Vmm(VmmConfig::bounded(3, 0.05)),
            ..TrainingConfig::default()
        },
    );
    let raw = sqp::store::snapshot_to_bytes(&trained, &SnapshotMeta::default()).unwrap();
    assert!(raw.len() > 10_000, "want a realistic multi-section file");

    // Sampled truncation sweep (the exhaustive byte-by-byte sweep runs on a
    // toy snapshot in sqp-store; at this size sampling keeps the test fast).
    for cut in (0..raw.len()).step_by(97).chain([raw.len() - 1]) {
        assert!(
            sqp::store::snapshot_from_bytes(&raw[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }
    // Sampled corruption sweep.
    for i in (0..raw.len()).step_by(131) {
        let mut bad = raw.clone();
        bad[i] ^= 0x5A;
        assert!(
            sqp::store::snapshot_from_bytes(&bad).is_err(),
            "corruption at byte {i} must fail"
        );
    }
    // Wrong container version is its own typed error.
    let mut wrong = raw.clone();
    wrong[4] = 77;
    assert!(matches!(
        sqp::store::snapshot_from_bytes(&wrong),
        Err(SnapshotError::UnsupportedVersion(77))
    ));
}
