//! Model identity goldens: training is allowed to get faster and the file
//! smaller, never to produce a different model.
//!
//! Two pins, in the order they may move. The **answers** golden hashes what
//! the model *says* — every suggestion's text and score bits for every
//! prefix context of the corpus — and does not know the file format; it was
//! computed at the commit before the PST became an index over the window
//! trie and must pass unedited through any change of representation. The
//! **bytes** golden hashes the snapshot file; it is re-pinned (once, with
//! the answers golden green) only when the payload itself is redesigned.
//! Either fails by name, for `parallel` off and on alike, when a training
//! change alters interner ids, the PST state set or any stored count. The
//! order of the aggregated sessions is not among them: every model trains
//! the same from any order, which the last test checks.

use sqp::common::hash::{fnv1a, FNV_OFFSET_BASIS};
use sqp::core::VmmConfig;
use sqp::logsim::{RawLogRecord, SimConfig};
use sqp::serve::{ModelSnapshot, ModelSpec, TrainingConfig};
use sqp::store::{fnv1a64_words, snapshot_to_bytes, SnapshotMeta};

/// FNV-1a 64 over `text bytes ‖ score.to_bits() LE` of every suggestion of
/// `suggest(ctx, 5)`, for every prefix context of every session of both
/// epochs of `SimConfig::small(4_000, 400, 11)`, in corpus order.
const GOLDEN_ANSWERS: u64 = 0x3bc5_e18d_84a5_3ecf;
/// Suggestions hashed into [`GOLDEN_ANSWERS`].
const GOLDEN_ANSWER_COUNT: usize = 27_762;

/// The snapshot checksum ([`fnv1a64_words`]) of the whole v10 file of
/// `Vmm(ε = 0.05)` trained on `SimConfig::small(4_000, 400, 11)`, with the
/// fixed meta below. Re-pinned when the payload became trie rows + state
/// ids (v3: 366 934 bytes), when the checksum went word-wise (v5, same
/// payload and length as v4), when the MVMM payload went to one trie (v6:
/// the file differed from v5's only in the version field), when the
/// trie block became its four columns and the VMM payload lost its own
/// 8-byte header (v7: the same values, 8 bytes shorter), and when the
/// back-off payload became its trie (v8: the file differs from v7's only
/// in the version field), and when the N-gram payload became its prefix
/// trie (v9: the file differs from v8's only in the version field), and
/// when the MVMM payload became one merged state list with a component
/// mask per state (v10: the file differs from v9's only in the version
/// field).
const GOLDEN_CHECKSUM: u64 = 0xbd9b_e664_d3cc_d13f;
/// Length of the same file — a cheaper first clue than a checksum diff.
const GOLDEN_LEN: usize = 291_466;

/// Byte-serial FNV-1a 64: the answers golden's hash, which does not move
/// when the snapshot checksum does.
fn bytewise_fnv1a(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET_BASIS, bytes)
}

fn trained(records: &[RawLogRecord], parallel: bool) -> ModelSnapshot {
    let cfg = TrainingConfig {
        model: ModelSpec::Vmm(VmmConfig::with_epsilon(0.05)),
        parallel,
        ..TrainingConfig::default()
    };
    ModelSnapshot::from_raw_logs(records, &cfg)
}

#[test]
fn trained_model_gives_the_pinned_answers() {
    let logs = sqp::logsim::generate(&SimConfig::small(4_000, 400, 11));
    for parallel in [false, true] {
        let snapshot = trained(&logs.train, parallel);
        let mut hashed = Vec::new();
        let mut count = 0usize;
        for epoch in [&logs.train, &logs.test] {
            for session in sqp::sessions::segment_default(epoch).to_text_sessions() {
                let queries: Vec<&str> = session.queries.iter().map(String::as_str).collect();
                for end in 1..=queries.len() {
                    for s in snapshot.suggest(&queries[..end], 5) {
                        hashed.extend_from_slice(s.query.as_bytes());
                        hashed.extend_from_slice(&s.score.to_bits().to_le_bytes());
                        count += 1;
                    }
                }
            }
        }
        assert_eq!(count, GOLDEN_ANSWER_COUNT, "parallel = {parallel}");
        assert_eq!(
            bytewise_fnv1a(&hashed),
            GOLDEN_ANSWERS,
            "parallel = {parallel}: the trained model answers differently"
        );
    }
}

#[test]
fn trained_snapshot_is_byte_identical_to_the_pinned_model() {
    let records = sqp::logsim::generate(&SimConfig::small(4_000, 400, 11)).train;
    for parallel in [false, true] {
        let snapshot = trained(&records, parallel);
        let meta = SnapshotMeta {
            generation: 7,
            trained_sessions: snapshot.trained_sessions(),
            source_records: records.len() as u64,
        };
        let raw = snapshot_to_bytes(&snapshot, &meta).expect("a VMM snapshot serializes");
        assert_eq!(raw.len(), GOLDEN_LEN, "parallel = {parallel}");
        assert_eq!(
            fnv1a64_words(&raw),
            GOLDEN_CHECKSUM,
            "parallel = {parallel}: the trained model changed"
        );
    }
}

#[test]
fn the_session_order_cannot_change_a_model() {
    use sqp::core::{model_to_bytes, BackoffConfig, MvmmConfig};
    let records = sqp::logsim::generate(&SimConfig::small(4_000, 400, 11)).train;
    let segmented = sqp::sessions::segment_default(&records);
    let first_seen = sqp::sessions::aggregate(&segmented, &mut sqp::common::Interner::new());
    let mut by_frequency = first_seen.clone();
    by_frequency.sort_by_frequency();
    assert_ne!(first_seen.sessions, by_frequency.sessions);
    for spec in [
        ModelSpec::Mvmm(MvmmConfig::epsilon_sweep()),
        ModelSpec::Mvmm(MvmmConfig::depth_mixture(&[(2, 0.05), (3, 0.05)])),
        ModelSpec::Vmm(VmmConfig::with_epsilon(0.05)),
        ModelSpec::Vmm(VmmConfig::bounded(2, 0.0)),
        ModelSpec::Adjacency,
        ModelSpec::Cooccurrence,
        ModelSpec::NGram,
        ModelSpec::Backoff(BackoffConfig::default()),
    ] {
        let bytes = |sessions| model_to_bytes(&*spec.train(sessions)).expect("every spec persists");
        assert!(
            bytes(&first_seen.sessions) == bytes(&by_frequency.sessions),
            "{spec:?} depends on the order of its sessions"
        );
    }
}

/// FNV-1a 64 over the [`backoff_answers_digest`]s of `BackoffConfig::default()`
/// and of its unbounded variant, trained on `SimConfig::small(4_000, 2_000,
/// 11)` with every session kept. Pinned at the commit before the back-off
/// model became a reading of its window trie; like [`GOLDEN_ANSWERS`], it
/// must pass unedited through any change of representation.
const GOLDEN_BACKOFF_ANSWERS: u64 = 0xc245_d81d_871b_e29d;
/// Suggestions hashed into [`GOLDEN_BACKOFF_ANSWERS`].
const GOLDEN_BACKOFF_ANSWER_COUNT: usize = 3_500;

/// Byte-serial FNV-1a 64 of what `model` says about every test context of
/// `p`: `recommend(ctx, 5)` (ids and score bits), `cond_prob` bits for each
/// of those answers and for one id no corpus holds, and the context's
/// `sequence_log10_prob` bits; with the number of suggestions hashed.
fn backoff_answers_digest(
    model: &sqp::core::BackoffNgram,
    p: &sqp::sessions::ProcessedLogs,
) -> (u64, usize) {
    use sqp::common::QueryId;
    use sqp::core::{Recommender, SequenceScorer};
    let unseen = QueryId(p.interner.len() as u32);
    let mut hashed = Vec::new();
    let mut count = 0;
    for entry in &p.ground_truth.entries {
        let ctx = &entry.context;
        for s in model.recommend(ctx, 5) {
            hashed.extend_from_slice(&s.query.0.to_le_bytes());
            hashed.extend_from_slice(&s.score.to_bits().to_le_bytes());
            let p = model.cond_prob(ctx, s.query);
            hashed.extend_from_slice(&p.to_bits().to_le_bytes());
            count += 1;
        }
        let p = model.cond_prob(ctx, unseen);
        hashed.extend_from_slice(&p.to_bits().to_le_bytes());
        let lp = model.sequence_log10_prob(ctx);
        hashed.extend_from_slice(&lp.to_bits().to_le_bytes());
    }
    (bytewise_fnv1a(&hashed), count)
}

#[test]
fn the_backoff_model_gives_the_pinned_answers_before_and_after_a_save() {
    use sqp::core::{model_from_bytes, model_to_bytes, BackoffConfig, BackoffNgram};
    let logs = sqp::logsim::generate(&SimConfig::small(4_000, 2_000, 11));
    // Every session kept, so the test epoch holds thousands of contexts.
    let pipeline = sqp::sessions::PipelineConfig {
        reduction_threshold: 0,
    };
    let p = sqp::sessions::process(&logs, &pipeline);
    let sessions = &p.train.aggregated.sessions;
    let configs = [
        BackoffConfig::default(),
        BackoffConfig {
            max_order: None,
            ..BackoffConfig::default()
        },
    ];
    let mut digests = Vec::new();
    let mut count = 0;
    for config in configs {
        let model = BackoffNgram::train(sessions, config);
        let (digest, n) = backoff_answers_digest(&model, &p);
        let (kind, blob) = model_to_bytes(&model).expect("a back-off model persists");
        let loaded = model_from_bytes(kind, blob, p.interner.len()).expect("and loads");
        let loaded: &BackoffNgram = loaded.as_any().unwrap().downcast_ref().unwrap();
        assert_eq!(
            backoff_answers_digest(loaded, &p),
            (digest, n),
            "{config:?}: the loaded model answers differently"
        );
        digests.extend_from_slice(&digest.to_le_bytes());
        count += n;
    }
    assert_eq!(count, GOLDEN_BACKOFF_ANSWER_COUNT);
    assert_eq!(
        bytewise_fnv1a(&digests),
        GOLDEN_BACKOFF_ANSWERS,
        "the back-off models answer differently"
    );
}

/// Byte-serial FNV-1a 64 of what `model` says about every test context of
/// `p`: `recommend(ctx, 5)` (ids and score bits), `covers`, and, for a
/// sequence model, the context's `sequence_log10_prob` bits; with the
/// number of suggestions hashed.
fn answers_digest(
    model: &dyn sqp::core::Recommender,
    p: &sqp::sessions::ProcessedLogs,
) -> (u64, usize) {
    use sqp::core::{Mvmm, NGram, SequenceScorer};
    let any = model.as_any().expect("every trained kind persists");
    let scorer: Option<&dyn SequenceScorer> = match any.downcast_ref::<NGram>() {
        Some(ngram) => Some(ngram),
        None => any.downcast_ref::<Mvmm>().map(|m| m as &dyn SequenceScorer),
    };
    let mut hashed = Vec::new();
    let mut count = 0;
    for entry in &p.ground_truth.entries {
        let ctx = &entry.context;
        for s in model.recommend(ctx, 5) {
            hashed.extend_from_slice(&s.query.0.to_le_bytes());
            hashed.extend_from_slice(&s.score.to_bits().to_le_bytes());
            count += 1;
        }
        hashed.push(u8::from(model.covers(ctx)));
        if let Some(scorer) = scorer {
            let lp = scorer.sequence_log10_prob(ctx);
            hashed.extend_from_slice(&lp.to_bits().to_le_bytes());
        }
    }
    (bytewise_fnv1a(&hashed), count)
}

/// `spec` trained on `SimConfig::small(4_000, 2_000, 11)` with every
/// session kept answers as pinned, and so does the model loaded back from
/// its save. The digests were pinned at the commit before the N-gram
/// became a reading of its prefix trie and before every model served
/// through one `recommend_into`; they must pass unedited through any change
/// of representation.
fn assert_pinned_answers(spec: ModelSpec, golden: u64, golden_count: usize) {
    use sqp::core::{model_from_bytes, model_to_bytes};
    let logs = sqp::logsim::generate(&SimConfig::small(4_000, 2_000, 11));
    let pipeline = sqp::sessions::PipelineConfig {
        reduction_threshold: 0,
    };
    let p = sqp::sessions::process(&logs, &pipeline);
    let model = spec.train(&p.train.aggregated.sessions);
    let (kind, blob) = model_to_bytes(&*model).expect("every spec persists");
    let loaded = model_from_bytes(kind, blob, p.interner.len()).expect("and loads");
    let answers = answers_digest(&*model, &p);
    assert_eq!(
        answers_digest(&*loaded, &p),
        answers,
        "{spec:?}: the loaded model answers differently"
    );
    assert_eq!(
        answers,
        (golden, golden_count),
        "{spec:?} answers differently"
    );
}

#[test]
fn the_ngram_gives_the_pinned_answers_before_and_after_a_save() {
    assert_pinned_answers(ModelSpec::NGram, 0x7bd2_d1ec_713e_8d83, 621);
}

#[test]
fn adjacency_gives_the_pinned_answers_before_and_after_a_save() {
    assert_pinned_answers(ModelSpec::Adjacency, 0xe765_2e5e_3bab_74e3, 1_750);
}

#[test]
fn cooccurrence_gives_the_pinned_answers_before_and_after_a_save() {
    assert_pinned_answers(ModelSpec::Cooccurrence, 0xe9ba_46a5_97b6_db69, 2_854);
}

#[test]
fn the_epsilon_sweep_mixture_gives_the_pinned_answers_before_and_after_a_save() {
    let spec = ModelSpec::Mvmm(sqp::core::MvmmConfig::epsilon_sweep());
    assert_pinned_answers(spec, 0x61ff_9207_adb7_90fe, 1_748);
}

#[test]
fn the_depth_mixture_gives_the_pinned_answers_before_and_after_a_save() {
    let mixture = sqp::core::MvmmConfig::depth_mixture(&[(2, 0.05), (3, 0.05)]);
    assert_pinned_answers(ModelSpec::Mvmm(mixture), 0x6a3b_aad7_2286_a1a0, 1_748);
}
