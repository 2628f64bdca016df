//! Model identity golden: training is allowed to get faster, never to
//! produce a different model.
//!
//! The checksum below was computed at the commit *before* the sort-and-scan
//! sessions layer, the direct trie loader and the suffix-link PST growth
//! landed. A training change that alters interner ids, `Aggregated` order,
//! the PST state set or any stored count changes a byte of the snapshot and
//! fails here by name, for `parallel` off and on alike.

use sqp::core::VmmConfig;
use sqp::logsim::SimConfig;
use sqp::serve::{ModelSnapshot, ModelSpec, TrainingConfig};
use sqp::store::{checksum_fnv1a, snapshot_to_bytes, SnapshotMeta};

/// FNV-1a 64 of the v3 snapshot bytes of `Vmm(ε = 0.05)` trained on
/// `SimConfig::small(4_000, 400, 11)`, with the fixed meta below.
const GOLDEN_CHECKSUM: u64 = 0xe81a_48b6_f247_1b76;
/// Length of the same file — a cheaper first clue than a checksum diff.
const GOLDEN_LEN: usize = 366_934;

fn snapshot_bytes(parallel: bool) -> Vec<u8> {
    let records = sqp::logsim::generate(&SimConfig::small(4_000, 400, 11)).train;
    let cfg = TrainingConfig {
        model: ModelSpec::Vmm(VmmConfig::with_epsilon(0.05)),
        parallel,
        ..TrainingConfig::default()
    };
    let snapshot = ModelSnapshot::from_raw_logs(&records, &cfg);
    let meta = SnapshotMeta {
        generation: 7,
        trained_sessions: snapshot.trained_sessions(),
        source_records: records.len() as u64,
    };
    snapshot_to_bytes(&snapshot, &meta).expect("a VMM snapshot serializes")
}

#[test]
fn trained_snapshot_is_byte_identical_to_the_pinned_model() {
    for parallel in [false, true] {
        let raw = snapshot_bytes(parallel);
        assert_eq!(raw.len(), GOLDEN_LEN, "parallel = {parallel}");
        assert_eq!(
            checksum_fnv1a(&raw),
            GOLDEN_CHECKSUM,
            "parallel = {parallel}: the trained model changed"
        );
    }
}
