//! User-study experiments: Table VIII and Figures 13–14 (§V-H).

use crate::harness::{TrainedModels, Workbench};
use sqp_eval::report::{headers, pct, render_table};
use sqp_eval::{run_user_eval, UserEvalConfig, UserEvalResult};

/// Run the §V-H protocol once (shared by the three artifacts).
pub(crate) fn user_eval(wb: &Workbench, models: &TrainedModels) -> UserEvalResult {
    let cfg = UserEvalConfig {
        per_length: 500,
        lengths: vec![1, 2, 3, 4],
        top_n: 5,
        seed: wb.args.seed,
        approve_truth_top: true,
    };
    run_user_eval(
        &models.user_study(),
        &wb.processed.ground_truth,
        &wb.processed.interner,
        &wb.logs.truth.vocabulary,
        &cfg,
    )
}

/// Table VIII: user labeling distribution over the four methods.
pub(crate) fn tab08_user_labels(wb: &Workbench, models: &TrainedModels) -> String {
    let res = user_eval(wb, models);
    let mut hdr = vec!["".to_string()];
    hdr.extend(res.methods.iter().map(|m| m.name.clone()));
    let mut predicted = vec!["# predicted queries".to_string()];
    predicted.extend(res.methods.iter().map(|m| m.predicted.to_string()));
    let mut approved = vec!["# approved queries".to_string()];
    approved.extend(res.methods.iter().map(|m| m.approved.to_string()));
    let mut out = render_table(
        "Table VIII — labeling distribution over four methods (oracle labeler)",
        &hdr,
        &[predicted, approved],
    );
    out.push_str(&format!(
        "\nsampled contexts: {} (paper: 2,000; 500 per length 1-4)\n\
         unique approved pool: {} (paper: 9,489)\n\
         paper row shapes: Co-occ. predicts most, MVMM gets the most approvals per prediction\n",
        res.sampled_contexts, res.pool_size
    ));
    out
}

/// Figure 13: precision and recall of the user evaluation.
pub(crate) fn fig13_user_eval(wb: &Workbench, models: &TrainedModels) -> String {
    let res = user_eval(wb, models);
    let rows: Vec<Vec<String>> = res
        .methods
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                pct(m.precision()),
                pct(m.recall(res.pool_size)),
            ]
        })
        .collect();
    let mut out = render_table(
        "Figure 13 — user evaluation: precision / recall",
        &headers(&["method", "precision", "recall"]),
        &rows,
    );
    out.push_str(
        "\npaper: MVMM best overall at 86.1% precision / 55.2% recall; \
         pair-wise methods predict more but approve less\n",
    );
    out
}

/// Figure 14: precision across the top-5 positions.
pub(crate) fn fig14_precision_positions(wb: &Workbench, models: &TrainedModels) -> String {
    let res = user_eval(wb, models);
    let mut hdr = vec!["method".to_string()];
    hdr.extend((1..=5).map(|p| format!("pos {p}")));
    let rows: Vec<Vec<String>> = res
        .methods
        .iter()
        .map(|m| {
            let mut row = vec![m.name.clone()];
            row.extend((1..=5).map(|p| pct(m.precision_at_position(p))));
            row
        })
        .collect();
    let mut out = render_table("Figure 14 — precision over top-5 positions", &hdr, &rows);
    out.push_str(
        "\npaper: sequence models strongest at position 1; \
         pair-wise methods inconsistent across positions\n",
    );
    out
}
