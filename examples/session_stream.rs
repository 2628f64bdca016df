//! Online query recommendation, the way a search engine would deploy it:
//! replay live user sessions query by query, showing the top-5 suggestions
//! after every keystroke-enter — the paper's "online query recommendation
//! phase" (§I-B).
//!
//! ```sh
//! cargo run --release --example session_stream
//! ```

use sqp::core::{Mvmm, MvmmConfig, Recommender, Vmm, VmmConfig};
use sqp::logsim::SimConfig;
use sqp::sessions::{process, PipelineConfig};
use sqp_common::QueryId;

fn main() {
    let logs = sqp::logsim::generate(&SimConfig::small(20_000, 4_000, 11));
    let processed = process(&logs, &PipelineConfig::default());
    let sessions = &processed.train.aggregated.sessions;

    let vmm = Vmm::train(sessions, VmmConfig::with_epsilon(0.05));
    let mvmm = Mvmm::train(sessions, &MvmmConfig::small());
    println!(
        "models ready: VMM(0.05) with {} PST nodes; MVMM with {} components\n",
        vmm.node_count(),
        mvmm.configs().len()
    );

    // Replay a few multi-query test sessions through the recommender.
    let mut shown = 0;
    for session in &processed.test_sessions {
        if session.queries.len() < 3 {
            continue;
        }
        // Resolve the session to ids; skip sessions with unseen queries so
        // the demo shows the interesting (covered) path.
        let ids: Option<Vec<QueryId>> = session
            .queries
            .iter()
            .map(|q| processed.interner.get(q))
            .collect();
        let Some(ids) = ids else { continue };

        println!("— session (machine {}) —", session.machine_id);
        for i in 0..ids.len() {
            println!("  user types: {:?}", session.queries[i]);
            if i + 1 == ids.len() {
                break;
            }
            let ctx = &ids[..i + 1];
            let recs = mvmm.recommend(ctx, 5);
            if recs.is_empty() {
                println!("    (no suggestions — uncovered context)");
            } else {
                let rendered: Vec<String> = recs
                    .iter()
                    .map(|r| processed.interner.resolve(r.query).to_owned())
                    .collect();
                println!("    suggestions: {}", rendered.join(" | "));
                // Did we get the actual next query into the top-5?
                let actual = ids[i + 1];
                let hit = recs.iter().position(|r| r.query == actual);
                match hit {
                    Some(pos) => println!("    ✓ actual next query at position {}", pos + 1),
                    None => println!("    ✗ actual next query not in top-5"),
                }
            }
        }
        println!();
        shown += 1;
        if shown >= 5 {
            break;
        }
    }

    // Show the paper's context-disambiguation effect: the same last query,
    // two different histories, different suggestions.
    println!("— context sensitivity (the paper's \"Indonesia ⇒ Java\" effect) —");
    let mut demos = 0;
    'outer: for e1 in &processed.ground_truth.entries {
        if e1.context.len() != 2 {
            continue;
        }
        for e2 in &processed.ground_truth.entries {
            if e2.context.len() == 2
                && e1.context.last() == e2.context.last()
                && e1.context[0] != e2.context[0]
            {
                let r1 = mvmm.recommend(&e1.context, 3);
                let r2 = mvmm.recommend(&e2.context, 3);
                if r1.is_empty() || r2.is_empty() || r1[0].query == r2[0].query {
                    continue;
                }
                let render = |ctx: &[QueryId]| {
                    ctx.iter()
                        .map(|q| processed.interner.resolve(*q).to_owned())
                        .collect::<Vec<_>>()
                        .join(" => ")
                };
                println!("  context A: {}", render(&e1.context));
                println!(
                    "    top suggestion: {}",
                    processed.interner.resolve(r1[0].query)
                );
                println!("  context B: {}", render(&e2.context));
                println!(
                    "    top suggestion: {}",
                    processed.interner.resolve(r2[0].query)
                );
                println!("  (same current query, different history, different suggestion)\n");
                demos += 1;
                if demos >= 3 {
                    break 'outer;
                }
            }
        }
    }
    if demos == 0 {
        println!("  (no divergent pair found at this corpus size — rerun with more sessions)");
    }
}
