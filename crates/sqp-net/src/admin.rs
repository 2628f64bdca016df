//! The admin side of the wire: live snapshot publication.
//!
//! The server binds **two** listeners. The public serve port speaks only
//! traffic opcodes; `PUBLISH`/`ROLLING_PUBLISH` arriving there are
//! answered with a typed `ADMIN_ONLY` error and the connection is closed.
//! The admin port accepts everything, so an operator (or the retrain
//! loop) can push a freshly-saved snapshot into a live server with one
//! frame — the server loads the file through `sqp-store` and fans it out
//! via [`ServeSurface::publish`](sqp_serve::ServeSurface) semantics:
//!
//! * `PUBLISH` loads the file once and publishes it through
//!   [`publish_from_path`] — one atomic swap for a single [`ServeEngine`],
//!   one load fanned out to every replica for a [`RouterEngine`];
//! * a [`RouterEngine`] can also upgrade replica-by-replica with
//!   per-replica failure isolation (`ROLLING_PUBLISH`, via
//!   [`RouterPublish`]).
//!
//! [`AdminSurface`] is what a connection's thread actually calls; it is a
//! separate trait from `ServeSurface` so a tier opts into remote
//! publication explicitly — implementing it means "frames on my admin
//! port may read snapshot files from my local disk". The two tiers above
//! are its only implementors: publication always enters through a
//! server's admin port ([`NetClient::publish`](crate::NetClient::publish) /
//! [`rolling_publish`](crate::NetClient::rolling_publish)), never through
//! the serving client.

use crate::wire::RollSummary;
use sqp_router::RouterEngine;
use sqp_serve::ServeEngine;
use sqp_store::{publish_from_path, RollPolicy, RouterPublish};
use std::path::Path;

/// Admin operations a served tier exposes on the admin port.
///
/// Both methods are synchronous: the thread serving the admin connection
/// performs the disk load and the publish, then replies. Errors
/// come back as strings because they cross the wire as `R_ERROR` message
/// text — the typed detail (which replica, which io error) is already
/// folded into the message by `sqp-store`'s error types.
pub trait AdminSurface {
    /// Load the snapshot at `path` and publish it to the whole surface.
    /// Returns the surface's fully-propagated generation afterwards.
    fn admin_publish(&self, path: &Path) -> Result<u64, String>;

    /// Load the snapshot at `path` and roll it across replicas,
    /// continuing or aborting on per-replica failure per
    /// `abort_on_failure`. Never fails as a whole: per-replica failures
    /// are counted in the summary.
    fn admin_rolling_publish(&self, path: &Path, abort_on_failure: bool) -> RollSummary;
}

impl AdminSurface for ServeEngine {
    fn admin_publish(&self, path: &Path) -> Result<u64, String> {
        publish_from_path(self, path)
            .map(|published| published.engine_generation)
            .map_err(|e| e.to_string())
    }

    fn admin_rolling_publish(&self, path: &Path, _abort_on_failure: bool) -> RollSummary {
        // A single engine is a one-replica roll: either it upgrades or it
        // reports one failure, and there is nothing to abort early.
        match publish_from_path(self, path) {
            Ok(_) => RollSummary {
                aborted: false,
                upgraded: 1,
                failed: 0,
                skipped: 0,
            },
            Err(_) => RollSummary {
                aborted: false,
                upgraded: 0,
                failed: 1,
                skipped: 0,
            },
        }
    }
}

impl AdminSurface for RouterEngine {
    fn admin_publish(&self, path: &Path) -> Result<u64, String> {
        publish_from_path(self, path)
            .map(|published| published.engine_generation)
            .map_err(|e| e.to_string())
    }

    fn admin_rolling_publish(&self, path: &Path, abort_on_failure: bool) -> RollSummary {
        let policy = if abort_on_failure {
            RollPolicy::AbortOnFailure
        } else {
            RollPolicy::ContinueOnFailure
        };
        let report = RouterPublish::rolling_publish(self, path, policy);
        RollSummary {
            aborted: report.aborted,
            upgraded: report.upgraded.len() as u64,
            failed: report.failed.len() as u64,
            skipped: report.skipped.len() as u64,
        }
    }
}
