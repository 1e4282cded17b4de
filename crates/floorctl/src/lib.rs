//! # svckit-floorctl — the floor-control running example
//!
//! Section 4 of the paper develops one coordination problem — mutually
//! exclusive access to named shared resources, with cooperative,
//! non-preemptable subscribers — and solves it six times:
//!
//! | | callback | polling | token |
//! |---|---|---|---|
//! | **middleware-centred** (Figure 4) | [`Solution::MwCallback`] | [`Solution::MwPolling`] | [`Solution::MwToken`] |
//! | **protocol-centred** (Figure 6) | [`Solution::ProtoCallback`] | [`Solution::ProtoPolling`] | [`Solution::ProtoToken`] |
//!
//! All six are implemented here, over the same simulated network, driven by
//! the same workload, and checked against the same
//! [floor-control service definition](floor_control_service) (Figure 5) —
//! which is precisely the paper's claim that the service is a
//! paradigm-independent reference point.
//!
//! The three *protocol* solutions share one user part,
//! [`proto::ScriptedSubscriber`]: swapping the protocol does not touch the
//! application. The three *middleware* solutions need three different
//! subscriber components, because "the set of interaction patterns supported
//! by the middleware directly influence the design of the application
//! parts" — the scattering experiment (Figure 7) quantifies this.
//!
//! # Example
//!
//! ```
//! use svckit_floorctl::{run_solution, RunParams, Solution};
//!
//! let params = RunParams::default().subscribers(4).resources(2).rounds(3);
//! let outcome = run_solution(Solution::MwCallback, &params);
//! assert!(outcome.completed);
//! assert!(outcome.conformant);
//! assert_eq!(outcome.floor.grants(), 12); // 4 subscribers × 3 rounds
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod mw;
mod params;
mod policy;
pub mod proto;
mod run;
mod service;

pub use metrics::FloorMetrics;
pub use params::{RunParams, Solution};
pub use policy::GrantPolicy;
pub use run::{
    run_middleware_deployment, run_middleware_deployment_with, run_solution, run_solution_with,
    FaultAction, FaultEvent, RunOptions, RunOutcome,
};
pub use service::{floor_control_service, floor_event_universe};
/// The admission gate the middleware deployments install, re-exported
/// from `svckit-dfa` via `svckit-middleware`.
pub use svckit_middleware::{AdmissionGate, AdmissionStats};
