//! The three middleware-centred solutions (Figure 4).
//!
//! All three run on the RPC platform of `svckit-middleware`
//! (request/response + oneway — the patterns a CORBA-like component
//! middleware offers). Note that each solution needs its *own* subscriber
//! component: the interaction functionality (when to poll, what a token
//! means, how a callback arrives) lives inside the application parts — the
//! scattering that Figure 7 criticises.

pub mod callback;
pub mod polling;
pub mod queue;
pub mod token;

use std::sync::Arc;

use svckit_middleware::{AdmissionGate, Engine};
use svckit_model::PartId;

use crate::service::floor_compiled;

/// The admission gate every middleware deployment installs: a fresh gate
/// per deployment over the process-wide compiled floor-control tables.
/// Passive — it counts violations against the service definition without
/// perturbing the run.
pub(crate) fn admission_gate() -> Arc<AdmissionGate> {
    Arc::new(AdmissionGate::with_compiled(
        floor_compiled(),
        Engine::default(),
    ))
}

/// Component name of the (singleton) controller in the asymmetric
/// solutions.
pub const CONTROLLER: &str = "controller";

/// Node hosting the controller.
pub fn controller_part() -> PartId {
    PartId::new(1000)
}

/// Component name of subscriber `k` (1-based).
pub fn subscriber_name(k: u64) -> String {
    format!("sub-{k}")
}

/// Node hosting subscriber `k`.
pub fn subscriber_part(k: u64) -> PartId {
    PartId::new(k)
}

/// Timer ids shared by the subscriber components.
pub(crate) const THINK: svckit_netsim::TimerId = svckit_netsim::TimerId(1);
pub(crate) const HOLD: svckit_netsim::TimerId = svckit_netsim::TimerId(2);
pub(crate) const POLL: svckit_netsim::TimerId = svckit_netsim::TimerId(3);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_parts_are_stable() {
        assert_eq!(subscriber_name(3), "sub-3");
        assert_eq!(subscriber_part(3), PartId::new(3));
        assert_ne!(controller_part(), subscriber_part(1));
    }

    #[test]
    fn deployments_validate_their_whole_workload_through_the_gate() {
        let params = crate::RunParams::default()
            .subscribers(3)
            .resources(1)
            .rounds(2);
        let mut system = super::callback::deploy(&params);
        let report = system.run_to_quiescence(params.cap()).unwrap();
        let stats = system.admission_stats().expect("deploy installs a gate");
        // Every recorded primitive went through the gate, and a
        // conformant workload is never rejected.
        assert_eq!(stats.checked, report.trace().len() as u64);
        assert_eq!(stats.rejected, 0);
        // The interpreted reference engine makes the same decisions on the
        // recorded trace.
        let interp = AdmissionGate::with_compiled(floor_compiled(), Engine::Interp);
        for event in report.trace().iter() {
            assert!(interp.admit(event.sap(), event.primitive(), event.args()));
        }
        let replayed = interp.stats();
        assert_eq!(
            (replayed.checked, replayed.rejected),
            (stats.checked, stats.rejected)
        );
    }
}
