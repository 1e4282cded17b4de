//! The floor-control service definition (Figure 5).

use std::sync::{Arc, OnceLock};

use svckit_lts::explorer::AbstractEvent;
use svckit_middleware::{Compiled, ADMISSION_BOUND};
use svckit_model::{
    Constraint, ConstraintScope, Direction, PartId, PrimitiveSpec, Sap, ServiceDefinition, Value,
};

/// Role name of the floor-control service's only role.
pub const ROLE_SUBSCRIBER: &str = "subscriber";

/// Builds the floor-control service definition exactly as Figure 5 gives
/// it: primitives `request`, `granted` and `free` (each carrying a resource
/// identification, with the subscriber implied by the access point), and
/// the three relations the paper states:
///
/// * *local*: `granted` eventually follows `request` (per resource);
/// * *local*: `free` eventually follows `granted` (per resource);
/// * *remote*: a resource is only granted to one subscriber at a time.
///
/// Two safety precedences are added so the liveness relations are
/// well-founded on finite traces: `granted` only after an unanswered
/// `request`, and `free` only while holding.
pub fn floor_control_service() -> ServiceDefinition {
    ServiceDefinition::builder("floor-control")
        .role(ROLE_SUBSCRIBER, 2, usize::MAX)
        .primitive(PrimitiveSpec::new("request", Direction::FromUser).param_id("resid"))
        .primitive(PrimitiveSpec::new("granted", Direction::ToUser).param_id("resid"))
        .primitive(PrimitiveSpec::new("free", Direction::FromUser).param_id("resid"))
        .constraint(
            Constraint::eventually_follows("request", "granted", ConstraintScope::SameSap)
                .keyed(&[0]),
        )
        .constraint(
            Constraint::eventually_follows("granted", "free", ConstraintScope::SameSap).keyed(&[0]),
        )
        .constraint(
            Constraint::precedes("request", "granted", ConstraintScope::SameSap).keyed(&[0]),
        )
        .constraint(Constraint::precedes("granted", "free", ConstraintScope::SameSap).keyed(&[0]))
        .constraint(Constraint::mutual_exclusion("granted", "free").keyed(&[0]))
        .build()
        .expect("the floor-control service definition is well-formed")
}

/// The floor-control service compiled once per *process* at
/// [`ADMISSION_BOUND`]. The tables are stateless templates (memoized
/// mutex tables included), so every admission gate and every run's
/// conformance monitor shares this one copy.
pub(crate) fn floor_compiled() -> Arc<Compiled> {
    static FLOOR_COMPILED: OnceLock<Arc<Compiled>> = OnceLock::new();
    Arc::clone(FLOOR_COMPILED.get_or_init(|| {
        Arc::new(
            Compiled::compile(&floor_control_service(), ADMISSION_BOUND)
                .expect("floor-control constraints compile"),
        )
    }))
}

/// The access point of subscriber `part`.
pub fn subscriber_sap(part: PartId) -> Sap {
    Sap::new(ROLE_SUBSCRIBER, part)
}

/// The finite abstract-event universe for state-space exploration with
/// `subscribers` access points and `resources` resources (ids `1..=n`).
pub fn floor_event_universe(subscribers: u64, resources: u64) -> Vec<AbstractEvent> {
    let mut universe = Vec::new();
    for s in 1..=subscribers {
        for r in 1..=resources {
            let sap = subscriber_sap(PartId::new(s));
            for primitive in ["request", "granted", "free"] {
                universe.push(AbstractEvent::new(
                    sap.clone(),
                    primitive,
                    vec![Value::Id(r)],
                ));
            }
        }
    }
    universe
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_lts::explorer::ServiceExplorer;
    use svckit_model::conformance::{check_trace, CheckOptions};
    use svckit_model::{Instant, PrimitiveEvent, Trace};

    #[test]
    fn definition_matches_figure_5() {
        let svc = floor_control_service();
        assert_eq!(svc.name(), "floor-control");
        assert_eq!(svc.primitives().len(), 3);
        assert_eq!(svc.roles().len(), 1);
        assert_eq!(svc.constraints().len(), 5);
        assert_eq!(
            svc.primitive("request").unwrap().direction(),
            Direction::FromUser
        );
        assert_eq!(
            svc.primitive("granted").unwrap().direction(),
            Direction::ToUser
        );
    }

    #[test]
    fn canonical_exclusive_round_is_conformant() {
        let svc = floor_control_service();
        let mut trace = Trace::new();
        let mk = |t, s, p: &str, r| {
            PrimitiveEvent::new(
                Instant::from_micros(t),
                subscriber_sap(PartId::new(s)),
                p,
                vec![Value::Id(r)],
            )
        };
        for e in [
            mk(1, 1, "request", 1),
            mk(2, 2, "request", 1),
            mk(3, 1, "granted", 1),
            mk(4, 1, "free", 1),
            mk(5, 2, "granted", 1),
            mk(6, 2, "free", 1),
        ] {
            trace.push(e);
        }
        assert!(check_trace(&svc, &trace, &CheckOptions::default()).is_conformant());
    }

    #[test]
    fn universe_has_expected_size() {
        assert_eq!(floor_event_universe(3, 2).len(), 18);
    }

    #[test]
    fn explorer_over_the_service_is_deadlock_free() {
        let svc = floor_control_service();
        let universe = floor_event_universe(2, 1);
        let explorer = ServiceExplorer::new(&svc, universe, 1);
        let lts = explorer.to_lts(50_000);
        assert!(lts.deadlocks().is_empty());
        assert!(lts.state_count() > 1);
    }
}
