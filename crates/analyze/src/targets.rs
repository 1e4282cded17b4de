//! The analysis targets: the six floor-control solutions and every
//! catalogued platform reached through the MDA trajectory.

use svckit_floorctl::{floor_control_service, floor_event_universe, proto, Solution};
use svckit_lts::explorer::AbstractEvent;
use svckit_lts::Lts;
use svckit_mda::catalog::{all_platforms, chat_pim, floor_control_pim};
use svckit_mda::{Trajectory, TransformPolicy};
use svckit_model::{PartId, Sap, ServiceDefinition};

use crate::protocol_pass::{PduLink, ProtocolDecl};
use crate::universe::event_universe;

/// One unit of analysis: a service over a finite universe, optionally with
/// a protocol composition to cross-check.
#[derive(Debug, Clone)]
pub struct Target {
    /// Stable target name used in reports and filters.
    pub name: String,
    /// `solution` (Figures 4 and 6) or `platform` (Figure 10 trajectory).
    pub kind: &'static str,
    /// The service definition the target must provide.
    pub service: ServiceDefinition,
    /// The finite event universe for the exhaustive passes.
    pub universe: Vec<AbstractEvent>,
    /// The protocol composition, for the structural passes. `None` for
    /// middleware-centred targets: their interactions are marshalled by
    /// the middleware, there is no hand-written PDU registry to analyze.
    pub protocol: Option<ProtocolDecl>,
    /// An implementation LTS to verify against the service (`SA010`), when
    /// the target ships one (fixtures; future extracted behaviours).
    pub implementation: Option<Lts<AbstractEvent>>,
    /// Context lines for the report (e.g. trajectory milestones).
    pub notes: Vec<String>,
}

/// Universe size for the floor-control targets: enough concurrency (three
/// subscribers, two resources) for the partial-order reduction to bite.
fn floor_universe() -> Vec<AbstractEvent> {
    floor_event_universe(3, 2)
}

/// The declarative composition of the Figure 6 (a) callback protocol.
pub fn callback_decl() -> ProtocolDecl {
    ProtocolDecl {
        name: "proto-callback".into(),
        registry: proto::callback::registry(),
        links: vec![
            PduLink::triggered(
                "request",
                "request",
                "subscriber-entity",
                "controller-entity",
            ),
            PduLink::triggered(
                "granted",
                "granted",
                "controller-entity",
                "subscriber-entity",
            ),
            PduLink::triggered("free", "free", "subscriber-entity", "controller-entity"),
        ],
        handlers: vec![
            ("controller-entity".into(), "request".into()),
            ("controller-entity".into(), "free".into()),
            ("subscriber-entity".into(), "granted".into()),
        ],
    }
}

/// The declarative composition of the Figure 6 (b) polling protocol.
pub fn polling_decl() -> ProtocolDecl {
    ProtocolDecl {
        name: "proto-polling".into(),
        registry: proto::polling::registry(),
        links: vec![
            PduLink::triggered(
                "is_available_req",
                "request",
                "subscriber-entity",
                "controller-entity",
            ),
            PduLink::triggered(
                "is_available_resp",
                "granted",
                "controller-entity",
                "subscriber-entity",
            ),
            PduLink::triggered("free", "free", "subscriber-entity", "controller-entity"),
        ],
        handlers: vec![
            ("controller-entity".into(), "is_available_req".into()),
            ("controller-entity".into(), "free".into()),
            ("subscriber-entity".into(), "is_available_resp".into()),
        ],
    }
}

/// The declarative composition of the Figure 6 (c) token protocol. The
/// `pass` PDU circulates on its own — infrastructure traffic with no
/// triggering primitive, which is *not* an orphan.
pub fn token_decl() -> ProtocolDecl {
    ProtocolDecl {
        name: "proto-token".into(),
        registry: proto::token::registry(),
        links: vec![PduLink::infrastructure(
            "pass",
            "token-entity",
            "token-entity",
        )],
        handlers: vec![("token-entity".into(), "pass".into())],
    }
}

/// The six solutions of Figures 4 and 6 as analysis targets. All six
/// provide the same floor-control service; the protocol-centred three also
/// carry their PDU composition.
pub fn solution_targets() -> Vec<Target> {
    Solution::PAPER
        .iter()
        .map(|solution| {
            let protocol = match solution {
                Solution::ProtoCallback => Some(callback_decl()),
                Solution::ProtoPolling => Some(polling_decl()),
                Solution::ProtoToken => Some(token_decl()),
                _ => None,
            };
            let notes = if protocol.is_some() {
                vec![format!("protocol-centred solution `{solution}`")]
            } else {
                vec![format!(
                    "middleware-centred solution `{solution}`: interactions are marshalled \
                     by the middleware, no PDU registry to analyze"
                )]
            };
            Target {
                name: solution.to_string(),
                kind: "solution",
                service: floor_control_service(),
                universe: floor_universe(),
                protocol,
                implementation: None,
                notes,
            }
        })
        .collect()
}

/// Every catalogued platform, reached through the MDA trajectory (service
/// definition → PIM → abstract-platform realization) for both catalogued
/// PIMs. The analyzed service is the trajectory's anchoring service
/// definition; the milestone log is attached as report context.
pub fn platform_targets() -> Vec<Target> {
    let mut targets = Vec::new();
    let platforms = all_platforms();
    for pim in [floor_control_pim(), chat_pim()] {
        let trajectory = Trajectory::start(pim.service().clone())
            .with_design(pim.clone())
            .expect("catalogued PIMs implement their own service");
        for platform in &platforms {
            let outcome = trajectory
                .realize(platform, TransformPolicy::RecursiveServiceDesign)
                .expect("every catalogued platform can realize the catalogued PIMs");
            let notes = outcome
                .records()
                .iter()
                .map(|r| format!("{:?}: {} — {}", r.milestone(), r.artifact(), r.summary()))
                .collect();
            let service = pim.service().clone();
            let universe = if service.name() == "floor-control" {
                floor_universe()
            } else {
                let saps: Vec<Sap> = (1..=2)
                    .map(|k| Sap::new(service.roles()[0].name(), PartId::new(k)))
                    .collect();
                event_universe(&service, &saps, &[1, 2])
            };
            targets.push(Target {
                name: format!("{}@{}", pim.name(), platform.name()),
                kind: "platform",
                service,
                universe,
                protocol: None,
                implementation: None,
                notes,
            });
        }
    }
    targets
}

/// All targets: solutions first, then platforms.
pub fn all_targets() -> Vec<Target> {
    let mut targets = solution_targets();
    targets.extend(platform_targets());
    targets
}

/// Rescales every floor-control target to `users` subscribers (two
/// resources, as in `floor_universe`). Fixtures keep their seeded
/// universes — each one is tuned to trigger exactly one code.
///
/// This is the analyzer CLI's `--users` knob: with the symmetry quotient
/// on, the per-user state explosion collapses to orbit counting, so
/// universes far past what the concrete search can finish (six users and
/// up) stay under the state bound.
pub fn scale_floor_targets(targets: &mut [Target], users: u64) {
    for target in targets.iter_mut() {
        if target.kind != "fixture" && target.service.name() == "floor-control" {
            target.universe = floor_event_universe(users, 2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_six_solutions_and_eight_platform_targets() {
        assert_eq!(solution_targets().len(), 6);
        assert_eq!(platform_targets().len(), 8);
        let names: Vec<String> = all_targets().iter().map(|t| t.name.clone()).collect();
        assert!(names.contains(&"proto-token".to_owned()));
        assert!(names.iter().any(|n| n.starts_with("chat-pim@")));
    }

    #[test]
    fn exactly_the_protocol_solutions_carry_a_composition() {
        let with_protocol: Vec<String> = solution_targets()
            .into_iter()
            .filter(|t| t.protocol.is_some())
            .map(|t| t.name)
            .collect();
        assert_eq!(
            with_protocol,
            vec!["proto-callback", "proto-polling", "proto-token"]
        );
    }
}
