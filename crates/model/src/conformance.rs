//! Trace conformance checking.
//!
//! "This resulting structure, which we call a protocol, has to be a correct
//! implementation of the service. This can be assessed formally, if both the
//! service and protocol are specified using some formal language."
//! (Section 2.) This module provides the trace-level half of that assessment:
//! given a [`ServiceDefinition`] and an observed [`Trace`], it reports every
//! violation of the primitive schemas and behavioural constraints. The
//! state-space half (exhaustive exploration) lives in `svckit-lts`.

use std::collections::BTreeMap;
use std::fmt;

use crate::constraint::{Constraint, ConstraintKind, Instance};
use crate::sap::Sap;
use crate::service::ServiceDefinition;
use crate::trace::Trace;
use crate::value::Value;

/// Options controlling a conformance check.
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    /// When `true`, obligations created by liveness constraints
    /// ([`ConstraintKind::EventuallyFollows`]) that are still outstanding at
    /// the end of the trace are reported as *pending* rather than as
    /// violations. Use this for traces cut off mid-run; leave `false`
    /// (the default) for workloads that drain fully.
    pub allow_pending_liveness: bool,
}

/// A single conformance violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    constraint: Option<String>,
    event_index: Option<usize>,
    message: String,
}

impl Violation {
    /// The violated constraint, rendered, if the violation stems from a
    /// constraint (schema violations have none).
    pub fn constraint(&self) -> Option<&str> {
        self.constraint.as_deref()
    }

    /// Index into the trace of the offending event, when attributable.
    pub fn event_index(&self) -> Option<usize> {
        self.event_index
    }

    /// Human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(i) = self.event_index {
            write!(f, "at event {i}: ")?;
        }
        write!(f, "{}", self.message)?;
        if let Some(c) = &self.constraint {
            write!(f, " (violates {c})")?;
        }
        Ok(())
    }
}

/// The outcome of checking a trace against a service definition.
#[derive(Debug, Clone, Default)]
pub struct ConformanceReport {
    violations: Vec<Violation>,
    pending_obligations: usize,
    events_checked: usize,
}

impl ConformanceReport {
    /// `true` when no violation was found.
    pub fn is_conformant(&self) -> bool {
        self.violations.is_empty()
    }

    /// All violations found, in trace order where attributable.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Number of liveness obligations outstanding at the end of the trace
    /// (only populated when [`CheckOptions::allow_pending_liveness`] is set;
    /// otherwise such obligations appear as violations).
    pub fn pending_obligations(&self) -> usize {
        self.pending_obligations
    }

    /// Number of events examined.
    pub fn events_checked(&self) -> usize {
        self.events_checked
    }
}

impl fmt::Display for ConformanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_conformant() {
            write!(
                f,
                "conformant ({} events, {} pending obligation(s))",
                self.events_checked, self.pending_obligations
            )
        } else {
            writeln!(
                f,
                "NOT conformant: {} violation(s) in {} events",
                self.violations.len(),
                self.events_checked
            )?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// Checks `trace` against `service`: every event against its primitive
/// schema (known primitive, declared role, arity and types), then every
/// constraint.
///
/// The check is linear in the trace length for each constraint. Violations
/// carry the index of the offending event when one exists; liveness
/// violations (unanswered obligations) are attached to the index of the
/// *triggering* event.
pub fn check_trace(
    service: &ServiceDefinition,
    trace: &Trace,
    options: &CheckOptions,
) -> ConformanceReport {
    let mut report = ConformanceReport {
        events_checked: trace.len(),
        ..ConformanceReport::default()
    };

    check_schema(service, trace, &mut report);
    for constraint in service.constraints() {
        check_constraint(constraint, trace, options, &mut report);
    }
    report
        .violations
        .sort_by_key(|v| v.event_index.unwrap_or(usize::MAX));
    report
}

fn check_schema(service: &ServiceDefinition, trace: &Trace, report: &mut ConformanceReport) {
    for (i, event) in trace.iter().enumerate() {
        match service.primitive(event.primitive()) {
            None => report.violations.push(Violation {
                constraint: None,
                event_index: Some(i),
                message: format!(
                    "primitive `{}` is not part of service `{}`",
                    event.primitive(),
                    service.name()
                ),
            }),
            Some(spec) => {
                if let Err(err) = spec.validate_args(event.args()) {
                    report.violations.push(Violation {
                        constraint: None,
                        event_index: Some(i),
                        message: err.to_string(),
                    });
                }
            }
        }
        if service.role(event.sap().role()).is_none() {
            report.violations.push(Violation {
                constraint: None,
                event_index: Some(i),
                message: format!(
                    "access point {} instantiates undeclared role `{}`",
                    event.sap(),
                    event.sap().role()
                ),
            });
        }
    }
}

fn check_constraint(
    constraint: &Constraint,
    trace: &Trace,
    options: &CheckOptions,
    report: &mut ConformanceReport,
) {
    match constraint.kind() {
        ConstraintKind::Precedes { earlier, later, .. } => {
            let mut balance: BTreeMap<Instance, usize> = BTreeMap::new();
            for (i, event) in trace.iter().enumerate() {
                if event.primitive() == earlier {
                    *balance
                        .entry(constraint.instance(event.sap(), event.args()))
                        .or_insert(0) += 1;
                } else if event.primitive() == later {
                    let inst = constraint.instance(event.sap(), event.args());
                    let entry = balance.entry(inst).or_insert(0);
                    if *entry == 0 {
                        report.violations.push(Violation {
                            constraint: Some(constraint.to_string()),
                            event_index: Some(i),
                            message: format!(
                                "`{later}` occurred without a preceding unmatched `{earlier}`"
                            ),
                        });
                    } else {
                        *entry -= 1;
                    }
                }
            }
        }
        ConstraintKind::After { enabler, then, .. } => {
            let mut enabled: BTreeMap<Instance, ()> = BTreeMap::new();
            for (i, event) in trace.iter().enumerate() {
                if event.primitive() == enabler {
                    enabled.insert(constraint.instance(event.sap(), event.args()), ());
                } else if event.primitive() == then
                    && !enabled.contains_key(&constraint.instance(event.sap(), event.args()))
                {
                    report.violations.push(Violation {
                        constraint: Some(constraint.to_string()),
                        event_index: Some(i),
                        message: format!("`{then}` occurred before any `{enabler}`"),
                    });
                }
            }
        }
        ConstraintKind::EventuallyFollows {
            trigger, response, ..
        } => {
            // Outstanding trigger event indices, FIFO per instance.
            let mut outstanding: BTreeMap<Instance, Vec<usize>> = BTreeMap::new();
            for (i, event) in trace.iter().enumerate() {
                if event.primitive() == trigger {
                    outstanding
                        .entry(constraint.instance(event.sap(), event.args()))
                        .or_default()
                        .push(i);
                } else if event.primitive() == response {
                    if let Some(queue) =
                        outstanding.get_mut(&constraint.instance(event.sap(), event.args()))
                    {
                        if !queue.is_empty() {
                            queue.remove(0);
                        }
                    }
                }
            }
            let pending: usize = outstanding.values().map(Vec::len).sum();
            if options.allow_pending_liveness {
                report.pending_obligations += pending;
            } else {
                for (_, queue) in outstanding {
                    for idx in queue {
                        report.violations.push(Violation {
                            constraint: Some(constraint.to_string()),
                            event_index: Some(idx),
                            message: format!(
                                "`{trigger}` was never followed by a matching `{response}`"
                            ),
                        });
                    }
                }
            }
        }
        ConstraintKind::MutualExclusion { acquire, release } => {
            let mut holder: BTreeMap<Vec<Value>, (Sap, usize)> = BTreeMap::new();
            for (i, event) in trace.iter().enumerate() {
                let k = event.key(constraint.key());
                if event.primitive() == acquire {
                    if let Some((held_by, since)) = holder.get(&k) {
                        report.violations.push(Violation {
                            constraint: Some(constraint.to_string()),
                            event_index: Some(i),
                            message: format!(
                                "`{acquire}` at {} while already held by {} (since event {})",
                                event.sap(),
                                held_by,
                                since
                            ),
                        });
                    } else {
                        holder.insert(k, (event.sap().clone(), i));
                    }
                } else if event.primitive() == release {
                    match holder.get(&k) {
                        Some((held_by, _)) if held_by == event.sap() => {
                            holder.remove(&k);
                        }
                        Some((held_by, _)) => {
                            report.violations.push(Violation {
                                constraint: Some(constraint.to_string()),
                                event_index: Some(i),
                                message: format!(
                                    "`{release}` at {} but holder is {}",
                                    event.sap(),
                                    held_by
                                ),
                            });
                        }
                        None => {
                            report.violations.push(Violation {
                                constraint: Some(constraint.to_string()),
                                event_index: Some(i),
                                message: format!(
                                    "`{release}` at {} but nothing is held",
                                    event.sap()
                                ),
                            });
                        }
                    }
                }
            }
        }
        ConstraintKind::AtMostOutstanding {
            trigger,
            response,
            limit,
            ..
        } => {
            let mut outstanding: BTreeMap<Instance, usize> = BTreeMap::new();
            for (i, event) in trace.iter().enumerate() {
                if event.primitive() == trigger {
                    let entry = outstanding
                        .entry(constraint.instance(event.sap(), event.args()))
                        .or_insert(0);
                    *entry += 1;
                    if *entry > *limit {
                        report.violations.push(Violation {
                            constraint: Some(constraint.to_string()),
                            event_index: Some(i),
                            message: format!(
                                "more than {limit} outstanding `{trigger}` obligation(s)"
                            ),
                        });
                    }
                } else if event.primitive() == response {
                    let entry = outstanding
                        .entry(constraint.instance(event.sap(), event.args()))
                        .or_insert(0);
                    *entry = entry.saturating_sub(1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintScope;
    use crate::id::PartId;
    use crate::primitive::{Direction, PrimitiveSpec};
    use crate::time::Instant;
    use crate::trace::PrimitiveEvent;

    fn floor_control() -> ServiceDefinition {
        ServiceDefinition::builder("floor-control")
            .role("subscriber", 2, usize::MAX)
            .primitive(PrimitiveSpec::new("request", Direction::FromUser).param_id("resid"))
            .primitive(PrimitiveSpec::new("granted", Direction::ToUser).param_id("resid"))
            .primitive(PrimitiveSpec::new("free", Direction::FromUser).param_id("resid"))
            .constraint(
                Constraint::eventually_follows("request", "granted", ConstraintScope::SameSap)
                    .keyed(&[0]),
            )
            .constraint(
                Constraint::precedes("granted", "free", ConstraintScope::SameSap).keyed(&[0]),
            )
            .constraint(
                Constraint::precedes("request", "granted", ConstraintScope::SameSap).keyed(&[0]),
            )
            .constraint(Constraint::mutual_exclusion("granted", "free").keyed(&[0]))
            .build()
            .unwrap()
    }

    fn ev(t: u64, part: u64, prim: &str, res: u64) -> PrimitiveEvent {
        PrimitiveEvent::new(
            Instant::from_micros(t),
            Sap::new("subscriber", PartId::new(part)),
            prim,
            vec![Value::Id(res)],
        )
    }

    #[test]
    fn conformant_interleaved_trace_passes() {
        let trace: Trace = [
            ev(1, 1, "request", 7),
            ev(2, 2, "request", 7),
            ev(3, 1, "granted", 7),
            ev(4, 1, "free", 7),
            ev(5, 2, "granted", 7),
            ev(6, 2, "free", 7),
        ]
        .into_iter()
        .collect();
        let report = check_trace(&floor_control(), &trace, &CheckOptions::default());
        assert!(report.is_conformant(), "{report}");
    }

    #[test]
    fn double_grant_violates_mutual_exclusion() {
        let trace: Trace = [
            ev(1, 1, "request", 7),
            ev(2, 2, "request", 7),
            ev(3, 1, "granted", 7),
            ev(4, 2, "granted", 7), // resource 7 still held by part 1
            ev(5, 1, "free", 7),
            ev(6, 2, "free", 7),
        ]
        .into_iter()
        .collect();
        let report = check_trace(&floor_control(), &trace, &CheckOptions::default());
        assert!(!report.is_conformant());
        let v = &report.violations()[0];
        assert_eq!(v.event_index(), Some(3));
        assert!(v.message().contains("already held"), "{}", v.message());
    }

    #[test]
    fn distinct_resources_do_not_exclude_each_other() {
        let trace: Trace = [
            ev(1, 1, "request", 7),
            ev(2, 2, "request", 8),
            ev(3, 1, "granted", 7),
            ev(4, 2, "granted", 8),
            ev(5, 1, "free", 7),
            ev(6, 2, "free", 8),
        ]
        .into_iter()
        .collect();
        let report = check_trace(&floor_control(), &trace, &CheckOptions::default());
        assert!(report.is_conformant(), "{report}");
    }

    #[test]
    fn free_before_grant_violates_precedence() {
        let trace: Trace = [ev(1, 1, "free", 7)].into_iter().collect();
        let report = check_trace(&floor_control(), &trace, &CheckOptions::default());
        assert!(report
            .violations()
            .iter()
            .any(|v| v.message().contains("without a preceding")));
    }

    #[test]
    fn unanswered_request_is_liveness_violation_by_default() {
        let trace: Trace = [ev(1, 1, "request", 7)].into_iter().collect();
        let report = check_trace(&floor_control(), &trace, &CheckOptions::default());
        assert!(!report.is_conformant());
        assert!(report.violations()[0].message().contains("never followed"));
    }

    #[test]
    fn unanswered_request_is_pending_when_allowed() {
        let trace: Trace = [ev(1, 1, "request", 7)].into_iter().collect();
        let options = CheckOptions {
            allow_pending_liveness: true,
        };
        let report = check_trace(&floor_control(), &trace, &options);
        assert!(report.is_conformant());
        assert_eq!(report.pending_obligations(), 1);
    }

    #[test]
    fn unknown_primitive_is_schema_violation() {
        let trace: Trace = [ev(1, 1, "steal", 7)].into_iter().collect();
        let report = check_trace(&floor_control(), &trace, &CheckOptions::default());
        assert!(!report.is_conformant());
        assert!(report.violations()[0]
            .message()
            .contains("not part of service"));
        assert!(report.violations()[0].constraint().is_none());
    }

    #[test]
    fn wrong_arity_is_schema_violation() {
        let trace: Trace = [PrimitiveEvent::new(
            Instant::from_micros(1),
            Sap::new("subscriber", PartId::new(1)),
            "request",
            vec![],
        )]
        .into_iter()
        .collect();
        let report = check_trace(&floor_control(), &trace, &CheckOptions::default());
        assert!(!report.is_conformant());
        assert!(report.violations()[0].message().contains("argument"));
    }

    #[test]
    fn undeclared_role_is_schema_violation() {
        let trace: Trace = [PrimitiveEvent::new(
            Instant::from_micros(1),
            Sap::new("intruder", PartId::new(1)),
            "request",
            vec![Value::Id(7)],
        )]
        .into_iter()
        .collect();
        let report = check_trace(&floor_control(), &trace, &CheckOptions::default());
        assert!(report
            .violations()
            .iter()
            .any(|v| v.message().contains("undeclared role")));
    }

    #[test]
    fn release_by_non_holder_is_violation() {
        let trace: Trace = [
            ev(1, 1, "request", 7),
            ev(2, 1, "granted", 7),
            ev(3, 2, "request", 7),
            // part 2 frees a resource held by part 1 — mutual exclusion broken
            ev(4, 2, "free", 7),
            ev(5, 1, "free", 7),
            ev(6, 2, "granted", 7),
            ev(7, 2, "free", 7),
        ]
        .into_iter()
        .collect();
        let report = check_trace(&floor_control(), &trace, &CheckOptions::default());
        assert!(report
            .violations()
            .iter()
            .any(|v| v.message().contains("but holder is")));
    }

    #[test]
    fn after_is_non_consuming() {
        let svc = ServiceDefinition::builder("chat")
            .role("member", 1, usize::MAX)
            .primitive(PrimitiveSpec::new("join", Direction::FromUser))
            .primitive(PrimitiveSpec::new("say", Direction::FromUser))
            .constraint(Constraint::after("join", "say", ConstraintScope::SameSap))
            .build()
            .unwrap();
        let sap = Sap::new("member", PartId::new(1));
        let mk = |t, p: &str| PrimitiveEvent::new(Instant::from_micros(t), sap.clone(), p, vec![]);
        // One join enables any number of says.
        let ok: Trace = [mk(1, "join"), mk(2, "say"), mk(3, "say"), mk(4, "say")]
            .into_iter()
            .collect();
        assert!(check_trace(&svc, &ok, &CheckOptions::default()).is_conformant());
        // Saying before joining is a violation.
        let bad: Trace = [mk(1, "say"), mk(2, "join")].into_iter().collect();
        let report = check_trace(&svc, &bad, &CheckOptions::default());
        assert!(report.violations()[0].message().contains("before any"));
    }

    #[test]
    fn after_scope_separates_saps() {
        let svc = ServiceDefinition::builder("chat")
            .role("member", 1, usize::MAX)
            .primitive(PrimitiveSpec::new("join", Direction::FromUser))
            .primitive(PrimitiveSpec::new("say", Direction::FromUser))
            .constraint(Constraint::after("join", "say", ConstraintScope::SameSap))
            .build()
            .unwrap();
        let mk = |t, part, p: &str| {
            PrimitiveEvent::new(
                Instant::from_micros(t),
                Sap::new("member", PartId::new(part)),
                p,
                vec![],
            )
        };
        // Part 1 joined; part 2 did not — part 2's say is the violation.
        let trace: Trace = [mk(1, 1, "join"), mk(2, 2, "say")].into_iter().collect();
        let report = check_trace(&svc, &trace, &CheckOptions::default());
        assert_eq!(report.violations().len(), 1);
        assert_eq!(report.violations()[0].event_index(), Some(1));
    }

    #[test]
    fn at_most_outstanding_limits_duplicate_requests() {
        let svc = ServiceDefinition::builder("s")
            .role("u", 1, usize::MAX)
            .primitive(PrimitiveSpec::new("req", Direction::FromUser).param_id("r"))
            .primitive(PrimitiveSpec::new("ack", Direction::ToUser).param_id("r"))
            .constraint(
                Constraint::at_most_outstanding("req", "ack", 1, ConstraintScope::SameSap)
                    .keyed(&[0]),
            )
            .build()
            .unwrap();
        let sap = Sap::new("u", PartId::new(1));
        let mk = |t, p: &str| {
            PrimitiveEvent::new(Instant::from_micros(t), sap.clone(), p, vec![Value::Id(1)])
        };
        let ok: Trace = [mk(1, "req"), mk(2, "ack"), mk(3, "req"), mk(4, "ack")]
            .into_iter()
            .collect();
        assert!(check_trace(&svc, &ok, &CheckOptions::default()).is_conformant());
        let bad: Trace = [mk(1, "req"), mk(2, "req")].into_iter().collect();
        let report = check_trace(&svc, &bad, &CheckOptions::default());
        assert!(report
            .violations()
            .iter()
            .any(|v| v.message().contains("more than 1 outstanding")));
    }

    #[test]
    fn violations_are_sorted_by_event_index() {
        let trace: Trace = [ev(1, 1, "free", 7), ev(2, 1, "steal", 7)]
            .into_iter()
            .collect();
        let report = check_trace(&floor_control(), &trace, &CheckOptions::default());
        let indices: Vec<_> = report
            .violations()
            .iter()
            .filter_map(Violation::event_index)
            .collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted);
    }

    #[test]
    fn report_display_mentions_outcome() {
        let trace = Trace::new();
        let report = check_trace(&floor_control(), &trace, &CheckOptions::default());
        assert!(report.to_string().starts_with("conformant"));
    }

    #[test]
    fn empty_constraint_set_only_checks_schemas() {
        let svc = ServiceDefinition::builder("unconstrained")
            .role("u", 1, usize::MAX)
            .primitive(PrimitiveSpec::new("ping", Direction::FromUser))
            .build()
            .unwrap();
        let sap = Sap::new("u", PartId::new(1));
        let mk = |t, p: &str| PrimitiveEvent::new(Instant::from_micros(t), sap.clone(), p, vec![]);
        // Without constraints, any schema-valid event order is conformant.
        let ok: Trace = [mk(1, "ping"), mk(2, "ping"), mk(3, "ping")]
            .into_iter()
            .collect();
        let report = check_trace(&svc, &ok, &CheckOptions::default());
        assert!(report.is_conformant(), "{report}");
        assert_eq!(report.events_checked(), 3);
        // …but the schema pass still runs.
        let bad: Trace = [mk(1, "pong")].into_iter().collect();
        let report = check_trace(&svc, &bad, &CheckOptions::default());
        assert_eq!(report.violations().len(), 1);
        assert!(report.violations()[0].constraint().is_none());
    }

    #[test]
    fn single_primitive_universe_with_self_referential_liveness() {
        // A one-primitive universe where the primitive triggers an
        // obligation only itself could answer: occurrences are classified
        // as triggers first, so they never self-satisfy — every `tick`
        // stays an unanswered obligation.
        let svc = ServiceDefinition::builder("clock")
            .role("u", 1, usize::MAX)
            .primitive(PrimitiveSpec::new("tick", Direction::FromUser))
            .constraint(Constraint::eventually_follows(
                "tick",
                "tick",
                ConstraintScope::SameSap,
            ))
            .build()
            .unwrap();
        let sap = Sap::new("u", PartId::new(1));
        let mk = |t| PrimitiveEvent::new(Instant::from_micros(t), sap.clone(), "tick", vec![]);
        let trace: Trace = [mk(1), mk(2)].into_iter().collect();
        let report = check_trace(&svc, &trace, &CheckOptions::default());
        assert_eq!(report.violations().len(), 2);
        // Under pending-liveness both stay open rather than violating.
        let options = CheckOptions {
            allow_pending_liveness: true,
        };
        let report = check_trace(&svc, &trace, &options);
        assert!(report.is_conformant());
        assert_eq!(report.pending_obligations(), 2);
    }

    #[test]
    fn constraint_on_undeclared_sap_and_primitive_is_vacuous_at_trace_level() {
        // A constraint referencing a primitive the service never declares
        // is rejected when the definition is built — it cannot even reach
        // the trace checker.
        let err = ServiceDefinition::builder("dangling")
            .role("u", 1, usize::MAX)
            .primitive(PrimitiveSpec::new("ping", Direction::FromUser))
            .constraint(Constraint::precedes(
                "open",
                "close",
                ConstraintScope::SameSap,
            ))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("open"), "{err}");

        // An event *at an undeclared SAP* is still fed through the
        // constraint pass: the mutual-exclusion holder map keys on the
        // event's SAP as-is, so the double acquire is caught even though
        // the schema pass already flags the role.
        let svc = ServiceDefinition::builder("mutex")
            .role("u", 1, usize::MAX)
            .primitive(PrimitiveSpec::new("acquire", Direction::FromUser))
            .primitive(PrimitiveSpec::new("release", Direction::FromUser))
            .constraint(Constraint::mutual_exclusion("acquire", "release"))
            .build()
            .unwrap();
        let intruder = Sap::new("ghost", PartId::new(9));
        let mk =
            |t, p: &str| PrimitiveEvent::new(Instant::from_micros(t), intruder.clone(), p, vec![]);
        let trace: Trace = [mk(1, "acquire"), mk(2, "acquire")].into_iter().collect();
        let report = check_trace(&svc, &trace, &CheckOptions::default());
        let role_violations = report
            .violations()
            .iter()
            .filter(|v| v.message().contains("undeclared role"))
            .count();
        assert_eq!(role_violations, 2, "{report}");
        assert!(
            report
                .violations()
                .iter()
                .any(|v| v.message().contains("already held")),
            "{report}"
        );
    }
}
