//! The random-service generator shared by the admission and monitor
//! oracles: constraints of every kind over three primitives
//! (`a`, `b` from the user, `c` to the user), each keyed or not on the
//! primitives' one `id` argument.

use proptest::prelude::*;

use svckit_model::{Constraint, ConstraintScope, Direction, PrimitiveSpec, ServiceDefinition};

pub const NAMES: [&str; 3] = ["a", "b", "c"];

pub fn arb_constraint() -> impl Strategy<Value = Constraint> {
    (
        0usize..5,
        0usize..NAMES.len(),
        0usize..NAMES.len(),
        0usize..2,
        any::<bool>(),
        1usize..3,
    )
        .prop_map(|(kind, p1, p2, scope, keyed, limit)| {
            let (x, y) = (NAMES[p1], NAMES[p2]);
            let scope = [ConstraintScope::SameSap, ConstraintScope::Global][scope];
            let constraint = match kind {
                0 => Constraint::precedes(x, y, scope),
                1 => Constraint::after(x, y, scope),
                2 => Constraint::eventually_follows(x, y, scope),
                3 => Constraint::at_most_outstanding(x, y, limit, scope),
                _ => Constraint::mutual_exclusion(x, y),
            };
            if keyed {
                constraint.keyed(&[0])
            } else {
                constraint
            }
        })
}

pub fn service(constraints: &[Constraint]) -> Option<ServiceDefinition> {
    let mut builder = ServiceDefinition::builder("admission-oracle")
        .role("user", 1, 8)
        .primitive(PrimitiveSpec::new("a", Direction::FromUser).param_id("k"))
        .primitive(PrimitiveSpec::new("b", Direction::FromUser).param_id("k"))
        .primitive(PrimitiveSpec::new("c", Direction::ToUser).param_id("k"));
    for constraint in constraints {
        builder = builder.constraint(constraint.clone());
    }
    builder.build().ok()
}
