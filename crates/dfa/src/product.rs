//! Product-automaton checks over an event universe.
//!
//! The product of every slot automaton, restricted to a finite event
//! universe, is itself a finite automaton; its language is the set of
//! admissible traces. Two analyzer findings read off it directly:
//!
//! * **contradiction** (`SA001`): the language is empty — the initial
//!   product state already rejects every universe event;
//! * **deadlock** (`SA002`): a reachable non-accepting sink — a state
//!   with no outgoing transition that still has outstanding obligations
//!   or held resources. The BFS discovery path is a *minimal word*
//!   reaching it.

use crate::runner::{Binder, Edge};

/// The result of a product-automaton sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductCheck {
    /// The language is empty: no universe event is admissible initially.
    pub empty_language: bool,
    /// Number of reachable sink states (no admissible successor).
    pub dead_states: usize,
    /// A minimal word (universe-event indices) reaching the first dead
    /// state found, when one exists. Empty for `empty_language` (the
    /// initial state itself is the sink).
    pub minimal_word: Option<Vec<usize>>,
    /// Total reachable product states visited.
    pub states: usize,
    /// The state bound was hit; `dead_states` is a lower bound then.
    pub truncated: bool,
}

/// Sweeps the product automaton breadth-first over `universe_edges` (one
/// resolved edge list per universe event, from [`Binder::resolve`]),
/// visiting at most `max_states` states.
///
/// BFS order guarantees the reported word is minimal in length.
pub fn check_product(
    binder: &Binder,
    universe_edges: &[Vec<Edge>],
    max_states: usize,
) -> ProductCheck {
    use std::collections::HashMap;

    let width = binder.slot_count();
    let initial = vec![0u32; width];
    let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
    index.insert(initial.clone(), 0);
    // (state key, parent index, universe event from parent)
    type Node = (Vec<u32>, Option<(usize, usize)>);
    let mut nodes: Vec<Node> = vec![(initial, None)];
    let mut dead_states = 0usize;
    let mut minimal_word: Option<Vec<usize>> = None;
    let mut truncated = false;

    let mut key = vec![0u32; width];
    let mut next = vec![0u32; width];
    let mut cursor = 0usize;
    while cursor < nodes.len() {
        key.copy_from_slice(&nodes[cursor].0);
        let mut any_allowed = false;
        for (ei, edges) in universe_edges.iter().enumerate() {
            if binder.step_wide_into(&key, edges, &mut next).is_err() {
                continue;
            }
            any_allowed = true;
            if index.contains_key(&next) {
                continue;
            }
            if nodes.len() >= max_states {
                truncated = true;
                continue;
            }
            index.insert(next.clone(), nodes.len());
            nodes.push((next.clone(), Some((cursor, ei))));
        }
        if !any_allowed {
            dead_states += 1;
            if minimal_word.is_none() {
                let mut word = Vec::new();
                let mut at = cursor;
                while let Some((parent, ei)) = nodes[at].1 {
                    word.push(ei);
                    at = parent;
                }
                word.reverse();
                minimal_word = Some(word);
            }
        }
        cursor += 1;
    }

    ProductCheck {
        empty_language: minimal_word.as_ref().is_some_and(|w| w.is_empty()),
        dead_states,
        minimal_word,
        states: nodes.len(),
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Compiled;
    use std::sync::Arc;
    use svckit_model::{
        Constraint, ConstraintScope, Direction, PartId, PrimitiveSpec, Sap, ServiceDefinition,
        Value,
    };

    fn sap(k: u64) -> Sap {
        Sap::new("user", PartId::new(k))
    }

    fn compiled(constraints: Vec<Constraint>) -> Arc<Compiled> {
        let mut builder = ServiceDefinition::builder("product-test")
            .role("user", 1, 4)
            .primitive(PrimitiveSpec::new("a", Direction::FromUser))
            .primitive(PrimitiveSpec::new("b", Direction::FromUser));
        for c in constraints {
            builder = builder.constraint(c);
        }
        let service = builder.build().expect("test service is well-formed");
        Arc::new(Compiled::compile(&service, 2).expect("known kinds compile"))
    }

    fn edges(binder: &mut Binder, universe: &[(Sap, &str, Vec<Value>)]) -> Vec<Vec<Edge>> {
        universe
            .iter()
            .map(|(s, p, args)| binder.resolve(s, p, args))
            .collect()
    }

    #[test]
    fn mutually_enabling_afters_have_an_empty_language() {
        let mut binder = Binder::new(compiled(vec![
            Constraint::after("b", "a", ConstraintScope::SameSap),
            Constraint::after("a", "b", ConstraintScope::SameSap),
        ]));
        let universe = vec![(sap(1), "a", vec![]), (sap(1), "b", vec![])];
        let ue = edges(&mut binder, &universe);
        let check = check_product(&binder, &ue, 1000);
        assert!(check.empty_language);
        assert_eq!(check.dead_states, 1);
        assert_eq!(check.minimal_word, Some(vec![]));
        assert_eq!(check.states, 1);
    }

    #[test]
    fn a_dropped_token_is_a_reachable_sink_with_a_minimal_word() {
        // acquire at either of two SAPs, but only SAP 2 can release: once
        // SAP 1 acquires, nothing is ever admissible again.
        let mut binder = Binder::new(compiled(vec![Constraint::mutual_exclusion("a", "b")]));
        let universe = vec![
            (sap(1), "a", vec![]),
            (sap(2), "a", vec![]),
            (sap(2), "b", vec![]),
        ];
        let ue = edges(&mut binder, &universe);
        let check = check_product(&binder, &ue, 1000);
        assert!(!check.empty_language);
        assert_eq!(check.dead_states, 1);
        assert_eq!(check.minimal_word, Some(vec![0]), "acquire@user#1 only");
        assert!(!check.truncated);
    }

    #[test]
    fn a_live_service_has_no_dead_state() {
        let mut binder = Binder::new(compiled(vec![
            Constraint::precedes("a", "b", ConstraintScope::SameSap),
            Constraint::eventually_follows("a", "b", ConstraintScope::SameSap),
        ]));
        let universe = vec![(sap(1), "a", vec![]), (sap(1), "b", vec![])];
        let ue = edges(&mut binder, &universe);
        let check = check_product(&binder, &ue, 1000);
        assert_eq!(check.dead_states, 0);
        assert_eq!(check.minimal_word, None);
        assert_eq!(check.states, 3, "counter values 0, 1, 2");
    }

    #[test]
    fn the_state_bound_flags_truncation() {
        let mut binder = Binder::new(compiled(vec![Constraint::eventually_follows(
            "a",
            "b",
            ConstraintScope::SameSap,
        )]));
        let universe = vec![(sap(1), "a", vec![]), (sap(2), "a", vec![])];
        let ue = edges(&mut binder, &universe);
        let check = check_product(&binder, &ue, 2);
        assert!(check.truncated);
    }
}
