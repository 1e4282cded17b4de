//! User-permutation symmetry: detecting interchangeable access points and
//! quotienting state spaces by the induced permutation group.
//!
//! The paper's service concept treats the users behind one role as
//! *interchangeable*: "the identification of the subscriber is implied by
//! the identification of the access point". When a universe instantiates a
//! role at several parts with **identical event sets** (same primitives,
//! same argument values), every permutation of those access points is an
//! automorphism of the constraint automaton — each constraint kind reads
//! and writes only per-instance entries keyed by the SAP (`SameSap`
//! scopes), holder identities (`MutualExclusion`), or nothing SAP-related
//! at all (`Global` scopes) — so the product state space factors into
//! orbits, and it suffices to explore one representative per orbit.
//!
//! This module holds the engine-independent half: the [`Symmetry`] knob,
//! [`SymmetryGroups::detect`] (which SAPs are interchangeable over a given
//! universe), and orbit-size accounting. The per-engine canonical form —
//! sorting the per-member state fragments and re-binding them to the
//! group's fixed SAP order — lives next to the engines in
//! [`crate::explorer`].

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use svckit_model::Sap;

use crate::explorer::AbstractEvent;

/// Whether a state-space search canonicalizes product states under the
/// user-permutation symmetry group before hashing.
///
/// Both settings visit the same *behaviours*: symmetry only collapses
/// states that are renamings of one another, so verdict-level results
/// (deadlock-freedom, never-enabled primitives, conformance) are
/// preserved. Witness traces found on the quotient are expanded back to
/// concrete user names; analyses that must be byte-identical across the
/// knob (the analyzer's diagnostics) re-derive witnesses without the
/// reduction when a defect is found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Symmetry {
    /// Canonicalize states under the detected permutation groups.
    On,
    /// Explore concrete states (the reference behaviour).
    #[default]
    Off,
}

impl fmt::Display for Symmetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Symmetry::On => write!(f, "on"),
            Symmetry::Off => write!(f, "off"),
        }
    }
}

impl FromStr for Symmetry {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "on" => Ok(Symmetry::On),
            "off" => Ok(Symmetry::Off),
            other => Err(format!("unknown symmetry setting `{other}` (on|off)")),
        }
    }
}

/// The user-symmetric SAP groups of a universe: maximal sets of access
/// points instantiating the same role with identical event sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetryGroups {
    groups: Vec<Vec<Sap>>,
}

impl SymmetryGroups {
    /// Detects the symmetric groups of `universe`.
    ///
    /// Two access points are interchangeable when they instantiate the
    /// same role **and** the universe offers exactly the same
    /// `(primitive, args)` events at both — the full symmetric group over
    /// such a set acts on product states by renaming, because every
    /// constraint binding (scope instances, correlation-key values, mutex
    /// holder identities) is covered by the renaming. Any asymmetry —
    /// extra events, different argument values, a different role — keeps
    /// an access point out of every group. Groups have at least two
    /// members and are sorted (by SAP order) within and between groups,
    /// so detection is deterministic.
    pub fn detect(universe: &[AbstractEvent]) -> SymmetryGroups {
        // SAP → sorted (primitive, args) signature, then signature →
        // members: SAPs are interchangeable iff they share (role, signature).
        type EventSig = Vec<(String, Vec<svckit_model::Value>)>;
        let mut signatures: BTreeMap<Sap, EventSig> = BTreeMap::new();
        for event in universe {
            signatures
                .entry(event.sap.clone())
                .or_default()
                .push((event.primitive.clone(), event.args.clone()));
        }
        let mut by_signature: BTreeMap<(String, EventSig), Vec<Sap>> = BTreeMap::new();
        for (sap, mut signature) in signatures {
            signature.sort();
            signature.dedup();
            by_signature
                .entry((sap.role().to_owned(), signature))
                .or_default()
                .push(sap);
        }
        let mut groups: Vec<Vec<Sap>> = by_signature
            .into_values()
            .filter(|members| members.len() >= 2)
            .collect();
        groups.sort();
        SymmetryGroups { groups }
    }

    /// The groups, each sorted by SAP order.
    pub fn groups(&self) -> &[Vec<Sap>] {
        &self.groups
    }

    /// Whether no non-trivial group exists (canonicalization would be the
    /// identity everywhere).
    pub fn is_trivial(&self) -> bool {
        self.groups.is_empty()
    }
}

/// `n!`, saturating at `u64::MAX`.
pub(crate) fn factorial(n: u64) -> u64 {
    (2..=n).try_fold(1u64, u64::checked_mul).unwrap_or(u64::MAX)
}

/// The orbit size of a state whose per-member fragment ids (one group),
/// in ascending order, are `sorted`: `n! / ∏ mᵢ!` over the multiplicities
/// `mᵢ` of equal fragments. Members with equal fragments are *fixed* by
/// the corresponding transpositions, so they do not multiply the orbit.
pub(crate) fn orbit_factor(sorted: &[u32]) -> u64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "fragments sorted");
    let mut size = factorial(sorted.len() as u64);
    let mut run = 1u64;
    for i in 1..=sorted.len() {
        if i < sorted.len() && sorted[i] == sorted[i - 1] {
            run += 1;
        } else {
            size /= factorial(run).max(1);
            run = 1;
        }
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_model::{PartId, Value};

    fn ev(role: &str, part: u64, prim: &str, arg: u64) -> AbstractEvent {
        AbstractEvent::new(
            Sap::new(role, PartId::new(part)),
            prim,
            vec![Value::Id(arg)],
        )
    }

    #[test]
    fn symmetric_universe_forms_one_group() {
        let mut universe = Vec::new();
        for part in 1..=3 {
            for prim in ["request", "granted", "free"] {
                for r in 1..=2 {
                    universe.push(ev("subscriber", part, prim, r));
                }
            }
        }
        let groups = SymmetryGroups::detect(&universe);
        assert_eq!(groups.groups().len(), 1);
        assert_eq!(groups.groups()[0].len(), 3);
    }

    #[test]
    fn asymmetric_event_sets_break_the_group() {
        let universe = vec![
            ev("user", 1, "acquire", 1),
            ev("user", 2, "acquire", 1),
            ev("user", 2, "release", 1),
        ];
        assert!(SymmetryGroups::detect(&universe).is_trivial());
    }

    #[test]
    fn roles_are_never_mixed() {
        let universe = vec![
            ev("client", 1, "ping", 1),
            ev("server", 2, "ping", 1),
            ev("client", 3, "ping", 1),
        ];
        let groups = SymmetryGroups::detect(&universe);
        assert_eq!(groups.groups().len(), 1, "only the two clients group");
        assert!(groups.groups()[0].iter().all(|sap| sap.role() == "client"));
    }

    #[test]
    fn detection_is_order_independent() {
        let mut a = vec![ev("u", 1, "p", 1), ev("u", 2, "p", 1), ev("u", 3, "p", 1)];
        let b: Vec<_> = a.iter().rev().cloned().collect();
        let ga = SymmetryGroups::detect(&a);
        let gb = SymmetryGroups::detect(&b);
        a.reverse();
        assert_eq!(ga, gb);
    }

    #[test]
    fn orbit_factor_divides_out_equal_fragments() {
        assert_eq!(orbit_factor(&[0, 1, 2]), 6);
        assert_eq!(orbit_factor(&[0, 0, 1]), 3);
        assert_eq!(orbit_factor(&[0, 0, 0]), 1);
        assert_eq!(orbit_factor(&[5, 5, 7, 7]), 6);
        assert_eq!(orbit_factor(&[]), 1);
    }

    #[test]
    fn knob_parses_and_renders() {
        assert_eq!("on".parse::<Symmetry>().unwrap(), Symmetry::On);
        assert_eq!("off".parse::<Symmetry>().unwrap(), Symmetry::Off);
        assert!("maybe".parse::<Symmetry>().is_err());
        assert_eq!(Symmetry::On.to_string(), "on");
        assert_eq!(Symmetry::default(), Symmetry::Off);
    }
}
