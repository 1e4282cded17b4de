//! Property-based oracle for the admission gate: for random services and
//! random occurrence streams, the DFA-driven gate and the map-based
//! interpreter gate must make identical admit/reject decisions (and hence
//! report identical statistics).

mod common;

use proptest::prelude::*;

use common::{arb_constraint, service, NAMES};
use svckit_dfa::{AdmissionGate, Engine};
use svckit_model::{PartId, Sap, Value};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streams of (sap, primitive, key) occurrences over 2 SAPs and 2 key
    /// values: both engines admit and reject the very same occurrences,
    /// in order, with reject-and-continue semantics.
    #[test]
    fn gate_decisions_are_identical_across_engines(
        constraints in proptest::collection::vec(arb_constraint(), 1..5),
        stream in proptest::collection::vec((1u64..3, 0usize..3, 1u64..3), 1..60),
    ) {
        let Some(svc) = service(&constraints) else { return; };
        let dfa = AdmissionGate::new(&svc, Engine::Dfa).expect("known kinds compile");
        let interp = AdmissionGate::new(&svc, Engine::Interp).expect("known kinds compile");
        for &(s, p, k) in &stream {
            let sap = Sap::new("user", PartId::new(s));
            let args = vec![Value::Id(k)];
            let d = dfa.admit(&sap, NAMES[p], &args);
            let i = interp.admit(&sap, NAMES[p], &args);
            prop_assert_eq!(d, i, "diverged at {} {} {:?}", sap, NAMES[p], args);
        }
        prop_assert_eq!(dfa.stats(), interp.stats());
    }
}
