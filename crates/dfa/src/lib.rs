//! # svckit-dfa — behavioural constraints compiled to interned DFA tables
//!
//! The paper's §4.2 behavioural constraints (local/remote relations over
//! service primitives) are declarative predicates;
//! [`svckit_model::step_constraint`] interprets them one occurrence at a
//! time, and the interpreter engines of the `svckit-lts` explorer and the
//! [`AdmissionGate`] step through it. This crate compiles each
//! service's constraint set **once** into finite automata, so that taking
//! (or vetoing) a constraint step is a couple of array lookups:
//!
//! 1. each constraint becomes a [`Dfa`] — a dense row-major
//!    transition table, written down directly per constraint shape — over
//!    a small *class alphabet*: every concrete event collapses to the role
//!    it plays for that constraint (obligation up/down, enable/check,
//!    acquire/release by holder index, or irrelevant);
//! 2. structurally identical DFAs are content-interned behind `Arc`s
//!    ([`dfa::DfaCache`]) — a service whose five constraints reduce to two
//!    shapes shares two tables;
//! 3. at run time a [`Binder`] maps each concrete
//!    occurrence `(sap, primitive, args)` to *slots* — one DFA instance
//!    per (constraint, scope-instance, correlation-key) — and a product
//!    state is simply the vector of slot states.
//!
//! Four layers consume the result: the `svckit-lts` explorer (engine
//! `dfa` vs the interpreted reference `interp`), the middleware admission
//! path ([`AdmissionGate`]: a server validating primitive occurrences
//! against its service definition per dispatch), the run harness's
//! conformance verdict ([`Monitor`]: a whole trace checked online, one
//! occurrence at a time), and the analyzer ([`product::check_product`]:
//! contradiction = empty language, deadlock = reachable non-accepting
//! sink with a minimal-word counterexample).
//!
//! The compiled engine is **observationally identical** to the
//! interpreter — same verdicts, same first-violation choice, same
//! rendered violation messages — which the `svckit-lts` proptest oracle,
//! the admission oracle and the CI engine-`cmp` steps pin down, following
//! the dual-backend pattern of the 0.6.0 timer wheel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod compile;
pub mod dfa;
pub mod engine;
pub mod monitor;
pub mod product;
pub mod runner;

pub use admission::{AdmissionGate, AdmissionStats, ADMISSION_BOUND};
pub use compile::Compiled;
pub use dfa::{Dfa, DfaCache, DEAD};
pub use engine::Engine;
pub use monitor::Monitor;
pub use product::{check_product, ProductCheck};
pub use runner::{Binder, Edge};
