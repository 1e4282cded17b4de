//! # svckit-model — the service-concept metamodel
//!
//! This crate implements the *service concept* as defined in Almeida, van
//! Sinderen, Ferreira Pires and Quartel, *"The role of the service concept in
//! model-driven applications development"* (MIDDLEWARE 2003), Sections 2, 4.2
//! and 5:
//!
//! * A **service** is defined "in terms of the service primitives that occur
//!   at service access points, and the relationships between service
//!   primitives". [`ServiceDefinition`] captures exactly that: a set of
//!   [`PrimitiveSpec`]s available at role-typed [`Sap`]s, related by
//!   [`Constraint`]s.
//! * Constraints come in two flavours named by the paper: **local**
//!   constraints relate primitives occurring at the *same* access point
//!   (e.g. "the execution of `granted` eventually follows the execution of
//!   `request`"), while **remote** constraints relate primitives across
//!   access points (e.g. "a resource is only granted to one subscriber at a
//!   time").
//! * Whether a concrete execution — a [`Trace`] of
//!   [`PrimitiveEvent`]s — is a *correct implementation* of a service is
//!   decided by the [`conformance`] checker ("this can be assessed
//!   formally").
//!
//! The crate also hosts the *middleware-centred* modelling vocabulary of
//! Section 3 ([`InterfaceDef`], [`OperationSig`], [`InteractionPattern`]),
//! so that both paradigms share one type universe and can be compared.
//!
//! # Example
//!
//! Define the paper's floor-control service (Figure 5) and check a trace:
//!
//! ```
//! use svckit_model::{
//!     Constraint, ConstraintScope, PrimitiveSpec, Direction, ServiceDefinition,
//!     Trace, PrimitiveEvent, Sap, PartId, Value, Instant, conformance,
//! };
//!
//! let service = ServiceDefinition::builder("floor-control")
//!     .role("subscriber", 2, usize::MAX)
//!     .primitive(PrimitiveSpec::new("request", Direction::FromUser).param_id("resid"))
//!     .primitive(PrimitiveSpec::new("granted", Direction::ToUser).param_id("resid"))
//!     .primitive(PrimitiveSpec::new("free", Direction::FromUser).param_id("resid"))
//!     .constraint(Constraint::eventually_follows("request", "granted", ConstraintScope::SameSap).keyed(&[0]))
//!     .constraint(Constraint::precedes("granted", "free", ConstraintScope::SameSap).keyed(&[0]))
//!     .constraint(Constraint::mutual_exclusion("granted", "free").keyed(&[0]))
//!     .build()
//!     .expect("well-formed service");
//!
//! let sap = Sap::new("subscriber", PartId::new(1));
//! let mut trace = Trace::new();
//! trace.push(PrimitiveEvent::new(Instant::from_micros(1), sap.clone(), "request", vec![Value::Id(7)]));
//! trace.push(PrimitiveEvent::new(Instant::from_micros(2), sap.clone(), "granted", vec![Value::Id(7)]));
//! trace.push(PrimitiveEvent::new(Instant::from_micros(3), sap, "free", vec![Value::Id(7)]));
//!
//! let report = conformance::check_trace(&service, &trace, &conformance::CheckOptions::default());
//! assert!(report.is_conformant());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
mod constraint;
mod error;
pub mod hash;
mod id;
mod interface;
mod primitive;
mod sap;
mod service;
mod time;
mod trace;
mod value;

pub use constraint::{Constraint, ConstraintKind, ConstraintScope};
pub use error::ModelError;
pub use id::{PartId, ResourceId, SubscriberId};
pub use interface::{InteractionPattern, InterfaceDef, OperationSig};
pub use primitive::{Direction, ParamSpec, PrimitiveSpec, ValueType};
pub use sap::{RoleSpec, Sap};
pub use service::{ServiceDefinition, ServiceDefinitionBuilder};
pub use time::{Duration, Instant};
pub use trace::{PrimitiveEvent, Trace};
pub use value::Value;
