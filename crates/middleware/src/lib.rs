//! # svckit-middleware — the middleware-centred paradigm
//!
//! "In the middleware-centred paradigm, system parts interact through a
//! limited set of interaction patterns offered by a middleware platform."
//! (Section 3.) This crate implements such a platform over the
//! `svckit-netsim` substrate:
//!
//! * [`Component`] — an application part in the middleware sense; it
//!   interacts only through the patterns its [`MwCtx`] exposes;
//! * **remote invocation** ([`MwCtx::invoke`] / [`MwCtx::oneway`]) — the
//!   request/response and message-passing patterns, marshalled through
//!   `svckit-codec` (middleware "'transforms' the interactions into
//!   (implicit) protocols");
//! * **message queues and publish/subscribe** ([`MwCtx::enqueue`],
//!   [`MwCtx::publish`]) — routed through a broker node;
//! * [`PlatformCaps`] — the set of [`InteractionPattern`]s a platform
//!   supports. Every interaction is checked against it, enforcing at run
//!   time the paper's observation that "the available constructs to build
//!   interfaces are constrained by the interaction patterns supported by
//!   the targeted platform";
//! * [`DeploymentPlan`] / [`MwSystemBuilder`] — assembly of components,
//!   interfaces, queues and topics into a runnable simulated system.
//!
//! [`InteractionPattern`]: svckit_model::InteractionPattern
//!
//! See `svckit-floorctl` for the three middleware floor-control solutions
//! of Figure 4 built on this platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broker;
mod component;
mod counters;
mod error;
mod node;
mod plan;
mod system;
mod wire;

pub use component::{Component, MwCtx};
pub use counters::MwCounters;
pub use error::MwError;
pub use plan::{DeploymentPlan, DeploymentPlanBuilder, PlatformCaps};
/// The runtime admission path, re-exported from `svckit-dfa`: install a
/// gate with [`MwSystemBuilder::admission`] to validate every recorded
/// primitive occurrence against a compiled service definition. The
/// [`Monitor`] checks a whole trace against the same compiled tables.
pub use svckit_dfa::{AdmissionGate, AdmissionStats, Compiled, Engine, Monitor, ADMISSION_BOUND};
pub use system::{MwSystem, MwSystemBuilder};
