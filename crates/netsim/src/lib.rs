//! # svckit-netsim — the lower-level service substrate
//!
//! "The lower level service provides physical interconnection and (reliable
//! or unreliable) data transfer between protocol entities." (Section 2.)
//! This crate is that lower-level service, built as a **deterministic
//! discrete-event simulator** so that every experiment in the kit is
//! reproducible:
//!
//! * [`Simulator`] — the event loop: a logical clock, a priority queue of
//!   scheduled deliveries and timers, and seeded PRNG streams. The nodes
//!   are dealt over [`SimConfig::shards`] shards of one engine: one shard
//!   (the default) runs on the caller's thread, two or more run in
//!   lock-step windows on scoped threads, and a handler's panic reaches
//!   the caller either way;
//! * [`Process`] — the behaviour attached to each node (protocol entities,
//!   middleware engines and user parts all implement it);
//! * [`LinkConfig`] — per-link latency, jitter, loss, duplication and
//!   ordering, letting one simulator offer the paper's whole spectrum of
//!   lower-level services: "connectionless data transfer (e.g., 'send and
//!   pray')" ([`LinkConfig::lossy`]) up to reliable in-order transfer of a
//!   sequence of octets ([`LinkConfig::reliable_stream`]);
//! * [`NetMetrics`] — messages/bytes sent, delivered and dropped, the raw
//!   material for the experiment tables.
//!
//! Every [`Context`] handed to a process can also record service-primitive
//! occurrences ([`Context::record_primitive`]); the merged, time-ordered
//! [`Trace`](svckit_model::Trace) is returned in the [`SimReport`] and fed
//! straight into the `svckit-model` conformance checker.
//!
//! # Example: ping-pong over a 1 ms link
//!
//! ```
//! use svckit_model::{Duration, PartId};
//! use svckit_netsim::{Context, LinkConfig, Payload, Process, SimConfig, Simulator};
//!
//! struct Ping;
//! struct Pong;
//!
//! impl Process for Ping {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.send(PartId::new(2), b"ping".to_vec());
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_>, _from: PartId, payload: Payload) {
//!         assert_eq!(&payload[..], b"pong");
//!     }
//! }
//! impl Process for Pong {
//!     fn on_message(&mut self, ctx: &mut Context<'_>, from: PartId, _payload: Payload) {
//!         ctx.send(from, b"pong".to_vec());
//!     }
//! }
//!
//! let mut sim = Simulator::new(SimConfig::new(42).default_link(LinkConfig::lan()));
//! sim.add_process(PartId::new(1), Box::new(Ping));
//! sim.add_process(PartId::new(2), Box::new(Pong));
//! let report = sim.run_to_quiescence(Duration::from_secs(1)).unwrap();
//! assert_eq!(report.metrics().messages_delivered(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod link;
mod metrics;
mod node;
mod rng;
mod shard;
mod sim;
mod wheel;

pub use link::LinkConfig;
pub use metrics::NetMetrics;
pub use rng::DeterministicRng;
pub use sim::{
    Context, Payload, Process, QueueBackend, SimConfig, SimError, SimReport, Simulator, TimerId,
};
pub use svckit_obs::TraceCtx;
