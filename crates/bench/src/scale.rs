//! The scale soak: a floor-control workload shaped for six-figure client
//! counts, driving the raw `svckit-netsim` core (and its sharded engine)
//! rather than the full middleware/protocol towers.
//!
//! `N` clients contend for floors managed by a handful of servers —
//! groups of [`GROUP`] adjacent clients share one floor, so contention is
//! real but bounded. Clients alternate between the paper's two
//! interaction styles: *callback* clients send one request and wait for
//! the server's grant; *polling* clients probe and re-probe on a timer
//! until the floor is free. The server keeps a FIFO waiter queue per
//! floor (pollers are enqueued on their first busy probe), so every
//! round terminates and the workload is deterministic: on the perfect
//! links used here no link randomness is consumed, which is exactly the
//! envelope where `--shards N` output is byte-identical to `--shards 1`
//! (see the `shard` module of `svckit-netsim`).
//!
//! [`run_scale_soak`] reports both virtual-time results (canonical,
//! byte-comparable across shard counts — the CI `cmp` gate) and
//! wall-clock throughput (events/sec, the perfgate floor key).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::time::Instant as WallInstant;

use svckit::model::{Duration, PartId};
use svckit::netsim::{Context, LinkConfig, Payload, Process, SimConfig, Simulator, TimerId};
use svckit_sweep::JsonWriter;

/// Clients per floor: the contention group size.
pub const GROUP: u64 = 4;

/// Message opcodes (first payload byte).
const OP_REQ: u8 = 0;
const OP_POLL: u8 = 1;
const OP_REL: u8 = 2;
const OP_GRANT: u8 = 3;
const OP_BUSY: u8 = 4;

const TIMER_KICK: TimerId = TimerId(0);
const TIMER_HOLD: TimerId = TimerId(1);
const TIMER_POLL: TimerId = TimerId(2);

fn msg(op: u8, floor: u64) -> Vec<u8> {
    let mut m = Vec::with_capacity(9);
    m.push(op);
    m.extend_from_slice(&floor.to_le_bytes());
    m
}

fn floor_of(payload: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&payload[1..9]);
    u64::from_le_bytes(b)
}

/// Configuration of one scale-soak run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Number of clients (half callback-style, half polling-style).
    pub clients: u64,
    /// Number of floor servers; floors are spread round-robin.
    pub servers: u64,
    /// Acquisition rounds per client.
    pub rounds: u32,
    /// Simulator shard count (1 = one shard on the caller's thread).
    pub shards: u32,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for ScaleConfig {
    /// 100 000 clients, 4 servers, 2 rounds, one shard, seed 42.
    fn default() -> Self {
        ScaleConfig {
            clients: 100_000,
            servers: 4,
            rounds: 2,
            shards: 1,
            seed: 42,
        }
    }
}

/// Measured results of one scale-soak run. Everything except the wall
/// fields is virtual-time-deterministic and shard-count-invariant.
#[derive(Debug, Clone)]
pub struct ScaleOutcome {
    /// The configuration that ran.
    pub clients: u64,
    /// Servers.
    pub servers: u64,
    /// Rounds per client.
    pub rounds: u32,
    /// Shard count used.
    pub shards: u32,
    /// Simulated end time, microseconds.
    pub end_us: u64,
    /// Whether every client finished inside the time cap.
    pub quiescent: bool,
    /// Events dispatched by the engine (deliveries + timer fires,
    /// including stale pops).
    pub events: u64,
    /// Transport messages sent.
    pub messages_sent: u64,
    /// Transport messages delivered.
    pub messages_delivered: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// High-water mark of pending events (live timers plus in-flight
    /// messages). Summed over shards, so it is an aggregate bound — it is
    /// reported on stdout/sidecars, never in the canonical JSON.
    pub peak_pending: usize,
    /// Wall-clock seconds for the run (sidecar-only).
    pub wall_secs: f64,
    /// Events per wall-clock second (sidecar-only; the perfgate key).
    pub events_per_sec: f64,
}

impl ScaleOutcome {
    /// The canonical, byte-comparable JSON: virtual-time facts only — no
    /// wall-clock, no shard-dependent aggregates, and no shard count
    /// (the whole point is that `--shards 1` and `--shards N` produce the
    /// same bytes; CI `cmp`s two of these).
    pub fn to_canonical_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("workload").string("scale_soak");
        w.key("clients").uint(self.clients);
        w.key("servers").uint(self.servers);
        w.key("rounds").uint(u64::from(self.rounds));
        w.key("end_us").uint(self.end_us);
        w.key("quiescent").boolean(self.quiescent);
        w.key("events").uint(self.events);
        w.key("messages_sent").uint(self.messages_sent);
        w.key("messages_delivered").uint(self.messages_delivered);
        w.key("bytes_sent").uint(self.bytes_sent);
        w.end_object();
        w.finish()
    }
}

/// One floor's server-side state: current holder plus FIFO waiters.
#[derive(Default)]
struct FloorState {
    holder: Option<PartId>,
    waiters: VecDeque<PartId>,
}

/// A floor server: grants floors FIFO. Pollers are enqueued on their
/// first busy probe so nobody starves; a queued poller that is granted on
/// release simply stops polling (its client cancels the probe timer).
struct ScaleServer {
    floors: HashMap<u64, FloorState>,
}

impl Process for ScaleServer {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: PartId, payload: Payload) {
        let op = payload[0];
        let floor = floor_of(&payload);
        let state = self.floors.entry(floor).or_default();
        match op {
            OP_REQ => {
                if state.holder.is_none() && state.waiters.is_empty() {
                    state.holder = Some(from);
                    ctx.send(from, msg(OP_GRANT, floor));
                } else {
                    state.waiters.push_back(from);
                }
            }
            OP_POLL => {
                if state.holder.is_none() && state.waiters.is_empty() {
                    state.holder = Some(from);
                    ctx.send(from, msg(OP_GRANT, floor));
                } else if state.holder == Some(from) {
                    // A probe that raced its own grant: the GRANT is
                    // already in flight, and answering again could land
                    // in the client's *next* round. Stay silent.
                } else {
                    if !state.waiters.contains(&from) {
                        state.waiters.push_back(from);
                    }
                    ctx.send(from, msg(OP_BUSY, floor));
                }
            }
            OP_REL => {
                debug_assert_eq!(state.holder, Some(from), "release from non-holder");
                state.holder = None;
                if let Some(next) = state.waiters.pop_front() {
                    state.holder = Some(next);
                    ctx.send(next, msg(OP_GRANT, floor));
                }
            }
            _ => unreachable!("unknown opcode {op}"),
        }
    }
}

/// The two client interaction styles of the paper's solution space.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Flavor {
    Callback,
    Polling,
}

struct ScaleClient {
    server: PartId,
    floor: u64,
    flavor: Flavor,
    rounds_left: u32,
    waiting: bool,
    start_delay: Duration,
    poll: Duration,
    hold: Duration,
    think: Duration,
}

impl ScaleClient {
    fn request(&mut self, ctx: &mut Context<'_>) {
        self.waiting = true;
        let op = match self.flavor {
            Flavor::Callback => OP_REQ,
            Flavor::Polling => OP_POLL,
        };
        ctx.send(self.server, msg(op, self.floor));
    }
}

impl Process for ScaleClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.rounds_left > 0 {
            ctx.set_timer(self.start_delay, TIMER_KICK);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: PartId, payload: Payload) {
        match payload[0] {
            OP_GRANT => {
                if self.waiting {
                    self.waiting = false;
                    ctx.cancel_timer(TIMER_POLL);
                    ctx.set_timer(self.hold, TIMER_HOLD);
                }
            }
            OP_BUSY => {
                if self.waiting {
                    ctx.set_timer(self.poll, TIMER_POLL);
                }
            }
            _ => unreachable!("client got opcode {}", payload[0]),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerId) {
        match timer {
            TIMER_KICK => self.request(ctx),
            TIMER_POLL => {
                if self.waiting {
                    ctx.send(self.server, msg(OP_POLL, self.floor));
                }
            }
            TIMER_HOLD => {
                ctx.send(self.server, msg(OP_REL, self.floor));
                self.rounds_left -= 1;
                if self.rounds_left > 0 {
                    ctx.set_timer(self.think, TIMER_KICK);
                }
            }
            _ => unreachable!("unknown timer {timer:?}"),
        }
    }
}

/// Builds and runs the scale soak; see the module docs for the shape.
pub fn run_scale_soak(cfg: &ScaleConfig) -> ScaleOutcome {
    assert!(cfg.clients >= 2, "need at least two clients");
    assert!(cfg.servers >= 1, "need at least one server");
    let mut sim = Simulator::new(
        SimConfig::new(cfg.seed)
            .default_link(LinkConfig::perfect(Duration::from_micros(500)))
            .shards(cfg.shards),
    );
    for s in 0..cfg.servers {
        sim.add_process(
            PartId::new(s + 1),
            Box::new(ScaleServer {
                floors: HashMap::new(),
            }),
        )
        .expect("distinct server ids");
    }
    for i in 0..cfg.clients {
        let floor = i / GROUP;
        let server = PartId::new(1 + floor % cfg.servers);
        let flavor = if i % 2 == 0 {
            Flavor::Callback
        } else {
            Flavor::Polling
        };
        sim.add_process(
            PartId::new(cfg.servers + 1 + i),
            Box::new(ScaleClient {
                server,
                floor,
                flavor,
                rounds_left: cfg.rounds,
                waiting: false,
                // Staggered starts spread the opening burst over ~1 ms;
                // per-client poll cadences break phase locks.
                start_delay: Duration::from_micros(1 + i % 1_024),
                poll: Duration::from_micros(1_000 + (i % 16) * 50),
                hold: Duration::from_micros(200),
                think: Duration::from_micros(100),
            }),
        )
        .expect("distinct client ids");
    }

    let wall0 = WallInstant::now();
    let report = sim
        .run_to_quiescence(Duration::from_secs(600))
        .expect("scale soak runs");
    let wall_secs = wall0.elapsed().as_secs_f64();
    let events = sim.events_processed();
    let metrics = report.metrics();
    ScaleOutcome {
        clients: cfg.clients,
        servers: cfg.servers,
        rounds: cfg.rounds,
        shards: cfg.shards,
        end_us: report.end_time().as_micros(),
        quiescent: report.is_quiescent(),
        events,
        messages_sent: metrics.messages_sent(),
        messages_delivered: metrics.messages_delivered(),
        bytes_sent: metrics.bytes_sent(),
        peak_pending: sim.peak_queue_len(),
        wall_secs,
        events_per_sec: if wall_secs > 0.0 {
            events as f64 / wall_secs
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(shards: u32) -> ScaleOutcome {
        run_scale_soak(&ScaleConfig {
            clients: 200,
            servers: 3,
            rounds: 2,
            shards,
            seed: 11,
        })
    }

    #[test]
    fn scale_soak_completes_and_grants_every_round() {
        let out = small(1);
        assert!(out.quiescent, "every client must finish");
        // Each round is at least REQ/POLL + GRANT + REL.
        assert!(out.messages_delivered >= 200 * 2 * 3);
    }

    #[test]
    fn scale_soak_is_shard_invariant() {
        let single = small(1);
        for shards in [2, 4] {
            let sharded = small(shards);
            assert_eq!(
                single.to_canonical_json(),
                sharded.to_canonical_json(),
                "shards={shards} must be byte-identical"
            );
        }
    }
}
