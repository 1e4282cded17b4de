//! A panicking handler ends the run with its own panic payload, at any
//! shard count. With two or more shards the other workers must not wait
//! forever at the lock-step barrier for the worker that unwound; a 10 s
//! watchdog turns such a hang into a test failure. Whether a race hangs
//! depends on thread timing, so the four-shard case also runs many times
//! over in release builds.

use std::sync::mpsc;
use std::time::Duration as WallDuration;

use svckit_model::{Duration, PartId};
use svckit_netsim::{Context, LinkConfig, Payload, Process, SimConfig, Simulator, TimerId};

const NODES: u64 = 8;
const BOMB: u64 = 6;

/// Every millisecond sends one byte to the next node in the ring; the
/// bomb node panics on the third message it receives.
struct Ring {
    next: PartId,
    ticks: u32,
    received: u32,
    bomb: bool,
}

impl Process for Ring {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Duration::from_millis(1), TimerId(1));
    }
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: PartId, _payload: Payload) {
        self.received += 1;
        if self.bomb && self.received == 3 {
            panic!("node {} refuses message {}", ctx.id(), self.received);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerId) {
        ctx.send(self.next, vec![0u8]);
        self.ticks -= 1;
        if self.ticks > 0 {
            ctx.set_timer(Duration::from_millis(1), TimerId(1));
        }
    }
}

/// Runs the ring on `shards` shards on a separate thread and returns the
/// panic message the run ended with.
fn panic_message(shards: u32) -> String {
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let result = std::panic::catch_unwind(|| {
            let mut sim = Simulator::new(
                SimConfig::new(1)
                    .default_link(LinkConfig::perfect(Duration::from_micros(300)))
                    .shards(shards),
            );
            for id in 1..=NODES {
                sim.add_process(
                    PartId::new(id),
                    Box::new(Ring {
                        next: PartId::new(id % NODES + 1),
                        ticks: 50,
                        received: 0,
                        bomb: id == BOMB,
                    }),
                )
                .unwrap();
            }
            sim.run_to_quiescence(Duration::from_secs(1)).map(|_| ())
        });
        let message = match result {
            Ok(_) => "the run returned".to_owned(),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "a non-string panic payload".to_owned()),
        };
        let _ = done.send(message);
    });
    outcome
        .recv_timeout(WallDuration::from_secs(10))
        .unwrap_or_else(|_| panic!("shards={shards}: a handler panic hung the run"))
}

#[test]
fn a_handler_panic_surfaces_its_own_message_at_one_shard() {
    assert_eq!(
        panic_message(1),
        format!("node {} refuses message 3", PartId::new(BOMB))
    );
}

#[test]
fn a_handler_panic_surfaces_its_own_message_at_four_shards() {
    assert_eq!(
        panic_message(4),
        format!("node {} refuses message 3", PartId::new(BOMB))
    );
}

/// The four-shard case, 200 times over, one run at a time: the hang this
/// guards against needed a slow worker at one particular barrier, which a
/// single run hits only now and then. Release builds only, where the
/// workers are fast enough for the race to show (debug runs are slow and
/// would add little).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the timing race needs release-speed workers"
)]
fn four_shard_handler_panics_never_hang_under_repetition() {
    let expected = format!("node {} refuses message 3", PartId::new(BOMB));
    for run in 0..200 {
        assert_eq!(panic_message(4), expected, "run {run}");
    }
}
