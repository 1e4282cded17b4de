//! The message broker node for queue and topic routing.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use svckit_codec::PduRegistry;
use svckit_model::{PartId, Value};
use svckit_netsim::{Context, Payload, Process};

use crate::counters::MwCounters;
use crate::plan::DeploymentPlan;
use crate::wire;

/// Routes `mw_enqueue` to one consumer (round-robin) and `mw_publish` to
/// every subscriber, as `mw_deliver` frames.
pub(crate) struct Broker {
    plan: Arc<DeploymentPlan>,
    registry: Arc<PduRegistry>,
    counters: Arc<Mutex<MwCounters>>,
    round_robin: HashMap<String, usize>,
}

impl Broker {
    pub(crate) fn new(plan: Arc<DeploymentPlan>, registry: Arc<PduRegistry>) -> Self {
        Broker {
            plan,
            registry,
            counters: Arc::new(Mutex::new(MwCounters::default())),
            round_robin: HashMap::new(),
        }
    }

    pub(crate) fn counters(&self) -> Arc<Mutex<MwCounters>> {
        Arc::clone(&self.counters)
    }

    /// Sends one `mw_deliver` frame — `[source, payload list]` — to
    /// `component`.
    fn deliver(&self, net: &mut Context<'_>, component: &str, frame: &[Value]) {
        let Some(entry) = self.plan.component(component) else {
            self.counters.lock().unwrap().dispatch_errors += 1;
            return;
        };
        let bytes = self
            .registry
            .encode(wire::PDU_DELIVER, frame)
            .expect("wire schema is static");
        let mut c = self.counters.lock().unwrap();
        c.deliveries += 1;
        c.marshalled_bytes += bytes.len() as u64;
        drop(c);
        svckit_obs::obs_count!("mw.broker_deliveries");
        match net.trace_ctx() {
            Some(t) => svckit_obs::obs_event!(
                "mw.broker_deliver",
                "mw",
                entry.part().raw(),
                net.now().as_micros(),
                t.trace_id,
                0u64,
                t.span_id
            ),
            None => svckit_obs::obs_event!(
                "mw.broker_deliver",
                "mw",
                entry.part().raw(),
                net.now().as_micros()
            ),
        }
        net.send(entry.part(), bytes);
    }
}

impl Process for Broker {
    fn on_message(&mut self, net: &mut Context<'_>, _from: PartId, payload: Payload) {
        let pdu = match self.registry.decode(&payload) {
            Ok(pdu) => pdu,
            Err(_) => {
                self.counters.lock().unwrap().dispatch_errors += 1;
                return;
            }
        };
        let (name, mut args) = pdu.into_parts();
        match &*name {
            wire::PDU_ENQUEUE => {
                let body = wire::unwrap_list(args.pop().expect("schema has 2 fields"));
                let Some(queue) = args.pop().and_then(Value::into_text) else {
                    return;
                };
                let Some(consumers) = self.plan.queue_consumers(&queue) else {
                    self.counters.lock().unwrap().dispatch_errors += 1;
                    return;
                };
                if consumers.is_empty() {
                    return;
                }
                // Only a queue's first message pays for its counter key.
                let turn = match self.round_robin.get_mut(queue.as_str()) {
                    Some(next) => {
                        *next += 1;
                        *next - 1
                    }
                    None => {
                        self.round_robin.insert(queue.clone(), 1);
                        0
                    }
                };
                let target = &consumers[turn % consumers.len()];
                self.deliver(net, target, &[Value::Text(queue), wire::wrap_list(body)]);
            }
            wire::PDU_PUBLISH => {
                let body = wire::unwrap_list(args.pop().expect("schema has 2 fields"));
                let Some(topic) = args.pop().and_then(Value::into_text) else {
                    return;
                };
                let Some(subscribers) = self.plan.topic_subscribers(&topic) else {
                    self.counters.lock().unwrap().dispatch_errors += 1;
                    return;
                };
                let frame = [Value::Text(topic), wire::wrap_list(body)];
                for subscriber in subscribers {
                    self.deliver(net, subscriber, &frame);
                }
            }
            _ => {
                self.counters.lock().unwrap().dispatch_errors += 1;
            }
        }
    }
}
