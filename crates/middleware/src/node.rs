//! The middleware runtime living on each component's node.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use svckit_codec::PduRegistry;
use svckit_dfa::AdmissionGate;
use svckit_model::{PartId, Value};
use svckit_netsim::{Context, Payload, Process, TimerId};

use crate::component::{Component, MwCtx, CALL_TIMEOUT_BASE};
use crate::counters::MwCounters;
use crate::plan::DeploymentPlan;
use crate::wire;

/// One deployed component plus its slice of the middleware platform.
pub(crate) struct MwNode {
    name: String,
    component: Box<dyn Component>,
    plan: Arc<DeploymentPlan>,
    registry: Arc<PduRegistry>,
    counters: Arc<Mutex<MwCounters>>,
    admission: Option<Arc<AdmissionGate>>,
    call_seq: u64,
    pending: HashMap<u64, u64>,
}

impl MwNode {
    pub(crate) fn new(
        name: String,
        component: Box<dyn Component>,
        plan: Arc<DeploymentPlan>,
        registry: Arc<PduRegistry>,
        admission: Option<Arc<AdmissionGate>>,
    ) -> Self {
        MwNode {
            name,
            component,
            plan,
            registry,
            counters: Arc::new(Mutex::new(MwCounters::default())),
            admission,
            call_seq: 0,
            pending: HashMap::new(),
        }
    }

    pub(crate) fn counters(&self) -> Arc<Mutex<MwCounters>> {
        Arc::clone(&self.counters)
    }

    fn dispatch_operation(
        &mut self,
        net: &mut Context<'_>,
        from: PartId,
        call: Option<u64>,
        iface: String,
        op: String,
        args: Vec<Value>,
    ) {
        // Validate against our own contract: the caller-side check can be
        // bypassed by hand-crafted frames, so the skeleton re-checks. The
        // signature is borrowed through a second handle on the shared plan,
        // so the component below can still be called mutably.
        let plan = Arc::clone(&self.plan);
        let sig = plan
            .component(&self.name)
            .and_then(|e| e.find_operation(&iface, &op));
        let Some(sig) = sig else {
            self.counters.lock().unwrap().dispatch_errors += 1;
            return;
        };
        if sig.validate_args(&args).is_err() {
            self.counters.lock().unwrap().dispatch_errors += 1;
            return;
        }
        let result = {
            let mut ctx = MwCtx {
                net: &mut *net,
                name: &self.name,
                plan: &self.plan,
                registry: &self.registry,
                counters: &self.counters,
                admission: &self.admission,
                call_seq: &mut self.call_seq,
                pending: &mut self.pending,
            };
            self.component.handle_operation(&mut ctx, &iface, &op, args)
        };
        self.counters.lock().unwrap().dispatches += 1;
        svckit_obs::obs_count!("mw.dispatches");
        svckit_obs::obs_event!("mw.dispatch", "mw", net.id().raw(), net.now().as_micros());
        if let Some(call_id) = call {
            let result = if sig.validate_result(&result).is_ok() {
                result
            } else {
                self.counters.lock().unwrap().dispatch_errors += 1;
                Value::Unit
            };
            let bytes = self
                .registry
                .encode(
                    wire::PDU_REPLY,
                    &[Value::Id(call_id), wire::wrap_list(vec![result])],
                )
                .expect("wire schema is static");
            self.counters.lock().unwrap().marshalled_bytes += bytes.len() as u64;
            net.send(from, bytes);
        }
    }
}

impl Process for MwNode {
    fn on_start(&mut self, net: &mut Context<'_>) {
        let mut ctx = MwCtx {
            net,
            name: &self.name,
            plan: &self.plan,
            registry: &self.registry,
            counters: &self.counters,
            admission: &self.admission,
            call_seq: &mut self.call_seq,
            pending: &mut self.pending,
        };
        self.component.on_activate(&mut ctx);
    }

    fn on_message(&mut self, net: &mut Context<'_>, from: PartId, payload: Payload) {
        let pdu = match self.registry.decode(&payload) {
            Ok(pdu) => pdu,
            Err(_) => {
                self.counters.lock().unwrap().dispatch_errors += 1;
                return;
            }
        };
        let (name, mut args) = pdu.into_parts();
        match &*name {
            wire::PDU_REQUEST => {
                let argv = wire::unwrap_list(args.pop().expect("schema has 4 fields"));
                let op = args.pop().and_then(Value::into_text);
                let iface = args.pop().and_then(Value::into_text);
                let call = args.pop().and_then(|v| v.as_id());
                if let (Some(op), Some(iface), Some(call)) = (op, iface, call) {
                    self.dispatch_operation(net, from, Some(call), iface, op, argv);
                }
            }
            wire::PDU_ONEWAY => {
                let argv = wire::unwrap_list(args.pop().expect("schema has 3 fields"));
                let op = args.pop().and_then(Value::into_text);
                let iface = args.pop().and_then(Value::into_text);
                if let (Some(op), Some(iface)) = (op, iface) {
                    self.dispatch_operation(net, from, None, iface, op, argv);
                }
            }
            wire::PDU_REPLY => {
                let mut result = wire::unwrap_list(args.pop().expect("schema has 2 fields"));
                let call = args.pop().and_then(|v| v.as_id());
                if let Some(call) = call {
                    if let Some(token) = self.pending.remove(&call) {
                        net.cancel_timer(TimerId(CALL_TIMEOUT_BASE + call));
                        self.counters.lock().unwrap().replies += 1;
                        svckit_obs::obs_count!("mw.replies");
                        svckit_obs::obs_event!(
                            "mw.reply",
                            "mw",
                            net.id().raw(),
                            net.now().as_micros()
                        );
                        let value = result.pop().unwrap_or(Value::Unit);
                        let mut ctx = MwCtx {
                            net,
                            name: &self.name,
                            plan: &self.plan,
                            registry: &self.registry,
                            counters: &self.counters,
                            admission: &self.admission,
                            call_seq: &mut self.call_seq,
                            pending: &mut self.pending,
                        };
                        self.component.on_reply(&mut ctx, token, value);
                    }
                }
            }
            wire::PDU_DELIVER => {
                let payload = wire::unwrap_list(args.pop().expect("schema has 2 fields"));
                let source = args.pop().and_then(Value::into_text);
                if let Some(source) = source {
                    self.counters.lock().unwrap().deliveries += 1;
                    svckit_obs::obs_count!("mw.deliveries");
                    svckit_obs::obs_event!(
                        "mw.deliver",
                        "mw",
                        net.id().raw(),
                        net.now().as_micros()
                    );
                    let mut ctx = MwCtx {
                        net,
                        name: &self.name,
                        plan: &self.plan,
                        registry: &self.registry,
                        counters: &self.counters,
                        admission: &self.admission,
                        call_seq: &mut self.call_seq,
                        pending: &mut self.pending,
                    };
                    self.component.on_delivery(&mut ctx, &source, payload);
                }
            }
            _ => {
                // enqueue/publish frames belong at the broker, not here.
                self.counters.lock().unwrap().dispatch_errors += 1;
            }
        }
    }

    fn on_timer(&mut self, net: &mut Context<'_>, timer: TimerId) {
        if timer.0 >= CALL_TIMEOUT_BASE {
            let call = timer.0 - CALL_TIMEOUT_BASE;
            if let Some(token) = self.pending.remove(&call) {
                self.counters.lock().unwrap().timeouts += 1;
                let mut ctx = MwCtx {
                    net,
                    name: &self.name,
                    plan: &self.plan,
                    registry: &self.registry,
                    counters: &self.counters,
                    admission: &self.admission,
                    call_seq: &mut self.call_seq,
                    pending: &mut self.pending,
                };
                self.component.on_timeout(&mut ctx, token);
            }
            return;
        }
        let mut ctx = MwCtx {
            net,
            name: &self.name,
            plan: &self.plan,
            registry: &self.registry,
            counters: &self.counters,
            admission: &self.admission,
            call_seq: &mut self.call_seq,
            pending: &mut self.pending,
        };
        self.component.on_timer(&mut ctx, timer);
    }
}
