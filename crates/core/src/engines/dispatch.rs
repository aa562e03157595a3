//! The dispatch subsystem: active switches, active TCAs, and the
//! handler-trap fallback path.
//!
//! Owns every active engine in the cluster — the switch-resident ones,
//! the optional active-TCA engines ("two-level active I/O", §6), and
//! the host-side software engines that inherit handlers disabled by an
//! injected trap. Also owns the per-request reorder buffers that keep
//! mapped storage flows in sequence order under fault injection.

use std::collections::{BTreeMap, BTreeSet};

use asan_net::{HandlerId, NodeId, HEADER_BYTES};
use asan_sim::faults::{BufferSeize, FaultInjector};
use asan_sim::snap::{read, Snap, SnapError, SnapFixed, SnapReader, SnapWriter};
use asan_sim::trace::TraceCtx;
use asan_sim::SimTime;

use crate::active::{ActiveSwitch, ActiveSwitchConfig, DispatchResult};
use crate::cluster::{ClusterConfig, SwitchReport};
use crate::error::SimError;
use crate::events::{Event, EventBus, FlowState, ReqId};
use crate::handler::Handler;
use crate::stats::{snap_cpu, SwitchSnapshot};

use super::Engine;

/// The dispatch subsystem engine: every active engine plus the trap /
/// fallback machinery.
#[derive(Debug)]
pub struct DispatchEngine {
    switches: BTreeMap<NodeId, ActiveSwitch>,
    /// Optional active engines on TCA nodes: "a two-level active I/O
    /// system" (§6) — intelligent disks below the active switches.
    active_tcas: BTreeMap<NodeId, ActiveSwitch>,
    /// `(switch, handler)` pairs whose jump-table entry was disabled by
    /// a trap; their streams route to the fallback host.
    trapped: BTreeSet<(NodeId, HandlerId)>,
    /// Host-side software engines holding migrated handlers, keyed by
    /// the original switch so handler state stays per-switch.
    fallback_engines: BTreeMap<NodeId, ActiveSwitch>,
    /// The host that runs fallback engines (lowest-numbered host).
    fallback_host: Option<NodeId>,
    /// Configuration for host-side fallback engines: software
    /// demultiplexing on a host CPU — one engine, slower dispatch, same
    /// handler model. Built once so neither the event loop nor a
    /// restore reclones the cluster configuration per trap.
    fallback_cfg: ActiveSwitchConfig,
    /// Reorder buffers for mapped flows under faults.
    flows: BTreeMap<ReqId, FlowState>,
}

impl Engine for DispatchEngine {
    fn on_event(&mut self, t: SimTime, ev: Event, bus: &mut EventBus<'_>) -> Result<(), SimError> {
        match ev {
            Event::PacketToSwitch {
                sw,
                pkt,
                payload_start,
                payload_end,
                io_req,
                trace,
            } => match io_req {
                // Mapped storage data under a fault plan: release to
                // the handler strictly in sequence order.
                Some(req) => self.mapped_arrival(req, sw, pkt, t, bus, trace),
                None => self.dispatch_active(sw, &pkt, t, payload_start, payload_end, bus, trace),
            },
            Event::FallbackDispatch { sw, pkt, trace } => {
                let fb = self.fallback_host.expect("fallback host exists");
                let result = self
                    .fallback_engines
                    .get_mut(&sw)
                    .expect("fallback engine exists")
                    .dispatch(&pkt, t, t, t);
                bus.injector.as_mut().expect("armed").stats.fallback_packets += 1;
                Self::record_dispatch_spans(sw, &pkt, t, &result, bus, trace);
                self.apply_dispatch_result(sw, fb, pkt.header.seq, result, bus, trace);
            }
            other => unreachable!("not a dispatch event: {other:?}"),
        }
        Ok(())
    }
}

impl DispatchEngine {
    /// An engine with no switches yet, for a cluster configured by `cfg`.
    pub(crate) fn new(cfg: &ClusterConfig) -> Self {
        let mut fallback_cfg = cfg.active.clone();
        fallback_cfg.cpu = cfg.host_cpu.clone();
        fallback_cfg.num_cpus = 1;
        fallback_cfg.dispatch_cycles = 64;
        DispatchEngine {
            switches: BTreeMap::new(),
            active_tcas: BTreeMap::new(),
            trapped: BTreeSet::new(),
            fallback_engines: BTreeMap::new(),
            fallback_host: None,
            fallback_cfg,
            flows: BTreeMap::new(),
        }
    }

    /// Moves trapped handler `hid` from `sw`'s jump table to the
    /// host-side fallback engine kept for `sw`. Returns `false` when no
    /// such handler is installed.
    fn migrate(&mut self, sw: NodeId, hid: HandlerId) -> bool {
        let Some(handler) = self
            .switches
            .get_mut(&sw)
            .or_else(|| self.active_tcas.get_mut(&sw))
            .and_then(|e| e.take_handler(hid))
        else {
            return false;
        };
        let cfg = &self.fallback_cfg;
        self.fallback_engines
            .entry(sw)
            .or_insert_with(|| ActiveSwitch::new(sw, cfg.clone()))
            .register(hid, handler);
        self.trapped.insert((sw, hid));
        true
    }

    /// Adds the active switch engine at `id`.
    pub(crate) fn add_switch(&mut self, id: NodeId, cfg: ActiveSwitchConfig) {
        self.switches.insert(id, ActiveSwitch::new(id, cfg));
    }

    /// Registers `handler` under `id` on switch `node`.
    pub(crate) fn register(
        &mut self,
        node: NodeId,
        id: HandlerId,
        handler: Box<dyn Handler>,
    ) -> Result<(), SimError> {
        self.switches
            .get_mut(&node)
            .ok_or(SimError::NotASwitch(node))?
            .register(id, handler);
        Ok(())
    }

    /// Places one handler per switch of an aggregation tree: the
    /// placement policy decided *where* (see [`crate::placement`]),
    /// this installs the handlers there, ascending node id.
    pub(crate) fn place(
        &mut self,
        tree: &crate::placement::AggregationTree,
        id: HandlerId,
        make: &mut dyn FnMut(NodeId, &crate::placement::AggNode) -> Box<dyn Handler>,
    ) -> Result<(), SimError> {
        for (&sw, role) in &tree.nodes {
            self.register(sw, id, make(sw, role))?;
        }
        Ok(())
    }

    /// Removes a handler: the original engine first, then any host-side
    /// fallback engine a trap migrated it to.
    pub(crate) fn take_handler(&mut self, node: NodeId, id: HandlerId) -> Option<Box<dyn Handler>> {
        if let Some(h) = self
            .switches
            .get_mut(&node)
            .and_then(|s| s.take_handler(id))
        {
            return Some(h);
        }
        if let Some(h) = self
            .active_tcas
            .get_mut(&node)
            .and_then(|e| e.take_handler(id))
        {
            return Some(h);
        }
        self.fallback_engines.get_mut(&node)?.take_handler(id)
    }

    /// Installs an active engine on TCA node `node`.
    pub(crate) fn enable_active_tca(&mut self, node: NodeId, cfg: ActiveSwitchConfig) {
        self.active_tcas.insert(node, ActiveSwitch::new(node, cfg));
    }

    /// Registers `handler` on an active TCA's engine.
    pub(crate) fn register_tca_handler(
        &mut self,
        node: NodeId,
        id: HandlerId,
        handler: Box<dyn Handler>,
    ) -> Result<(), SimError> {
        self.active_tcas
            .get_mut(&node)
            .ok_or(SimError::TcaNotActive(node))?
            .register(id, handler);
        Ok(())
    }

    /// The active switch at `node`, if any.
    pub(crate) fn switch(&self, node: NodeId) -> Option<&ActiveSwitch> {
        self.switches.get(&node)
    }

    /// Sets the host that runs fallback engines under a fault plan.
    pub(crate) fn set_fallback_host(&mut self, host: Option<NodeId>) {
        self.fallback_host = host;
    }

    /// Seizes `seize.count` buffers on every active engine (switches,
    /// then active TCAs, each in ascending node order) and books the
    /// injected/degraded counts.
    pub(crate) fn arm_buffer_seize(&mut self, seize: BufferSeize, inj: &mut FaultInjector) {
        let mut seized = 0u64;
        for engine in self
            .switches
            .values_mut()
            .chain(self.active_tcas.values_mut())
        {
            seized += seize
                .count
                .min(engine.config().num_buffers.saturating_sub(1)) as u64;
            engine.seize_buffers(seize.count, seize.release_at);
        }
        let s = &mut inj.stats.buffer_seize;
        s.injected += seized;
        s.degraded += seized;
    }

    /// Per-switch reports, idle-padded to `finish`. A trapped handler's
    /// work continued on a host-side fallback engine; its counters
    /// still belong to the original switch logically.
    pub(crate) fn reports(&self, finish: SimTime) -> Vec<SwitchReport> {
        self.switches
            .iter()
            .map(|(&id, s)| {
                let fb = self.fallback_engines.get(&id);
                let mut bs = s.cpu_breakdowns();
                for b in &mut bs {
                    b.pad_idle_to(finish.since(SimTime::ZERO));
                }
                SwitchReport {
                    node: id,
                    cpu_breakdowns: bs,
                    invocations: s.stats().invocations.get()
                        + fb.map_or(0, |f| f.stats().invocations.get()),
                    bytes_in: s.stats().bytes_in.get() + fb.map_or(0, |f| f.stats().bytes_in.get()),
                    bytes_out: s.stats().bytes_out.get()
                        + fb.map_or(0, |f| f.stats().bytes_out.get()),
                }
            })
            .collect()
    }

    /// Per-switch low-level statistics snapshots (fallback counters
    /// folded into their original switch, as in [`Self::reports`]).
    pub(crate) fn snapshots(&self) -> Vec<SwitchSnapshot> {
        self.switches
            .iter()
            .map(|(&id, s)| {
                let fb = self.fallback_engines.get(&id);
                SwitchSnapshot {
                    node: id,
                    invocations: s.stats().invocations.get()
                        + fb.map_or(0, |f| f.stats().invocations.get()),
                    bytes_in: s.stats().bytes_in.get() + fb.map_or(0, |f| f.stats().bytes_in.get()),
                    bytes_out: s.stats().bytes_out.get()
                        + fb.map_or(0, |f| f.stats().bytes_out.get()),
                    buffer_allocs: s.dba().allocs(),
                    buffer_waits: s.dba().alloc_waits(),
                    buffer_peak: s.dba().occupancy().max().unwrap_or(0),
                    atb_hits: (0..s.config().num_cpus).map(|i| s.atb(i).hits()).sum(),
                    atb_misses: (0..s.config().num_cpus).map(|i| s.atb(i).misses()).sum(),
                    cpus: s.cpus().iter().map(snap_cpu).collect(),
                }
            })
            .collect()
    }

    /// One mapped storage data packet arrived at an active engine under
    /// a fault plan: dedup, recovery accounting, in-order release
    /// through the reorder buffer, and completion detection.
    fn mapped_arrival(
        &mut self,
        req: ReqId,
        sw: NodeId,
        pkt: asan_net::Packet,
        t: SimTime,
        bus: &mut EventBus<'_>,
        trace: u64,
    ) {
        let seq = pkt.header.seq as usize;
        let Some(st) = bus.reqs.get_mut(&req) else {
            return; // late duplicate after completion
        };
        if st.got[seq] {
            return; // duplicate delivery
        }
        st.got[seq] = true;
        let cat = std::mem::take(&mut st.faulted[seq]);
        let all = st.got.iter().all(|&g| g);
        let (host, tca) = (st.host, st.tca);
        bus.note_recovered(cat);
        let flow = self.flows.entry(req).or_default();
        flow.buffered.insert(pkt.header.seq, pkt);
        let mut release = Vec::new();
        while let Some(p) = flow.buffered.remove(&flow.next_seq) {
            flow.next_seq += 1;
            release.push(p);
        }
        for p in release {
            // Store-and-forward under faults: the whole payload is
            // present by the time the handler runs. Every packet of the
            // flow shares the request's trace.
            self.dispatch_active(sw, &p, t, t, t, bus, trace);
        }
        if all {
            self.flows.remove(&req);
            bus.push(t, Event::CompletionNotice { tca, host, req });
        }
    }

    /// Dispatches one active packet on the engine at `sw`, first
    /// consulting the injector's handler-trap schedule. A trapped
    /// handler is disabled in the switch's jump table and migrated —
    /// with its accumulated state — to a software engine on the
    /// fallback host; the stream's packets then cross the fabric to
    /// that host (graceful degradation: slower, still correct).
    #[allow(clippy::too_many_arguments)]
    fn dispatch_active(
        &mut self,
        sw: NodeId,
        pkt: &asan_net::Packet,
        t: SimTime,
        payload_start: SimTime,
        payload_end: SimTime,
        bus: &mut EventBus<'_>,
        trace: u64,
    ) {
        if bus.injector.is_some() {
            if let Some(hid) = pkt.header.handler {
                if self.trapped.contains(&(sw, hid)) {
                    self.forward_to_fallback(sw, pkt.clone(), t, bus, trace);
                    return;
                }
                let installed = self
                    .switches
                    .get(&sw)
                    .or_else(|| self.active_tcas.get(&sw))
                    .is_some_and(|e| e.has_handler(hid));
                if installed
                    && bus
                        .injector
                        .as_mut()
                        .expect("armed")
                        .should_trap(sw.0, hid.as_u8())
                {
                    assert!(self.migrate(sw, hid), "trapped handler installed");
                    bus.injector
                        .as_mut()
                        .expect("armed")
                        .stats
                        .handler_trap
                        .degraded += 1;
                    self.forward_to_fallback(sw, pkt.clone(), t, bus, trace);
                    return;
                }
            }
        }
        let engine = self
            .switches
            .get_mut(&sw)
            .or_else(|| self.active_tcas.get_mut(&sw))
            .expect("active engine exists");
        let result = engine.dispatch(pkt, t, payload_start, payload_end);
        Self::record_dispatch_spans(sw, pkt, t, &result, bus, trace);
        self.apply_dispatch_result(sw, sw, pkt.header.seq, result, bus, trace);
    }

    /// Reports one invocation's handler-occupancy and buffer spans to
    /// the probe, on the triggering packet's causal trace. The buffer
    /// span covers the dispatch window (grant → invocation done); a
    /// handler that keeps its input buffer holds it longer, which the
    /// occupancy gauge in the DBA tracks separately.
    fn record_dispatch_spans(
        sw: NodeId,
        pkt: &asan_net::Packet,
        header_at: SimTime,
        result: &DispatchResult,
        bus: &mut EventBus<'_>,
        trace: u64,
    ) {
        let ctx = TraceCtx { trace, parent: 0 };
        let bytes = pkt.payload.len() as u64;
        bus.probe
            .handler(sw, result.started, result.done, bytes, ctx);
        bus.probe.buffer(
            sw,
            result.granted,
            result.done,
            result.granted.saturating_since(header_at),
            bytes,
            ctx,
        );
    }

    /// Forwards a packet for a trapped handler from its switch to the
    /// fallback host over the fabric (the measurable cost of
    /// degradation): one extra wire crossing plus the OS software-demux
    /// cost of receiving a packet the switch hardware no longer handles.
    fn forward_to_fallback(
        &mut self,
        sw: NodeId,
        pkt: asan_net::Packet,
        t: SimTime,
        bus: &mut EventBus<'_>,
        trace: u64,
    ) {
        let fb = self.fallback_host.expect("fault plan requires a host");
        let ctx = TraceCtx { trace, parent: 0 };
        let d = bus.transmit(pkt.wire_bytes(), sw, fb, t, ctx);
        let demux = bus.cfg.os.per_request;
        bus.push(
            d.arrival + demux,
            Event::FallbackDispatch { sw, pkt, trace },
        );
    }

    /// Applies a dispatch result: transmits the handler's output
    /// messages and forwards its disk requests. `origin` names the
    /// logical engine in delivered messages; `from` is the node the
    /// bytes physically leave (these differ under host fallback).
    fn apply_dispatch_result(
        &mut self,
        origin: NodeId,
        from: NodeId,
        seq: u32,
        result: DispatchResult,
        bus: &mut EventBus<'_>,
        trace: u64,
    ) {
        // Everything the handler emits — output messages and posted
        // disk requests — stays on the triggering packet's trace.
        let ctx = TraceCtx { trace, parent: 0 };
        for m in result.outbox {
            let d = if m.dst == from {
                // Output for the very node the engine runs on: local.
                asan_net::Delivery {
                    header_at: m.ready,
                    payload_start: m.ready,
                    arrival: m.ready,
                    hops: 0,
                }
            } else {
                let wire = (m.data.len() + HEADER_BYTES) as u64;
                bus.transmit(wire, from, m.dst, m.ready, ctx)
            };
            bus.deliver(
                origin,
                m.dst,
                m.handler,
                m.addr,
                m.data.into(),
                seq,
                d,
                None,
                trace,
            );
        }
        for r in result.io_reqs {
            if r.tca == from {
                // An active TCA requesting its own disks: the request
                // never leaves the node.
                bus.push(r.ready, Event::SwitchIoAtTca { r, attempt: 0 });
            } else {
                let wire = (HEADER_BYTES * 2) as u64;
                let d = bus.transmit(wire, from, r.tca, r.ready, ctx);
                bus.push(d.arrival, Event::SwitchIoAtTca { r, attempt: 0 });
            }
        }
    }
}

/// Hand-written rather than declared: decoding the trapped set replays
/// each handler's migration to its fallback engine, so the engine maps
/// have the snapshot's shape before they load.
impl Snap for DispatchEngine {
    fn save(&self, w: &mut SnapWriter) {
        w.section("dispatch");
        w.opt_u64(self.fallback_host.map(|n| u64::from(n.0)));
        self.trapped.save(w);
        self.switches.save_fixed(w);
        self.active_tcas.save_fixed(w);
        self.fallback_engines.save_fixed(w);
        self.flows.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.section("dispatch")?;
        self.fallback_host = r
            .opt_u64()?
            .map(|v| u16::try_from(v).map(NodeId))
            .transpose()
            .map_err(|_| SnapError::Malformed("fallback host id"))?;
        for (sw, hid) in read::<BTreeSet<(NodeId, HandlerId)>>(r)? {
            if !self.migrate(sw, hid) {
                return Err(SnapError::Malformed("trapped handler not registered"));
            }
        }
        self.switches.load_fixed(r, "switch set mismatch")?;
        self.active_tcas.load_fixed(r, "active TCA set mismatch")?;
        self.fallback_engines
            .load_fixed(r, "fallback engine set mismatch")?;
        self.flows.load(r)
    }
}
