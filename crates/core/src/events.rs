//! The typed event vocabulary and the shared bus the subsystem engines
//! communicate through.
//!
//! Every state change in the cluster simulation is an [`Event`] popped
//! from the scheduler and routed to exactly one engine
//! (see [`crate::engines`]). Engines never call each other: anything
//! that crosses a subsystem boundary goes back through the
//! [`EventBus`] as a freshly scheduled event, which keeps the causal
//! order explicit and the simulation deterministic (ties in time break
//! by push order).
//!
//! The bus itself is a per-event bundle of the *shared* services —
//! scheduler, fabric, fault injector, in-flight request table, file
//! store, configuration — while each engine owns its subsystem-private
//! state (host CPUs, switch engines, disk arrays, …).

use std::collections::{BTreeMap, BTreeSet};

use asan_net::topo::NodeKind;
use asan_net::{Bytes, Fabric, HandlerId, NodeId};
use asan_sim::faults::FaultInjector;
use asan_sim::sched::{Scheduler, Traceable};
use asan_sim::trace::TraceCtx;
use asan_sim::{SimDuration, SimTime};

use asan_sim::snap::SnapOpt;
use asan_sim::{snap_enum, snap_fields};

use crate::cluster::ClusterConfig;
use crate::handler::SwitchIoReq;
use crate::metrics::Probe;

/// Identifies an I/O request issued by a host program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

snap_fields!(ReqId(id));

/// Written like an optional `u64`: presence byte plus a value slot.
impl SnapOpt for ReqId {
    const DENSE: bool = true;
    fn blank() -> Option<Self> {
        Some(ReqId(0))
    }
}

/// Identifies a stored file (placed on one TCA's disk array).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub usize);

snap_fields!(FileId(index));

/// Where a read's data should be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// DMA into the issuing host's memory at `addr` (the normal path).
    HostBuf {
        /// Physical base address of the host buffer.
        addr: u64,
    },
    /// Stream to `node` as active messages mapped at `base_addr`,
    /// invoking `handler` per packet (the active path: the host "maps
    /// the file into memory" on the switch, §2.2).
    Mapped {
        /// Destination node (an active switch, usually).
        node: NodeId,
        /// Handler invoked per arriving packet.
        handler: HandlerId,
        /// Base of the mapped address window.
        base_addr: u32,
    },
}

/// A placeholder for snapshot decoding to overwrite.
impl Default for Dest {
    fn default() -> Self {
        Dest::HostBuf { addr: 0 }
    }
}

snap_enum!(Dest, "dest tag" {
    0 => HostBuf { addr },
    1 => Mapped { node, handler, base_addr },
});

/// A message as seen by a host program.
#[derive(Debug, Clone, Default)]
pub struct HostMsg {
    /// Sending node.
    pub src: NodeId,
    /// Active-handler field, if the sender set one (lets programs
    /// demultiplex flows).
    pub handler: Option<HandlerId>,
    /// Address field of the header.
    pub addr: u32,
    /// Real payload bytes (a cheap shared view — call
    /// [`asan_net::Bytes::to_vec`] for an owned copy).
    pub data: Bytes,
    /// Flow sequence number.
    pub seq: u32,
}

snap_fields! { HostMsg { src, handler, addr, data, seq } }

/// Metadata of a stored file.
#[derive(Debug, Clone, Copy)]
pub struct FileMeta {
    /// The TCA whose disks hold the file.
    pub tca: NodeId,
    /// File length in bytes.
    pub len: u64,
    /// Byte offset of the file on the array.
    pub disk_offset: u64,
}

/// The cluster's stored files: metadata plus the real bytes.
#[derive(Debug, Default)]
pub struct FileStore {
    pub(crate) meta: Vec<FileMeta>,
    /// Interned file contents: per-packet payloads are O(1) views.
    pub(crate) data: Vec<Bytes>,
}

impl FileStore {
    /// File metadata, indexed by [`FileId`].
    pub fn meta(&self) -> &[FileMeta] {
        &self.meta
    }

    /// The stored bytes of `file`.
    pub fn data(&self, file: FileId) -> &[u8] {
        &self.data[file.0]
    }

    /// Appends a file, returning its ID.
    pub(crate) fn push(&mut self, meta: FileMeta, data: Vec<u8>) -> FileId {
        let id = FileId(self.meta.len());
        self.meta.push(meta);
        self.data.push(Bytes::from(data));
        id
    }
}

/// Shared in-flight state of one host-issued I/O request.
#[derive(Debug, Default)]
pub(crate) struct IoState {
    pub(crate) host: NodeId,
    pub(crate) dest: Dest,
    pub(crate) remaining: usize,
    pub(crate) bytes: u64,
    /// The TCA serving this request.
    pub(crate) tca: NodeId,
    /// The file being read.
    pub(crate) file: FileId,
    /// File-relative byte offset of the read.
    pub(crate) offset: u64,
    /// Per-sequence-number delivery flags (populated when the storage
    /// read schedule is known; only under an armed fault plan).
    pub(crate) got: Vec<bool>,
    /// Per-sequence-number payload lengths, for buffer-cache re-reads
    /// on retransmission.
    pub(crate) lens: Vec<u32>,
    /// First fault category seen per sequence number (0 = none,
    /// 1 = corrupt, 2 = drop) — attributes eventual recovery.
    pub(crate) faulted: Vec<u8>,
    /// End-to-end timeout attempts so far.
    pub(crate) attempt: u32,
    /// Current (exponentially backed-off) timeout.
    pub(crate) timeout: SimDuration,
}

snap_fields! {
    IoState {
        host, dest, remaining, bytes, tca, file, offset, got, lens, faulted, attempt, timeout,
    }
}

/// Per-request reorder buffer for mapped flows under fault injection:
/// a stream handler must see its packets in sequence order, so late
/// retransmits park arrivals here until the gap fills.
#[derive(Debug, Default)]
pub(crate) struct FlowState {
    pub(crate) next_seq: u32,
    pub(crate) buffered: BTreeMap<u32, asan_net::Packet>,
}

snap_fields! { FlowState { next_seq, buffered } }

/// One scheduled occurrence in the cluster simulation.
///
/// Each variant is owned by exactly one subsystem engine — see
/// [`crate::engines::route`] for the mapping.
#[derive(Debug)]
pub enum Event {
    /// A host program's `on_start` hook fires.
    Start(NodeId),
    /// A whole packet finished arriving at a host.
    PacketToHost {
        /// Receiving host.
        host: NodeId,
        /// The arrived message.
        msg: HostMsg,
        /// The I/O request this packet belongs to, if it is request
        /// data (DMA'd without a per-packet CPU cost).
        io_req: Option<ReqId>,
    },
    /// An active packet's header reached a switch (payload window given).
    /// `io_req` is set for mapped storage data under a fault plan, which
    /// is tracked per sequence number and delivered in order.
    PacketToSwitch {
        /// The switch (or active TCA) engine dispatching the packet.
        sw: NodeId,
        /// The packet itself.
        pkt: asan_net::Packet,
        /// When the payload starts streaming into the data buffer.
        payload_start: SimTime,
        /// When the payload has fully arrived.
        payload_end: SimTime,
        /// Set for per-sequence tracked storage data under faults.
        io_req: Option<ReqId>,
        /// Causal trace id of the packet's lifecycle (0 = untraced);
        /// the dispatch spans it triggers inherit it.
        trace: u64,
    },
    /// A packet for a trapped handler reached the fallback host and is
    /// dispatched on its software engine.
    FallbackDispatch {
        /// The switch the handler originally lived on.
        sw: NodeId,
        /// The forwarded packet.
        pkt: asan_net::Packet,
        /// Causal trace id carried over from the original packet.
        trace: u64,
    },
    /// Raw data arrived at a TCA (archive-write stream).
    PacketToTca {
        /// The receiving TCA.
        tca: NodeId,
        /// Payload bytes arrived.
        bytes: u64,
    },
    /// A host-issued I/O request's control packet reached its TCA (or a
    /// soft-errored disk attempt is being retried).
    IoRequestAtTca {
        /// The serving TCA.
        tca: NodeId,
        /// The request.
        req: ReqId,
        /// File to read.
        file: FileId,
        /// File-relative offset.
        offset: u64,
        /// Bytes to read.
        len: u64,
        /// Delivery destination.
        dest: Dest,
        /// Disk retry attempt (0 = first try).
        attempt: u32,
    },
    /// A switch-initiated I/O request reached its TCA.
    SwitchIoAtTca {
        /// The request a handler posted.
        r: SwitchIoReq,
        /// Disk retry attempt (0 = first try).
        attempt: u32,
    },
    /// All data of `req` delivered; notify the issuing host.
    IoComplete {
        /// The issuing host.
        host: NodeId,
        /// The completed request.
        req: ReqId,
    },
    /// The TCA finished injecting a mapped read's data: send the small
    /// completion notification to the issuing host *now* (deferred so
    /// the fabric only ever sees causally-ordered sends per link).
    CompletionNotice {
        /// The serving TCA.
        tca: NodeId,
        /// The issuing host.
        host: NodeId,
        /// The completed request.
        req: ReqId,
    },
    /// One MTU packet of a storage read becomes ready at its TCA: inject
    /// it into the fabric *now*. Deferring each injection to its ready
    /// time keeps every link's sends causally ordered, so small control
    /// messages interleave with bulk data instead of queueing behind
    /// pre-booked future transfers.
    InjectIoPacket {
        /// Injecting node (the TCA).
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Active handler to invoke, if any.
        handler: Option<HandlerId>,
        /// Address field of the header.
        addr: u32,
        /// Payload bytes (shared view into the file store).
        payload: Bytes,
        /// Flow sequence number.
        seq: u32,
        /// The request this packet belongs to, when tracked.
        io_req: Option<ReqId>,
        /// Causal trace id of the owning request's lifecycle (set even
        /// when `io_req` is not tracked; 0 = untraced).
        trace: u64,
    },
    /// Retransmit packet `seq` of `req` from the TCA's buffer cache
    /// (NAK- or timeout-driven).
    Retransmit {
        /// The request.
        req: ReqId,
        /// The missing sequence number.
        seq: u32,
    },
    /// End-to-end watchdog for `req`; stale timers carry an old
    /// `attempt` and are ignored.
    RequestTimeout {
        /// The guarded request.
        req: ReqId,
        /// The attempt this timer was armed for.
        attempt: u32,
    },
}

/// A placeholder for snapshot decoding to overwrite.
impl Default for Event {
    fn default() -> Self {
        Event::Start(NodeId(0))
    }
}

snap_enum!(Event, "event tag" {
    0 => Start(node),
    1 => PacketToHost { host, msg, io_req },
    2 => PacketToSwitch { sw, pkt, payload_start, payload_end, io_req, trace },
    3 => FallbackDispatch { sw, pkt, trace },
    4 => PacketToTca { tca, bytes },
    5 => IoRequestAtTca { tca, req, file, offset, len, dest, attempt },
    6 => SwitchIoAtTca { r, attempt },
    7 => IoComplete { host, req },
    8 => CompletionNotice { tca, host, req },
    9 => InjectIoPacket { src, dst, handler, addr, payload, seq, io_req, trace },
    10 => Retransmit { req, seq },
    11 => RequestTimeout { req, attempt },
});

impl Traceable for Event {
    fn trace_label(&self) -> &'static str {
        match self {
            Event::Start(_) => "Start",
            Event::PacketToHost { .. } => "PacketToHost",
            Event::PacketToSwitch { .. } => "PacketToSwitch",
            Event::FallbackDispatch { .. } => "FallbackDispatch",
            Event::PacketToTca { .. } => "PacketToTca",
            Event::IoRequestAtTca { .. } => "IoRequestAtTca",
            Event::SwitchIoAtTca { .. } => "SwitchIoAtTca",
            Event::IoComplete { .. } => "IoComplete",
            Event::CompletionNotice { .. } => "CompletionNotice",
            Event::InjectIoPacket { .. } => "InjectIoPacket",
            Event::Retransmit { .. } => "Retransmit",
            Event::RequestTimeout { .. } => "RequestTimeout",
        }
    }
}

/// The services shared by every engine, lent out for the duration of
/// one event.
///
/// [`crate::cluster::Cluster`] assembles a fresh bus from its own
/// fields for each popped event and hands it to the owning engine's
/// [`crate::engines::Engine::on_event`]. Engines mutate shared state
/// through the bus and schedule follow-up events with [`EventBus::push`];
/// subsystem-private state stays inside the engines themselves.
#[derive(Debug)]
pub struct EventBus<'a> {
    /// The scheduler (push side of the event loop).
    pub sched: &'a mut Scheduler<Event>,
    /// The switching fabric (wire timing, link accounting, routing).
    pub fabric: &'a mut Fabric,
    /// The armed fault injector, if the run has a fault plan.
    pub injector: &'a mut Option<FaultInjector>,
    /// In-flight host-issued I/O requests, shared across engines
    /// (ordered so any future iteration is deterministic).
    pub(crate) reqs: &'a mut BTreeMap<ReqId, IoState>,
    /// The stored files (metadata + bytes).
    pub files: &'a mut FileStore,
    /// The cluster configuration.
    pub cfg: &'a ClusterConfig,
    /// Nodes whose TCA has an active engine: handler-addressed packets
    /// for these nodes route to the dispatch subsystem instead of the
    /// raw archive-write path.
    pub active_tca_nodes: &'a BTreeSet<NodeId>,
    /// The observability probe: engines report timed spans (packet,
    /// handler, disk, buffer) here.
    pub probe: &'a mut Probe,
}

impl EventBus<'_> {
    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: Event) {
        self.sched.push(time, event);
    }

    /// Injects `wire_bytes` into the fabric from `src` toward `dst` and
    /// records the packet's end-to-end span (injection → last byte at
    /// the destination) with the probe, tagged with `ctx`'s causal
    /// trace, plus one per-hop link span (and stall span when the hop
    /// waited). Engines use this for every *delivered* packet; sends
    /// that a fault swallows (drops, corrupt payloads discarded by
    /// ICRC) call [`Fabric::transmit`] directly so the latency
    /// distribution — and the timeline — only contain real deliveries.
    pub(crate) fn transmit(
        &mut self,
        wire_bytes: u64,
        src: NodeId,
        dst: NodeId,
        ready: SimTime,
        ctx: TraceCtx,
    ) -> asan_net::Delivery {
        let mut hops = self.probe.take_hop_buf();
        let d = self
            .fabric
            .transmit_recorded(wire_bytes, src, dst, ready, Some(&mut hops));
        self.probe
            .packet(dst, ready, d.arrival, wire_bytes, &hops, ctx);
        self.probe.put_hop_buf(hops);
        d
    }

    /// Notes a transparently recovered fault of category `cat`
    /// (1 = corrupt, 2 = drop): the faulted packet's data has now
    /// arrived via retransmission.
    pub(crate) fn note_recovered(&mut self, cat: u8) {
        if let Some(inj) = self.injector.as_mut() {
            match cat {
                1 => inj.stats.packet_corrupt.recovered += 1,
                2 => inj.stats.packet_drop.recovered += 1,
                _ => {}
            }
        }
    }

    /// Records the first fault category seen for `seq` of `req`, for
    /// recovery attribution.
    pub(crate) fn mark_faulted(&mut self, req: ReqId, seq: u32, cat: u8) {
        if let Some(st) = self.reqs.get_mut(&req) {
            if let Some(f) = st.faulted.get_mut(seq as usize) {
                if *f == 0 {
                    *f = cat;
                }
            }
        }
    }

    /// Schedules the delivery events for one packet already injected
    /// into the fabric: the receiving node's kind decides which
    /// subsystem sees it next. `trace` is the causal trace id stamped
    /// on switch-bound follow-up events (0 = untraced).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn deliver(
        &mut self,
        src: NodeId,
        dst: NodeId,
        handler: Option<HandlerId>,
        addr: u32,
        data: Bytes,
        seq: u32,
        d: asan_net::Delivery,
        io_req: Option<ReqId>,
        trace: u64,
    ) {
        match self.fabric.kind(dst) {
            NodeKind::Host => {
                self.push(
                    d.arrival,
                    Event::PacketToHost {
                        host: dst,
                        msg: HostMsg {
                            src,
                            handler,
                            addr,
                            data,
                            seq,
                        },
                        io_req,
                    },
                );
            }
            NodeKind::Switch => {
                let h = handler.expect("messages to a switch must be active");
                self.push_switch_packet(src, dst, h, addr, data, seq, d, io_req, trace);
            }
            NodeKind::Tca => {
                if let Some(h) = handler.filter(|_| self.active_tca_nodes.contains(&dst)) {
                    self.push_switch_packet(src, dst, h, addr, data, seq, d, io_req, trace);
                } else {
                    self.push(
                        d.arrival,
                        Event::PacketToTca {
                            tca: dst,
                            bytes: data.len() as u64,
                        },
                    );
                }
            }
        }
    }

    /// Schedules the [`Event::PacketToSwitch`] for one active packet.
    #[allow(clippy::too_many_arguments)]
    fn push_switch_packet(
        &mut self,
        src: NodeId,
        dst: NodeId,
        h: HandlerId,
        addr: u32,
        data: Bytes,
        seq: u32,
        d: asan_net::Delivery,
        io_req: Option<ReqId>,
        trace: u64,
    ) {
        let len = data.len();
        let pkt = asan_net::Packet::new(
            asan_net::Header {
                src,
                dst,
                len: u16::try_from(len).expect("payload bounded by MTU"),
                handler: Some(h),
                addr,
                seq,
            },
            data,
        );
        if io_req.is_some() {
            // Faultable storage data: the engine store-and-forwards
            // (full payload verified by ICRC before dispatch), so
            // everything happens at arrival.
            self.push(
                d.arrival,
                Event::PacketToSwitch {
                    sw: dst,
                    pkt,
                    payload_start: d.arrival,
                    payload_end: d.arrival,
                    io_req,
                    trace,
                },
            );
        } else {
            self.push(
                d.header_at,
                Event::PacketToSwitch {
                    sw: dst,
                    pkt,
                    payload_start: d.payload_start,
                    payload_end: d.arrival,
                    io_req: None,
                    trace,
                },
            );
        }
    }
}
