//! Failure-injection and back-pressure tests: the system must degrade
//! gracefully (or fail loudly and precisely) when pushed past its
//! resource limits, and recover transparently from injected transport
//! and storage faults.

use asan_core::active::{ActiveSwitch, ActiveSwitchConfig};
use asan_core::cluster::{
    Cluster, ClusterConfig, Dest, FileId, HostCtx, HostMsg, HostProgram, ReqId,
};
use asan_core::handler::{Handler, HandlerCtx};
use asan_core::SimError;
use asan_net::topo::{SwitchSpec, TopologyBuilder};
use asan_net::{HandlerId, Header, LinkConfig, NodeId, Packet};
use asan_sim::faults::{FaultPlan, HandlerTrap};
use asan_sim::{SimDuration, SimTime};

fn single_switch(hosts: usize) -> (TopologyBuilder, Vec<NodeId>, NodeId) {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch(SwitchSpec::paper());
    let hs: Vec<NodeId> = (0..hosts).map(|_| b.add_host()).collect();
    for &h in &hs {
        b.connect(h, sw, LinkConfig::paper());
    }
    (b, hs, sw)
}

/// One switch, one host, one TCA — the standard storage topology.
fn storage_cluster() -> (TopologyBuilder, NodeId, NodeId, NodeId) {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch(SwitchSpec::paper());
    let h = b.add_host();
    let t = b.add_tca();
    b.connect(h, sw, LinkConfig::paper());
    b.connect(t, sw, LinkConfig::paper());
    (b, h, t, sw)
}

/// Reads one region into host memory and finishes.
struct OneRead {
    file: FileId,
    len: u64,
}
asan_sim::snap_fields! { OneRead { static file, static len } }
impl HostProgram for OneRead {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.read_file(self.file, 0, self.len, Dest::HostBuf { addr: 0x1000_0000 });
    }
    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, _req: ReqId) {
        ctx.finish();
    }
}

/// Counts matching bytes on the switch, sends only the count home.
struct CountHandler {
    needle: u8,
    host: NodeId,
    count: u64,
    total: u64,
    expect: u64,
}
asan_sim::snap_fields! { CountHandler { count, total, static needle, static host, static expect } }
impl Handler for CountHandler {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        let data = ctx.payload();
        ctx.charge_stream(data.len(), 2);
        self.count += data.iter().filter(|&&b| b == self.needle).count() as u64;
        self.total += data.len() as u64;
        if self.total >= self.expect {
            ctx.send(self.host, None, 0, &self.count.to_le_bytes());
        }
    }
}

/// Issues an active (mapped) read and records the handler's answer.
struct ActiveCount {
    file: FileId,
    sw: NodeId,
    result: Option<u64>,
}
asan_sim::snap_fields! { ActiveCount { result, static file, static sw } }
impl HostProgram for ActiveCount {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        let len = ctx.file_len(self.file);
        ctx.read_file(
            self.file,
            0,
            len,
            Dest::Mapped {
                node: self.sw,
                handler: HandlerId::new(1),
                base_addr: 0,
            },
        );
    }
    fn on_message(&mut self, ctx: &mut HostCtx<'_>, msg: &HostMsg) {
        self.result = Some(u64::from_le_bytes(msg.data[..8].try_into().unwrap()));
        ctx.finish();
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// A handler that hoards buffers: the DBA must stall its allocations
/// rather than hand out overlapping buffers, and the pipeline must
/// still make forward progress.
#[test]
fn buffer_hoarding_backpressures_but_progresses() {
    struct Hoarder {
        held: Vec<asan_core::BufId>,
        invocations: u32,
    }
    asan_sim::snap_fields! { Hoarder { held, invocations } }
    impl Handler for Hoarder {
        fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
            let _ = ctx.payload();
            // Hold up to 12 of the 16 buffers indefinitely.
            if self.held.len() < 12 {
                self.held.push(ctx.alloc_buffer());
            }
            self.invocations += 1;
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    let mut sw = ActiveSwitch::new(NodeId(0), ActiveSwitchConfig::paper());
    sw.register(
        HandlerId::new(1),
        Box::new(Hoarder {
            held: Vec::new(),
            invocations: 0,
        }),
    );
    let mut last_done = SimTime::ZERO;
    for i in 0..40u32 {
        let pkt = Packet::new(
            Header {
                src: NodeId(1),
                dst: NodeId(0),
                len: 512,
                handler: Some(HandlerId::new(1)),
                addr: (i % 16) * 512,
                seq: i,
            },
            vec![0; 512],
        );
        let t = SimTime::from_us(i as u64 * 2);
        let r = sw.dispatch(&pkt, t, t, t + SimDuration::from_ns(512));
        assert!(r.done >= last_done, "time went backwards");
        last_done = r.done;
    }
    // 12 hoarded + in-flight inputs stayed within the file; the
    // remaining invocations still completed.
    assert!(sw.dba().alloc_waits() == 0 || sw.dba().occupancy().max().unwrap() <= 16);
    let h = sw.take_handler(HandlerId::new(1)).unwrap();
    let hoarder = h
        .as_any()
        .and_then(|a| a.downcast_ref::<Hoarder>())
        .unwrap();
    assert_eq!(hoarder.invocations, 40, "pipeline stalled permanently");
}

/// Dispatching a message whose handler was never registered is a
/// protocol violation and must fail loudly, not drop silently.
#[test]
#[should_panic(expected = "no handler registered")]
fn unregistered_handler_fails_loudly() {
    let mut sw = ActiveSwitch::new(NodeId(0), ActiveSwitchConfig::paper());
    let pkt = Packet::new(
        Header {
            src: NodeId(1),
            dst: NodeId(0),
            len: 0,
            handler: Some(HandlerId::new(9)),
            addr: 0,
            seq: 0,
        },
        Vec::new(),
    );
    sw.dispatch(&pkt, SimTime::ZERO, SimTime::ZERO, SimTime::ZERO);
}

/// The event-count guard converts a runaway message loop into a
/// structured, matchable error instead of an endless simulation.
#[test]
fn livelock_guard_trips() {
    struct PingPong {
        peer: NodeId,
    }
    asan_sim::snap_fields! { PingPong { static peer } }
    impl HostProgram for PingPong {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            ctx.send(self.peer, None, 0, vec![1]);
        }
        fn on_message(&mut self, ctx: &mut HostCtx<'_>, _msg: &HostMsg) {
            // Reply forever: a protocol bug.
            ctx.send(self.peer, None, 0, vec![1]);
        }
    }
    let (topo, hs, _) = single_switch(2);
    let mut cfg = ClusterConfig::paper();
    cfg.max_events = 10_000;
    let mut cl = Cluster::new(topo, cfg);
    cl.set_program(hs[0], Box::new(PingPong { peer: hs[1] }))
        .unwrap();
    cl.set_program(hs[1], Box::new(PingPong { peer: hs[0] }))
        .unwrap();
    let err = cl.run().unwrap_err();
    assert!(
        matches!(err, SimError::EventLimitExceeded { limit: 10_000, .. }),
        "wrong error: {err}"
    );
    assert!(err.to_string().contains("livelock"));
}

/// Misusing the topology — installing a program on a non-host node —
/// is reported as a structured error, not a panic.
#[test]
fn wrong_node_kind_is_a_structured_error() {
    let (topo, _hs, sw) = single_switch(1);
    let mut cl = Cluster::new(topo, ClusterConfig::paper());
    let err = cl.add_file(sw, vec![0u8; 64]).unwrap_err();
    assert_eq!(err, SimError::NotATca(sw));
    let err = cl
        .set_program(
            sw,
            Box::new(OneRead {
                file: FileId(0),
                len: 1,
            }),
        )
        .unwrap_err();
    assert_eq!(err, SimError::NotAHost(sw));
}

/// Reading past a file's end is caught at issue time.
#[test]
#[should_panic(expected = "read beyond file end")]
fn read_past_eof_rejected() {
    struct BadReader {
        file: FileId,
    }
    asan_sim::snap_fields! { BadReader { static file } }
    impl HostProgram for BadReader {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            let len = ctx.file_len(self.file);
            ctx.read_file(self.file, len, 1, Dest::HostBuf { addr: 0 });
        }
    }
    let (topo, h, t, _sw) = storage_cluster();
    let mut cl = Cluster::new(topo, ClusterConfig::paper());
    let file = cl.add_file(t, vec![0u8; 100]).unwrap();
    cl.set_program(h, Box::new(BadReader { file })).unwrap();
    let _ = cl.run();
}

/// A slow receiver exhausts link credits; the sender stalls but the
/// fabric stays consistent and every byte is eventually carried.
#[test]
fn credit_exhaustion_is_transient() {
    use asan_net::link::{Link, LinkConfig};
    let cfg = LinkConfig {
        credits: 2,
        ..LinkConfig::paper()
    };
    let mut l = Link::new(cfg);
    // Receiver drains each packet 10 µs after it arrives.
    let mut drains: Vec<SimTime> = Vec::new();
    let mut total = 0u64;
    for i in 0..50u64 {
        let t = l.send(528, SimTime::from_ns(i * 100));
        drains.push(t.done + SimDuration::from_us(10));
        l.note_drain(*drains.last().unwrap());
        total += 528;
    }
    assert_eq!(l.bytes_carried(), total);
    assert!(l.credit_stalls() > 0, "expected credit pressure");
    // Throughput degraded to the receiver's drain rate, not to zero.
    let span = drains.last().unwrap().since(SimTime::ZERO);
    assert!(span.as_us() >= 10 * 48 / 2, "span = {span}");
}

/// Zero-length reads are rejected before they corrupt schedules.
#[test]
#[should_panic(expected = "zero-length read")]
fn zero_length_read_rejected() {
    use asan_io::storage::{Storage, StorageConfig};
    let mut s = Storage::new(StorageConfig::paper());
    s.read_stream(0, 0, SimTime::ZERO);
}

// ---------------------------------------------------------------------
// Fault injection and recovery
// ---------------------------------------------------------------------

const FILE_BYTES: u64 = 256 * 1024;

fn faulted_read_run(plan: FaultPlan) -> (Cluster, SimTime) {
    let (topo, h, t, _sw) = storage_cluster();
    let mut cfg = ClusterConfig::paper();
    cfg.faults = Some(plan);
    let mut cl = Cluster::new(topo, cfg);
    let file = cl.add_file(t, vec![0x5A; FILE_BYTES as usize]).unwrap();
    cl.set_program(
        h,
        Box::new(OneRead {
            file,
            len: FILE_BYTES,
        }),
    )
    .unwrap();
    let r = cl.run().expect("run must recover from injected faults");
    let finish = r.finish;
    let bytes_in = r.host(h).unwrap().payload.bytes_in;
    assert_eq!(
        bytes_in, FILE_BYTES,
        "host must receive every byte exactly once"
    );
    (cl, finish)
}

/// Bit-corrupted packets are caught by the ICRC check, NAKed, and
/// retransmitted from the TCA's buffer cache until the full read lands.
#[test]
fn corruption_detected_and_recovered_via_nak() {
    let mut plan = FaultPlan::quiet(11);
    plan.packet_corrupt_prob = 0.2;
    let (cl, _) = faulted_read_run(plan);
    let fs = cl.fault_stats();
    assert!(
        fs.packet_corrupt.injected > 0,
        "plan injected nothing: {fs}"
    );
    assert_eq!(
        fs.packet_corrupt.detected, fs.packet_corrupt.injected,
        "every corruption must be ICRC-detected"
    );
    assert!(
        fs.packet_corrupt.recovered > 0,
        "no recovery recorded: {fs}"
    );
    assert!(fs.retransmits >= fs.packet_corrupt.detected);
    assert_eq!(fs.timeouts, 0, "NAK path should beat the request timeout");
}

/// With NAK retransmission disabled, dropped packets are recovered by
/// the end-to-end request timeout with exponential backoff.
#[test]
fn drops_recovered_by_timeout_and_backoff() {
    let clean = {
        let (cl, finish) = faulted_read_run(FaultPlan::quiet(5));
        assert_eq!(cl.fault_stats().retransmits, 0);
        finish
    };
    let mut plan = FaultPlan::quiet(5);
    plan.packet_drop_prob = 0.2;
    plan.nak_retransmit = false;
    plan.request_timeout = SimDuration::from_ms(2);
    let (cl, finish) = faulted_read_run(plan);
    let fs = cl.fault_stats();
    assert!(fs.packet_drop.injected > 0, "plan injected nothing: {fs}");
    assert!(
        fs.timeouts > 0,
        "recovery must have come from timeouts: {fs}"
    );
    assert!(fs.retransmits > 0);
    assert!(fs.packet_drop.recovered > 0);
    assert!(
        finish > clean,
        "timeout recovery must cost time ({finish} vs clean {clean})"
    );
}

/// Disk soft errors are detected by the controller and retried after
/// the plan's retry delay; the read still completes.
#[test]
fn disk_soft_errors_are_retried() {
    let mut plan = FaultPlan::quiet(3);
    plan.disk_error_prob = 0.6;
    plan.disk_retry_delay = SimDuration::from_ms(1);
    let (cl, _) = faulted_read_run(plan);
    let fs = cl.fault_stats();
    assert!(fs.disk_error.injected > 0, "plan injected nothing: {fs}");
    assert_eq!(fs.disk_error.detected, fs.disk_error.injected);
    assert!(
        fs.disk_error.recovered > 0,
        "retry must have succeeded: {fs}"
    );
}

/// A handler trap mid-stream disables the switch's jump-table entry and
/// migrates the handler — with its accumulated state — to a host-side
/// fallback engine. The benchmark still completes, with the right
/// answer, measurably slower.
#[test]
fn handler_trap_degrades_to_host_fallback() {
    let run = |plan: Option<FaultPlan>| {
        let (topo, h, t, sw) = storage_cluster();
        let mut cfg = ClusterConfig::paper();
        cfg.faults = plan;
        let mut cl = Cluster::new(topo, cfg);
        let data: Vec<u8> = (0..FILE_BYTES as u32)
            .map(|i| if i % 64 == 0 { 0x7F } else { 0 })
            .collect();
        let file = cl.add_file(t, data).unwrap();
        cl.register_handler(
            sw,
            HandlerId::new(1),
            Box::new(CountHandler {
                needle: 0x7F,
                host: h,
                count: 0,
                total: 0,
                expect: FILE_BYTES,
            }),
        )
        .unwrap();
        cl.set_program(
            h,
            Box::new(ActiveCount {
                file,
                sw,
                result: None,
            }),
        )
        .unwrap();
        let r = cl.run().expect("degraded run still completes");
        let finish = r.finish;
        let got = cl
            .take_program(h)
            .expect("program")
            .as_any()
            .and_then(|a| a.downcast_ref::<ActiveCount>())
            .and_then(|p| p.result)
            .expect("handler result arrived");
        (cl, finish, got)
    };

    let (_, clean_finish, clean_count) = run(None);
    assert_eq!(clean_count, FILE_BYTES / 64);

    let mut plan = FaultPlan::quiet(7);
    plan.handler_traps.push(HandlerTrap {
        node: None,
        handler: 1,
        at_invocation: 3,
    });
    let (cl, finish, count) = run(Some(plan));
    assert_eq!(count, clean_count, "fallback must preserve handler state");
    let fs = cl.fault_stats();
    assert_eq!(fs.handler_trap.injected, 1);
    assert_eq!(fs.handler_trap.degraded, 1, "trap must migrate the handler");
    assert!(fs.fallback_packets > 0, "stream must continue on the host");
    assert!(
        finish > clean_finish,
        "degradation must cost time ({finish} vs clean {clean_finish})"
    );
}

/// Permanent faults exhaust the retry budget and surface as a
/// structured error rather than hanging or panicking.
#[test]
fn exhausted_retries_fail_loudly() {
    let (topo, h, t, _sw) = storage_cluster();
    let mut plan = FaultPlan::quiet(1);
    plan.disk_error_prob = 1.0; // the disk never recovers
    plan.disk_retry_delay = SimDuration::from_us(100);
    plan.max_retries = 2;
    let mut cfg = ClusterConfig::paper();
    cfg.faults = Some(plan);
    let mut cl = Cluster::new(topo, cfg);
    let file = cl.add_file(t, vec![0u8; 4096]).unwrap();
    cl.set_program(h, Box::new(OneRead { file, len: 4096 }))
        .unwrap();
    let err = cl.run().unwrap_err();
    assert!(
        matches!(err, SimError::RetriesExhausted { attempts: 3, .. }),
        "wrong error: {err}"
    );
}

/// Same seed, same plan → bit-identical stats digests, even under
/// heavy chaos. This is the exact check the CI determinism job runs.
#[test]
fn same_seed_same_fault_plan_same_digest() {
    let digest = |seed| {
        let mut plan = FaultPlan::chaos(seed);
        plan.packet_corrupt_prob = 0.1; // make sure faults actually fire
        let (cl, _) = faulted_read_run(plan);
        (cl.stats().digest(), cl.fault_stats())
    };
    let (d1, f1) = digest(42);
    let (d2, f2) = digest(42);
    assert_eq!(d1, d2, "same seed diverged: {f1} vs {f2}");
    assert_eq!(f1, f2);
    let (d3, _) = digest(43);
    assert_ne!(d1, d3, "different seeds should perturb the run");
}
