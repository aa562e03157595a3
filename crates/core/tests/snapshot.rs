//! Snapshot/restore round trips through the public [`Cluster`] API:
//! pausing a run at an arbitrary event boundary, serializing the full
//! dynamic state, restoring it into a freshly built cluster, and
//! checking the continued run is bit-identical to an unbroken one —
//! with and without active handlers, and under active fault injection
//! (snapshots landing between a NAK and its retransmit, and between a
//! timeout arming and firing).

use asan_core::active::ActiveSwitchConfig;
use asan_core::cluster::{Cluster, ClusterConfig, Dest, FileId, HostCtx, HostMsg, HostProgram};
use asan_core::handler::{Handler, HandlerCtx};
use asan_net::topo::{SwitchSpec, TopologyBuilder};
use asan_net::{HandlerId, LinkConfig, NodeId};
use asan_sim::faults::{FaultPlan, HandlerTrap};

fn single_switch(hosts: usize, tcas: usize) -> (TopologyBuilder, Vec<NodeId>, Vec<NodeId>, NodeId) {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch(SwitchSpec::paper());
    let hs: Vec<NodeId> = (0..hosts).map(|_| b.add_host()).collect();
    let ts: Vec<NodeId> = (0..tcas).map(|_| b.add_tca()).collect();
    for &h in &hs {
        b.connect(h, sw, LinkConfig::paper());
    }
    for &t in &ts {
        b.connect(t, sw, LinkConfig::paper());
    }
    (b, hs, ts, sw)
}

/// Issues an active read and waits for the handler's result message.
/// Stateful across hooks: `result` is declared as snapshot state.
struct ActiveCount {
    file: FileId,
    sw: NodeId,
    result: Option<u64>,
}
asan_sim::snap_fields! { ActiveCount { static file, static sw, result } }

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
}

/// Counts matching bytes in the switch; sends the count home once the
/// expected volume has streamed through. Running state (count, total)
/// crosses invocations, so the declaration lists it as snapshot state.
struct CountHandler {
    needle: u8,
    host: NodeId,
    count: u64,
    total: u64,
    expect: u64,
}
asan_sim::snap_fields! { CountHandler { static needle, static host, count, total, static expect } }

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

/// Builds the active-count cluster: one host streams `len` bytes of
/// 0x5A through a counting handler on the switch.
fn build_active(faults: Option<FaultPlan>, len: usize) -> Cluster {
    let (topo, hs, ts, sw) = single_switch(1, 1);
    let mut cfg = ClusterConfig::paper();
    cfg.faults = faults;
    let mut cl = Cluster::new(topo, cfg);
    let file = cl.add_file(ts[0], vec![0x5A; len]).unwrap();
    cl.set_program(
        hs[0],
        Box::new(ActiveCount {
            file,
            sw,
            result: None,
        }),
    )
    .unwrap();
    cl.register_handler(
        sw,
        HandlerId::new(1),
        Box::new(CountHandler {
            needle: 0x5A,
            host: hs[0],
            count: 0,
            total: 0,
            expect: len as u64,
        }),
    )
    .unwrap();
    cl
}

/// Fingerprint of a completed run: stats digest, fault digest, metrics
/// digest, and the report's scalar fields.
fn fingerprint(cl: &Cluster, report: &asan_core::cluster::RunReport) -> (u64, u64, u64, u64, u64) {
    (
        cl.stats().digest(),
        cl.fault_stats().digest(),
        cl.metrics(report).digest(),
        report.finish.as_ps(),
        report.drain.as_ps(),
    )
}

/// Runs `build()` to completion unbroken, then replays it with a
/// snapshot/restore at each of `pauses` (event counts), asserting every
/// resumed run's fingerprint matches the unbroken one.
fn assert_roundtrips(build: impl Fn() -> Cluster, pauses: &[u64]) {
    let mut golden = build();
    let report = golden.run().unwrap();
    let want = fingerprint(&golden, &report);
    let total_events = report.events;
    for &k in pauses {
        let mut a = build();
        let paused = a.run_events(k).unwrap();
        if paused.is_some() {
            assert!(k >= total_events, "run finished early at pause {k}");
            continue;
        }
        let bytes = a.snapshot();
        drop(a);
        let mut b = build();
        b.restore(&bytes).unwrap();
        let report_b = b.run().unwrap();
        let got = fingerprint(&b, &report_b);
        assert_eq!(got, want, "diverged after restore at event {k}");
        assert_eq!(report_b.events, total_events, "event count at pause {k}");
    }
}

#[test]
fn active_read_roundtrips_at_many_pause_points() {
    assert_roundtrips(|| build_active(None, 16 * 1024), &[1, 7, 25, 60, 120]);
}

#[test]
fn snapshot_is_stable_across_identical_pauses() {
    let mut a = build_active(None, 16 * 1024);
    let mut b = build_active(None, 16 * 1024);
    assert!(a.run_events(40).unwrap().is_none());
    assert!(b.run_events(40).unwrap().is_none());
    assert_eq!(
        a.snapshot(),
        b.snapshot(),
        "snapshot bytes not deterministic"
    );
}

#[test]
fn nak_window_snapshot_restores_identically() {
    // Heavy corruption/drop with NAK retransmits armed: many pause
    // points land between a NAK being scheduled and its retransmit
    // firing. Every one must restore to the unbroken run's digests.
    let plan = FaultPlan {
        seed: 11,
        packet_corrupt_prob: 0.10,
        packet_drop_prob: 0.10,
        ..FaultPlan::default()
    };
    assert_roundtrips(
        || build_active(Some(plan.clone()), 16 * 1024),
        &[10, 33, 57, 90, 150, 230],
    );
}

#[test]
fn timeout_window_snapshot_restores_identically() {
    // NAK retransmits disabled: recovery is timeout-driven, so pause
    // points land between a watchdog arming and firing (including
    // after a backoff doubling).
    let plan = FaultPlan {
        seed: 7,
        packet_drop_prob: 0.15,
        nak_retransmit: false,
        ..FaultPlan::default()
    };
    assert_roundtrips(
        || build_active(Some(plan.clone()), 8 * 1024),
        &[5, 20, 45, 80, 130, 200],
    );
}

#[test]
fn handler_trap_snapshot_restores_identically() {
    // A trap migrates the handler to the host fallback engine mid-run;
    // pauses after it must replay the migration before loading the
    // handler's state on the fallback side.
    let mut plan = FaultPlan::quiet(7);
    plan.handler_traps.push(HandlerTrap {
        node: None,
        handler: 1,
        at_invocation: 3,
    });
    let mut probe = build_active(Some(plan.clone()), 16 * 1024);
    assert!(probe.run_events(20).unwrap().is_none());
    assert_eq!(probe.fault_stats().handler_trap.degraded, 1, "trap fired");
    assert_roundtrips(
        || build_active(Some(plan.clone()), 16 * 1024),
        &[5, 20, 40, 80, 120],
    );
}

#[test]
fn restore_rejects_mismatched_shape() {
    let mut a = build_active(None, 16 * 1024);
    assert!(a.run_events(30).unwrap().is_none());
    let bytes = a.snapshot();
    // A cluster with a different handler set must refuse the snapshot.
    let (topo, hs, ts, sw) = single_switch(1, 1);
    let mut other = Cluster::new(topo, ClusterConfig::paper());
    let file = other.add_file(ts[0], vec![0x5A; 16 * 1024]).unwrap();
    other
        .set_program(
            hs[0],
            Box::new(ActiveCount {
                file,
                sw,
                result: None,
            }),
        )
        .unwrap();
    assert!(other.restore(&bytes).is_err());
}

#[test]
fn restore_rejects_truncated_bytes() {
    let mut a = build_active(None, 16 * 1024);
    assert!(a.run_events(30).unwrap().is_none());
    let bytes = a.snapshot();
    let mut b = build_active(None, 16 * 1024);
    assert!(b.restore(&bytes[..bytes.len() - 3]).is_err());
    // And trailing garbage is rejected too.
    let mut extended = bytes;
    extended.push(0xFF);
    let mut c = build_active(None, 16 * 1024);
    assert!(c.restore(&extended).is_err());
}

/// A corrupt length or count anywhere in a snapshot fails as a typed
/// error, never a panic or an allocation abort: each aligned 8-byte
/// window of a mid-run snapshot is overwritten with `u64::MAX` in turn.
#[test]
fn restore_survives_u64_max_in_every_window() {
    let mut a = build_active(None, 16 * 1024);
    assert!(a.run_events(60).unwrap().is_none());
    let mut bytes = a.snapshot();
    // A failed load leaves partial state behind, but every load
    // overwrites all of it again, so one target cluster serves.
    let mut b = build_active(None, 16 * 1024);
    for at in (0..bytes.len() - 8).step_by(8) {
        let saved: [u8; 8] = bytes[at..at + 8].try_into().unwrap();
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = b.restore(&bytes);
        }));
        assert!(
            outcome.is_ok(),
            "restore panicked with u64::MAX at byte {at}"
        );
        bytes[at..at + 8].copy_from_slice(&saved);
    }
    b.restore(&bytes).unwrap();
}

/// Forking: one warmed-up snapshot seeds several continuations; each
/// continuation is deterministic (fork twice → identical results).
#[test]
fn forked_continuations_are_deterministic() {
    let mut warm = build_active(None, 16 * 1024);
    assert!(warm.run_events(50).unwrap().is_none());
    let bytes = warm.snapshot();
    let run_fork = || {
        let mut f = build_active(None, 16 * 1024);
        f.restore(&bytes).unwrap();
        let r = f.run().unwrap();
        fingerprint(&f, &r)
    };
    assert_eq!(run_fork(), run_fork());
}

/// An active-TCA cluster (two-level active I/O) snapshots its TCA-side
/// engine too.
#[test]
fn active_tca_roundtrips() {
    let build = || {
        let (topo, hs, ts, _sw) = single_switch(1, 1);
        let mut cl = Cluster::new(topo, ClusterConfig::paper());
        let file = cl.add_file(ts[0], vec![0x5A; 8 * 1024]).unwrap();
        cl.enable_active_tca(ts[0], ActiveSwitchConfig::paper())
            .unwrap();
        cl.set_program(
            hs[0],
            Box::new(ActiveCount {
                file,
                sw: ts[0],
                result: None,
            }),
        )
        .unwrap();
        cl.register_tca_handler(
            ts[0],
            HandlerId::new(1),
            Box::new(CountHandler {
                needle: 0x5A,
                host: hs[0],
                count: 0,
                total: 0,
                expect: 8 * 1024,
            }),
        )
        .unwrap();
        cl
    };
    assert_roundtrips(build, &[3, 11, 29, 55]);
}

/// A multi-switch fabric (radix-4 fat-tree, chained per-hop credit
/// drains) must round-trip exactly like the single-switch cluster:
/// the mapped storage stream crosses two switch hops before the
/// handler runs, and every pause point must restore bit-identically.
fn build_fabric_active(len: usize) -> Cluster {
    use asan_net::TopoSpec;

    let spec = TopoSpec::fat_tree(4, 4, 1);
    let (mut cl, map) = Cluster::from_spec(&spec, ClusterConfig::paper());
    let file = cl.add_file(map.tcas[0], vec![0x5A; len]).unwrap();
    // Handler on host 0's leaf: the stream flows TCA → root → leaf.
    let ingress = map.host_leaf[0];
    cl.set_program(
        map.hosts[0],
        Box::new(ActiveCount {
            file,
            sw: ingress,
            result: None,
        }),
    )
    .unwrap();
    cl.register_handler(
        ingress,
        HandlerId::new(1),
        Box::new(CountHandler {
            needle: 0x5A,
            host: map.hosts[0],
            count: 0,
            total: 0,
            expect: len as u64,
        }),
    )
    .unwrap();
    cl
}

#[test]
fn multi_switch_fabric_roundtrips_at_many_pause_points() {
    assert_roundtrips(|| build_fabric_active(8 * 1024), &[1, 9, 33, 80, 150]);
}

#[test]
fn multi_switch_snapshot_bytes_are_deterministic() {
    let mut a = build_fabric_active(8 * 1024);
    let mut b = build_fabric_active(8 * 1024);
    assert!(a.run_events(9).unwrap().is_none());
    assert!(b.run_events(9).unwrap().is_none());
    assert_eq!(
        a.snapshot(),
        b.snapshot(),
        "multi-switch snapshot bytes not deterministic"
    );
}
