//! End-to-end tests of the assembled [`Cluster`], exercising the whole
//! engine composition through the public API: normal reads, active
//! reads, host messaging, prefetch overlap, active TCAs, background
//! jobs, statistics, and switch-initiated reads.

use asan_core::active::ActiveSwitchConfig;
use asan_core::cluster::{
    Cluster, ClusterConfig, Dest, FileId, HostCtx, HostMsg, HostProgram, ReqId,
};
use asan_core::handler::{Handler, HandlerCtx};
use asan_net::topo::{SwitchSpec, TopologyBuilder};
use asan_net::{HandlerId, LinkConfig, NodeId};
use asan_sim::SimDuration;

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

/// Reads one block and finishes.
struct OneRead {
    file: FileId,
    bytes_seen: u64,
}
asan_sim::snap_fields! { OneRead { static file, bytes_seen } }

impl HostProgram for OneRead {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.read_file(self.file, 0, 64 * 1024, Dest::HostBuf { addr: 0x1000_0000 });
    }
    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, _req: ReqId) {
        // Scan the freshly DMA'd block: 64 KB of cold lines.
        ctx.cpu().touch_lines(0x1000_0000, 64 * 1024, 2, false);
        self.bytes_seen += 64 * 1024;
        ctx.finish();
    }
}

#[test]
fn normal_read_flows_end_to_end() {
    let (topo, hs, ts, _) = single_switch(1, 1);
    let mut cl = Cluster::new(topo, ClusterConfig::paper());
    let data = vec![0x5A; 64 * 1024];
    let file = cl.add_file(ts[0], data).unwrap();
    cl.set_program(
        hs[0],
        Box::new(OneRead {
            file,
            bytes_seen: 0,
        }),
    )
    .unwrap();
    let r = cl.run().unwrap();
    // Sequential read from parked heads: ~0.66 ms transfer plus
    // request/OS/network overheads.
    let ms = r.finish.as_secs_f64() * 1e3;
    assert!((0.6..2.5).contains(&ms), "finish = {ms} ms");
    // All 64 KB arrived at the host.
    assert_eq!(r.host(hs[0]).unwrap().payload.bytes_in, 64 * 1024);
    // Host was mostly idle (I/O wait dominates).
    assert!(r.host(hs[0]).unwrap().breakdown.utilization() < 0.2);
}

/// Counts matching bytes in the switch, sends only the count home.
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

/// Issues an active read and waits for the handler's result message.
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

#[test]
fn active_read_invokes_handler_and_filters_traffic() {
    let (topo, hs, ts, sw) = single_switch(1, 1);
    let mut cl = Cluster::new(topo, ClusterConfig::paper());
    // 64 KB where every 64th byte is 0x7F.
    let data: Vec<u8> = (0..64 * 1024u32)
        .map(|i| if i % 64 == 0 { 0x7F } else { 0 })
        .collect();
    let _expect_matches = (64 * 1024 / 64) as u64;
    let file = cl.add_file(ts[0], data).unwrap();
    cl.register_handler(
        sw,
        HandlerId::new(1),
        Box::new(CountHandler {
            needle: 0x7F,
            host: hs[0],
            count: 0,
            total: 0,
            expect: 64 * 1024,
        }),
    )
    .unwrap();
    cl.set_program(
        hs[0],
        Box::new(ActiveCount {
            file,
            sw,
            result: None,
        }),
    )
    .unwrap();
    let r = cl.run().unwrap();
    // The handler computed the real answer.
    // (Retrieve via the switch stats and the program's own state is
    // gone; check through traffic instead.)
    assert_eq!(r.switch(sw).unwrap().bytes_in, 64 * 1024);
    // Only the 8-byte count (plus the completion header) reached the
    // host: traffic reduced by ~8000x.
    assert!(r.host(hs[0]).unwrap().payload.bytes_in <= 16);
    // The switch CPU did the work.
    assert_eq!(r.switch(sw).unwrap().invocations, 128);
}

/// Two hosts exchange a message.
struct Pinger {
    peer: NodeId,
}
asan_sim::snap_fields! { Pinger { static peer } }
impl HostProgram for Pinger {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.send(self.peer, None, 0, vec![1u8; 100]);
        ctx.finish();
    }
}
struct Ponger {
    got: usize,
}
asan_sim::snap_fields! { Ponger { got } }
impl HostProgram for Ponger {
    fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}
    fn on_message(&mut self, ctx: &mut HostCtx<'_>, msg: &HostMsg) {
        self.got += msg.data.len();
        ctx.finish();
    }
}

#[test]
fn host_to_host_messaging() {
    let (topo, hs, _, _) = single_switch(2, 1);
    let mut cl = Cluster::new(topo, ClusterConfig::paper());
    cl.set_program(hs[0], Box::new(Pinger { peer: hs[1] }))
        .unwrap();
    cl.set_program(hs[1], Box::new(Ponger { got: 0 })).unwrap();
    let r = cl.run().unwrap();
    assert_eq!(r.host(hs[0]).unwrap().payload.bytes_out, 100);
    assert_eq!(r.host(hs[1]).unwrap().payload.bytes_in, 100);
    // Message latency: HCA software + adapter latency both ways +
    // 2 hops + routing ≈ under ten microseconds.
    assert!(r.finish.as_ns() < 15_000, "finish = {}", r.finish);
}

#[test]
fn non_active_traffic_unaffected_by_busy_switch_cpu() {
    // Ping-pong latency with and without a storming active flow from
    // another host must be identical up to link contention on
    // disjoint ports — the active hardware is off the datapath.
    let (topo, hs, _, _sw) = single_switch(3, 1);
    let mut cl = Cluster::new(topo, ClusterConfig::paper());
    cl.set_program(hs[0], Box::new(Pinger { peer: hs[1] }))
        .unwrap();
    cl.set_program(hs[1], Box::new(Ponger { got: 0 })).unwrap();
    let r = cl.run().unwrap();
    let t_quiet = r.host(hs[1]).unwrap().finished_at;

    // Same again, but host 2 hammers the switch CPU with actives.
    struct Storm {
        sw: NodeId,
    }
    asan_sim::snap_fields! { Storm { static sw } }
    impl HostProgram for Storm {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            for i in 0..20u32 {
                ctx.send(self.sw, Some(HandlerId::new(9)), i * 512, vec![0; 512]);
            }
            ctx.finish();
        }
    }
    struct Burn;
    asan_sim::snap_fields! { Burn {} }
    impl Handler for Burn {
        fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
            ctx.compute(100_000);
        }
    }
    let (topo2, hs2, _, sw2) = single_switch(3, 1);
    let mut cl2 = Cluster::new(topo2, ClusterConfig::paper());
    cl2.register_handler(sw2, HandlerId::new(9), Box::new(Burn))
        .unwrap();
    cl2.set_program(hs2[0], Box::new(Pinger { peer: hs2[1] }))
        .unwrap();
    cl2.set_program(hs2[1], Box::new(Ponger { got: 0 }))
        .unwrap();
    cl2.set_program(hs2[2], Box::new(Storm { sw: sw2 }))
        .unwrap();
    let r2 = cl2.run().unwrap();
    let t_stormy = r2.host(hs2[1]).unwrap().finished_at;
    assert_eq!(t_quiet, t_stormy, "active load perturbed non-active path");
}

#[test]
fn prefetch_two_outstanding_overlaps_io() {
    // Reading 8 blocks serially vs with 2 outstanding requests: the
    // prefetched run must be faster.
    struct Serial {
        file: FileId,
        next: u64,
        blocks: u64,
    }
    asan_sim::snap_fields! { Serial { static file, next, static blocks } }
    impl HostProgram for Serial {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            ctx.read_file(self.file, 0, 65536, Dest::HostBuf { addr: 0x1000_0000 });
            self.next = 1;
        }
        fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, _req: ReqId) {
            ctx.cpu().touch_lines(0x1000_0000, 65536, 4, false);
            if self.next < self.blocks {
                ctx.read_file(
                    self.file,
                    self.next * 65536,
                    65536,
                    Dest::HostBuf { addr: 0x1000_0000 },
                );
                self.next += 1;
            } else {
                ctx.finish();
            }
        }
    }
    struct Pref {
        file: FileId,
        issued: u64,
        done: u64,
        blocks: u64,
    }
    asan_sim::snap_fields! { Pref { static file, issued, done, static blocks } }
    impl HostProgram for Pref {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            for i in 0..2.min(self.blocks) {
                ctx.read_file(
                    self.file,
                    i * 65536,
                    65536,
                    Dest::HostBuf { addr: 0x1000_0000 },
                );
                self.issued += 1;
            }
        }
        fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, _req: ReqId) {
            ctx.cpu().touch_lines(0x1000_0000, 65536, 4, false);
            self.done += 1;
            if self.issued < self.blocks {
                ctx.read_file(
                    self.file,
                    self.issued * 65536,
                    65536,
                    Dest::HostBuf { addr: 0x1000_0000 },
                );
                self.issued += 1;
            } else if self.done == self.blocks {
                ctx.finish();
            }
        }
    }
    let mk = |prog: bool| {
        let (topo, hs, ts, _) = single_switch(1, 1);
        let mut cl = Cluster::new(topo, ClusterConfig::paper());
        let file = cl.add_file(ts[0], vec![7; 8 * 65536]).unwrap();
        if prog {
            cl.set_program(
                hs[0],
                Box::new(Pref {
                    file,
                    issued: 0,
                    done: 0,
                    blocks: 8,
                }),
            )
            .unwrap();
        } else {
            cl.set_program(
                hs[0],
                Box::new(Serial {
                    file,
                    next: 0,
                    blocks: 8,
                }),
            )
            .unwrap();
        }
        cl.run().unwrap().finish
    };
    let serial = mk(false);
    let pref = mk(true);
    assert!(
        pref < serial,
        "prefetch ({pref}) should beat serial ({serial})"
    );
}

#[test]
fn active_tca_filters_before_the_network() {
    // The same counting handler, but installed on the TCA: the SAN
    // only ever carries the handler's output.
    let (topo, hs, ts, _sw) = single_switch(1, 1);
    let mut cl = Cluster::new(topo, ClusterConfig::paper());
    let data: Vec<u8> = (0..32 * 1024u32)
        .map(|i| if i % 64 == 0 { 0x7F } else { 0 })
        .collect();
    let file = cl.add_file(ts[0], data).unwrap();
    cl.enable_active_tca(ts[0], ActiveSwitchConfig::paper())
        .unwrap();
    cl.register_tca_handler(
        ts[0],
        HandlerId::new(1),
        Box::new(CountHandler {
            needle: 0x7F,
            host: hs[0],
            count: 0,
            total: 0,
            expect: 32 * 1024,
        }),
    )
    .unwrap();
    cl.set_program(
        hs[0],
        Box::new(ActiveCount {
            file,
            sw: ts[0], // mapped straight to the TCA's own engine
            result: None,
        }),
    )
    .unwrap();
    let r = cl.run().unwrap();
    // Only the 8-byte count crossed the fabric toward the host.
    assert!(r.host(hs[0]).unwrap().payload.bytes_in <= 16);
    // The raw 32 KB never entered the SAN: link bytes are tiny.
    assert!(
        r.link_bytes < 4096,
        "SAN carried {} B despite disk-side filtering",
        r.link_bytes
    );
}

#[test]
fn background_job_consumes_idle_time() {
    let (topo, hs, ts, _) = single_switch(1, 1);
    let mut cl = Cluster::new(topo, ClusterConfig::paper());
    let file = cl.add_file(ts[0], vec![0x5A; 64 * 1024]).unwrap();
    cl.set_program(
        hs[0],
        Box::new(OneRead {
            file,
            bytes_seen: 0,
        }),
    )
    .unwrap();
    // A 100 us job fits easily inside the ~700 us of I/O wait.
    cl.set_background_job(hs[0], SimDuration::from_us(100))
        .unwrap();
    let r = cl.run().unwrap();
    let h = r.host(hs[0]).unwrap();
    assert!(h.background_done.is_some(), "job did not finish");
    assert!(h.background_done.unwrap() <= h.finished_at);
    assert_eq!(h.background_left, SimDuration::ZERO);
    // The job's time shows up as busy, not idle.
    assert!(h.breakdown.busy >= SimDuration::from_us(100));
}

#[test]
fn stats_snapshot_counts_real_work() {
    let (topo, hs, ts, sw) = single_switch(1, 1);
    let mut cl = Cluster::new(topo, ClusterConfig::paper());
    let file = cl.add_file(ts[0], vec![0x11; 64 * 1024]).unwrap();
    cl.register_handler(
        sw,
        HandlerId::new(1),
        Box::new(CountHandler {
            needle: 0x11,
            host: hs[0],
            count: 0,
            total: 0,
            expect: 64 * 1024,
        }),
    )
    .unwrap();
    cl.set_program(
        hs[0],
        Box::new(ActiveCount {
            file,
            sw,
            result: None,
        }),
    )
    .unwrap();
    cl.run().unwrap();
    let st = cl.stats();
    assert_eq!(st.switches.len(), 1);
    assert_eq!(st.switches[0].invocations, 128);
    assert_eq!(st.switches[0].bytes_in, 64 * 1024);
    assert!(st.switches[0].atb_hits > 0);
    assert_eq!(st.storage.len(), 1);
    assert_eq!(
        st.storage[0].disk_bytes.iter().sum::<u64>(),
        64 * 1024,
        "disks served the whole file"
    );
    assert!(st.fabric.link_bytes > 64 * 1024);
    assert!(st.events > 0);
    // Display renders without panicking and mentions the switch.
    assert!(st.to_string().contains("invocations"));
}

#[test]
fn tar_style_switch_initiated_read_bypasses_host() {
    // A handler that, on a trigger message, pulls a file from the
    // TCA straight to an archive TCA.
    struct TarHandler {
        tca: NodeId,
        archive: NodeId,
        file: usize,
        len: u64,
    }
    asan_sim::snap_fields! { TarHandler { static tca, static archive, static file, static len } }
    impl Handler for TarHandler {
        fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
            let _ = ctx.payload();
            ctx.request_disk_read(self.tca, self.file, 0, self.len, self.archive, None, 0);
        }
    }
    struct Trigger {
        sw: NodeId,
    }
    asan_sim::snap_fields! { Trigger { static sw } }
    impl HostProgram for Trigger {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            ctx.send(self.sw, Some(HandlerId::new(2)), 0, vec![0u8; 64]);
            ctx.finish();
        }
    }
    let (topo, hs, ts, sw) = single_switch(1, 2);
    let mut cl = Cluster::new(topo, ClusterConfig::paper());
    let file = cl.add_file(ts[0], vec![9u8; 256 * 1024]).unwrap();
    cl.register_handler(
        sw,
        HandlerId::new(2),
        Box::new(TarHandler {
            tca: ts[0],
            archive: ts[1],
            file: file.0,
            len: 256 * 1024,
        }),
    )
    .unwrap();
    cl.set_program(hs[0], Box::new(Trigger { sw })).unwrap();
    let r = cl.run().unwrap();
    // Host saw only its trigger message out; the 256 KB went
    // disk → switch-request → disk → archive without touching it.
    assert_eq!(r.host(hs[0]).unwrap().payload.bytes_in, 0);
    assert_eq!(r.host(hs[0]).unwrap().payload.bytes_out, 64);
    // The drain time includes the archive write completing.
    assert!(r.drain > r.finish);
}

/// One level of an in-network sum placed by an [`AggregationTree`]:
/// combine `expect` contributions, then forward the partial to the
/// parent switch (or deliver to the collector host at the tree root).
struct SumStage {
    expect: usize,
    parent: Option<NodeId>,
    collector: NodeId,
    got: usize,
    sum: u64,
}
asan_sim::snap_fields! { SumStage { static expect, static parent, static collector, got, sum } }

impl Handler for SumStage {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        let data = ctx.payload();
        ctx.charge_stream(data.len(), 2);
        self.sum += u64::from_le_bytes(data[..8].try_into().unwrap());
        self.got += 1;
        if self.got == self.expect {
            match self.parent {
                Some(up) => ctx.send(up, Some(HandlerId::new(7)), 0, &self.sum.to_le_bytes()),
                None => ctx.send(self.collector, None, 0, &self.sum.to_le_bytes()),
            }
        }
    }
}

/// Fires one value into the placed tree; the collector waits for the
/// combined result.
struct Contributor {
    value: u64,
    ingress: NodeId,
    wait: bool,
    result: Option<u64>,
}
asan_sim::snap_fields! { Contributor { static value, static ingress, wait, result } }

impl HostProgram for Contributor {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.send(
            self.ingress,
            Some(HandlerId::new(7)),
            0,
            self.value.to_le_bytes().to_vec(),
        );
        if !self.wait {
            ctx.finish();
        }
    }
    fn on_message(&mut self, ctx: &mut HostCtx<'_>, msg: &HostMsg) {
        self.result = Some(u64::from_le_bytes(msg.data[..8].try_into().unwrap()));
        ctx.finish();
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[test]
fn spec_fabric_aggregates_through_placed_handlers() {
    use asan_core::{aggregation_tree, HandlerPlacement};
    use asan_net::TopoSpec;

    // 8 hosts on a radix-4 fat-tree (4 leaves, 2 mids, 1 root); every
    // placement must deliver the same in-network sum to host 0 over
    // deterministic multi-hop routes.
    for placement in HandlerPlacement::ALL {
        let spec = TopoSpec::fat_tree(4, 8, 0);
        let (mut cl, map) = Cluster::from_spec(&spec, ClusterConfig::paper());
        let tree = aggregation_tree(&map, &map.hosts, placement);
        let collector = map.hosts[0];
        cl.place_handlers(&tree, HandlerId::new(7), |_, n| {
            Box::new(SumStage {
                expect: n.expect,
                parent: n.parent,
                collector,
                got: 0,
                sum: 0,
            })
        })
        .unwrap();
        for (i, &h) in map.hosts.iter().enumerate() {
            cl.set_program(
                h,
                Box::new(Contributor {
                    value: (i + 1) as u64,
                    ingress: tree.ingress[&h],
                    wait: h == collector,
                    result: None,
                }),
            )
            .unwrap();
        }
        let report = cl.run().unwrap();
        let program = cl.take_program(collector).unwrap();
        let c = program
            .as_any()
            .and_then(|a| a.downcast_ref::<Contributor>())
            .expect("contributor");
        assert_eq!(c.result, Some(36), "{}: 1+2+…+8", placement.label());
        assert!(report.finish.as_ps() > 0);
    }
}

#[test]
fn place_handlers_rejects_non_switch_nodes() {
    use asan_core::placement::{AggNode, AggregationTree};
    use asan_net::TopoSpec;

    let spec = TopoSpec::fat_tree(4, 4, 0);
    let (mut cl, map) = Cluster::from_spec(&spec, ClusterConfig::paper());
    // A hand-forged tree whose "switch" is actually a host.
    let bogus = AggregationTree {
        nodes: [(
            map.hosts[0],
            AggNode {
                expect: 1,
                parent: None,
                host_children: vec![map.hosts[0]],
                switch_children: vec![],
            },
        )]
        .into_iter()
        .collect(),
        ingress: [(map.hosts[0], map.hosts[0])].into_iter().collect(),
        root: map.hosts[0],
    };
    let err = cl.place_handlers(&bogus, HandlerId::new(7), |_, n| {
        Box::new(SumStage {
            expect: n.expect,
            parent: n.parent,
            collector: map.hosts[0],
            got: 0,
            sum: 0,
        })
    });
    assert!(err.is_err(), "placing on a host must fail");
}
