//! Quickstart: build a one-host cluster with an active switch, install
//! a tiny filtering handler, stream a file through it, and print the
//! paper's three metrics.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use asan_core::cluster::{Cluster, ClusterConfig, Dest, HostCtx, HostMsg, HostProgram, ReqId};
use asan_core::handler::{Handler, HandlerCtx};
use asan_net::topo::{SwitchSpec, TopologyBuilder};
use asan_net::{HandlerId, LinkConfig, NodeId};

/// A handler that forwards only bytes greater than a threshold — a
/// minimal "selection" offloaded into the network.
struct ThresholdFilter {
    threshold: u8,
    host: NodeId,
    kept: u64,
    seen: u64,
    expect: u64,
}
asan_sim::snap_fields! {
    ThresholdFilter {
        kept, seen, static threshold, static host, static expect,
    }
}

impl Handler for ThresholdFilter {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        let payload = ctx.payload();
        let survivors: Vec<u8> = payload
            .iter()
            .copied()
            .filter(|&b| b > self.threshold)
            .collect();
        ctx.charge_stream(payload.len(), 2);
        self.kept += survivors.len() as u64;
        self.seen += payload.len() as u64;
        if !survivors.is_empty() {
            ctx.send(self.host, None, 0, &survivors);
        }
        if self.seen >= self.expect {
            ctx.send(
                self.host,
                Some(HandlerId::new(60)),
                0,
                &self.kept.to_le_bytes(),
            );
        }
    }
}

/// The host side: issue the mapped read, tally what comes back.
struct Driver {
    file: asan_core::cluster::FileId,
    sw: NodeId,
    bytes_in: u64,
}
asan_sim::snap_fields! { Driver { bytes_in, static file, static sw } }

impl HostProgram for Driver {
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

    fn on_io_complete(&mut self, _ctx: &mut HostCtx<'_>, _req: ReqId) {}

    fn on_message(&mut self, ctx: &mut HostCtx<'_>, msg: &HostMsg) {
        if msg.handler == Some(HandlerId::new(60)) {
            let kept = u64::from_le_bytes(msg.data[..8].try_into().unwrap());
            println!("handler reported {kept} surviving bytes");
            ctx.finish();
        } else {
            self.bytes_in += msg.data.len() as u64;
        }
    }
}

fn main() {
    // Topology: one switch, one host, one storage TCA.
    let mut topo = TopologyBuilder::new();
    let sw = topo.add_switch(SwitchSpec::paper());
    let host = topo.add_host();
    let tca = topo.add_tca();
    topo.connect(host, sw, LinkConfig::paper());
    topo.connect(tca, sw, LinkConfig::paper());

    let mut cluster = Cluster::new(topo, ClusterConfig::paper());

    // A 1 MB file of pseudo-random bytes; ~25% exceed the threshold.
    let mut rng = asan_sim::SimRng::from_label("quickstart");
    let data: Vec<u8> = (0..1 << 20).map(|_| rng.next_u32() as u8).collect();
    let expected: u64 = data.iter().filter(|&&b| b > 191).count() as u64;
    let file = cluster.add_file(tca, data).expect("cluster setup");

    cluster
        .register_handler(
            sw,
            HandlerId::new(1),
            Box::new(ThresholdFilter {
                threshold: 191,
                host,
                kept: 0,
                seen: 0,
                expect: 1 << 20,
            }),
        )
        .expect("cluster setup");
    cluster
        .set_program(
            host,
            Box::new(Driver {
                file,
                sw,
                bytes_in: 0,
            }),
        )
        .expect("cluster setup");

    let report = cluster.run().expect("simulation completes");
    let stats = cluster.stats();
    let h = report.host(host).expect("node report");
    println!("expected survivors   : {expected}");
    println!("execution time       : {}", report.finish);
    println!(
        "host utilization     : {:.1}%",
        h.breakdown.utilization() * 100.0
    );
    println!(
        "host I/O traffic     : {} B in (of 1 MiB read from disk)",
        h.payload.bytes_in
    );
    println!(
        "switch handler ran   : {} invocations",
        report.switch(sw).expect("node report").invocations
    );
    println!("\ncomponent counters:\n{stats}");
}
