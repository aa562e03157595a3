//! Reduce under chaos: deterministic fault injection across the active
//! SAN stack, and the graceful-degradation machinery that keeps every
//! run completing — correctly — anyway.
//!
//! Two experiments:
//!
//! 1. **Handler trap.** The collective-reduction combine handler traps
//!    mid-stream on every switch (a handler bug caught by the dispatch
//!    watchdog). Each switch disables the jump-table entry and migrates
//!    the handler — with its accumulated partial sums — to a host-side
//!    fallback engine. The reduction still completes and still
//!    validates lane-by-lane against the scalar reference; the printed
//!    overhead is the price of degradation.
//!
//! 2. **Packet corruption.** An active storage read runs under 1%
//!    packet bit-corruption. Every corrupted packet is caught by the
//!    receiver's ICRC check, NAKed, and retransmitted from the TCA's
//!    buffer cache; the stream handler sees an intact, in-order flow.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example chaos_reduce
//! ```

use asan_apps::reduce::{run_with_config, Mode, REDUCE_HANDLER};
use asan_core::cluster::{Cluster, ClusterConfig, Dest, FileId, HostCtx, HostMsg, HostProgram};
use asan_core::handler::{Handler, HandlerCtx};
use asan_net::topo::{SwitchSpec, TopologyBuilder};
use asan_net::{HandlerId, LinkConfig, NodeId};
use asan_sim::faults::{FaultPlan, HandlerTrap};
use asan_sim::SimTime;

fn main() {
    handler_trap_experiment();
    corruption_experiment();
}

fn handler_trap_experiment() {
    println!("1. Handler trap → host fallback (Reduce-to-one, 8 nodes)\n");

    let p = 8;
    let clean = run_with_config(Mode::ReduceToOne, true, p, ClusterConfig::paper());

    let mut cfg = ClusterConfig::paper();
    let mut plan = FaultPlan::quiet(0xC4A05);
    plan.handler_traps.push(HandlerTrap {
        node: None, // any switch: every combine engine eventually traps
        handler: REDUCE_HANDLER.as_u8(),
        at_invocation: 2,
    });
    cfg.faults = Some(plan);
    // run_with_config validates every delivered lane against the scalar
    // reference, so completing at all proves the fallback preserved the
    // handlers' partial sums.
    let chaos = run_with_config(Mode::ReduceToOne, true, p, cfg);

    let clean_us = clean.latency.as_ns() as f64 / 1000.0;
    let chaos_us = chaos.latency.as_ns() as f64 / 1000.0;
    println!("   clean active reduce:    {clean_us:>9.2} us");
    println!("   with handler traps:     {chaos_us:>9.2} us");
    println!(
        "   degradation overhead:   {:>8.1}%  (result still bit-exact)",
        (chaos_us / clean_us - 1.0) * 100.0
    );
    println!(
        "   traps fired: {} | packets processed on host fallback: {}\n",
        chaos.faults.handler_trap.degraded, chaos.faults.fallback_packets
    );
}

/// Counts matching bytes in the switch, sends only the count home.
struct CountHandler {
    host: NodeId,
    count: u64,
    total: u64,
    expect: u64,
}
asan_sim::snap_fields! { CountHandler { count, total, static host, static expect } }
impl Handler for CountHandler {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        let data = ctx.payload();
        ctx.charge_stream(data.len(), 2);
        self.count += data.iter().filter(|&&b| b == 0x7F).count() as u64;
        self.total += data.len() as u64;
        if self.total >= self.expect {
            ctx.send(self.host, None, 0, &self.count.to_le_bytes());
        }
    }
}

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

fn corruption_experiment() {
    println!("2. 1% packet corruption on an active 1 MB storage read\n");

    const FILE_BYTES: u64 = 1024 * 1024;
    type ChaosRun = (
        SimTime,
        u64,
        asan_sim::faults::FaultStats,
        asan_core::metrics::MetricsReport,
    );
    let run = |faults: Option<FaultPlan>| -> ChaosRun {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch(SwitchSpec::paper());
        let host = b.add_host();
        let tca = b.add_tca();
        b.connect(host, sw, LinkConfig::paper());
        b.connect(tca, sw, LinkConfig::paper());
        let mut cfg = ClusterConfig::paper();
        cfg.faults = faults;
        let mut cl = Cluster::new(b, cfg);
        let data: Vec<u8> = (0..FILE_BYTES as u32)
            .map(|i| if i % 64 == 0 { 0x7F } else { 0 })
            .collect();
        let file = cl.add_file(tca, data).expect("add file");
        cl.register_handler(
            sw,
            HandlerId::new(1),
            Box::new(CountHandler {
                host,
                count: 0,
                total: 0,
                expect: FILE_BYTES,
            }),
        )
        .expect("register");
        cl.set_program(
            host,
            Box::new(ActiveCount {
                file,
                sw,
                result: None,
            }),
        )
        .expect("program");
        let report = cl.run().expect("run recovers from injected faults");
        let got = cl
            .take_program(host)
            .and_then(|p| {
                p.as_any()
                    .and_then(|a| a.downcast_ref::<ActiveCount>())
                    .and_then(|p| p.result)
            })
            .expect("count arrived");
        let metrics = cl.metrics(&report);
        (report.finish, got, cl.fault_stats(), metrics)
    };

    let (clean_finish, clean_count, _, clean_m) = run(None);
    let mut plan = FaultPlan::quiet(0xBADF00D);
    plan.packet_corrupt_prob = 0.01;
    let (finish, count, fs, chaos_m) = run(Some(plan));

    assert_eq!(count, clean_count, "corruption leaked into the result");
    let clean_us = clean_finish.as_ns() as f64 / 1000.0;
    let chaos_us = finish.as_ns() as f64 / 1000.0;
    println!("   clean read+count:       {clean_us:>9.2} us");
    println!("   under 1% corruption:    {chaos_us:>9.2} us");
    println!(
        "   recovery overhead:      {:>8.1}%  (count identical: {count})",
        (chaos_us / clean_us - 1.0) * 100.0
    );
    println!(
        "   corrupt injected/detected/recovered: {}/{}/{} | retransmits: {}",
        fs.packet_corrupt.injected,
        fs.packet_corrupt.detected,
        fs.packet_corrupt.recovered,
        fs.retransmits
    );

    // Retransmission shows up as a latency *tail*, not a shifted
    // median: compare the percentile tables span by span.
    println!("\n   latency percentiles, clean vs corrupted:");
    println!(
        "   {:<14} {:>12} {:>12}   {:>12} {:>12}",
        "span", "clean p50", "clean p99", "chaos p50", "chaos p99"
    );
    for ((name, clean_h), (_, chaos_h)) in
        clean_m.latencies().iter().zip(chaos_m.latencies().iter())
    {
        if clean_h.count() == 0 && chaos_h.count() == 0 {
            continue;
        }
        let ps = |v: u64| format!("{}", asan_sim::SimDuration::from_ps(v));
        println!(
            "   {name:<14} {:>12} {:>12}   {:>12} {:>12}",
            ps(clean_h.percentile(50)),
            ps(clean_h.percentile(99)),
            ps(chaos_h.percentile(50)),
            ps(chaos_h.percentile(99)),
        );
    }
}
