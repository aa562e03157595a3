//! Layer probes: host time per operation of one simulator crate's
//! public API, timed in isolation.
//!
//! Each probe builds its state and inputs outside the timed region,
//! runs one untimed warm-up batch, then times [`BATCHES`] batches and
//! reports the median batch as time per operation.

use std::hint::black_box;

use asan_cpu::{Cpu, CpuConfig};
use asan_io::{Disk, DiskConfig};
use asan_mem::{AccessKind, Cache, CacheConfig, HierarchyConfig, MemoryHierarchy};
use asan_net::{crc32, packetize, HandlerId, Link, LinkConfig, NodeId, HEADER_BYTES, MTU};
use asan_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::stats::median;
use crate::trace::{now, secs_since, Layer, Tracer};

/// Timed batches per probe.
const BATCHES: usize = 9;

/// Constructions per batch of a construction probe.
const NEW_BATCH: usize = 64;

/// One probe's result.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Metric name.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Median host time per operation, in `unit`.
    pub value: f64,
    /// Operations per timed batch.
    pub ops: u64,
}

/// Records each probe as a span of its layer and collects the results.
struct Sweep<'t> {
    t: &'t mut Tracer,
    out: Vec<Probe>,
}

impl Sweep<'_> {
    /// Times `batch`, which performs `ops` operations and returns a
    /// value that keeps the work alive, and records the median ns per
    /// operation.
    fn ns(&mut self, layer: Layer, name: &'static str, ops: u64, mut batch: impl FnMut() -> u64) {
        let value = self.t.span(layer, name, |_| {
            black_box(batch());
            let mut samples = Vec::with_capacity(BATCHES);
            for _ in 0..BATCHES {
                let t0 = now();
                black_box(batch());
                samples.push(secs_since(t0) * 1e9 / ops as f64);
            }
            median(&samples)
        });
        self.out.push(Probe {
            name,
            unit: "ns",
            value,
            ops,
        });
    }

    /// Times batches of [`NEW_BATCH`] constructions by `make`, excluding
    /// the drop of the built values, and records the median µs per
    /// construction.
    fn new_us<T>(&mut self, layer: Layer, name: &'static str, make: impl Fn() -> T) {
        let value = self.t.span(layer, name, |_| {
            let mut samples = Vec::with_capacity(BATCHES);
            for round in 0..=BATCHES {
                let mut built = Vec::with_capacity(NEW_BATCH);
                let t0 = now();
                for _ in 0..NEW_BATCH {
                    built.push(make());
                }
                let secs = secs_since(t0);
                black_box(&built);
                drop(built);
                if round > 0 {
                    samples.push(secs * 1e6 / NEW_BATCH as f64);
                }
            }
            median(&samples)
        });
        self.out.push(Probe {
            name,
            unit: "us",
            value,
            ops: NEW_BATCH as u64,
        });
    }
}

/// HashJoin's S-scan address pattern: each record loads its 128 B slot
/// of the scan buffer, then the bit-vector byte its key hashes to.
fn join_addresses(seed: u64, records: usize) -> Vec<u64> {
    const S_BUF: u64 = 0x3000_0000;
    const BITVEC: u64 = 0x7000_0000;
    const BITS: u64 = 1 << 20;
    let mut rng = SimRng::from_seed(seed);
    let mut out = Vec::with_capacity(records * 2);
    for i in 0..records as u64 {
        out.push(S_BUF + i * 128);
        let key = rng.below(1 << 32);
        out.push(BITVEC + asan_apps::hashjoin::hash_bit(key, BITS) / 8);
    }
    out
}

/// Runs every probe, each inside a span of its layer. `peak_queue` is
/// the workload's measured queue high-water mark; the queue probe runs
/// at that depth.
pub fn run_all(t: &mut Tracer, seed: u64, peak_queue: u64) -> Vec<Probe> {
    let mut p = Sweep { t, out: Vec::new() };

    let addrs = join_addresses(seed, 1 << 15);
    let ops = addrs.len() as u64;
    let mut mem = MemoryHierarchy::new(HierarchyConfig::host_db());
    let mut clock = SimTime::ZERO;
    p.ns(Layer::Mem, "mem.load_ns", ops, || {
        let mut stall = 0;
        for &a in &addrs {
            let o = mem.load(a, clock);
            stall += o.stall.as_ps();
            clock = clock + o.stall + SimDuration::from_ns(1);
        }
        stall
    });

    let mut cache = Cache::new(CacheConfig::host_l1d_db());
    p.ns(Layer::Mem, "mem.cache_access_ns", ops, || {
        addrs
            .iter()
            .filter(|&&a| cache.access(a, AccessKind::Read).hit)
            .count() as u64
    });

    p.new_us(Layer::Mem, "mem.hierarchy_new_us", || {
        MemoryHierarchy::new(HierarchyConfig::host())
    });

    let mut cpu = Cpu::new(CpuConfig::host_db());
    let line = cpu.config().hierarchy.l1d.line_bytes;
    let block = 64 * 1024;
    let mut base = 0x1000_0000;
    p.ns(Layer::Cpu, "cpu.scan_ns_per_line", block / line, || {
        cpu.scan(base, block, line, asan_apps::cost::JOIN_HASH_INSTR, false);
        base += block;
        cpu.instructions()
    });

    p.new_us(Layer::Cpu, "cpu.new_us", || Cpu::new(CpuConfig::host()));

    let mut rng = SimRng::from_seed(seed);
    let mut payload = vec![0u8; 1 << 16];
    rng.fill_bytes(&mut payload);
    let packets = (payload.len() / MTU) as u64;
    p.ns(Layer::Net, "net.crc32_ns_per_packet", packets, || {
        payload
            .chunks_exact(MTU)
            .fold(0u64, |acc, p| acc ^ u64::from(crc32(0, p)))
    });

    p.ns(Layer::Net, "net.packetize_ns_per_packet", packets, || {
        let pkts = packetize(NodeId(0), NodeId(1), Some(HandlerId::new(1)), 0, &payload);
        pkts.iter().map(|p| u64::from(p.icrc())).sum()
    });

    let mut link = Link::new(LinkConfig::paper());
    let mut ready = SimTime::ZERO;
    let sends = 4096;
    p.ns(Layer::Net, "net.link_send_ns", sends, || {
        for _ in 0..sends {
            let timing = link.send((MTU + HEADER_BYTES) as u64, ready);
            link.note_drain(timing.done);
            ready = timing.start;
        }
        link.packets_carried()
    });

    let deltas: Vec<SimDuration> = (0..4096)
        .map(|_| SimDuration::from_ps(1_000 + rng.below(2_000_000)))
        .collect();
    let mut queue = EventQueue::new();
    let depth = usize::try_from(peak_queue.max(1)).expect("queue depth fits usize");
    for (i, d) in deltas.iter().cycle().take(depth).enumerate() {
        queue.push(SimTime::ZERO + *d, i as u64);
    }
    p.ns(
        Layer::Sim,
        "sim.queue_ns_per_op",
        deltas.len() as u64,
        || {
            let mut acc = 0u64;
            for d in &deltas {
                let (at, ev) = queue.pop().expect("queue holds `depth` events");
                acc = acc.wrapping_add(ev);
                queue.push(at + *d, ev);
            }
            acc
        },
    );

    let mut disk = Disk::new(DiskConfig::paper());
    let mut offset = 0;
    let mut at = SimTime::ZERO;
    let reads = 4096;
    p.ns(Layer::Io, "io.disk_read_ns", reads, || {
        for _ in 0..reads {
            let x = disk.read(offset, 64 * 1024, at);
            offset += 64 * 1024;
            at = x.complete;
        }
        disk.stats().requests.get()
    });

    p.out
}
