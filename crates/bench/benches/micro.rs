//! Micro-benchmarks of the simulator's hot paths: these bound how fast
//! whole-cluster simulations can run (the 128 MB Select pushes ~17 M
//! events and ~6 M cache accesses through these structures), plus the
//! construction of a host L2 and a 1024-host fat tree, which bound how
//! fast a large cluster can be set up.
//! Plain `main()` harness — no external deps.

use std::hint::black_box;
use std::time::Instant;

use asan_apps::dfa::LiteralDfa;
use asan_apps::md5::md5;
use asan_mem::cache::{AccessKind, Cache, CacheConfig};
use asan_mem::hierarchy::{HierarchyConfig, MemoryHierarchy};
use asan_net::topo::TopoSpec;
use asan_sim::{EventQueue, SimRng, SimTime};

fn bench(name: &str, iters: u32, mut f: impl FnMut() -> u64) {
    black_box(f());
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..iters {
        acc = acc.wrapping_add(f());
    }
    black_box(acc);
    let per = t0.elapsed() / iters;
    println!("{name:<32} {per:>12.2?}/iter  ({iters} iters)");
}

fn main() {
    println!("== micro: simulator hot paths ==");

    // The 1024-bucket ring is built once: only push+pop is timed. Each
    // batch starts where the last drained, as a running simulation does.
    let mut q = EventQueue::new();
    let mut base = 0u64;
    bench("event_queue_push_pop_1k", 200, || {
        for i in 0..1000u64 {
            q.push(SimTime::from_ns(base + i * 7 % 503), i);
        }
        base += 503;
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        acc
    });

    let mut cache = Cache::new(CacheConfig::host_l1d());
    bench("l1_cache_hits_4k", 200, || {
        let mut hits = 0u64;
        for i in 0..4096u64 {
            if cache.access((i % 64) * 64, AccessKind::Read).hit {
                hits += 1;
            }
        }
        hits
    });

    let mut m = MemoryHierarchy::new(HierarchyConfig::host());
    let mut t = SimTime::ZERO;
    let mut addr = 0u64;
    bench("hierarchy_streaming_loads_4k", 200, || {
        let mut stall = 0u64;
        for _ in 0..4096 {
            let out = m.load(addr, t);
            stall += out.stall.as_ps();
            addr += 64;
            t = t + out.stall + asan_sim::SimDuration::from_ns(1);
        }
        stall
    });

    bench("cache_new_host_l2", 2000, || {
        let c = Cache::new(CacheConfig::host_l2());
        black_box(&c);
        c.config().size_bytes
    });

    bench("fat_tree_r16_1024_build", 10, || {
        let (fabric, _) = TopoSpec::fat_tree(16, 1024, 1).build();
        fabric.num_nodes() as u64
    });

    let mut rng = SimRng::from_seed(7);
    bench("rng_throughput_64k", 200, || {
        let mut acc = 0u64;
        for _ in 0..65536 {
            acc = acc.wrapping_add(rng.next_u64());
        }
        acc
    });

    let data = vec![0xABu8; 64 * 1024];
    bench("md5_64kb", 100, || {
        let d = md5(&data);
        u64::from_le_bytes(d[0..8].try_into().unwrap())
    });

    let dfa = LiteralDfa::new(b"Big Red Bear");
    let mut rng = SimRng::from_seed(3);
    let mut text = vec![0u8; 64 * 1024];
    rng.fill_bytes(&mut text);
    bench("dfa_search_64kb", 200, || dfa.count(&text) as u64);
}
