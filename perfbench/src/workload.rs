//! The benchmark's three workloads, reached only through the public
//! entry points of `asan_apps`, `asan_core` and `asan_net`.
//!
//! A workload *pass* makes the same two app calls a `repro` user makes
//! (each one generates its inputs, computes the pure-Rust reference,
//! builds the cluster and runs the event loop). A *set-up* repeats only
//! the set-up calls of those two app calls, so the loop's share of a
//! pass can be estimated as pass time minus set-up time.

use std::panic::{catch_unwind, AssertUnwindSafe};

use asan_apps::reduce::{self, Mode, ReduceRun};
use asan_apps::{data, hashjoin, select, AppRun, Variant};
use asan_core::cluster::{Cluster, ClusterConfig};
use asan_core::metrics::MetricsReport;
use asan_core::placement::HandlerPlacement;
use asan_net::TopoSpec;
use asan_sim::SimRng;

use crate::trace::{timed, Layer, Tracer};

/// Fat-tree radix of the reduction workload (the paper's 16-port switch).
const RADIX: usize = 16;

/// Hosts of the reduction workload at full size.
const REDUCE_HOSTS: usize = 1024;

/// Hosts of the reduction workload's small form.
const REDUCE_HOSTS_SMALL: usize = 64;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HashJoin 16 MB R + 128 MB S, `normal` then `normal+pref`.
    HashjoinHost,
    /// Select over 128 MB, `active` then `active+pref`.
    SelectActive,
    /// Reduce-to-one on a radix-16 fat tree with NCA placement,
    /// host MST then active.
    FattreeReduce,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::HashjoinHost,
        Workload::SelectActive,
        Workload::FattreeReduce,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HashjoinHost => "hashjoin-host",
            Workload::SelectActive => "select-active",
            Workload::FattreeReduce => "fattree-reduce",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the paper's, or the small form the tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The paper's sizes.
    Paper,
    /// Scaled-down inputs (`Params::small`, 64 hosts).
    #[cfg_attr(not(test), allow(dead_code))]
    Small,
}

/// Select's predicate bound for `seed`: the seed picks the selectivity
/// uniformly in 24–26 %, around the paper's 25 %. The generators seed
/// themselves from fixed labels, so this is the only input a seed can
/// reach.
pub fn select_key_hi(seed: u64) -> u64 {
    let mut rng = SimRng::from_seed(seed);
    let selectivity_ppm = 240_000 + rng.below(20_001);
    (1u64 << 32) * selectivity_ppm / 1_000_000
}

/// The concrete parameters of one workload at one size and seed.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// HashJoin parameters.
    Hashjoin(hashjoin::Params),
    /// Select parameters.
    Select(select::Params),
    /// Reduction host count.
    Reduce(usize),
}

/// Exact, deterministic outcome of one app call: simulated finish time,
/// work counts and digests. Identical on every machine and every pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCounts {
    /// Simulated finish time in picoseconds.
    pub sim_ps: u64,
    /// Events the simulation processed.
    pub events: u64,
    /// High-water mark of the pending-event queue.
    pub peak_queue: u64,
    /// Bytes carried by the fabric, summed over every link hop.
    pub link_bytes: u64,
    /// Switch handler invocations (including host fallback engines).
    pub handler_invocations: u64,
    /// Packets delivered.
    pub packets: u64,
    /// Sends that waited for a link credit.
    pub credit_stalls: u64,
    /// Link hops summed over delivered packets.
    pub hops: u64,
    /// Disk requests serviced.
    pub disk_requests: u64,
    /// Simulated occupancy of host, fabric, handler and storage phases (ps).
    pub phases_ps: [u64; 4],
    /// `ClusterStats::digest` of the run.
    pub stats_digest: u64,
    /// `MetricsReport::digest` of the run.
    pub metrics_digest: u64,
    /// The app's checked result (match count; 0 for reductions).
    pub artifact: u64,
}

impl RunCounts {
    fn from_metrics(m: &MetricsReport, sim_ps: u64, stats_digest: u64) -> RunCounts {
        RunCounts {
            sim_ps,
            events: 0,
            peak_queue: 0,
            link_bytes: 0,
            handler_invocations: m.handler_occupancy.count(),
            packets: m.packet_e2e.count(),
            credit_stalls: m.credit_stall.count(),
            hops: m.packet_hops.sum(),
            disk_requests: m.disk_service.count(),
            phases_ps: [
                m.phases.host_ps,
                m.phases.fabric_ps,
                m.phases.handler_ps,
                m.phases.storage_ps,
            ],
            stats_digest,
            metrics_digest: m.digest(),
            artifact: 0,
        }
    }

    fn from_app(r: &AppRun) -> RunCounts {
        RunCounts {
            events: r.events,
            peak_queue: r.peak_queue,
            link_bytes: r.link_bytes,
            artifact: r.artifact,
            ..RunCounts::from_metrics(&r.metrics, r.exec.as_ps(), r.stats_digest)
        }
    }

    /// `ReduceRun` carries no link byte count, so it stays 0.
    fn from_reduce(r: &ReduceRun) -> RunCounts {
        RunCounts {
            events: r.events,
            peak_queue: r.peak_queue,
            ..RunCounts::from_metrics(&r.metrics, r.latency.as_ps(), r.stats_digest)
        }
    }
}

/// Host seconds of one set-up, split by the kind of call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Input generators (`asan_apps::data`).
    pub gen_s: f64,
    /// Pure-Rust references.
    pub reference_s: f64,
    /// `Cluster::from_spec` plus `add_file`.
    pub cluster_build_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.gen_s + self.reference_s + self.cluster_build_s
    }
}

impl Inputs {
    /// The parameters of `w` at `size`, with `seed` applied where the
    /// public parameters let it reach.
    pub fn new(w: Workload, size: Size, seed: u64) -> Inputs {
        match (w, size) {
            (Workload::HashjoinHost, Size::Paper) => Inputs::Hashjoin(hashjoin::Params::paper()),
            (Workload::HashjoinHost, Size::Small) => Inputs::Hashjoin(hashjoin::Params::small()),
            (Workload::SelectActive, size) => {
                let base = match size {
                    Size::Paper => select::Params::paper(),
                    Size::Small => select::Params::small(),
                };
                Inputs::Select(select::Params {
                    key_hi: select_key_hi(seed),
                    ..base
                })
            }
            (Workload::FattreeReduce, Size::Paper) => Inputs::Reduce(REDUCE_HOSTS),
            (Workload::FattreeReduce, Size::Small) => Inputs::Reduce(REDUCE_HOSTS_SMALL),
        }
    }

    /// Labels of the pass's two app calls, in call order.
    pub fn calls(&self) -> [&'static str; 2] {
        match self {
            Inputs::Hashjoin(_) => ["hashjoin.normal", "hashjoin.normal+pref"],
            Inputs::Select(_) => ["select.active", "select.active+pref"],
            Inputs::Reduce(_) => ["reduce.normal", "reduce.active"],
        }
    }

    /// Makes app call `i` of a pass. A panic (the apps assert their
    /// results against their references) is caught and returned as the
    /// panic message.
    pub fn run_call(&self, i: usize) -> Result<RunCounts, String> {
        let call = AssertUnwindSafe(|| match self {
            Inputs::Hashjoin(p) => {
                let v = [Variant::Normal, Variant::NormalPref][i];
                RunCounts::from_app(&hashjoin::run(v, p))
            }
            Inputs::Select(p) => {
                let v = [Variant::Active, Variant::ActivePref][i];
                RunCounts::from_app(&select::run(v, p))
            }
            Inputs::Reduce(hosts) => RunCounts::from_reduce(&reduce::run_scaled(
                Mode::ReduceToOne,
                i == 1,
                *hosts,
                RADIX,
                HandlerPlacement::Nca,
            )),
        });
        catch_unwind(call).map_err(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "panic".to_string())
        })
    }

    /// The fabric spec the workload's clusters are built from.
    pub fn topo_spec(&self) -> TopoSpec {
        match self {
            Inputs::Hashjoin(_) | Inputs::Select(_) => TopoSpec::single_switch(1, 1),
            Inputs::Reduce(hosts) => TopoSpec::fat_tree(RADIX, *hosts, 0),
        }
    }

    fn config(&self) -> ClusterConfig {
        match self {
            Inputs::Hashjoin(_) | Inputs::Select(_) => ClusterConfig::paper_db(),
            Inputs::Reduce(_) => ClusterConfig::paper(),
        }
    }

    /// Repeats the set-up calls the pass's app calls make — generators,
    /// reference and cluster build with `add_file` — once per app call,
    /// each wrapped in a span. Returns the times and, per app call, the
    /// artifact the reference predicts (`None` where the app checks a
    /// vector rather than a count).
    pub fn setup(&self, t: &mut Tracer) -> (SetupTimes, [Option<u64>; 2]) {
        let mut times = SetupTimes::default();
        let mut expect = [None; 2];
        for (i, slot) in expect.iter_mut().enumerate() {
            *slot = self.setup_call(t, &mut times, i);
        }
        (times, expect)
    }

    fn setup_call(&self, t: &mut Tracer, times: &mut SetupTimes, i: usize) -> Option<u64> {
        let cfg = self.config();
        let spec = self.topo_spec();
        let build = |t: &mut Tracer, times: &mut SetupTimes, files: &[&Vec<u8>]| {
            let (cl, secs) = timed(|| {
                t.span(Layer::Core, "core.cluster_build", |t| {
                    let (mut cl, map) = t.span(Layer::Core, "core.from_spec", |_| {
                        Cluster::from_spec(&spec, cfg.clone())
                    });
                    t.span(Layer::Core, "core.add_file", |_| {
                        for f in files {
                            cl.add_file(map.tcas[0], (*f).clone())
                                .expect("file fits the storage node");
                        }
                    });
                    cl
                })
            });
            times.cluster_build_s += secs;
            drop(cl);
        };
        let label = self.calls()[i];
        match self {
            Inputs::Hashjoin(p) => {
                let ((r, s), secs) = timed(|| {
                    t.span(Layer::Apps, &format!("apps.gen {label}"), |_| {
                        data::join_tables(
                            p.r_bytes as usize,
                            p.s_bytes as usize,
                            p.record_bytes as usize,
                        )
                    })
                });
                times.gen_s += secs;
                let ((_, matches), secs) = timed(|| {
                    t.span(Layer::Apps, &format!("apps.reference {label}"), |_| {
                        hashjoin::reference(&r, &s, p)
                    })
                });
                times.reference_s += secs;
                build(t, times, &[&r, &s]);
                Some(matches)
            }
            Inputs::Select(p) => {
                let (table, secs) = timed(|| {
                    t.span(Layer::Apps, &format!("apps.gen {label}"), |_| {
                        // The label `select::run` generates its table under.
                        data::db_table(
                            p.table_bytes as usize,
                            p.record_bytes as usize,
                            "select-table",
                        )
                    })
                });
                times.gen_s += secs;
                let (want, secs) = timed(|| {
                    t.span(Layer::Apps, &format!("apps.reference {label}"), |_| {
                        select::reference_count(&table, p)
                    })
                });
                times.reference_s += secs;
                build(t, times, &[&table]);
                Some(want)
            }
            Inputs::Reduce(hosts) => {
                let (vectors, secs) = timed(|| {
                    t.span(Layer::Apps, &format!("apps.gen {label}"), |_| {
                        (0..*hosts).map(data::reduce_vector).collect::<Vec<_>>()
                    })
                });
                times.gen_s += secs;
                std::hint::black_box(vectors);
                let (sum, secs) = timed(|| {
                    t.span(Layer::Apps, &format!("apps.reference {label}"), |_| {
                        reduce::reference_sum(*hosts)
                    })
                });
                times.reference_s += secs;
                std::hint::black_box(sum);
                build(t, times, &[]);
                None
            }
        }
    }
}

/// FNV-1a fold of `v` into `h`.
fn fold(h: u64, v: u64) -> u64 {
    v.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The exact outcome of a whole pass: one [`RunCounts`] per app call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassCounts(pub Vec<RunCounts>);

impl PassCounts {
    /// Sum of `f` over the pass's runs.
    pub fn sum(&self, f: impl Fn(&RunCounts) -> u64) -> u64 {
        self.0.iter().map(f).sum()
    }

    /// The largest pending-event queue any run reached.
    pub fn peak_queue(&self) -> u64 {
        self.0.iter().map(|r| r.peak_queue).max().unwrap_or(0)
    }

    /// Fold of every run's stats digest, in call order.
    pub fn stats_digest(&self) -> u64 {
        self.0
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, r| fold(h, r.stats_digest))
    }

    /// Fold of every run's metrics digest, in call order.
    pub fn metrics_digest(&self) -> u64 {
        self.0
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, r| fold(h, r.metrics_digest))
    }

    /// Simulated finish time summed over the pass's runs, in µs.
    pub fn sim_time_us(&self) -> f64 {
        self.sum(|r| r.sim_ps) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_moves_select_selectivity_within_band() {
        let lo = (1u64 << 32) * 24 / 100;
        let hi = (1u64 << 32) * 26 / 100;
        let his: Vec<u64> = (0..50).map(select_key_hi).collect();
        assert!(his.iter().all(|&h| (lo..=hi).contains(&h)));
        assert_ne!(his[0], his[1], "the seed reaches key_hi");
        assert_eq!(select_key_hi(7), select_key_hi(7));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
