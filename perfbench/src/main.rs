//! The repository benchmark: one command, one process, one thread.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hashjoin-host|select-active|fattree-reduce> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! For `--seconds` it repeats workload passes (the workload's two app
//! calls) and times each; then it repeats the workload's set-up calls
//! alone. With `--trace 0` it prints the end-to-end metrics. With
//! `--trace 1` it alternates untraced and traced passes, traces the
//! set-up calls, runs the layer probes and prints the per-layer
//! metrics. Spans are written to `perfbench/trace/` when the run ends.
//!
//! Every app call checks its result against its pure-Rust reference
//! and panics on a mismatch; a panicking call counts as failed. The
//! exact counts and digests of every pass must equal the first pass's.
//! The last line of standard output is the JSON result; the exit code
//! is 1 when the run was not correct and 2 on a usage error.

mod probe;
mod report;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use report::{catalogue, Report, Value};
use stats::{median, quartiles};
use trace::{now, secs_since, timed, Layer, Tracer};
use workload::{Inputs, PassCounts, SetupTimes, Size, Workload};

/// Fewest passes a run measures, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: asan-perfbench --workload <hashjoin-host|select-active|fattree-reduce> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload `{val}`"))?);
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed `{val}`"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| format!("bad seconds `{val}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got `{val}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{val}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything the passes measured.
#[derive(Default)]
struct Passes {
    /// Host seconds of each untraced pass.
    walls: Vec<f64>,
    /// Host seconds of each traced pass.
    traced_walls: Vec<f64>,
    /// The first pass's exact counts; every later pass must match.
    counts: Option<PassCounts>,
    attempted: u64,
    failed: u64,
    /// Passes whose exact counts differed from the first pass's.
    drifted: u64,
}

/// Runs one pass: the workload's app calls in order, each inside an
/// `apps` span under a `pass` root span. Returns the pass's host
/// seconds and its counts, or `None` if a call failed.
fn run_pass(inputs: &Inputs, t: &mut Tracer, p: &mut Passes) -> (f64, Option<PassCounts>) {
    let mut runs = Vec::new();
    let mut ok = true;
    let (_, wall) = timed(|| {
        t.span(Layer::Bench, "pass", |t| {
            for (i, label) in inputs.calls().iter().enumerate() {
                p.attempted += 1;
                match t.span(Layer::Apps, label, |_| inputs.run_call(i)) {
                    Ok(r) => runs.push(r),
                    Err(msg) => {
                        println!("FAILED {label}: {msg}");
                        p.failed += 1;
                        ok = false;
                    }
                }
            }
        });
    });
    (wall, ok.then_some(PassCounts(runs)))
}

/// Repeats passes for `seconds` (and at least [`MIN_PASSES`] of each
/// kind). With tracing, untraced and traced passes alternate.
fn measure(inputs: &Inputs, seconds: f64, tracer: &mut Tracer) -> Passes {
    let mut p = Passes::default();
    let mut off = Tracer::new(false);
    let t0 = now();
    let mut n = 0u32;
    let trace = tracer.enabled();
    let enough =
        |p: &Passes| p.walls.len() >= MIN_PASSES && (!trace || p.traced_walls.len() >= MIN_PASSES);
    while secs_since(t0) < seconds || !enough(&p) {
        let traced = trace && n % 2 == 1;
        let t = if traced {
            tracer.set_run(n);
            &mut *tracer
        } else {
            &mut off
        };
        let (wall, counts) = run_pass(inputs, t, &mut p);
        println!(
            "pass {n:>3} {} {wall:.6} s",
            if traced { "traced  " } else { "untraced" }
        );
        if traced {
            p.traced_walls.push(wall);
        } else {
            p.walls.push(wall);
        }
        if let Some(c) = counts {
            match &p.counts {
                None => p.counts = Some(c),
                Some(first) if *first != c => {
                    println!("DRIFT pass {n}: exact counts differ from the first pass");
                    p.drifted += 1;
                }
                Some(_) => {}
            }
        }
        n += 1;
    }
    p
}

/// Peak resident set of this process so far, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

fn spread_note(xs: &[f64], what: &str) -> String {
    let (q1, q3) = quartiles(xs);
    format!("median of {} {what}, q1 {q1:.6}, q3 {q3:.6}", xs.len())
}

/// What the set-up repetitions measured.
struct Setups {
    times: Vec<SetupTimes>,
    topo_build_s: Vec<f64>,
    /// Every artifact a pass returned equals its reference.
    artifacts_ok: bool,
}

impl Setups {
    fn median(&self, f: fn(&SetupTimes) -> f64) -> f64 {
        median(&self.times.iter().map(f).collect::<Vec<_>>())
    }
}

/// Repeats the workload's set-up calls [`SETUP_REPS`] times under
/// `setup` root spans, with a direct `TopoSpec::build` in each, and
/// checks the passes' artifacts against the references it computes.
fn measure_setup(inputs: &Inputs, tracer: &mut Tracer, counts: Option<&PassCounts>) -> Setups {
    let mut s = Setups {
        times: Vec::new(),
        topo_build_s: Vec::new(),
        artifacts_ok: true,
    };
    for rep in 0..SETUP_REPS {
        tracer.set_run(rep as u32);
        let (times, expect) = tracer.span(Layer::Bench, "setup", |t| {
            let spec = inputs.topo_spec();
            let (_, secs) = timed(|| t.span(Layer::Net, "net.topo_build", |_| spec.build()));
            s.topo_build_s.push(secs);
            inputs.setup(t)
        });
        s.times.push(times);
        for (run, want) in counts.iter().flat_map(|c| c.0.iter()).zip(expect) {
            if want.is_some_and(|want| want != run.artifact) {
                println!("MISMATCH artifact {} != reference {want:?}", run.artifact);
                s.artifacts_ok = false;
            }
        }
    }
    s
}

fn val(name: &'static str, value: f64, note: impl Into<String>) -> Value {
    Value {
        name,
        value,
        note: note.into(),
    }
}

/// The end-to-end metrics, in catalogue order.
fn end_to_end(passes: &Passes, setups: &Setups, rss_mib: f64, c: &PassCounts) -> Vec<Value> {
    let wall_s = median(&passes.walls);
    let setup_totals: Vec<f64> = setups.times.iter().map(SetupTimes::total).collect();
    vec![
        val("wall_s", wall_s, spread_note(&passes.walls, "passes")),
        val(
            "events_per_s",
            c.sum(|r| r.events) as f64 / wall_s,
            "events per pass / wall_s",
        ),
        val(
            "setup_s",
            median(&setup_totals),
            spread_note(&setup_totals, "set-ups"),
        ),
        val("peak_rss_mib", rss_mib, "VmHWM after the passes"),
        val(
            "sim_time_us",
            c.sim_time_us(),
            "exact, summed over the pass's runs",
        ),
    ]
}

/// The per-layer metrics, in catalogue order. Runs the layer probes.
fn per_layer(
    passes: &Passes,
    setups: &Setups,
    c: &PassCounts,
    tracer: &mut Tracer,
    seed: u64,
) -> Vec<Value> {
    let probes = tracer.span(Layer::Bench, "probes", |t| {
        probe::run_all(t, seed, c.peak_queue().max(1))
    });
    let exact = |name, n: u64| val(name, n as f64, "exact");
    let events = c.sum(|r| r.events);
    let packets = c.sum(|r| r.packets);
    let per_packet = |n: u64| n as f64 / packets.max(1) as f64;
    let loop_s = median(&passes.walls) - setups.median(SetupTimes::total);
    let mut v = vec![
        val(
            "apps.gen_s",
            setups.median(|s| s.gen_s),
            "median of set-ups",
        ),
        val(
            "apps.reference_s",
            setups.median(|s| s.reference_s),
            "median of set-ups",
        ),
        val(
            "core.cluster_build_s",
            setups.median(|s| s.cluster_build_s),
            "median of set-ups",
        ),
        val("core.loop_s", loop_s, "median pass minus median set-up"),
        val(
            "core.ns_per_event",
            loop_s * 1e9 / events.max(1) as f64,
            "loop_s / events",
        ),
        exact("core.events", events),
        exact("core.handler_invocations", c.sum(|r| r.handler_invocations)),
    ];
    for (i, name) in [
        "core.phase.host_us",
        "core.phase.fabric_us",
        "core.phase.handler_us",
        "core.phase.storage_us",
    ]
    .into_iter()
    .enumerate()
    {
        v.push(val(name, c.sum(|r| r.phases_ps[i]) as f64 / 1e6, "exact"));
    }
    let probe = |name: &'static str| {
        let p = probes.iter().find(|p| p.name == name).expect("probe ran");
        val(
            name,
            p.value,
            format!("{}/op, median of batches of {} ops", p.unit, p.ops),
        )
    };
    v.extend(
        [
            "mem.load_ns",
            "mem.cache_access_ns",
            "mem.hierarchy_new_us",
            "cpu.scan_ns_per_line",
            "cpu.new_us",
            "net.crc32_ns_per_packet",
            "net.packetize_ns_per_packet",
            "net.link_send_ns",
        ]
        .map(probe),
    );
    let stalls = c.sum(|r| r.credit_stalls);
    v.extend([
        val(
            "net.topo_build_s",
            median(&setups.topo_build_s),
            "median of set-ups",
        ),
        exact("net.packets", packets),
        exact("net.link_bytes", c.sum(|r| r.link_bytes)),
        exact("net.credit_stalls", stalls),
        val(
            "net.credit_stall_ratio",
            per_packet(stalls),
            "stalls / packets",
        ),
        val(
            "net.mean_hops",
            per_packet(c.sum(|r| r.hops)),
            "hops / packets",
        ),
        probe("sim.queue_ns_per_op"),
        exact("sim.peak_queue", c.peak_queue()),
        probe("io.disk_read_ns"),
        exact("io.disk_requests", c.sum(|r| r.disk_requests)),
    ]);
    // Self time of one traced round: a pass, a set-up and the probes.
    let rounds = [
        (tracer.self_seconds("pass"), passes.traced_walls.len()),
        (tracer.self_seconds("setup"), SETUP_REPS),
        (tracer.self_seconds("probes"), 1),
    ];
    for (i, name) in SELF_METRICS.into_iter().enumerate() {
        let secs = rounds.iter().map(|(s, n)| s[i].1 / *n as f64).sum();
        v.push(val(name, secs, "per traced round (pass + set-up + probes)"));
    }
    let traced_wall = median(&passes.traced_walls);
    v.push(val(
        "trace.wall_s",
        traced_wall,
        spread_note(&passes.traced_walls, "traced passes"),
    ));
    v.push(val(
        "trace.overhead_s",
        traced_wall - median(&passes.walls),
        "median traced pass minus median untraced pass",
    ));
    v
}

/// Self-time metric names, in [`Layer::ALL`] order.
const SELF_METRICS: [&str; 8] = [
    "bench.self_s",
    "apps.self_s",
    "core.self_s",
    "mem.self_s",
    "cpu.self_s",
    "net.self_s",
    "sim.self_s",
    "io.self_s",
];

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let inputs = Inputs::new(w, Size::Paper, args.seed);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} inputs={inputs:?}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tracer = Tracer::new(args.trace);
    let passes = measure(&inputs, args.seconds, &mut tracer);
    let rss_mib = peak_rss_mib();
    let setups = measure_setup(&inputs, &mut tracer, passes.counts.as_ref());

    let correct =
        passes.failed == 0 && passes.drifted == 0 && setups.artifacts_ok && passes.counts.is_some();
    // A run whose every pass failed has no counts; it reports zeros and fails.
    let c = passes.counts.clone().unwrap_or(PassCounts(Vec::new()));
    println!(
        "digest stats={:016x} metrics={:016x} sim_time_us={}",
        c.stats_digest(),
        c.metrics_digest(),
        c.sim_time_us()
    );
    let values = if args.trace {
        let v = per_layer(&passes, &setups, &c, &mut tracer, args.seed);
        write_trace(&tracer, w, args.seed);
        v
    } else {
        end_to_end(&passes, &setups, rss_mib, &c)
    };
    let report = Report {
        correct,
        attempted: passes.attempted,
        failed: passes.failed,
        values,
    };
    let defs = catalogue(args.trace);
    print!("{}", report.table(defs));
    println!(
        "fail_ratio {} ({} of {} app calls failed)",
        passes.failed as f64 / passes.attempted as f64,
        passes.failed,
        passes.attempted
    );
    println!("{}", report.to_json(defs));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes the run's spans as Chrome trace JSON under `perfbench/trace/`.
fn write_trace(t: &Tracer, w: Workload, seed: u64) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("trace");
    let path = dir.join(format!("{}-seed{seed}.json", w.name()));
    std::fs::create_dir_all(&dir).expect("create the trace directory");
    std::fs::write(&path, t.to_chrome_json()).expect("write the trace file");
    println!("trace: {} spans -> {}", t.spans().len(), path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn self_metrics_follow_layer_order() {
        for (name, layer) in SELF_METRICS.iter().zip(Layer::ALL) {
            assert_eq!(*name, format!("{}.self_s", layer.name()));
        }
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload select-active --seed 7 --seconds 25 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::SelectActive);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 25.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fattree-reduce --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload fattree-reduce --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload fattree-reduce --seed 1 --seconds 1").is_err());
    }

    /// The exact counts — events, packets, simulated time and both
    /// digests — repeat across two passes of each workload's small form.
    #[test]
    fn exact_counts_repeat_across_passes() {
        for w in Workload::ALL {
            let inputs = Inputs::new(w, Size::Small, 3);
            let mut p = Passes::default();
            let mut off = Tracer::new(false);
            let (_, a) = run_pass(&inputs, &mut off, &mut p);
            let (_, b) = run_pass(&inputs, &mut off, &mut p);
            let (a, b) = (a.expect("first pass"), b.expect("second pass"));
            assert_eq!((p.attempted, p.failed), (4, 0), "{}", w.name());
            assert!(a.sum(|r| r.events) > 0 && a.sum(|r| r.packets) > 0);
            assert!(a.sim_time_us() > 0.0);
            assert_eq!(a, b, "{}: counts drift between passes", w.name());
            assert_eq!(a.stats_digest(), b.stats_digest());
            assert_eq!(a.metrics_digest(), b.metrics_digest());
        }
    }

    /// A traced pass yields the same counts as an untraced one and
    /// records one `apps` span per app call under its `pass` root.
    #[test]
    fn tracing_leaves_counts_unchanged() {
        let inputs = Inputs::new(Workload::FattreeReduce, Size::Small, 1);
        let mut p = Passes::default();
        let (_, plain) = run_pass(&inputs, &mut Tracer::new(false), &mut p);
        let mut t = Tracer::new(true);
        let (_, traced) = run_pass(&inputs, &mut t, &mut p);
        assert_eq!(plain, traced);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans[1..]
            .iter()
            .all(|s| s.parent == Some(0) && s.layer == Layer::Apps));
    }

    #[test]
    fn setup_predicts_the_checked_artifacts() {
        for w in [Workload::HashjoinHost, Workload::SelectActive] {
            let inputs = Inputs::new(w, Size::Small, 5);
            let (_, counts) = run_pass(&inputs, &mut Tracer::new(false), &mut Passes::default());
            let (times, expect) = inputs.setup(&mut Tracer::new(false));
            assert!(times.total() > 0.0);
            let got: Vec<Option<u64>> = counts
                .expect("pass")
                .0
                .iter()
                .map(|r| Some(r.artifact))
                .collect();
            assert_eq!(got, expect.to_vec(), "{}", w.name());
        }
    }
}
