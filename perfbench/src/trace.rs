//! Host clock and the benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each simulator crate (the
//! layers below); nothing inside the simulator is instrumented. Spans
//! stay in memory until the traced run ends and are then written out
//! as Chrome `trace_event` JSON, which Perfetto opens.

use std::time::Instant; // asan-lint: allow(no-wall-clock) — the benchmark times host execution

/// Seconds elapsed since `t0` on the host clock.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The current host instant.
pub fn now() -> Instant {
    Instant::now() // asan-lint: allow(no-wall-clock) — the benchmark times host execution
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now();
    let out = f();
    (out, secs_since(t0))
}

/// The simulator crate a span's call enters, or the harness itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own code between calls (root spans).
    Bench,
    /// `asan_apps`: app entry points, data generators, references.
    Apps,
    /// `asan_core`: cluster build and file placement.
    Core,
    /// `asan_mem`: cache and hierarchy models.
    Mem,
    /// `asan_cpu`: the CPU timing model.
    Cpu,
    /// `asan_net`: CRC, packetizer, links, topology build.
    Net,
    /// `asan_sim`: the event queue.
    Sim,
    /// `asan_io`: the disk model.
    Io,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Bench,
        Layer::Apps,
        Layer::Core,
        Layer::Mem,
        Layer::Cpu,
        Layer::Net,
        Layer::Sim,
        Layer::Io,
    ];

    /// The metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Apps => "apps",
            Layer::Core => "core",
            Layer::Mem => "mem",
            Layer::Cpu => "cpu",
            Layer::Net => "net",
            Layer::Sim => "sim",
            Layer::Io => "io",
        }
    }
}

/// One recorded span, in nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the span wraps.
    pub name: String,
    /// The layer the wrapped call enters.
    pub layer: Layer,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which workload pass, set-up repetition or probe sweep it belongs to.
    pub run: u32,
}

/// Records nested spans when enabled; a disabled recorder only runs
/// the wrapped closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn at(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    /// Runs `f` inside a span named `name` of `layer`; spans opened by
    /// `f` become its children.
    pub fn span<T>(&mut self, layer: Layer, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.at();
        let out = f(self);
        self.spans[idx].end_ns = self.at();
        self.open.pop();
        out
    }

    /// Host seconds each layer spent in its own spans, excluding the
    /// time covered by child spans, restricted to spans whose root span
    /// is named `root`.
    pub fn self_seconds(&self, root: &str) -> Vec<(Layer, f64)> {
        let mut self_ns = vec![0i128; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            self_ns[i] += i128::from(s.end_ns - s.start_ns);
            if let Some(p) = s.parent {
                self_ns[p] -= i128::from(s.end_ns - s.start_ns);
            }
        }
        Layer::ALL
            .iter()
            .map(|&layer| {
                let ns: i128 = self
                    .spans
                    .iter()
                    .enumerate()
                    .filter(|(i, s)| s.layer == layer && self.root_of(*i) == root)
                    .map(|(i, _)| self_ns[i])
                    .sum();
                (layer, ns as f64 / 1e9)
            })
            .collect()
    }

    fn root_of(&self, mut i: usize) -> &str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        &self.spans[i].name
    }

    /// Chrome `trace_event` JSON of every span: one complete (`X`)
    /// event each, timestamps in µs, the layer as thread, parent index
    /// and run id as args.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":\"{}\",\"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{}}}}}",
                s.name,
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.layer.name(),
                s.run
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_filters_by_root() {
        let mut t = Tracer::new(true);
        t.span(Layer::Bench, "pass", |t| {
            t.span(Layer::Apps, "outer", |t| {
                t.span(Layer::Core, "inner", |_| std::hint::black_box(1));
            });
        });
        t.span(Layer::Bench, "probes", |t| {
            t.span(Layer::Mem, "m", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let pass = t.self_seconds("pass");
        let get = |l: Layer| pass.iter().find(|(x, _)| *x == l).expect("layer").1;
        let total = (spans[0].end_ns - spans[0].start_ns) as f64 / 1e9;
        let sum: f64 = pass.iter().map(|(_, s)| s).sum();
        assert!((sum - total).abs() < 1e-12, "self times partition the root");
        assert_eq!(get(Layer::Mem), 0.0, "probe spans are not under `pass`");
        assert!(t.to_chrome_json().contains("\"parent\":1"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span(Layer::Apps, "x", |_| 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
