//! Shared plumbing: the input generator, sample statistics, the
//! benchmark-side trace sinks and span recorder, and report fingerprints
//! used by the correctness gates.

use crate::outcome::Outcome;
use lnpram_routing::RunReport;
use lnpram_simnet::{
    Fanout, FlightRecorder, Metrics, Phase, PhaseProfiler, ServeEvent, StepSample, TraceSink,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Deterministic input generator (splitmix64). Every workload input is
/// drawn from one of these, seeded from `--seed`.
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64, stream: u64) -> Self {
        Gen(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i + 1);
            p.swap(i, j);
        }
        p
    }
}

/// Linear-interpolation quantile (the "inclusive" method of Python's
/// `statistics.quantiles`), `q` in `0..=1`. `NaN` on empty input.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `(median, q1, q3, n)` of a sample set, for the provenance block.
pub fn spread(values: &[f64]) -> (f64, f64, f64, usize) {
    (
        median(values),
        quantile(values, 0.25),
        quantile(values, 0.75),
        values.len(),
    )
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f` `n` times, timing each call; returns the last result and
/// the per-call seconds. Each result is dropped before the next call.
/// Every call runs behind a different-sized, untouched padding
/// allocation, so the calls land at many different heap and mmap
/// offsets: a process's memory layout shifts timings by tens of
/// percent, and the median over many layouts does not depend on the
/// one layout a run happens to start with.
pub fn time_repeated<T>(n: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for i in 0..n.max(1) {
        drop(last.take());
        let pad: Vec<u8> = Vec::with_capacity((i * 7919) % (256 << 10) + (i * 31) % 64 * 64);
        let t = Instant::now();
        let v = f();
        secs.push(t.elapsed().as_secs_f64());
        drop(pad);
        last = Some(v);
    }
    (last.expect("at least one call"), secs)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Everything a run must reproduce exactly about one routed request:
/// the correctness gates compare these across repeats, across traced
/// and untraced passes, and between sharded and serial engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteFingerprint {
    pub completed: bool,
    pub packets: usize,
    pub delivered: usize,
    pub routing_time: u32,
    pub steps: u32,
    pub max_queue: usize,
    pub queued_packet_steps: u64,
    pub latency: Vec<(u64, u64)>,
}

impl RouteFingerprint {
    pub fn of(rep: &RunReport) -> Self {
        let m: &Metrics = &rep.metrics;
        RouteFingerprint {
            completed: rep.completed,
            packets: rep.packets,
            delivered: m.delivered,
            routing_time: m.routing_time,
            steps: m.steps,
            max_queue: m.max_queue,
            queued_packet_steps: m.queued_packet_steps,
            latency: m.latency.buckets().collect(),
        }
    }
}

/// The benchmark-side counting sink: deterministic work counts at the
/// engine boundary (steps, packet-hops, deliveries, serve admissions
/// and deferrals).
#[derive(Debug, Clone, Default)]
pub struct CountSink {
    pub steps: u64,
    /// Packet-hops, from the end-of-step samples (every engine).
    pub hops: u64,
    /// Packet-hops, from the transmit callback (serial engines only).
    pub transmitted: u64,
    pub deliveries: u64,
    pub admits: u64,
    pub defers: u64,
}

impl TraceSink for CountSink {
    fn on_step_begin(&mut self, _step: u32) {
        self.steps += 1;
    }

    fn on_transmit(&mut self, _step: u32, arrivals: usize) {
        self.transmitted += arrivals as u64;
    }

    fn on_step_end(&mut self, sample: &StepSample) {
        self.hops += sample.arrivals as u64;
        self.deliveries += sample.deliveries as u64;
    }

    fn on_serve_event(&mut self, event: &ServeEvent) {
        match event {
            ServeEvent::Admit { .. } => self.admits += 1,
            ServeEvent::Defer { .. } => self.defers += 1,
            _ => {}
        }
    }
}

/// The full traced sink stack: wall clock per phase, per-step samples
/// and boundary totals, and the benchmark's deterministic counts.
pub type Stack = Fanout<PhaseProfiler, Fanout<FlightRecorder, CountSink>>;

pub fn stack() -> Stack {
    Fanout::new(
        PhaseProfiler::new(),
        Fanout::new(FlightRecorder::new(1, 1 << 16), CountSink::default()),
    )
}

/// The `simnet.*` metrics of a traced pass over `ops` operations.
pub fn simnet_layers(out: &mut Outcome, sink: &Stack, ops: usize, queued: u64, max_queue: usize) {
    let prof = &sink.a;
    let count = &sink.b.b;
    let hops = count.hops.max(1) as f64;
    out.layer(
        "simnet.transmit_ns_per_hop",
        prof.phase_nanos(Phase::Transmit) as f64 / hops,
    );
    out.layer(
        "simnet.process_ns_per_hop",
        prof.phase_nanos(Phase::Process) as f64 / hops,
    );
    out.layer("simnet.hops_per_op", count.hops as f64 / ops.max(1) as f64);
    out.layer(
        "simnet.queued_packet_steps",
        queued as f64 / ops.max(1) as f64,
    );
    out.layer("simnet.max_queue", max_queue as f64);
}

/// In-memory spans around each call the benchmark makes into a layer:
/// name, parent span, start and end. Summarized per name at the end of
/// the run (count, total and self time).
#[derive(Default)]
pub struct Spans {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Spans {
    fn now_ns(&mut self) -> u64 {
        let origin = *self.origin.get_or_insert_with(Instant::now);
        origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`, nested under the innermost open
    /// span. Returns `f`'s result and the span's seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Per span name: `(count, total_ms, self_ms)`, where self time is a
    /// span's duration minus the time its child spans cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 * 1e-6;
            e.2 += dur.saturating_sub(child_ns[i]) as f64 * 1e-6;
        }
        out
    }
}

/// JSON string escaping for the few free-text fields of the output.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (`null` for NaN/inf, which the gates reject
/// before anything is printed).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
