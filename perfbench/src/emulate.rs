//! `emulate-shuffle5`: a closed loop of CRCW-Max PRAM steps through
//! `LeveledPramEmulator` on the 5-way unrolled shuffle (3125 processors,
//! ℓ = 5), checked against the reference `PramMachine`.

use crate::common::{self, simnet_layers, stack, Gen, RouteFingerprint, Spans};
use crate::outcome::{Outcome, Sim};
use lnpram_core::{EmuReport, EmulatorConfig, LeveledPramEmulator, StepStats};
use lnpram_hash::HashFamily;
use lnpram_math::rng::SeedSeq;
use lnpram_pram::{AccessMode, MemOp, PramMachine, PramProgram, WritePolicy};
use lnpram_routing::{DoubledLeveled, LeveledRoutingSession, RouteRequest, Router};
use lnpram_shard::{AnyEngine, LevelCut};
use lnpram_simnet::SimConfig;
use lnpram_topology::leveled::{Leveled, LeveledNet, UnrolledShuffle};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// PRAM steps that define the simulated metrics: every run executes at
/// least these, then keeps stepping the same emulator until time is up.
const SIM_STEPS: usize = 80;
/// Operations per window of the tail estimate.
const TAIL_WINDOW: usize = 40;
const SETUPS: usize = 5;
const MODE: AccessMode = AccessMode::Crcw(WritePolicy::Max);
/// Cells per processor of the shared address space.
const SPACE_PER_PROC: u64 = 4;
/// Hot-spot cells, and the share of operations aimed at them.
const HOT_CELLS: u64 = 16;
const HOT_SHARE: f64 = 0.15;
const WRITE_SHARE: f64 = 0.2;

fn host() -> UnrolledShuffle {
    UnrolledShuffle::n_way(5)
}

/// The scripted program. Step `s`'s operations are a function of the
/// seed and `s` alone, so the emulator and the reference machine replay
/// the same program for however many steps a run takes.
struct Script {
    seed: u64,
    procs: usize,
    space: u64,
    /// The machine halts after this many steps.
    limit: usize,
    /// The step the machine is on, and its operations.
    current: Option<(usize, Vec<MemOp>)>,
}

impl Script {
    fn new(seed: u64, procs: usize) -> Self {
        Script {
            seed,
            procs,
            space: SPACE_PER_PROC * procs as u64,
            limit: 0,
            current: None,
        }
    }

    fn ops(&self, step: usize) -> Vec<MemOp> {
        let mut g = Gen::new(self.seed, 1_000 + step as u64);
        (0..self.procs)
            .map(|_| {
                let addr = if g.unit() < HOT_SHARE {
                    g.below(HOT_CELLS as usize) as u64
                } else {
                    g.below(self.space as usize) as u64
                };
                if g.unit() < WRITE_SHARE {
                    MemOp::Write(addr, g.next_u64() >> 20)
                } else {
                    MemOp::Read(addr)
                }
            })
            .collect()
    }
}

impl PramProgram for Script {
    fn processors(&self) -> usize {
        self.procs
    }

    fn address_space(&self) -> u64 {
        self.space
    }

    fn initial_memory(&self) -> Vec<(u64, u64)> {
        Vec::new()
    }

    fn op(&mut self, proc: usize, step: usize, _last_read: Option<u64>) -> MemOp {
        if step >= self.limit {
            return MemOp::Halt;
        }
        if self.current.as_ref().is_none_or(|(s, _)| *s != step) {
            self.current = Some((step, self.ops(step)));
        }
        self.current
            .as_ref()
            .map_or(MemOp::Halt, |(_, ops)| ops[proc])
    }
}

fn build(script: &Script) -> LeveledPramEmulator<UnrolledShuffle> {
    let cfg = EmulatorConfig {
        seed: Gen::new(script.seed, 3).next_u64(),
        ..EmulatorConfig::default()
    };
    LeveledPramEmulator::new(host(), MODE, script.space, cfg)
}

/// Order-independent digest of one step's reads.
fn digest(mut reads: Vec<(usize, u64)>) -> u64 {
    reads.sort_unstable();
    let mut h = DefaultHasher::new();
    reads.hash(&mut h);
    h.finish()
}

/// Step `emu` through the script — at least `min_steps`, then until
/// `seconds` have passed — timing each step (through the yardstick when
/// `timed`), then check every step's reads and the final memory image
/// against `PramMachine` on the same steps.
fn emulate(
    emu: &mut LeveledPramEmulator<UnrolledShuffle>,
    script: &mut Script,
    out: &mut Outcome,
    timed: bool,
    (min_steps, seconds): (usize, f64),
    spans: &mut Spans,
) -> Result<(), String> {
    let mut digests = Vec::new();
    let start = Instant::now();
    while digests.len() < min_steps || start.elapsed().as_secs_f64() < seconds {
        let step = digests.len();
        let ops = script.ops(step);
        let (reads, secs) = spans.span("emulate_step", |_| emu.emulate_step(&ops, step as u64));
        if timed {
            out.op(secs, || build(script))?;
        } else {
            out.op_ms.push(secs * 1e3);
        }
        out.attempted += 1;
        digests.push(digest(reads));
        if digests.len() == min_steps {
            out.rss_mb = Some(common::peak_rss_mb());
        }
    }
    out.packets += emu
        .report()
        .steps
        .iter()
        .map(|s| u64::from(s.requests))
        .sum::<u64>();

    spans
        .span("reference", |_| {
            script.limit = digests.len();
            let mut machine = PramMachine::new(script.space, MODE);
            let rep = machine.run(script, digests.len() + 1);
            if !rep.violations.is_empty() {
                return Err(format!(
                    "reference machine: {} violations",
                    rep.violations.len()
                ));
            }
            let mut reads = vec![Vec::new(); digests.len()];
            for (step, proc, _addr, value) in rep.read_trace {
                reads[step].push((proc, value));
            }
            for (step, (r, d)) in reads.into_iter().zip(&digests).enumerate() {
                if digest(r) != *d {
                    return Err(format!(
                        "PRAM step {step}: emulated reads differ from PramMachine"
                    ));
                }
            }
            if emu.memory_image(script.space) != machine.memory() {
                return Err("emulated memory image differs from PramMachine".into());
            }
            Ok(())
        })
        .0
}

pub fn run(seed: u64, seconds: f64, trace: bool, spans: &mut Spans) -> Result<Outcome, String> {
    let mut out = Outcome {
        tail_window: TAIL_WINDOW,
        ..Outcome::default()
    };
    out.yard.levels = 12;
    let mut script = Script::new(seed, host().width());
    let (mut emu, setup_s) = common::time_repeated(SETUPS, || build(&script));
    out.setup_s = setup_s;
    let budget = if trace { seconds / 2.0 } else { seconds };
    emulate(
        &mut emu,
        &mut script,
        &mut out,
        !trace,
        (SIM_STEPS, budget),
        spans,
    )?;
    out.note("steps", emu.report().steps.len().to_string());

    // The simulated metrics cover the first SIM_STEPS steps, which every
    // run executes.
    let first = &emu.report().steps[..SIM_STEPS];
    let network_steps: f64 = first.iter().map(|s| f64::from(s.total_steps())).sum();
    if !trace {
        let times: Vec<f64> = first.iter().map(|s| f64::from(s.total_steps())).collect();
        let requests: f64 = first.iter().map(|s| f64::from(s.requests)).sum();
        let diameter = 2 * host().levels();
        out.sim = Some(Sim {
            steps_per_norm: network_steps / SIM_STEPS as f64 / diameter as f64,
            latency_p50_steps: common::quantile(&times, 0.5),
            latency_p99_steps: common::quantile(&times, 0.99),
            capacity_pkts_per_step: requests / network_steps.max(1.0),
        });
        return Ok(out);
    }

    core_layers(&mut out, emu.report());
    let step_ms = common::median(&out.op_ms);
    let probe = probe_routes(seed, seconds / 2.0, spans)?;
    out.layer("core.self_ms_per_step", step_ms - 2.0 * probe.route_ms);
    out.layer("trace.overhead_frac", probe.overhead);
    simnet_layers(
        &mut out,
        &probe.sink,
        probe.ops,
        probe.queued,
        probe.max_queue,
    );
    hash_layer(&mut out, seed, script.space);
    setup_layers(&mut out);
    Ok(out)
}

/// The `core.*` and `hash.*` metrics from a short emulation, for
/// workloads that do not emulate.
pub fn probe(out: &mut Outcome, seed: u64, spans: &mut Spans) -> Result<(), String> {
    let mut script = Script::new(seed, host().width());
    let mut emu = build(&script);
    let mut timing = Outcome::default();
    emulate(&mut emu, &mut script, &mut timing, false, (4, 0.0), spans)?;
    core_layers(out, emu.report());
    let route_ms = probe_routes(seed, 0.3, spans)?.route_ms;
    out.layer(
        "core.self_ms_per_step",
        common::median(&timing.op_ms) - 2.0 * route_ms,
    );
    hash_layer(out, seed, script.space);
    Ok(())
}

/// The `core.*` counts, per PRAM step.
fn core_layers(out: &mut Outcome, rep: &EmuReport) {
    let n = rep.steps.len().max(1) as f64;
    let sum = |f: fn(&StepStats) -> u32| rep.steps.iter().map(|s| f64::from(f(s))).sum::<f64>();
    let requests = sum(|s| s.requests);
    out.layer("core.request_steps", sum(|s| s.request_steps) / n);
    out.layer("core.reply_steps", sum(|s| s.reply_steps) / n);
    out.layer("core.service_steps", sum(|s| s.service_steps) / n);
    out.layer(
        "core.combined_per_request",
        sum(|s| s.combined) / requests.max(1.0),
    );
    out.layer("core.rehashes_per_step", f64::from(rep.rehashes) / n);
    out.layer("core.remap_steps", rep.remap_steps as f64 / n);
}

/// A traced pass of permutation routes on the emulator's own doubled
/// network.
struct RouteProbe {
    /// Median untraced route, ms.
    route_ms: f64,
    /// Traced over untraced wall time.
    overhead: f64,
    sink: crate::common::Stack,
    ops: usize,
    queued: u64,
    max_queue: usize,
}

/// Permutation routes on the emulator's own doubled network, untraced
/// and traced: the routing engine's share of a PRAM step, the
/// `simnet.*` metrics of this host, and the tracing overhead.
fn probe_routes(seed: u64, seconds: f64, spans: &mut Spans) -> Result<RouteProbe, String> {
    let procs = host().width();
    let mut session = LeveledRoutingSession::new(
        host(),
        SimConfig {
            threads: 1,
            ..SimConfig::default()
        },
    );
    let reqs: Vec<RouteRequest> = crate::route::requests(seed, 4, procs, 8);
    let mut p = RouteProbe {
        route_ms: 0.0,
        overhead: 0.0,
        sink: stack(),
        ops: 0,
        queued: 0,
        max_queue: 0,
    };
    let (mut plain, mut traced_s) = (Vec::new(), 0.0);
    let start = Instant::now();
    while p.ops == 0 || start.elapsed().as_secs_f64() < seconds {
        for req in &reqs {
            let (a, secs) = spans.span("probe_route", |_| session.route(req));
            plain.push(secs * 1e3);
            let sink = &mut p.sink;
            let (b, secs) = spans.span("probe_route_traced", |_| session.route_traced(req, sink));
            traced_s += secs;
            p.ops += 1;
            if !a.completed || RouteFingerprint::of(&a) != RouteFingerprint::of(&b) {
                return Err("probe route incomplete or traced run differs".into());
            }
            p.queued += b.metrics.queued_packet_steps;
            p.max_queue = p.max_queue.max(b.metrics.max_queue);
        }
    }
    p.route_ms = common::median(&plain);
    p.overhead = traced_s * 1e3 / plain.iter().sum::<f64>();
    Ok(p)
}

/// Nanoseconds per evaluation of the emulator's hash function class.
fn hash_layer(out: &mut Outcome, seed: u64, space: u64) {
    let procs = host().width();
    let family = HashFamily::for_diameter(space, procs as u64, 2 * host().levels(), 1);
    let h = family.sample(&mut SeedSeq::new(seed).rng());
    const N: u64 = 1 << 20;
    let mut evals = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut acc = 0u64;
        for x in 0..N {
            acc = acc.wrapping_add(h.eval(std::hint::black_box(x % space)));
        }
        std::hint::black_box(acc);
        evals.push(t.elapsed().as_nanos() as f64 / N as f64);
    }
    out.layer("hash.eval_ns", common::median(&evals));
}

fn setup_layers(out: &mut Outcome) {
    let (mut topo_ms, mut engine_ms) = (Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        let t = Instant::now();
        let fwd = LeveledNet::forward(DoubledLeveled::new(host()));
        let bwd = LeveledNet::backward(DoubledLeveled::new(host()));
        topo_ms.push(common::ms(t.elapsed()));
        let part = LevelCut::new(host().width());
        let t = Instant::now();
        let a = AnyEngine::with_partitioner(&fwd, SimConfig::default(), &part);
        let b = AnyEngine::with_partitioner(&bwd, SimConfig::default(), &part);
        engine_ms.push(common::ms(t.elapsed()));
        std::hint::black_box((a, b));
    }
    out.layer("setup.topology_ms", common::median(&topo_ms));
    out.layer("setup.engine_ms", common::median(&engine_ms));
    out.layer("setup.session_ms", common::median(&out.setup_s) * 1e3);
}
