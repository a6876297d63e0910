//! `route-bfly10` and `route-mesh32-k2`: a closed loop of random
//! permutations through `dyn Router::route`, plus the `shard.*` layer
//! pass over the mesh.

use crate::common::{self, simnet_layers, stack, CountSink, Gen, RouteFingerprint, Spans};
use crate::outcome::{Outcome, Sim};
use lnpram_routing::leveled::LeveledBackend;
use lnpram_routing::mesh::{default_slice_rows, MeshBackend};
use lnpram_routing::{
    LeveledRoutingSession, MeshAlgorithm, MeshRoutingSession, RouteBackend, RouteRequest, Router,
};
use lnpram_simnet::{Phase, SimConfig};
use lnpram_topology::leveled::RadixButterfly;
use lnpram_topology::mesh::Mesh;
use std::time::Instant;

/// Distinct permutations per round; every round routes the same list.
const ROUND: usize = 64;
/// Set-ups timed per run (the median is `setup_s`).
const SETUPS: usize = 5;
/// Requests of the sharded-vs-serial gate.
const SHARD_GATE: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// Butterfly(2,10), serial.
    Bfly10,
    /// 32×32 mesh, three-stage routing, 2 shards on 2 threads.
    Mesh32K2,
}

impl Topo {
    pub fn sources(self) -> usize {
        1024
    }

    /// The workload's engine configuration. `threads` is always set
    /// explicitly: the default reads the host's available parallelism,
    /// which would let CPU affinity switch the sharded transmit path.
    pub fn cfg(self, threads: usize) -> SimConfig {
        match self {
            Topo::Bfly10 => SimConfig {
                threads: 1,
                ..SimConfig::default()
            },
            Topo::Mesh32K2 => SimConfig {
                shards: 2,
                threads,
                ..SimConfig::default()
            },
        }
    }

    fn mesh_alg() -> MeshAlgorithm {
        MeshAlgorithm::ThreeStage {
            slice_rows: default_slice_rows(32),
        }
    }

    pub fn session(self, cfg: SimConfig) -> Box<dyn Router> {
        match self {
            Topo::Bfly10 => Box::new(LeveledRoutingSession::new(RadixButterfly::new(2, 10), cfg)),
            Topo::Mesh32K2 => Box::new(MeshRoutingSession::new(32, Self::mesh_alg(), cfg)),
        }
    }

    /// Set-up split into its parts: `(topology_ms, engine_ms)`. The
    /// engine is built exactly as the session builds it.
    fn setup_parts(self, cfg: &SimConfig) -> (f64, f64) {
        match self {
            Topo::Bfly10 => {
                let t = Instant::now();
                let backend = LeveledBackend::new(RadixButterfly::new(2, 10));
                let topo = common::ms(t.elapsed());
                let t = Instant::now();
                let eng = backend.build_engine(1, cfg);
                let engine = common::ms(t.elapsed());
                std::hint::black_box(eng);
                (topo, engine)
            }
            Topo::Mesh32K2 => {
                let mut cfg = cfg.clone();
                cfg.discipline = lnpram_routing::mesh::canonical_discipline(Self::mesh_alg());
                let t = Instant::now();
                let backend = MeshBackend::new(Mesh::square(32), Self::mesh_alg());
                let topo = common::ms(t.elapsed());
                let t = Instant::now();
                let eng = backend.build_engine(1, &cfg);
                let engine = common::ms(t.elapsed());
                std::hint::black_box(eng);
                (topo, engine)
            }
        }
    }
}

/// `n` random permutation requests drawn from `seed`.
pub fn requests(seed: u64, stream: u64, sources: usize, n: usize) -> Vec<RouteRequest> {
    let mut g = Gen::new(seed, stream);
    (0..n)
        .map(|_| {
            let dests = g.permutation(sources);
            RouteRequest::dests(dests, g.next_u64())
        })
        .collect()
}

/// Route every request once, off the clock, and check each completes.
fn reference(
    router: &mut dyn Router,
    reqs: &[RouteRequest],
) -> Result<Vec<RouteFingerprint>, String> {
    let mut out = Vec::with_capacity(reqs.len());
    for (i, req) in reqs.iter().enumerate() {
        let fp = RouteFingerprint::of(&router.route(req));
        if !fp.completed || fp.delivered != fp.packets {
            return Err(format!(
                "route {i} incomplete: delivered {} of {}",
                fp.delivered, fp.packets
            ));
        }
        out.push(fp);
    }
    Ok(out)
}

fn check(
    i: usize,
    got: &RouteFingerprint,
    want: &RouteFingerprint,
    what: &str,
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "route {i}: {what} differs from the reference pass: {got:?} vs {want:?}"
        ))
    }
}

pub fn run(
    topo: Topo,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let mut out = Outcome {
        tail_window: ROUND,
        ..Outcome::default()
    };
    out.yard.threads = if topo == Topo::Mesh32K2 { 2 } else { 1 };
    let cfg = topo.cfg(2);
    let reqs = requests(seed, 1, topo.sources(), ROUND);

    let (mut router, setup_s) = common::time_repeated(SETUPS, || topo.session(cfg.clone()));
    out.setup_s = setup_s;
    let refs = spans
        .span("reference", |_| reference(router.as_mut(), &reqs))
        .0?;

    if trace {
        setup_layers(&mut out, topo, &cfg);
        let own = if topo == Topo::Mesh32K2 {
            seconds / 2.0
        } else {
            seconds
        };
        traced_pass(&mut out, router.as_mut(), &reqs, &refs, own, spans)?;
        if topo == Topo::Mesh32K2 {
            shard_layers(&mut out, seed, seconds - own, spans)?;
        }
        return Ok(out);
    }

    // Timed closed loop: whole rounds until the time is up.
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        for (i, req) in reqs.iter().enumerate() {
            let (rep, secs) = spans.span("route", |_| router.route(req));
            out.op(secs, || topo.session(cfg.clone()))?;
            out.attempted += 1;
            out.packets += rep.packets as u64;
            // The reference pass proved every request completes, so an
            // incomplete route fails this gate and stops the run.
            check(i, &RouteFingerprint::of(&rep), &refs[i], "timed pass")?;
        }
        rounds += 1;
    }

    // Off the clock: the same round traced, for hop counts and the
    // traced == untraced gate.
    let mut count = CountSink::default();
    for (i, req) in reqs.iter().enumerate() {
        let fp = RouteFingerprint::of(&router.route_traced(req, &mut count));
        check(i, &fp, &refs[i], "traced pass")?;
    }
    if count.deliveries != refs.iter().map(|f| f.delivered as u64).sum::<u64>() {
        return Err("traced deliveries disagree with the route reports".into());
    }
    if count.transmitted != 0 && count.transmitted != count.hops {
        return Err("transmit callbacks and step samples disagree on hops".into());
    }
    if topo == Topo::Mesh32K2 {
        // Sharded reports must equal the serial engine's, histogram
        // included, on a sample of the requests.
        let mut serial = Topo::Mesh32K2.session(SimConfig {
            shards: 0,
            ..cfg.clone()
        });
        for (i, req) in reqs.iter().take(SHARD_GATE).enumerate() {
            check(
                i,
                &RouteFingerprint::of(&serial.route(req)),
                &refs[i],
                "serial engine",
            )?;
        }
    }

    let times: Vec<f64> = refs.iter().map(|f| f64::from(f.routing_time)).collect();
    let norm = router.route(&reqs[0]).norm().max(1) as f64;
    let packets: usize = refs.iter().map(|f| f.packets).sum();
    out.sim = Some(Sim {
        steps_per_norm: common::mean(&times) / norm,
        latency_p50_steps: common::quantile(&times, 0.5),
        latency_p99_steps: common::quantile(&times, 0.99),
        capacity_pkts_per_step: packets as f64 / times.iter().sum::<f64>(),
    });
    let hops = count.hops * rounds;
    out.note("hops_per_round", count.hops.to_string());
    out.note("ops_per_round", ROUND.to_string());
    out.note("rounds", rounds.to_string());
    out.note("hops_per_s", common::json_num(hops as f64 / out.timed_s));
    Ok(out)
}

pub fn setup_layers(out: &mut Outcome, topo: Topo, cfg: &SimConfig) {
    let mut topo_ms = Vec::new();
    let mut engine_ms = Vec::new();
    for _ in 0..SETUPS {
        let (t, e) = topo.setup_parts(cfg);
        topo_ms.push(t);
        engine_ms.push(e);
    }
    out.layer("setup.topology_ms", common::median(&topo_ms));
    out.layer("setup.engine_ms", common::median(&engine_ms));
    out.layer("setup.session_ms", common::median(&out.setup_s) * 1e3);
}

/// Alternate untraced and traced rounds for `seconds`; the traced ones
/// feed the `simnet.*` layer metrics, the ratio gives the overhead.
fn traced_pass(
    out: &mut Outcome,
    router: &mut dyn Router,
    reqs: &[RouteRequest],
    refs: &[RouteFingerprint],
    seconds: f64,
    spans: &mut Spans,
) -> Result<(), String> {
    let mut sink = stack();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut traced_ops = 0usize;
    let (mut queued, mut max_queue) = (0u64, 0usize);
    let start = Instant::now();
    while traced_ops == 0 || start.elapsed().as_secs_f64() < seconds {
        for (i, req) in reqs.iter().enumerate() {
            let (rep, secs) = spans.span("route", |_| router.route(req));
            plain_s += secs;
            out.attempted += 1;
            out.packets += rep.packets as u64;
            check(i, &RouteFingerprint::of(&rep), &refs[i], "untraced pass")?;
        }
        for (i, req) in reqs.iter().enumerate() {
            let (rep, secs) = spans.span("route_traced", |_| router.route_traced(req, &mut sink));
            traced_s += secs;
            traced_ops += 1;
            out.attempted += 1;
            queued += rep.metrics.queued_packet_steps;
            max_queue = max_queue.max(rep.metrics.max_queue);
            check(i, &RouteFingerprint::of(&rep), &refs[i], "traced pass")?;
        }
    }
    out.layer("trace.overhead_frac", traced_s / plain_s);
    simnet_layers(out, &sink, traced_ops, queued, max_queue);
    Ok(())
}

/// The `shard.*` metrics on the 32×32 mesh, 2 shards: the workload's
/// own 2-thread configuration gives the whole transmit phase per step
/// (pooled when busy); a 1-thread twin of the same schedule runs the
/// inline path, the only one that reports per-shard windows and
/// boundary crossings. The two are bit-identical in outcome (checked).
pub fn shard_layers(
    out: &mut Outcome,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
) -> Result<(), String> {
    let topo = Topo::Mesh32K2;
    let reqs = requests(seed, 1, topo.sources(), ROUND);
    let mut pooled = topo.session(topo.cfg(2));
    let mut inline = topo.session(topo.cfg(1));
    let mut pooled_sink = stack();
    let mut inline_sink = stack();
    let start = Instant::now();
    let mut n = 0usize;
    while n == 0 || start.elapsed().as_secs_f64() < seconds {
        for req in &reqs {
            let a = spans
                .span("shard_pooled", |_| {
                    pooled.route_traced(req, &mut pooled_sink)
                })
                .0;
            let b = spans
                .span("shard_inline", |_| {
                    inline.route_traced(req, &mut inline_sink)
                })
                .0;
            let (fa, fb) = (RouteFingerprint::of(&a), RouteFingerprint::of(&b));
            if fa != fb || !fa.completed {
                return Err(format!(
                    "mesh32-k2: pooled and inline runs differ: {fa:?} vs {fb:?}"
                ));
            }
            n += 1;
        }
    }
    let steps = pooled_sink.b.b.steps.max(1) as f64;
    out.layer(
        "shard.pool_transmit_ns_per_step",
        pooled_sink.a.phase_nanos(Phase::Transmit) as f64 / steps,
    );
    let isteps = inline_sink.b.b.steps.max(1) as f64;
    let per: Vec<f64> = (0..2)
        .map(|s| inline_sink.a.shard_nanos(s, Phase::Transmit) as f64 / isteps)
        .collect();
    out.layer("shard.transmit_ns_per_step.s0", per[0]);
    out.layer("shard.transmit_ns_per_step.s1", per[1]);
    out.layer("shard.imbalance", per[0].max(per[1]) / common::mean(&per));
    let boundary: u64 = inline_sink.b.a.boundary_packets().iter().sum();
    out.layer("shard.boundary_pkts_per_step", boundary as f64 / isteps);
    Ok(())
}
