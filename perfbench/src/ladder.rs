//! The layer ladder on butterfly(2,10): the same permutation routed
//! through successively wider entry points, from a raw `Engine` up to
//! the `lnpram route` process. Each rung reports host ns per simulated
//! packet-hop; a rung's difference from the one below is that
//! wrapper's cost.

use crate::common::{self, CountSink, Gen, Spans};
use crate::outcome::Outcome;
use crate::route::Topo;
use lnpram_math::rng::SeedSeq;
use lnpram_routing::leveled::{LeveledBackend, UniversalLeveledRouter};
use lnpram_routing::router::PatternRef;
use lnpram_routing::{
    AdmissionEntry, DoubledLeveled, LeveledRoutingSession, RouteBackend, RoutePattern,
    RouteRequest, Router, Serve, ServeConfig, ServeSession,
};
use lnpram_shard::{AnyEngine, LevelCut};
use lnpram_simnet::{Engine, Packet};
use lnpram_topology::leveled::{Leveled, LeveledNet, RadixButterfly};
use rand::Rng;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Requests per pass over the rungs.
const REQUESTS: usize = 16;
/// Passes; every pass routes each request once on every rung.
const PASSES: usize = 3;
/// Routes per `lnpram route` process, and processes timed.
const CLI_TRIALS: usize = 16;
const CLI_RUNS: usize = 3;

const RUNGS: [&str; 6] = [
    "engine",
    "any_engine",
    "backend",
    "session",
    "dyn_router",
    "serve",
];

fn bfly() -> RadixButterfly {
    RadixButterfly::new(2, 10)
}

/// The packets `LeveledBackend::inject` makes for `dests` under `seed`:
/// ids and sources in order, intermediates from `seed`'s child 1.
fn packets(dests: &[usize], seed: u64, width: usize) -> Vec<Packet> {
    let mut rng = SeedSeq::new(seed).child(1).rng();
    dests
        .iter()
        .enumerate()
        .map(|(src, &dest)| {
            let via = rng.gen_range(0..width) as u32;
            Packet::new(src as u32, src as u32, dest as u32)
                .with_via(via)
                .with_tag(0)
        })
        .collect()
}

pub fn run(out: &mut Outcome, seed: u64, lnpram: &Path, spans: &mut Spans) -> Result<(), String> {
    let inner = bfly();
    let width = inner.width();
    let cfg = Topo::Bfly10.cfg(1);
    let net = LeveledNet::forward(DoubledLeveled::new(inner));
    let mut g = Gen::new(seed, 7);
    let reqs: Vec<(Vec<usize>, u64)> = (0..REQUESTS)
        .map(|_| (g.permutation(width), g.next_u64()))
        .collect();

    let mut engine = Engine::new(&net, cfg.clone());
    let mut any = AnyEngine::with_partitioner(&net, cfg.clone(), &LevelCut::new(width));
    let mut backend = LeveledBackend::new(inner);
    let mut backend_eng = backend.build_engine(1, &cfg);
    let mut session = LeveledRoutingSession::new(inner, cfg.clone());
    let mut dyn_router: Box<dyn Router> = Box::new(LeveledRoutingSession::new(inner, cfg.clone()));
    let mut serve = ServeSession::new(LeveledBackend::new(inner), &cfg, ServeConfig::default());

    // Hops per route, counted once through the traced session.
    let mut count = CountSink::default();
    let probe = RouteRequest::dests(reqs[0].0.clone(), reqs[0].1);
    session.route_traced(&probe, &mut count);
    let hops = count.hops as f64;
    if hops == 0.0 {
        return Err("ladder: traced route counted no hops".into());
    }

    // One closure per rung, in RUNGS order: route one request, return
    // its routing time (0 if incomplete).
    let done = |completed: bool, time: u32| if completed { time } else { 0 };
    type Rung<'a> = Box<dyn FnMut(&[Packet], &RouteRequest) -> Result<u32, String> + 'a>;
    let net = &net;
    let mut rungs: [Rung; 6] = [
        Box::new(|pkts, _| {
            engine.reset();
            for (src, p) in pkts.iter().enumerate() {
                engine.inject(net.node_id(0, src), *p);
            }
            let o = engine.run(&mut UniversalLeveledRouter::new(net));
            Ok(done(o.completed, o.metrics.routing_time))
        }),
        Box::new(|pkts, _| {
            any.reset();
            for (src, p) in pkts.iter().enumerate() {
                any.inject(net.node_id(0, src), *p);
            }
            let o = any.run(&mut UniversalLeveledRouter::new(net));
            Ok(done(o.completed, o.metrics.routing_time))
        }),
        Box::new(|_, req| {
            let RoutePattern::Dests(dests) = &req.pattern else {
                return Err("ladder requests are explicit destination maps".into());
            };
            backend_eng.reset();
            let seq = SeedSeq::new(req.seed);
            backend.inject(&mut backend_eng, 0, PatternRef::Dests(dests), seq, 0);
            let (o, _) = backend.run(&mut backend_eng, 1, 0);
            Ok(done(o.completed, o.metrics.routing_time))
        }),
        Box::new(|_, req| {
            let r = Router::route(&mut session, req);
            Ok(done(r.completed, r.metrics.routing_time))
        }),
        Box::new(|_, req| {
            let r = dyn_router.route(req);
            Ok(done(r.completed, r.metrics.routing_time))
        }),
        Box::new(|_, req| {
            let r = serve
                .run_trace(&[AdmissionEntry::request(0, req.clone())])
                .map_err(|e| format!("ladder serve: {e:?}"))?;
            Ok(done(r.completed, r.metrics.routing_time))
        }),
    ];

    let mut ns: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
    for pass in 0..=PASSES {
        for (dests, via_seed) in &reqs {
            let req = RouteRequest::dests(dests.clone(), *via_seed);
            let pkts = packets(dests, *via_seed, width);
            let mut times = [0u32; RUNGS.len()];
            for (i, rung) in rungs.iter_mut().enumerate() {
                let t = Instant::now();
                times[i] = rung(&pkts, &req)?;
                // Pass 0 warms every rung up and is not recorded.
                if pass > 0 {
                    ns[i].push(t.elapsed().as_secs_f64() * 1e9 / hops);
                }
            }
            if times[0] == 0 || times.iter().any(|&x| x != times[0]) {
                return Err(format!("ladder rungs disagree on routing time: {times:?}"));
            }
        }
    }
    for (rung, v) in RUNGS.iter().zip(&ns) {
        out.layer(
            &format!("routing.ladder.{rung}_ns_per_hop"),
            common::median(v),
        );
    }

    // The CLI rung: the whole `lnpram route` process, start to exit.
    let mut cli = Vec::new();
    for run in 0..CLI_RUNS {
        let (res, secs) = spans.span("cli_route", |_| {
            Command::new(lnpram)
                .args(["route", "--topology", "butterfly", "--d", "2", "--k", "10"])
                .args([
                    "--trials",
                    &CLI_TRIALS.to_string(),
                    "--seed",
                    &(seed + run as u64).to_string(),
                ])
                .output()
        });
        let o = res.map_err(|e| format!("cannot run {}: {e}", lnpram.display()))?;
        let text = String::from_utf8_lossy(&o.stdout);
        if !o.status.success() || !text.contains("permutation routing over") {
            return Err(format!(
                "lnpram route failed: {text}{}",
                String::from_utf8_lossy(&o.stderr)
            ));
        }
        cli.push(secs * 1e9 / (hops * CLI_TRIALS as f64));
    }
    out.layer("routing.ladder.cli_ns_per_hop", common::median(&cli));
    Ok(())
}
