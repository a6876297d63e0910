//! `serve-bfly10`: four tenants send an open-loop arrival trace (in
//! simulated steps) to one long-lived `ServeSession` over
//! butterfly(2,10), with an in-flight high-water mark so admission
//! defers under load.

use crate::common::{self, simnet_layers, stack, CountSink, Gen, Spans};
use crate::outcome::{Outcome, Sim};
use crate::route::Topo;
use lnpram_routing::leveled::LeveledBackend;
use lnpram_routing::{
    AdmissionEntry, OverloadPolicy, RequestStatus, RouteRequest, Serve, ServeConfig, ServeReport,
    ServeSession,
};
use lnpram_simnet::Phase;
use lnpram_topology::leveled::RadixButterfly;
use std::time::Instant;

const TENANTS: u64 = 4;
/// Arrival steps per trace (one timed `run_trace` call).
const WINDOW: u32 = 32;
/// Distinct traces per round.
const TRACES: usize = 8;
/// Offered load of the timed traces, packets per step (all tenants).
const LOAD: usize = 1024;
/// Admission pauses while this many packets are in flight.
const HIGH_WATER: usize = 16 * 1024;
/// Request latency objective of the capacity sweep, in steps.
const SLO_STEPS: f64 = 64.0;
/// Largest admission backlog (requests) the sweep calls bounded.
const MAX_BACKLOG: usize = 2 * TENANTS as usize;
const SETUPS: usize = 5;
const SOURCES: usize = 1024;

type Session = ServeSession<LeveledBackend<RadixButterfly>>;

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        max_steps: 1 << 20,
        high_water_in_flight: HIGH_WATER,
        policy: OverloadPolicy::Queue,
        ..ServeConfig::default()
    }
}

pub fn session() -> Session {
    ServeSession::new(
        LeveledBackend::new(RadixButterfly::new(2, 10)),
        &Topo::Bfly10.cfg(1),
        serve_cfg(),
    )
}

/// One trace: every step of the window, each tenant sends one request
/// of `load / TENANTS` random source→destination pairs.
fn trace(g: &mut Gen, load: usize) -> Vec<AdmissionEntry> {
    let per_request = (load / TENANTS as usize).max(1);
    let mut entries = Vec::new();
    for step in 0..WINDOW {
        for tenant in 0..TENANTS {
            let mut relation = vec![Vec::new(); SOURCES];
            for _ in 0..per_request {
                relation[g.below(SOURCES)].push(g.below(SOURCES));
            }
            let req = RouteRequest::relation_map(relation, g.next_u64()).with_tenant(tenant);
            entries.push(AdmissionEntry::request(step, req));
        }
    }
    entries
}

fn traces(seed: u64, stream: u64, load: usize, n: usize) -> Vec<Vec<AdmissionEntry>> {
    let mut g = Gen::new(seed, stream);
    (0..n).map(|_| trace(&mut g, load)).collect()
}

/// Everything a trace must reproduce exactly.
type Fingerprint = (
    Vec<(usize, Option<u32>, usize, u32, Vec<(u64, u64)>)>,
    u32,
    bool,
    u64,
    usize,
);

fn fingerprint(r: &ServeReport) -> Fingerprint {
    (
        r.schedule(),
        r.steps,
        r.completed,
        r.deferred_request_steps,
        r.max_backlog,
    )
}

/// Arrival-to-last-delivery latency of every request; a rejected or
/// pending request has none and counts as missing any objective.
fn latencies(r: &ServeReport) -> (Vec<f64>, usize) {
    let mut lat = Vec::new();
    let mut failed = 0;
    for req in &r.requests {
        match req.completion_latency() {
            Some(l) => lat.push(f64::from(l)),
            None => failed += 1,
        }
    }
    (lat, failed)
}

fn serve(s: &mut Session, t: &[AdmissionEntry]) -> Result<ServeReport, String> {
    s.run_trace(t).map_err(|e| format!("serve error: {e:?}"))
}

/// Does `load` meet the objective: request p99 within [`SLO_STEPS`],
/// every request completed, and the admission backlog bounded?
fn meets_slo(s: &mut Session, seed: u64, load: usize) -> Result<bool, String> {
    let mut lat = Vec::new();
    for t in traces(seed, 6, load, 2) {
        let r = serve(s, &t)?;
        let (l, failed) = latencies(&r);
        if failed > 0 || r.max_backlog > MAX_BACKLOG {
            return Ok(false);
        }
        lat.extend(l);
    }
    Ok(common::quantile(&lat, 0.99) <= SLO_STEPS)
}

/// Highest offered load (packets/step, to 16) meeting the objective,
/// by bisection between a load that meets it and one that does not.
fn capacity(s: &mut Session, seed: u64) -> Result<f64, String> {
    let (mut lo, mut hi) = (64usize, 4096usize);
    if !meets_slo(s, seed, lo)? {
        return Err(format!(
            "serve-bfly10: even {lo} packets/step misses the objective"
        ));
    }
    while hi - lo > 16 {
        let mid = (lo + hi) / 2;
        if meets_slo(s, seed, mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo as f64)
}

pub fn run(seed: u64, seconds: f64, trace: bool, spans: &mut Spans) -> Result<Outcome, String> {
    // A trace is already an aggregate of tens of milliseconds, and a run
    // holds too few of them for windows: the tail is taken over the run.
    let mut out = Outcome {
        tail_window: 0,
        ..Outcome::default()
    };
    let ts = traces(seed, 5, LOAD, TRACES);
    let (mut s, setup_s) = common::time_repeated(SETUPS, session);
    out.setup_s = setup_s;

    let refs: Vec<ServeReport> = spans
        .span("reference", |_| {
            ts.iter()
                .map(|t| serve(&mut s, t))
                .collect::<Result<Vec<_>, _>>()
        })
        .0?;
    let ref_fp: Vec<Fingerprint> = refs.iter().map(fingerprint).collect();
    let check = |i: usize, r: &ServeReport, what: &str| -> Result<(), String> {
        if fingerprint(r) == ref_fp[i] {
            Ok(())
        } else {
            Err(format!(
                "trace {i}: {what} schedule differs from the reference pass"
            ))
        }
    };

    if trace {
        crate::route::setup_layers(&mut out, Topo::Bfly10, &Topo::Bfly10.cfg(1));
        return traced_pass(&mut out, &mut s, &ts, &ref_fp, seconds, spans).map(|()| out);
    }

    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        for (i, t) in ts.iter().enumerate() {
            let (r, secs) = spans.span("run_trace", |_| serve(&mut s, t));
            let r = r?;
            out.op(secs, session)?;
            out.packets += r.packets as u64;
            out.attempted += r.requests.len() as u64;
            out.failed += latencies(&r).1 as u64;
            check(i, &r, "timed")?;
        }
        rounds += 1;
    }

    // Off the clock: the traced == untraced gate, and hop counts.
    let mut count = CountSink::default();
    for (i, t) in ts.iter().enumerate() {
        let r = s
            .run_trace_traced(t, &mut count)
            .map_err(|e| format!("{e:?}"))?;
        check(i, &r, "traced")?;
    }
    // The event stream must account for every admission and deferral.
    let admitted: u64 = refs.iter().map(|r| r.admitted as u64).sum();
    let deferred: u64 = refs.iter().map(|r| r.deferred_request_steps).sum();
    if count.admits != admitted || count.defers != deferred {
        return Err(format!(
            "serve events count {} admissions and {} deferrals, reports {admitted} and {deferred}",
            count.admits, count.defers
        ));
    }

    let mut lat = Vec::new();
    for r in &refs {
        lat.extend(latencies(r).0);
    }
    let norm = refs[0].extras.norm().max(1) as f64;
    let cap = spans.span("capacity_sweep", |_| capacity(&mut s, seed)).0?;
    out.sim = Some(Sim {
        steps_per_norm: common::mean(&lat) / norm,
        latency_p50_steps: common::quantile(&lat, 0.5),
        latency_p99_steps: common::quantile(&lat, 0.99),
        capacity_pkts_per_step: cap,
    });
    let backlog = refs.iter().map(|r| r.max_backlog).max().unwrap_or(0);
    out.note("deferred_request_steps", deferred.to_string());
    out.note("max_backlog", backlog.to_string());
    out.note("hops_per_round", count.hops.to_string());
    out.note("ops_per_round", TRACES.to_string());
    out.note("rounds", rounds.to_string());
    out.note(
        "hops_per_s",
        common::json_num((count.hops * rounds) as f64 / out.timed_s),
    );
    Ok(out)
}

fn traced_pass(
    out: &mut Outcome,
    s: &mut Session,
    ts: &[Vec<AdmissionEntry>],
    ref_fp: &[Fingerprint],
    seconds: f64,
    spans: &mut Spans,
) -> Result<(), String> {
    let mut sink = stack();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let (mut queued, mut max_queue, mut ops) = (0u64, 0usize, 0usize);
    let (mut deferred, mut backlog, mut fairness) = (0u64, 0usize, Vec::new());
    let start = Instant::now();
    while ops == 0 || start.elapsed().as_secs_f64() < seconds {
        for (i, t) in ts.iter().enumerate() {
            let (r, secs) = spans.span("run_trace", |_| serve(s, t));
            let r = r?;
            plain_s += secs;
            out.attempted += r.requests.len() as u64;
            out.failed += latencies(&r).1 as u64;
            if fingerprint(&r) != ref_fp[i] {
                return Err(format!("trace {i}: untraced schedule differs"));
            }
            let (r, secs) = spans.span("run_trace_traced", |_| s.run_trace_traced(t, &mut sink));
            let r = r.map_err(|e| format!("{e:?}"))?;
            traced_s += secs;
            ops += 1;
            if fingerprint(&r) != ref_fp[i] {
                return Err(format!("trace {i}: traced schedule differs from untraced"));
            }
            queued += r.metrics.queued_packet_steps;
            max_queue = max_queue.max(r.metrics.max_queue);
            deferred += r.deferred_request_steps;
            backlog = backlog.max(r.max_backlog);
            fairness.push(r.fairness_index());
            let admitted = r
                .requests
                .iter()
                .filter(|q| matches!(q.status, RequestStatus::Admitted { .. }))
                .count();
            if admitted != r.admitted {
                return Err("admitted count disagrees with request outcomes".into());
            }
        }
    }
    out.layer("trace.overhead_frac", traced_s / plain_s);
    simnet_layers(out, &sink, ops, queued, max_queue);
    serve_layers(out, &sink, ops, deferred, backlog, &fairness);
    Ok(())
}

/// The `serve.*` metrics of a traced pass over `ops` traces.
fn serve_layers(
    out: &mut Outcome,
    sink: &crate::common::Stack,
    ops: usize,
    deferred: u64,
    backlog: usize,
    fairness: &[f64],
) {
    let steps = sink.b.b.steps.max(1) as f64;
    out.layer(
        "serve.admit_ns_per_step",
        sink.a.phase_nanos(Phase::Admit) as f64 / steps,
    );
    out.layer(
        "serve.deferred_request_steps",
        deferred as f64 / ops.max(1) as f64,
    );
    out.layer("serve.max_backlog", backlog as f64);
    out.layer("serve.fairness", common::mean(fairness));
}

/// A short traced serve pass, for workloads that do not serve.
pub fn probe(out: &mut Outcome, seed: u64, spans: &mut Spans) -> Result<(), String> {
    let mut s = session();
    let ts = traces(seed, 5, LOAD, 2);
    let mut sink = stack();
    let (mut deferred, mut backlog, mut fairness) = (0u64, 0usize, Vec::new());
    for t in &ts {
        let r = spans
            .span("probe_run_trace_traced", |_| {
                s.run_trace_traced(t, &mut sink)
            })
            .0
            .map_err(|e| format!("{e:?}"))?;
        deferred += r.deferred_request_steps;
        backlog = backlog.max(r.max_backlog);
        fairness.push(r.fairness_index());
    }
    serve_layers(out, &sink, ts.len(), deferred, backlog, &fairness);
    Ok(())
}
