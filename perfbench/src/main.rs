//! lnpram same-host benchmark.
//!
//! ```text
//! lnpram-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --lnpram <path>
//! ```
//!
//! Runs one workload for `--seconds`, checks every output against its
//! correctness gate, and prints as the last line of stdout one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A failed gate exits non-zero without a result.
//! `perfbench/README.md` defines every metric.

mod common;
mod emulate;
mod ladder;
mod outcome;
mod route;
mod serve;
mod yardstick;

use common::{json_num, json_str, Spans};
use outcome::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = [
    "emulate-shuffle5",
    "route-bfly10",
    "route-mesh32-k2",
    "serve-bfly10",
];

/// `(name, unit)` of every end-to-end metric, in output order.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "fraction"),
    ("op_rel_p50", "x_yardstick"),
    ("op_rel_p90", "x_yardstick"),
    ("steps_per_norm", "steps"),
    ("latency_p50_steps", "steps"),
    ("latency_p99_steps", "steps"),
    ("capacity_pkts_per_step", "pkts/step"),
];

/// `(name, unit)` of every per-layer metric.
const PER_LAYER: [(&str, &str); 33] = [
    ("simnet.transmit_ns_per_hop", "ns"),
    ("simnet.process_ns_per_hop", "ns"),
    ("simnet.hops_per_op", "count"),
    ("simnet.queued_packet_steps", "count"),
    ("simnet.max_queue", "count"),
    ("routing.ladder.engine_ns_per_hop", "ns"),
    ("routing.ladder.any_engine_ns_per_hop", "ns"),
    ("routing.ladder.backend_ns_per_hop", "ns"),
    ("routing.ladder.session_ns_per_hop", "ns"),
    ("routing.ladder.dyn_router_ns_per_hop", "ns"),
    ("routing.ladder.serve_ns_per_hop", "ns"),
    ("routing.ladder.cli_ns_per_hop", "ns"),
    ("shard.pool_transmit_ns_per_step", "ns"),
    ("shard.transmit_ns_per_step.s0", "ns"),
    ("shard.transmit_ns_per_step.s1", "ns"),
    ("shard.boundary_pkts_per_step", "count"),
    ("shard.imbalance", "ratio"),
    ("core.request_steps", "steps"),
    ("core.reply_steps", "steps"),
    ("core.service_steps", "steps"),
    ("core.combined_per_request", "ratio"),
    ("core.rehashes_per_step", "count"),
    ("core.remap_steps", "steps"),
    ("core.self_ms_per_step", "ms"),
    ("hash.eval_ns", "ns"),
    ("serve.admit_ns_per_step", "ns"),
    ("serve.deferred_request_steps", "count"),
    ("serve.max_backlog", "count"),
    ("serve.fairness", "ratio"),
    ("setup.topology_ms", "ms"),
    ("setup.engine_ms", "ms"),
    ("setup.session_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    lnpram: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let num = |v: String, flag: &str| -> Result<f64, String> {
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or(format!("{flag} {v}: not a non-negative number"))
    };
    let seed = get("--seed")?;
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("--seed {seed}: not an unsigned integer"))?;
    let seconds = num(get("--seconds")?, "--seconds")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: must be 0 or 1")),
    };
    let lnpram = PathBuf::from(get("--lnpram")?);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        lnpram,
    })
}

fn run_workload(a: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    let (seed, secs, trace) = (a.seed, a.seconds, a.trace);
    match a.workload.as_str() {
        "emulate-shuffle5" => emulate::run(seed, secs, trace, spans),
        "route-bfly10" => route::run(route::Topo::Bfly10, seed, secs, trace, spans),
        "route-mesh32-k2" => route::run(route::Topo::Mesh32K2, seed, secs, trace, spans),
        "serve-bfly10" => serve::run(seed, secs, trace, spans),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Per-layer metrics of layers the workload does not run come from
/// short reference passes of those layers, and the ladder runs in every
/// traced run.
fn probe_layers(a: &Args, out: &mut Outcome, spans: &mut Spans) -> Result<(), String> {
    let mut extra = Outcome::default();
    if a.workload != "route-mesh32-k2" {
        route::shard_layers(&mut extra, a.seed, 0.5, spans)?;
    }
    if a.workload != "emulate-shuffle5" {
        emulate::probe(&mut extra, a.seed, spans)?;
    }
    if a.workload != "serve-bfly10" {
        serve::probe(&mut extra, a.seed, spans)?;
    }
    ladder::run(&mut extra, a.seed, &a.lnpram, spans)?;
    for (k, v) in extra.layers {
        out.layers.entry(k).or_insert(v);
    }
    Ok(())
}

fn end_to_end(out: &Outcome) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let sim = out.sim.ok_or("workload produced no simulated metrics")?;
    let rel = out.yard.relative(&out.op_ms);
    let values = [
        common::median(&out.setup_s),
        out.rss_mb.unwrap_or_else(common::peak_rss_mb),
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        common::quantile(&rel, 0.5),
        out.yard.tail(&out.op_ms, 0.9, out.tail_window),
        sim.steps_per_norm,
        sim.latency_p50_steps,
        sim.latency_p99_steps,
        sim.capacity_pkts_per_step,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect())
}

fn per_layer(out: &Outcome) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    PER_LAYER
        .iter()
        .map(|&(n, u)| {
            out.layers
                .get(n)
                .map(|&v| (n, u, v))
                .ok_or(format!("per-layer metric {n} was not measured"))
        })
        .collect()
}

fn print_row(workload: &str, name: &str, value: f64, unit: &str) {
    let aka = alias(workload, name).map_or(String::new(), |s| format!("  (= {s})"));
    println!("  {name:<40} {value:>16.6} {unit}{aka}");
}

/// The names the benchmark's specification uses for some metrics on
/// some workloads, printed next to the generic names.
fn alias(workload: &str, metric: &str) -> Option<&'static str> {
    let route = workload.starts_with("route-");
    Some(match (metric, workload) {
        ("op_ms_p50", _) if route => "route_ms_p50",
        ("op_ms_p90", _) if route => "route_ms_p90",
        ("steps_per_norm", _) if route => "route_steps_per_norm",
        ("op_ms_p50", "emulate-shuffle5") => "emu_step_ms_p50",
        ("op_ms_p90", "emulate-shuffle5") => "emu_step_ms_p90",
        ("steps_per_norm", "emulate-shuffle5") => "emu_steps_per_diameter",
        ("latency_p50_steps", "serve-bfly10") => "serve_latency_p50_steps",
        ("latency_p99_steps", "serve-bfly10") => "serve_latency_p99_steps",
        ("capacity_pkts_per_step", "serve-bfly10") => "serve_capacity_pkts_per_step",
        ("failed_frac", _) => "1 - ok_frac",
        _ => return None,
    })
}

fn real_main() -> Result<(), String> {
    let a = parse_args()?;
    let mut spans = Spans::default();
    let mut out = run_workload(&a, &mut spans)?;
    if a.trace {
        probe_layers(&a, &mut out, &mut spans)?;
    }
    let metrics = if a.trace {
        per_layer(&out)?
    } else {
        end_to_end(&out)?
    };
    if let Some((n, _, v)) = metrics.iter().find(|m| !m.2.is_finite()) {
        return Err(format!("metric {n} is not a finite number: {v}"));
    }
    if out.attempted == 0 {
        return Err("no operation was attempted".into());
    }

    // Human-readable table, then the detail object, then the result.
    println!(
        "workload {}  seed {}  trace {}",
        a.workload,
        a.seed,
        u8::from(a.trace)
    );
    for (n, u, v) in &metrics {
        print_row(&a.workload, n, *v, u);
    }
    let rel = out.yard.relative(&out.op_ms);
    if !a.trace {
        // Raw host figures: informative, but they drift with the host's
        // load, so the bounded metrics above are yardstick-relative.
        let raw = [
            ("op_ms_p50", common::quantile(&out.op_ms, 0.5), "ms"),
            ("op_ms_p90", common::quantile(&out.op_ms, 0.9), "ms"),
            ("pkts_per_s", out.packets as f64 / out.timed_s, "1/s"),
            ("yardstick_ms", common::median(out.yard.samples()), "ms"),
            ("peak_rss_end_mb", common::peak_rss_mb(), "MiB"),
            (
                "failed_frac",
                out.failed as f64 / out.attempted as f64,
                "fraction",
            ),
        ];
        for (n, v, u) in raw {
            print_row(&a.workload, n, v, u);
        }
    }
    let mut detail = vec![
        format!("\"workload\":{}", json_str(&a.workload)),
        format!("\"seed\":{}", a.seed),
        format!("\"trace\":{}", u8::from(a.trace)),
    ];
    let mut samples = Vec::new();
    for (name, v) in [
        ("op_ms", &out.op_ms[..]),
        ("op_rel", &rel[..]),
        ("yardstick_ms", out.yard.samples()),
        ("setup_s", &out.setup_s[..]),
    ] {
        let (m, q1, q3, n) = common::spread(v);
        samples.push(format!(
            "{}:{{\"n\":{n},\"median\":{},\"q1\":{},\"q3\":{}}}",
            json_str(name),
            json_num(m),
            json_num(q1),
            json_num(q3)
        ));
    }
    detail.push(format!("\"samples\":{{{}}}", samples.join(",")));
    if let Some(sim) = out.sim {
        detail.push(format!(
            "\"simulated\":{{\"steps_per_norm\":{},\"latency_p50_steps\":{},\"latency_p99_steps\":{},\"capacity_pkts_per_step\":{}}}",
            json_num(sim.steps_per_norm),
            json_num(sim.latency_p50_steps),
            json_num(sim.latency_p99_steps),
            json_num(sim.capacity_pkts_per_step)
        ));
    }
    for (k, v) in &out.detail {
        detail.push(format!("{}:{v}", json_str(k)));
    }
    let spans_json: Vec<String> = spans
        .summary()
        .iter()
        .map(|(name, (n, total, own))| {
            format!(
                "{}:{{\"n\":{n},\"total_ms\":{},\"self_ms\":{}}}",
                json_str(name),
                json_num(*total),
                json_num(*own)
            )
        })
        .collect();
    detail.push(format!("\"spans\":{{{}}}", spans_json.join(",")));
    println!("{{\"detail\":{{{}}}}}", detail.join(","));

    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        body.join(",")
    );
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
