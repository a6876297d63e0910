//! What one workload run hands back to `main` for printing.

use crate::yardstick::Yardstick;
use std::collections::BTreeMap;
use std::time::Instant;

/// Deterministic simulated metrics of one workload (functions of the
/// seed alone, never of the host).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    /// Mean simulated steps per operation over the topology's norm.
    pub steps_per_norm: f64,
    /// Median simulated steps from an operation's start to its last
    /// delivery.
    pub latency_p50_steps: f64,
    /// 99th percentile of the same.
    pub latency_p99_steps: f64,
    /// Packets per simulated step the network sustains on the workload.
    pub capacity_pkts_per_step: f64,
}

/// The measured result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed during the timed loop.
    pub attempted: u64,
    pub failed: u64,
    /// Seconds per set-up (several per run).
    pub setup_s: Vec<f64>,
    /// Milliseconds per timed operation.
    pub op_ms: Vec<f64>,
    /// Host-speed yardstick timed between the operations (untraced
    /// runs).
    pub yard: Yardstick,
    /// Operations per window of the tail estimate (a round, so every
    /// window holds the same mix of operations; 0 = the whole run).
    pub tail_window: usize,
    /// Total seconds of timed operations.
    pub timed_s: f64,
    /// Packets injected by the timed operations.
    pub packets: u64,
    /// Peak resident set (MiB) at a point of fixed work, where the
    /// workload's memory keeps growing with the steps it runs; `None`
    /// means at the end of the run.
    pub rss_mb: Option<f64>,
    /// Simulated metrics (trace-0 runs).
    pub sim: Option<Sim>,
    /// Per-layer metrics (trace-1 runs), by name.
    pub layers: BTreeMap<String, f64>,
    /// Extra facts for the detail line: name → JSON value.
    pub detail: BTreeMap<String, String>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, json: impl Into<String>) {
        self.detail.insert(key.to_string(), json.into());
    }

    /// Record the time of one operation of the untraced timed loop, then
    /// run the yardstick when due and, after each yardstick block, time
    /// one more `build` of the workload's set-up. Set-up samples thus
    /// spread over the whole run instead of one instant of host load;
    /// the operation after a block is already left out of the
    /// statistics, so the extra build disturbs nothing measured.
    pub fn op<T>(&mut self, secs: f64, build: impl FnOnce() -> T) -> Result<(), String> {
        self.op_ms.push(secs * 1e3);
        self.timed_s += secs;
        if self.yard.after_op(secs * 1e3)? {
            let t = Instant::now();
            let built = build();
            self.setup_s.push(t.elapsed().as_secs_f64());
            drop(built);
        }
        Ok(())
    }

    pub fn layer(&mut self, key: &str, value: f64) {
        self.layers.insert(key.to_string(), value);
    }
}
