//! The host-speed yardstick: a fixed, naive butterfly simulator that is
//! part of the benchmark, not of the program under test, timed between
//! the workload's operations.
//!
//! Shared hosts drift by tens of percent over tens of seconds (other
//! tenants' load changes how fast this vCPU runs, while it stays on the
//! CPU the whole time). An operation's time divided by the yardstick's
//! local median time cancels most of that drift; a change to the
//! program moves the numerator only.
//!
//! A workload that runs a worker pool pays, besides compute, a parked
//! thread's wake-up at every simulated step; on a virtual host that
//! cost moves with the host's load, often against the compute cost. Its
//! yardstick therefore runs the same way: one simulator whose transmit
//! phase is split over a pool of parked threads woken once per step
//! ([`Lockstep`]), with the process phase on the calling thread.

use crate::common;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Yardstick samples on each side of an operation that form its local
/// reference (two blocks).
const WINDOW: usize = 8;
const DEFAULT_LEVELS: usize = 10;
/// Yardstick runs per block.
const BLOCK: usize = 4;

/// One worker's share of the simulator: the link queues of nodes
/// `lo..hi` in every column, and the packets they sent this step.
struct Lane {
    lo: usize,
    hi: usize,
    queues: Vec<VecDeque<(u32, u32)>>,
    sent: Vec<(usize, usize, (u32, u32))>,
}

impl Lane {
    fn new(levels: usize, lo: usize, hi: usize) -> Mutex<Self> {
        Mutex::new(Lane {
            lo,
            hi,
            queues: (0..2 * levels * (hi - lo) * 2)
                .map(|_| VecDeque::new())
                .collect(),
            sent: Vec::new(),
        })
    }

    fn queue(&mut self, col: usize, node: usize, port: usize) -> &mut VecDeque<(u32, u32)> {
        let span = self.hi - self.lo;
        &mut self.queues[(col * span + node - self.lo) * 2 + port]
    }

    /// The transmit phase of one step over this lane's links.
    fn transmit(&mut self, levels: usize) {
        for col in 0..2 * levels {
            let bit = levels - 1 - col % levels;
            for node in self.lo..self.hi {
                for port in 0..2 {
                    if let Some(p) = self.queue(col, node, port).pop_front() {
                        self.sent
                            .push((col + 1, (node & !(1 << bit)) | (port << bit), p));
                    }
                }
            }
        }
    }
}

/// One permutation routed with random intermediates through a doubled
/// butterfly(2,`levels`), per-link FIFO queues, one packet per link per
/// step. The link queues are split by node over `lanes`; `transmit`
/// runs one step's transmit phase on every lane, and arrivals are
/// processed on the calling thread. Returns `(steps, delivered)`.
fn route(levels: usize, seed: u64, lanes: &[Mutex<Lane>], transmit: impl Fn()) -> (u64, u64) {
    let width = 1 << levels;
    let span = width / lanes.len();
    let mut s = seed;
    let mut rnd = move || {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (s >> 33) as usize
    };
    let mut perm: Vec<usize> = (0..width).collect();
    for i in (1..width).rev() {
        perm.swap(i, rnd() % (i + 1));
    }
    // Arrivals as (column, node, (intermediate, destination)).
    let mut arrivals: Vec<(usize, usize, (u32, u32))> = (0..width)
        .map(|src| (0, src, ((rnd() % width) as u32, perm[src] as u32)))
        .collect();
    let (mut in_flight, mut steps, mut delivered) = (0usize, 0u64, 0u64);
    loop {
        {
            let mut lanes: Vec<_> = lanes.iter().map(lock).collect();
            for &(col, node, p) in &arrivals {
                if col == 2 * levels {
                    delivered += 1;
                    continue;
                }
                let target = if col < levels { p.0 } else { p.1 } as usize;
                let port = (target >> (levels - 1 - col % levels)) & 1;
                let lane = (node / span).min(lanes.len() - 1);
                lanes[lane].queue(col, node, port).push_back(p);
                in_flight += 1;
            }
        }
        arrivals.clear();
        if in_flight == 0 {
            return (steps, delivered);
        }
        transmit();
        for lane in lanes {
            let mut lane = lock(lane);
            in_flight -= lane.sent.len();
            arrivals.append(&mut lane.sent);
        }
        steps += 1;
    }
}

struct Gate {
    /// Bumped once per step; workers wake on the change.
    epoch: u64,
    /// Workers that have not finished the current step.
    pending: usize,
    shutdown: bool,
}

struct Shared {
    levels: usize,
    gate: Mutex<Gate>,
    work: Condvar,
    done: Condvar,
    lanes: Vec<Mutex<Lane>>,
}

/// Persistent threads parked on a condvar between steps, one lane each;
/// the caller blocks until every lane has transmitted.
struct Lockstep {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Lockstep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Lockstep({} threads)", self.handles.len())
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Lockstep {
    fn new(threads: usize, levels: usize) -> Self {
        // Lanes of `span` nodes, the last taking the rest, as `route`
        // assigns nodes to lanes.
        let (width, span) = (1 << levels, (1 << levels) / threads);
        let lanes = (0..threads)
            .map(|w| {
                let hi = if w + 1 == threads {
                    width
                } else {
                    (w + 1) * span
                };
                Lane::new(levels, w * span, hi)
            })
            .collect();
        let shared = Arc::new(Shared {
            levels,
            gate: Mutex::new(Gate {
                epoch: 0,
                pending: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            lanes,
        });
        let handles = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut seen = 0;
                    loop {
                        {
                            let mut g = lock(&shared.gate);
                            while g.epoch == seen && !g.shutdown {
                                g = shared.work.wait(g).unwrap_or_else(|e| e.into_inner());
                            }
                            if g.shutdown {
                                return;
                            }
                            seen = g.epoch;
                        }
                        lock(&shared.lanes[w]).transmit(shared.levels);
                        let mut g = lock(&shared.gate);
                        g.pending -= 1;
                        if g.pending == 0 {
                            shared.done.notify_one();
                        }
                    }
                })
            })
            .collect();
        Lockstep { shared, handles }
    }

    /// One transmit phase on every lane; returns when all are done.
    fn step(&self) {
        {
            let mut g = lock(&self.shared.gate);
            g.epoch += 1;
            g.pending = self.handles.len();
        }
        self.shared.work.notify_all();
        let mut g = lock(&self.shared.gate);
        while g.pending > 0 {
            g = self.shared.done.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for Lockstep {
    fn drop(&mut self) {
        lock(&self.shared.gate).shutdown = true;
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Yardstick samples interleaved with a workload's timed operations.
#[derive(Debug, Default)]
pub struct Yardstick {
    /// Threads of the workload's worker pool (0 or 1: none). With more
    /// than one, each sample routes on a [`Lockstep`] pool of as many
    /// threads.
    pub threads: usize,
    /// Butterfly levels of the simulated network (0 counts as
    /// [`DEFAULT_LEVELS`]): larger workloads get a larger working set.
    pub levels: usize,
    /// Milliseconds per yardstick run.
    samples: Vec<f64>,
    /// For every operation, the number of yardstick samples taken
    /// before it.
    op_at: Vec<usize>,
    /// Run the yardstick after every `every`-th operation.
    every: usize,
    /// The pool of a pooled yardstick, started at its first sample.
    pool: Option<Lockstep>,
}

impl Yardstick {
    /// Time one yardstick run now.
    fn tick(&mut self) -> Result<(), String> {
        let seed = self.samples.len() as u64 % 4;
        let levels = if self.levels == 0 {
            DEFAULT_LEVELS
        } else {
            self.levels
        };
        if self.threads > 1 && self.pool.is_none() {
            self.pool = Some(Lockstep::new(self.threads, levels));
        }
        let t = Instant::now();
        let (steps, delivered) = match &self.pool {
            Some(pool) => route(levels, seed, &pool.shared.lanes, || pool.step()),
            None => {
                let lanes = [Lane::new(levels, 0, 1 << levels)];
                route(levels, seed, &lanes, || lock(&lanes[0]).transmit(levels))
            }
        };
        self.samples.push(common::ms(t.elapsed()));
        if delivered != 1 << levels || steps == 0 {
            return Err("yardstick simulator lost packets".into());
        }
        Ok(())
    }

    /// Record one timed operation of `op_ms`, ticking when due. Ticks
    /// come in blocks of [`BLOCK`] after every `every`-th operation; the
    /// cadence is set from the first operation so that the yardstick
    /// costs about a quarter of the operations' time.
    /// Returns whether a block ran.
    pub fn after_op(&mut self, op_ms: f64) -> Result<bool, String> {
        if self.samples.is_empty() {
            self.block()?;
        }
        if self.every == 0 {
            let ratio = BLOCK as f64 * self.samples[0] / op_ms.max(1e-6);
            self.every = (4.0 * ratio).ceil().clamp(1.0, 256.0) as usize;
        }
        self.op_at.push(self.samples.len());
        let due = self.op_at.len().is_multiple_of(self.every);
        if due {
            self.block()?;
        }
        Ok(due)
    }

    fn block(&mut self) -> Result<(), String> {
        (0..BLOCK).try_for_each(|_| self.tick())
    }

    /// Each operation's time in units of its local yardstick median,
    /// leaving out the operation right after each block: the yardstick
    /// has just evicted its caches, a cost the program does not have.
    /// Operations long enough to get a block after each one (at least 16
    /// yardstick runs) are all kept: for them the eviction is noise.
    pub fn relative(&self, op_ms: &[f64]) -> Vec<f64> {
        op_ms
            .iter()
            .zip(&self.op_at)
            .enumerate()
            .filter(|(i, _)| self.every == 1 || !i.is_multiple_of(self.every))
            .map(|(_, (&ms, &at))| {
                let lo = at.saturating_sub(WINDOW);
                let hi = (at + WINDOW).min(self.samples.len());
                ms / common::median(&self.samples[lo..hi])
            })
            .collect()
    }

    /// Quantile `q` of the relative times, robust to bursts of host
    /// noise: the median, over consecutive windows of `window`
    /// operations, of each window's own quantile. `window == 0` takes
    /// the quantile over the whole run.
    pub fn windowed_quantile(rel: &[f64], q: f64, window: usize) -> f64 {
        if window == 0 || rel.len() < window {
            return common::quantile(rel, q);
        }
        let per_window: Vec<f64> = rel
            .chunks_exact(window)
            .map(|w| common::quantile(w, q))
            .collect();
        common::median(&per_window)
    }

    /// The tail quantile `q` of the operations in yardstick units, per
    /// window of `window` operations (0 = the whole run), the median over
    /// windows. Serial workloads divide each operation by its local
    /// yardstick median ([`Self::relative`], [`Self::windowed_quantile`]).
    /// A pooled workload's tail is made of wake-up stalls whose rate
    /// follows the host's load, and its yardstick stalls the same way;
    /// so each window's quantile of operation times is divided by the
    /// same quantile of the yardstick samples around that window.
    pub fn tail(&self, op_ms: &[f64], q: f64, window: usize) -> f64 {
        if self.pool.is_none() {
            return Self::windowed_quantile(&self.relative(op_ms), q, window);
        }
        let window = if window == 0 || op_ms.len() < window {
            op_ms.len()
        } else {
            window
        };
        let per_window: Vec<f64> = (0..op_ms.len() / window)
            .map(|w| {
                let ops = w * window..(w + 1) * window;
                let kept: Vec<f64> = ops
                    .clone()
                    .filter(|i| self.every == 1 || !i.is_multiple_of(self.every))
                    .map(|i| op_ms[i])
                    .collect();
                let lo = self.op_at[ops.start].saturating_sub(WINDOW);
                let hi = (self.op_at[ops.end - 1] + WINDOW).min(self.samples.len());
                common::quantile(&kept, q) / common::quantile(&self.samples[lo..hi], q)
            })
            .collect();
        common::median(&per_window)
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}
