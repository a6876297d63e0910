//! Theorems 3.2 and 3.3: PRAM emulation on the n×n mesh.
//!
//! The §3.3 emulation has exactly two phases per PRAM step (the paper's
//! improvement over Karlin–Upfal's four): processor `i` sends its request
//! straight to module `h(addr)` with the three-stage routing of §3.4
//! (`2n + o(n)` w.h.p.), and read replies travel straight back the same
//! way — `4n + o(n)` per EREW step (Theorem 3.2).
//!
//! Under a *d-local* request pattern (every request's module within
//! Manhattan distance `d` of its processor) the same algorithm, with the
//! stage-1 slice capped at `O(d)` rows and a direct (locality-preserving)
//! address map, finishes in `6d + o(d)` (Theorem 3.3). This emulator
//! therefore supports two address mappings:
//!
//! * [`MeshMapping::Hashed`] — the Karlin–Upfal hash, the general case;
//! * [`MeshMapping::Direct`] — cell `a` lives at node `a` (requires
//!   `address_space ≤ n²`), the locality experiments' map.
//!
//! Reads are *not* combined on the mesh (the paper treats CRCW here as
//! "the same algorithm plus the combining trick" and analyses only EREW;
//! we keep the mesh emulator faithful to §3 — hot-spot reads serialise at
//! the module, which the CRCW tables show by contrast with the leveled
//! emulator). Correctness for concurrent accesses is still exact because
//! modules serve batches with read-before-write semantics.

use crate::config::{EmuReport, EmulatorConfig, StepStats};
use crate::memory::{ModuleArray, ModuleRequest};
use lnpram_hash::{HashFamily, PolyHash};
use lnpram_math::rng::SeedSeq;
use lnpram_pram::model::{AccessMode, MemOp, PramProgram};
use lnpram_routing::mesh::{
    default_block_rows, default_slice_rows, mesh_engine, MeshAlgorithm, MeshRouter,
};
use lnpram_shard::AnyEngine;
use lnpram_simnet::{Discipline, Outbox, Packet, Protocol, SimConfig};
use lnpram_topology::{Mesh, Network};
use rand::Rng;

/// How shared addresses map to mesh nodes.
#[derive(Debug, Clone)]
pub enum MeshMapping {
    /// Karlin–Upfal hashing onto the n² modules (the general emulation).
    Hashed(PolyHash),
    /// Identity map: address `a` lives at node `a` (locality experiments).
    Direct,
}

impl MeshMapping {
    /// The module node for `addr`.
    pub fn module_of(&self, addr: u64) -> usize {
        match self {
            MeshMapping::Hashed(h) => h.eval(addr) as usize,
            MeshMapping::Direct => addr as usize,
        }
    }
}

/// The PRAM emulator on the n×n mesh (Theorems 3.2/3.3).
pub struct MeshPramEmulator {
    mesh: Mesh,
    cfg: EmulatorConfig,
    family: HashFamily,
    mapping: MeshMapping,
    slice_rows: usize,
    /// `Some(block_rows)` switches both routing phases to the
    /// constant-queue three-stage variant (Theorem 3.2's O(1)-queue
    /// refinement); `None` uses the plain three-stage algorithm.
    block_rows: Option<usize>,
    modules: ModuleArray,
    seq: SeedSeq,
    hash_epoch: u64,
    report: EmuReport,
    /// One persistent engine serves both routing phases (same mesh, same
    /// discipline); recycled with `reset` per phase. Serial or sharded
    /// into row bands per [`EmulatorConfig::shards`].
    engine: AnyEngine,
    /// `(value, proc)` of every request, indexed by request id (reads
    /// hold a placeholder) — refilled each attempt, capacity kept.
    write_vals: Vec<(u64, usize)>,
}

impl MeshPramEmulator {
    /// Hashed-mapping emulator on an `n×n` mesh for `address_space` cells.
    pub fn new(n: usize, mode: AccessMode, address_space: u64, cfg: EmulatorConfig) -> Self {
        let mesh = Mesh::square(n);
        let modules = mesh.num_nodes() as u64;
        // The §3 mesh bound scales with n (per routing phase 2n+o(n)); the
        // hash degree follows §2.1 with L = the mesh diameter 2n−2.
        let family = match cfg.hash_degree_override {
            Some(s_deg) => HashFamily::new(address_space, modules, s_deg.max(1)),
            None => HashFamily::for_diameter(
                address_space,
                modules,
                mesh.diameter().max(1),
                cfg.hash_degree_factor.max(1),
            ),
        };
        let seq = SeedSeq::new(cfg.seed);
        let hash = family.sample(&mut seq.child(0).rng());
        // Same construction as `MeshRoutingSession` (row bands on the
        // sharded path), built once and recycled per phase.
        let engine = mesh_engine(
            &mesh,
            SimConfig {
                discipline: Discipline::FurthestFirst,
                shards: cfg.shards,
                ..Default::default()
            },
        );
        MeshPramEmulator {
            mesh,
            cfg,
            family,
            mapping: MeshMapping::Hashed(hash),
            slice_rows: default_slice_rows(n),
            block_rows: None,
            modules: ModuleArray::new(mesh.num_nodes(), mode),
            seq,
            hash_epoch: 0,
            report: EmuReport::default(),
            engine,
            write_vals: Vec::new(),
        }
    }

    /// Locality emulator (Theorem 3.3): direct address map and slice
    /// height capped at `d` rows. `address_space ≤ n²` required.
    pub fn new_local(
        n: usize,
        mode: AccessMode,
        address_space: u64,
        d: usize,
        cfg: EmulatorConfig,
    ) -> Self {
        let mut emu = Self::new(n, mode, address_space, cfg);
        assert!(address_space <= (n * n) as u64, "direct map needs M <= n^2");
        emu.mapping = MeshMapping::Direct;
        emu.slice_rows = default_slice_rows(n).min(d.max(1));
        emu
    }

    /// Switch to the constant-queue routing variant (Theorem 3.2's O(1)
    /// queue claim) with destination blocks of `⌈log₂ n⌉` rows.
    #[must_use]
    pub fn with_const_queue(mut self) -> Self {
        self.block_rows = Some(default_block_rows(self.n()));
        self
    }

    /// Side length n.
    pub fn n(&self) -> usize {
        self.mesh.rows()
    }

    /// The normalisation constant of Theorem 3.2 (`4n + o(n)` per step):
    /// report `mean_step_time() / n` against 4.
    pub fn per_n(&self) -> f64 {
        self.report.mean_step_time() / self.n() as f64
    }

    /// Module node for `addr` under the current mapping.
    pub fn module_of(&self, addr: u64) -> usize {
        self.mapping.module_of(addr)
    }

    /// Direct read of the emulated memory.
    pub fn peek(&self, addr: u64) -> u64 {
        self.modules.peek(self.module_of(addr), addr)
    }

    /// Full memory image for oracle diffing.
    pub fn memory_image(&self, address_space: u64) -> Vec<u64> {
        (0..address_space).map(|a| self.peek(a)).collect()
    }

    /// The accumulated report.
    pub fn report(&self) -> &EmuReport {
        &self.report
    }

    /// Run `prog` to completion, mirroring the reference machine.
    pub fn run_program<P: PramProgram>(&mut self, prog: &mut P, max_steps: usize) -> EmuReport {
        assert!(prog.processors() <= self.mesh.num_nodes());
        assert!(prog.address_space() <= self.family.address_space);
        for (addr, val) in prog.initial_memory() {
            let m = self.module_of(addr);
            self.modules.poke(m, addr, val);
        }
        let p = prog.processors();
        let mut last_read: Vec<Option<u64>> = vec![None; p];
        for step in 0..max_steps {
            let ops: Vec<MemOp> = (0..p).map(|i| prog.op(i, step, last_read[i])).collect();
            if ops.iter().all(|o| matches!(o, MemOp::Halt)) {
                break;
            }
            let reads = self.emulate_step(&ops, step as u64);
            for (proc, value) in reads {
                last_read[proc] = Some(value);
            }
            self.report.pram_steps += 1;
        }
        self.report.clone()
    }

    /// Emulate one PRAM step; returns `(proc, value)` per read.
    pub fn emulate_step(&mut self, ops: &[MemOp], step_label: u64) -> Vec<(usize, u64)> {
        #[derive(Clone, Copy)]
        struct Req {
            proc: usize,
            addr: u64,
            write: Option<u64>,
        }
        let requests: Vec<Req> = ops
            .iter()
            .enumerate()
            .filter_map(|(proc, op)| match *op {
                MemOp::Read(addr) => Some(Req {
                    proc,
                    addr,
                    write: None,
                }),
                MemOp::Write(addr, v) => Some(Req {
                    proc,
                    addr,
                    write: Some(v),
                }),
                _ => None,
            })
            .collect();
        let mut stats = StepStats {
            requests: requests.len() as u32,
            ..Default::default()
        };
        if requests.is_empty() {
            self.report.steps.push(stats);
            return Vec::new();
        }

        let n = self.n() as u32;
        let step_seq = self.seq.child(1).child(step_label);
        let alg = match self.block_rows {
            Some(block_rows) => MeshAlgorithm::ThreeStageConstQueue {
                slice_rows: self.slice_rows,
                block_rows,
            },
            None => MeshAlgorithm::ThreeStage {
                slice_rows: self.slice_rows,
            },
        };
        // via2 for the constant-queue variant: random row inside the
        // destination's block, destination's column (Corollary 3.3).
        let (mesh, block_rows) = (self.mesh, self.block_rows);
        let block_via2 = move |dest: usize, rng: &mut rand::rngs::StdRng| -> u32 {
            match block_rows {
                Some(b) => {
                    let (dr, dc) = mesh.coords(dest);
                    let lo = dr - dr % b;
                    let hi = (lo + b).min(mesh.rows());
                    mesh.node_at(rng.gen_range(lo..hi), dc) as u32
                }
                None => lnpram_simnet::packet::NO_NODE,
            }
        };
        let mut attempt = 0u32;
        loop {
            let budget = self.cfg.budget_factor * 4 * n * (1 << attempt.min(8));
            let attempt_seq = step_seq.child(attempt as u64);
            self.modules.clear_batches();

            // ---- Request phase (three-stage routing to modules) ----
            self.engine.reset();
            self.engine.set_max_steps(budget);
            let mut via_rng = attempt_seq.child(0).rng();
            self.write_vals.clear();
            for (id, req) in requests.iter().enumerate() {
                let module = self.module_of(req.addr) as u32;
                let (r, c) = self.mesh.coords(req.proc);
                let lo = r - r % self.slice_rows;
                let hi = (lo + self.slice_rows).min(self.mesh.rows());
                let via = self.mesh.node_at(via_rng.gen_range(lo..hi), c) as u32;
                let mut pkt = Packet::new(id as u32, req.proc as u32, module)
                    .with_via(via)
                    .with_via2(block_via2(module as usize, &mut via_rng))
                    .with_tag(req.addr);
                pkt.phase = 0;
                pkt.hop = u8::from(req.write.is_some()); // request kind flag
                self.write_vals.push((req.write.unwrap_or(0), req.proc));
                self.engine.inject(req.proc, pkt);
            }
            let Self {
                modules,
                engine,
                write_vals,
                ..
            } = self;
            let mut proto = MeshRequestProtocol {
                router: MeshRouter::new(mesh, alg),
                modules,
                write_vals,
            };
            let out = engine.run(&mut proto);
            if !out.completed {
                attempt += 1;
                assert!(
                    attempt <= self.cfg.max_rehashes,
                    "exceeded max_rehashes on the mesh"
                );
                self.rehash(&mut stats);
                continue;
            }
            stats.request_steps = out.metrics.routing_time;
            stats.max_queue = stats.max_queue.max(out.metrics.max_queue as u32);

            // ---- Service ----
            let (reads, busiest) = self.modules.serve_batches();
            stats.service_steps = busiest;

            // ---- Reply phase (three-stage routing back) ----
            let mut deliveries = Vec::with_capacity(requests.len());
            if !reads.is_empty() {
                self.engine.reset();
                self.engine.set_max_steps(u32::MAX);
                let mut via_rng = attempt_seq.child(1).rng();
                for (i, &(module, addr, trail, _)) in reads.iter().enumerate() {
                    let (r, c) = self.mesh.coords(module);
                    let lo = r - r % self.slice_rows;
                    let hi = (lo + self.slice_rows).min(self.mesh.rows());
                    let via = self.mesh.node_at(via_rng.gen_range(lo..hi), c) as u32;
                    // Reply goes to the requesting processor (trail).
                    let mut pkt = Packet::new(i as u32, module as u32, trail)
                        .with_via(via)
                        .with_via2(block_via2(trail as usize, &mut via_rng))
                        .with_tag(addr);
                    pkt.phase = 0;
                    self.engine.inject(module, pkt);
                }
                let mut proto = MeshReplyProtocol {
                    router: MeshRouter::new(mesh, alg),
                    reads,
                    deliveries: &mut deliveries,
                };
                let out = self.engine.run(&mut proto);
                debug_assert!(out.completed);
                stats.reply_steps = out.metrics.routing_time;
                stats.max_queue = stats.max_queue.max(out.metrics.max_queue as u32);
            }

            self.report.steps.push(stats);
            return deliveries;
        }
    }

    fn rehash(&mut self, stats: &mut StepStats) {
        self.hash_epoch += 1;
        let hash = self
            .family
            .sample(&mut self.seq.child(2).child(self.hash_epoch).rng());
        // Direct mapping never rehashes into a hash map — keep locality.
        if matches!(self.mapping, MeshMapping::Hashed(_)) {
            let cells = self.modules.drain_cells();
            let batches = cells.len().div_ceil(self.mesh.num_nodes().max(1)) as u64;
            self.report.remap_steps += batches * 4 * self.n() as u64 + self.n() as u64;
            self.mapping = MeshMapping::Hashed(hash);
            for (addr, val) in cells {
                let m = self.module_of(addr);
                self.modules.poke(m, addr, val);
            }
        } else {
            // With the direct map a timeout can only be congestion;
            // charge a retry without remapping.
            self.report.remap_steps += self.n() as u64;
        }
        stats.rehashes += 1;
        self.report.rehashes += 1;
    }
}

/// Request routing: delegate movement to [`MeshRouter`]; at the module,
/// buffer instead of delivering.
struct MeshRequestProtocol<'a> {
    router: MeshRouter,
    modules: &'a mut ModuleArray,
    write_vals: &'a [(u64, usize)],
}

impl Protocol for MeshRequestProtocol<'_> {
    fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox) {
        if node == pkt.dest as usize {
            let addr = pkt.tag;
            if pkt.hop == 1 {
                let (value, proc) = self.write_vals[pkt.id as usize];
                self.modules
                    .buffer(node, ModuleRequest::Write { addr, value, proc });
            } else {
                self.modules.buffer(
                    node,
                    ModuleRequest::Read {
                        addr,
                        trail: pkt.src,
                    },
                );
            }
            out.deliver(pkt);
            return;
        }
        self.router.on_packet(node, pkt, step, out);
    }
}

/// Reply routing: plain three-stage delivery back to the requester.
struct MeshReplyProtocol<'a> {
    router: MeshRouter,
    /// The served reads; a reply packet's id indexes its read.
    reads: &'a [(usize, u64, u32, u64)],
    deliveries: &'a mut Vec<(usize, u64)>,
}

impl Protocol for MeshReplyProtocol<'_> {
    fn on_packet(&mut self, node: usize, pkt: Packet, step: u32, out: &mut Outbox) {
        if node == pkt.dest as usize {
            let value = self.reads[pkt.id as usize].3;
            self.deliveries.push((node, value));
            out.deliver(pkt);
            return;
        }
        self.router.on_packet(node, pkt, step, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_pram::machine::PramMachine;
    use lnpram_pram::model::WritePolicy;
    use lnpram_pram::programs::{Histogram, OddEvenSort, PermutationTraffic, PrefixSum};
    use lnpram_routing::workloads;

    #[test]
    fn prefix_sum_matches_reference_on_mesh() {
        let values: Vec<u64> = (0..16).map(|i| i * 3 + 1).collect();
        let mut prog = PrefixSum::new(values.clone());
        let space = prog.address_space();
        let mut emu = MeshPramEmulator::new(4, AccessMode::Erew, space, EmulatorConfig::default());
        emu.run_program(&mut prog, 10_000);
        let mut oracle = PramMachine::new(space, AccessMode::Erew);
        oracle.run(&mut PrefixSum::new(values), 10_000);
        assert_eq!(emu.memory_image(space), oracle.memory());
    }

    #[test]
    fn odd_even_sort_matches_reference_on_mesh() {
        let values: Vec<u64> = (0..9).map(|i| (97 * i + 13) % 50).collect();
        let mut prog = OddEvenSort::new(values.clone());
        let space = prog.address_space();
        let mut emu = MeshPramEmulator::new(3, AccessMode::Erew, space, EmulatorConfig::default());
        emu.run_program(&mut prog, 10_000);
        assert!(prog.verify(&emu.memory_image(space)));
    }

    #[test]
    fn crcw_histogram_on_mesh() {
        let inputs: Vec<u64> = (0..16).map(|i| i % 5).collect();
        let mut prog = Histogram::new(inputs.clone(), 5);
        let space = prog.address_space();
        let mut emu = MeshPramEmulator::new(
            4,
            AccessMode::Crcw(WritePolicy::Sum),
            space,
            EmulatorConfig::default(),
        );
        emu.run_program(&mut prog, 1000);
        assert!(prog.verify(&emu.memory_image(space)));
    }

    #[test]
    fn step_time_is_small_multiple_of_n() {
        // Theorem 3.2: 4n + o(n). At n = 16 expect well below 8n.
        let n = 16usize;
        let mut rng = SeedSeq::new(5).rng();
        let perm = workloads::random_permutation(n * n, &mut rng);
        let mut prog = PermutationTraffic::new(perm, 3);
        let mut emu = MeshPramEmulator::new(
            n,
            AccessMode::Erew,
            prog.address_space(),
            EmulatorConfig::default(),
        );
        let report = emu.run_program(&mut prog, 1000);
        assert_eq!(report.rehashes, 0);
        let per_n = emu.per_n();
        assert!(per_n < 8.0, "mesh emulation cost {per_n:.2}n");
    }

    #[test]
    fn local_requests_cost_scales_with_d() {
        // Theorem 3.3 shape: with a d-local pattern and direct mapping,
        // the step time tracks d, not n.
        let n = 16usize;
        let mesh = Mesh::square(n);
        let run = |d: usize| {
            let mut rng = SeedSeq::new(9).child(d as u64).rng();
            let dests = workloads::local_permutation(&mesh, d, &mut rng);
            let mut prog = PermutationTraffic::new(dests, 3);
            let mut emu = MeshPramEmulator::new_local(
                n,
                AccessMode::Erew,
                prog.address_space(),
                d,
                EmulatorConfig::default(),
            );
            emu.run_program(&mut prog, 1000);
            emu.report().mean_step_time()
        };
        let t2 = run(2);
        let t8 = run(8);
        assert!(
            t2 < t8,
            "more local requests must be faster: d=2 → {t2:.1}, d=8 → {t8:.1}"
        );
        // d=2 should be far below a full 4n traversal.
        assert!(t2 < 2.0 * n as f64, "d=2 cost {t2:.1} vs n={n}");
    }

    #[test]
    fn const_queue_variant_matches_reference_and_keeps_queues_small() {
        let values: Vec<u64> = (0..16).map(|i| (i * 7 + 3) % 23).collect();
        let mut prog = PrefixSum::new(values.clone());
        let space = prog.address_space();
        let mut emu = MeshPramEmulator::new(4, AccessMode::Erew, space, EmulatorConfig::default())
            .with_const_queue();
        let rep = emu.run_program(&mut prog, 10_000);
        let mut oracle = PramMachine::new(space, AccessMode::Erew);
        oracle.run(&mut PrefixSum::new(values), 10_000);
        assert_eq!(emu.memory_image(space), oracle.memory());
        let worst_queue = rep.steps.iter().map(|s| s.max_queue).max().unwrap_or(0);
        assert!(
            worst_queue <= 8,
            "const-queue emulation saw queue {worst_queue}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let perm: Vec<usize> = (0..16).map(|i| (i * 5 + 2) % 16).collect();
            let mut prog = PermutationTraffic::new(perm, 2);
            let mut emu = MeshPramEmulator::new(
                4,
                AccessMode::Erew,
                prog.address_space(),
                EmulatorConfig {
                    seed: 11,
                    ..Default::default()
                },
            );
            let rep = emu.run_program(&mut prog, 100);
            (rep.network_steps(), emu.memory_image(16))
        };
        assert_eq!(run(), run());
    }
}
