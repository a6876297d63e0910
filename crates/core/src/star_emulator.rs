//! Corollaries 2.3 and 2.5: PRAM emulation on the physical n-star graph.
//!
//! Every node of the n-star hosts one processor *and* one memory module
//! (the paper's parallel model). A PRAM step routes requests by
//! Algorithm 2.2 — random intermediate node along the canonical oblivious
//! path, then on to module `h(addr)` — and read replies retrace the
//! request trees backward (SWAP edges are involutions, so the reverse
//! port equals the forward port and the star needs no separate reply
//! network).
//!
//! **Combining safety.** On the leveled networks the request paths move
//! strictly forward by column, so pending entries can never form a cycle.
//! On the star, two packets travelling toward *different random
//! intermediates* could each get absorbed into the other's trail —
//! a deadlock. The canonical phase-1 route (toward the module), however,
//! decreases the distance to the module by exactly one per hop, so
//! phase-1 trails are acyclic. We therefore keep phase-0 trails (toward
//! the intermediate) *private*: their entries are opened without the
//! combining index. At the intermediate node the phase-0 entry joins the
//! shared phase-1 tree through a [`Source::Chain`] link holding its
//! handle; the reply unwinds the shared tree and then each private trail.
//! Combining across requesters happens exactly where it is safe — the
//! convergent phase — which is also where the hot-spot traffic
//! concentrates. Only phase-1 reads of an address another read of the
//! step shares go through the index; with combining off every entry is
//! private.
//!
//! **Replies.** A forwarded read carries its entry's handle in
//! `Packet::via2`, and every arrival records `(port back to the sender,
//! sender's handle)` — the port found once, at registration, with
//! `Network::port_to`. The module-column entry's handle is the read's
//! `trail`, so a reply packet carries the handle to take in `via` and the
//! value in `tag`, and unwinds the tree with no lookups.

use crate::combining::{Handle, PendingTables, SharedReads, Source};
use crate::config::{EmuReport, EmulatorConfig, StepStats};
use crate::memory::{ModuleArray, ModuleRequest};
use lnpram_hash::{HashFamily, PolyHash};
use lnpram_math::rng::SeedSeq;
use lnpram_pram::model::{AccessMode, MemOp, PramProgram};
use lnpram_routing::star::star_engine;
use lnpram_shard::AnyEngine;
use lnpram_simnet::{Outbox, Packet, Protocol, SimConfig};
use lnpram_topology::{Network, StarGraph};
use rand::Rng;

/// The PRAM emulator on the n-star graph (Corollaries 2.3/2.5).
pub struct StarPramEmulator {
    star: StarGraph,
    cfg: EmulatorConfig,
    family: HashFamily,
    hash: PolyHash,
    modules: ModuleArray,
    tables: PendingTables,
    seq: SeedSeq,
    hash_epoch: u64,
    report: EmuReport,
    /// One persistent engine serves both phases (the star is its own
    /// reply network); recycled with `reset` per phase. Serial or
    /// sharded (greedy edge-cut — the star has no level/row structure)
    /// per [`EmulatorConfig::shards`].
    engine: AnyEngine,
    /// `(value, proc)` of every request, indexed by request id (reads
    /// hold a placeholder) — refilled each attempt, capacity kept.
    write_vals: Vec<(u64, usize)>,
    /// Which of this step's reads can combine, likewise reused.
    shared: SharedReads,
}

impl StarPramEmulator {
    /// Emulator on the n-star for programs over `address_space` cells.
    pub fn new(n: usize, mode: AccessMode, address_space: u64, cfg: EmulatorConfig) -> Self {
        let star = StarGraph::new(n);
        let family = match cfg.hash_degree_override {
            Some(s_deg) => HashFamily::new(address_space, star.num_nodes() as u64, s_deg.max(1)),
            None => HashFamily::for_diameter(
                address_space,
                star.num_nodes() as u64,
                star.diameter().max(1),
                cfg.hash_degree_factor.max(1),
            ),
        };
        let seq = SeedSeq::new(cfg.seed);
        let hash = family.sample(&mut seq.child(0).rng());
        // Same construction as `StarRoutingSession` (greedy edge-cut on
        // the sharded path), built once and recycled per phase.
        let engine = star_engine(
            &star,
            SimConfig {
                discipline: cfg.discipline,
                shards: cfg.shards,
                ..Default::default()
            },
        );
        StarPramEmulator {
            star,
            cfg,
            family,
            hash,
            modules: ModuleArray::new(star.num_nodes(), mode),
            tables: PendingTables::new(star.num_nodes()),
            seq,
            hash_epoch: 0,
            report: EmuReport::default(),
            engine,
            write_vals: Vec::new(),
            shared: SharedReads::default(),
        }
    }

    /// Number of processors (= modules = n!).
    pub fn processors(&self) -> usize {
        self.star.num_nodes()
    }

    /// Star-graph diameter `⌊3(n−1)/2⌋` — the Õ(n) normalisation.
    pub fn diameter(&self) -> usize {
        self.star.diameter()
    }

    /// Module owning `addr` under the current hash.
    pub fn module_of(&self, addr: u64) -> usize {
        self.hash.eval(addr) as usize
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
        assert!(prog.processors() <= self.processors());
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

        // With combining off no read can combine, so none is marked.
        let combining = self.cfg.combining;
        self.shared.mark(
            requests
                .iter()
                .map(|r| (combining && r.write.is_none()).then_some(r.addr)),
        );
        let step_seq = self.seq.child(1).child(step_label);
        let mut attempt = 0u32;
        loop {
            // Request path length ≤ 2×diameter (via + dest legs).
            let budget =
                self.cfg.budget_factor * 2 * self.diameter() as u32 * (1 << attempt.min(8));
            let attempt_seq = step_seq.child(attempt as u64);
            self.tables.reset();
            self.modules.clear_batches();

            // ---- Request phase (Algorithm 2.2 + combining) ----
            self.engine.reset();
            self.engine.set_max_steps(budget);
            let mut via_rng = attempt_seq.child(0).rng();
            self.write_vals.clear();
            for (id, req) in requests.iter().enumerate() {
                let module = self.module_of(req.addr) as u32;
                let via = via_rng.gen_range(0..self.processors()) as u32;
                let mut pkt = Packet::new(id as u32, req.proc as u32, module)
                    .with_via(via)
                    .with_tag(req.addr);
                pkt.hop = u8::from(req.write.is_some()); // request-kind flag
                self.write_vals.push((req.write.unwrap_or(0), req.proc));
                self.engine.inject(req.proc, pkt);
            }
            {
                let Self {
                    star,
                    tables,
                    modules,
                    engine,
                    write_vals,
                    shared,
                    ..
                } = self;
                let mut proto = StarRequestProtocol {
                    star: *star,
                    tables,
                    modules,
                    write_vals,
                    shared,
                };
                let out = engine.run(&mut proto);
                if !out.completed {
                    attempt += 1;
                    assert!(
                        attempt <= self.cfg.max_rehashes,
                        "exceeded max_rehashes on the star"
                    );
                    self.rehash(&mut stats);
                    continue;
                }
                stats.request_steps = out.metrics.routing_time;
                stats.max_queue = stats.max_queue.max(out.metrics.max_queue as u32);
            }
            stats.combined = self.tables.combined();

            // ---- Service ----
            let (reads, busiest) = self.modules.serve_batches();
            stats.service_steps = busiest;

            // ---- Reply phase (retrace trees; SWAP ports are involutions) ----
            let mut deliveries = Vec::with_capacity(requests.len());
            if !reads.is_empty() {
                self.engine.reset();
                self.engine.set_max_steps(u32::MAX);
                // The read's trail is the handle of its entry at the
                // module: the reply carries it in `via`, the value in `tag`.
                for &(module, _, handle, value) in reads {
                    let pkt = Packet::new(0, 0, 0).with_via(handle).with_tag(value);
                    self.engine.inject(module, pkt);
                }
                let Self { tables, engine, .. } = self;
                let mut proto = StarReplyProtocol {
                    tables,
                    deliveries: &mut deliveries,
                };
                let out = engine.run(&mut proto);
                debug_assert!(out.completed);
                stats.reply_steps = out.metrics.routing_time;
                stats.max_queue = stats.max_queue.max(out.metrics.max_queue as u32);
            }
            debug_assert!(self.tables.all_clear(), "unconsumed pending entries");

            self.report.steps.push(stats);
            return deliveries;
        }
    }

    fn rehash(&mut self, stats: &mut StepStats) {
        self.hash_epoch += 1;
        self.hash = self
            .family
            .sample(&mut self.seq.child(2).child(self.hash_epoch).rng());
        let cells = self.modules.drain_cells();
        let batches = cells.len().div_ceil(self.processors().max(1)) as u64;
        self.report.remap_steps += batches * 2 * self.diameter() as u64 + self.diameter() as u64;
        for (addr, val) in cells {
            let m = self.hash.eval(addr) as usize;
            self.modules.poke(m, addr, val);
        }
        stats.rehashes += 1;
        self.report.rehashes += 1;
    }
}

/// Request protocol: Algorithm 2.2 with phase-aware combining (see the
/// module docs for why phase-0 trails stay private).
struct StarRequestProtocol<'a> {
    star: StarGraph,
    tables: &'a mut PendingTables,
    modules: &'a mut ModuleArray,
    write_vals: &'a [(u64, usize)],
    shared: &'a SharedReads,
}

impl StarRequestProtocol<'_> {
    /// Record read `pkt` at `node` from `source`: its entry's handle, and
    /// whether it opened the entry (forward) or joined one (absorb). Only
    /// phase-1 reads another read of the step shares go through the
    /// index; phase-0 trails are private.
    fn enter(&mut self, node: usize, pkt: &Packet, source: Source) -> (Handle, bool) {
        if pkt.phase == 1 && self.shared.get(pkt.id) {
            self.tables.register(node, pkt.tag, source)
        } else {
            (self.tables.open(source), true)
        }
    }
}

impl Protocol for StarRequestProtocol<'_> {
    fn on_packet(&mut self, node: usize, mut pkt: Packet, step: u32, out: &mut Outbox) {
        let addr = pkt.tag;
        let is_write = pkt.hop == 1;

        if is_write {
            if pkt.phase == 0 && node == pkt.via as usize {
                pkt.phase = 1;
            }
            if pkt.phase == 1 && node == pkt.dest as usize {
                let (value, proc) = self.write_vals[pkt.id as usize];
                self.modules
                    .buffer(node, ModuleRequest::Write { addr, value, proc });
                out.deliver(pkt);
                return;
            }
            let target = if pkt.phase == 0 { pkt.via } else { pkt.dest } as usize;
            let port = self
                .star
                .canonical_next_port(node, target)
                .expect("target not yet reached");
            pkt.prev = node as u32;
            out.send(port, pkt);
            return;
        }

        // --- Reads ---
        let source = if step == 0 {
            Source::Local
        } else {
            // SWAP ports are involutions: the port back to the sender.
            let port = self
                .star
                .port_to(node, pkt.prev as usize)
                .expect("star is undirected");
            Source::Neighbor {
                port: port as u32,
                child: pkt.via2,
            }
        };
        let (mut handle, first) = self.enter(node, &pkt, source);
        if !first {
            out.absorb(pkt); // merged into the shared phase-1 tree
            return;
        }

        // Phase transition at the intermediate node: the private phase-0
        // trail joins (or opens) the phase-1 trail here via a chain link.
        if pkt.phase == 0 && node == pkt.via as usize {
            pkt.phase = 1;
            let (p1, first_p1) = self.enter(node, &pkt, Source::Chain(handle));
            if !first_p1 {
                out.absorb(pkt);
                return;
            }
            handle = p1;
        }

        if pkt.phase == 1 && node == pkt.dest as usize {
            let trail = handle;
            self.modules
                .buffer(node, ModuleRequest::Read { addr, trail });
            out.deliver(pkt);
            return;
        }
        let target = if pkt.phase == 0 { pkt.via } else { pkt.dest } as usize;
        let port = self
            .star
            .canonical_next_port(node, target)
            .expect("target not yet reached");
        pkt.prev = node as u32;
        pkt.via2 = handle;
        out.send(port, pkt);
    }
}

/// Reply protocol: unwind the shared tree, then every chained private
/// trail, delivering at `local` marks. A reply packet carries the handle
/// of the entry to take in `via` and the value read in `tag`.
struct StarReplyProtocol<'a> {
    tables: &'a mut PendingTables,
    deliveries: &'a mut Vec<(usize, u64)>,
}

impl StarReplyProtocol<'_> {
    fn process_trail(&mut self, node: usize, handle: Handle, pkt: Packet, out: &mut Outbox) {
        let entry = self.tables.take(handle);
        if entry.local {
            self.deliveries.push((node, pkt.tag));
        }
        let mut chains = entry.chains;
        while let Some((_, child)) = self.tables.next(&mut chains) {
            self.process_trail(node, child, pkt, out);
        }
        let mut fanout = entry.fanout;
        while let Some((port, child)) = self.tables.next(&mut fanout) {
            out.send(port as usize, pkt.with_via(child));
        }
    }
}

impl Protocol for StarReplyProtocol<'_> {
    fn on_packet(&mut self, node: usize, pkt: Packet, _step: u32, out: &mut Outbox) {
        let before = out.pending_sends();
        self.process_trail(node, pkt.via, pkt, out);
        if out.pending_sends() == before {
            out.deliver(pkt); // leaf: nothing forwarded
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnpram_pram::machine::PramMachine;
    use lnpram_pram::model::WritePolicy;
    use lnpram_pram::programs::{Broadcast, Histogram, PermutationTraffic, PrefixSum};
    use lnpram_routing::workloads;

    #[test]
    fn prefix_sum_matches_reference_on_4_star() {
        let values: Vec<u64> = (0..24).map(|i| i + 1).collect();
        let mut prog = PrefixSum::new(values.clone());
        let space = prog.address_space();
        let mut emu = StarPramEmulator::new(4, AccessMode::Erew, space, EmulatorConfig::default());
        emu.run_program(&mut prog, 10_000);
        let mut oracle = PramMachine::new(space, AccessMode::Erew);
        oracle.run(&mut PrefixSum::new(values), 10_000);
        assert_eq!(emu.memory_image(space), oracle.memory());
    }

    #[test]
    fn broadcast_hotspot_combines_on_star() {
        let mut prog = Broadcast::new(24, 2, 31);
        let space = prog.address_space();
        let mut emu = StarPramEmulator::new(4, AccessMode::Crew, space, EmulatorConfig::default());
        let report = emu.run_program(&mut prog, 1000);
        assert!(prog.verify(&emu.memory_image(space)));
        assert!(report.total_combined() > 0, "hot spot must combine");
        // Full read combining: the module's batch stays tiny on read steps.
        for s in report.steps.iter().filter(|s| s.combined > 0) {
            assert!(
                s.service_steps <= 2,
                "combining should collapse the batch, got {}",
                s.service_steps
            );
        }
    }

    #[test]
    fn crcw_histogram_on_star() {
        let inputs: Vec<u64> = (0..24).map(|i| i % 3).collect();
        let mut prog = Histogram::new(inputs, 3);
        let space = prog.address_space();
        let mut emu = StarPramEmulator::new(
            4,
            AccessMode::Crcw(WritePolicy::Sum),
            space,
            EmulatorConfig::default(),
        );
        emu.run_program(&mut prog, 1000);
        assert!(prog.verify(&emu.memory_image(space)));
    }

    #[test]
    fn permutation_traffic_slowdown_on_5_star() {
        // Corollary 2.3: Õ(n) per EREW step. Check a small multiple of
        // the diameter (request ≤ 2D, reply ≤ 2D ⇒ expect ≲ 6D).
        let mut rng = SeedSeq::new(3).rng();
        let perm = workloads::random_permutation(120, &mut rng);
        let mut prog = PermutationTraffic::new(perm, 3);
        let mut emu = StarPramEmulator::new(
            5,
            AccessMode::Erew,
            prog.address_space(),
            EmulatorConfig::default(),
        );
        let report = emu.run_program(&mut prog, 1000);
        assert_eq!(report.rehashes, 0);
        let c = report.slowdown_per_diameter(emu.diameter());
        assert!(c < 10.0, "star slowdown {c:.2}×diameter");
    }

    #[test]
    fn combining_off_is_correct_but_floods() {
        let mut prog = Broadcast::new(24, 1, 7);
        let space = prog.address_space();
        let mut emu = StarPramEmulator::new(
            4,
            AccessMode::Crew,
            space,
            EmulatorConfig {
                combining: false,
                ..Default::default()
            },
        );
        let report = emu.run_program(&mut prog, 1000);
        assert!(prog.verify(&emu.memory_image(space)));
        let max_service = report.steps.iter().map(|s| s.service_steps).max().unwrap();
        assert_eq!(max_service, 24, "uncombined hot spot floods the module");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let perm: Vec<usize> = (0..24).map(|i| (i * 7 + 3) % 24).collect();
            let mut prog = PermutationTraffic::new(perm, 2);
            let mut emu = StarPramEmulator::new(
                4,
                AccessMode::Erew,
                prog.address_space(),
                EmulatorConfig {
                    seed: 5,
                    ..Default::default()
                },
            );
            let rep = emu.run_program(&mut prog, 100);
            (rep.network_steps(), emu.memory_image(24))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn only_shared_addresses_are_indexed() {
        let mut emu = StarPramEmulator::new(4, AccessMode::Crew, 48, EmulatorConfig::default());
        for a in 0..48 {
            let m = emu.module_of(a);
            emu.modules.poke(m, a, 100 + a);
        }
        let ops: Vec<MemOp> = (0..24).map(|p| MemOp::Read(p as u64)).collect();
        let mut reads = emu.emulate_step(&ops, 0);
        reads.sort_unstable();
        let want: Vec<(usize, u64)> = (0..24).map(|p| (p, 100 + p as u64)).collect();
        assert_eq!(reads, want);
        assert_eq!(emu.tables.indexed_addrs().count(), 0);
        let hot = |p: usize| if p.is_multiple_of(3) { 30 } else { p as u64 };
        let ops: Vec<MemOp> = (0..24).map(|p| MemOp::Read(hot(p))).collect();
        let mut reads = emu.emulate_step(&ops, 1);
        reads.sort_unstable();
        let want: Vec<(usize, u64)> = (0..24).map(|p| (p, 100 + hot(p))).collect();
        assert_eq!(reads, want);
        let indexed: std::collections::BTreeSet<u64> = emu.tables.indexed_addrs().collect();
        assert_eq!(indexed, [30].into());
    }
}
