//! Golden schedules: every emulator's per-step statistics and the order
//! in which its read replies are delivered, pinned for seeded CRCW-Max
//! hot-spot scripts.
//!
//! Memory-image tests cannot see the schedule: which requests combine,
//! the order modules serve their batches and inject replies, or the
//! order reads are delivered. Those move `request_steps`, `reply_steps`
//! and `max_queue`, and these pins catch them. (A node's fan-out targets
//! are distinct neighbours on distinct links, and in these scenarios
//! reversing every fan-out and chain list leaves the schedule unchanged;
//! `combining.rs`'s differential test pins that order.)
//! `tests/golden/emulator_schedules.txt` holds one `== name` section per
//! scenario; a deliberate schedule change must re-record it.

use lnpram::prelude::*;
use rand::Rng;
use std::fmt::Write;

const MODE: AccessMode = AccessMode::Crcw(WritePolicy::Max);
const STEPS: u64 = 12;
const HOT_CELLS: u64 = 3;

/// Step `step`'s operations: 30% of processors aim at a few hot cells,
/// 25% of operations write, and one processor in eight idles.
fn ops(seed: u64, procs: usize, space: u64, step: u64) -> Vec<MemOp> {
    let mut rng = SeedSeq::new(seed).child(step).rng();
    (0..procs)
        .map(|_| {
            if rng.gen_range(0..8) == 0 {
                return MemOp::None;
            }
            let addr = if rng.gen_bool(0.3) {
                rng.gen_range(0..HOT_CELLS)
            } else {
                rng.gen_range(0..space)
            };
            if rng.gen_bool(0.25) {
                MemOp::Write(addr, rng.gen_range(0..1_000))
            } else {
                MemOp::Read(addr)
            }
        })
        .collect()
}

/// Step the script [`STEPS`] times through `step`, collecting each
/// step's reads in delivery order.
fn run(
    procs: usize,
    space: u64,
    mut step: impl FnMut(&[MemOp], u64) -> Vec<(usize, u64)>,
) -> Vec<Vec<(usize, u64)>> {
    (0..STEPS)
        .map(|s| step(&ops(7, procs, space, s), s))
        .collect()
}

/// Every step's statistics and its reads, one text line each.
fn render(reads: &[Vec<(usize, u64)>], rep: &EmuReport) -> String {
    let mut out = String::new();
    for (s, (st, r)) in rep.steps.iter().zip(reads).enumerate() {
        writeln!(
            out,
            "step {s}: requests={} request_steps={} reply_steps={} service_steps={} \
             combined={} max_queue={} rehashes={}",
            st.requests,
            st.request_steps,
            st.reply_steps,
            st.service_steps,
            st.combined,
            st.max_queue,
            st.rehashes
        )
        .unwrap();
        let line: Vec<String> = r.iter().map(|(p, v)| format!("{p}:{v}")).collect();
        writeln!(out, "  reads {}", line.join(" ")).unwrap();
    }
    writeln!(
        out,
        "total: rehashes={} remap_steps={}",
        rep.rehashes, rep.remap_steps
    )
    .unwrap();
    out
}

fn golden(name: &str) -> String {
    let file = include_str!("golden/emulator_schedules.txt");
    let header = format!("== {name}\n");
    let start = file.find(&header).expect("scenario has a golden section") + header.len();
    let end = file[start..].find("== ").map_or(file.len(), |e| start + e);
    file[start..end].to_string()
}

fn leveled(cfg: EmulatorConfig) -> String {
    let net = UnrolledShuffle::new(3, 3);
    let (procs, space) = (27, 54);
    let mut emu = LeveledPramEmulator::new(net, MODE, space, cfg);
    let reads = run(procs, space, |ops, s| emu.emulate_step(ops, s));
    render(&reads, emu.report())
}

fn star(cfg: EmulatorConfig) -> String {
    let (procs, space) = (24, 48);
    let mut emu = StarPramEmulator::new(4, MODE, space, cfg);
    let reads = run(procs, space, |ops, s| emu.emulate_step(ops, s));
    render(&reads, emu.report())
}

#[test]
fn leveled_shuffle_schedule_is_pinned() {
    assert_eq!(
        leveled(EmulatorConfig::default()),
        golden("leveled UnrolledShuffle(3,3)")
    );
}

#[test]
fn leveled_shuffle_rehash_schedule_is_pinned() {
    let cfg = EmulatorConfig {
        budget_factor: 1,
        max_rehashes: 12,
        ..EmulatorConfig::default()
    };
    assert_eq!(
        leveled(cfg),
        golden("leveled UnrolledShuffle(3,3) budget 1")
    );
}

/// Combining off: every pending entry is opened without the index.
#[test]
fn leveled_shuffle_uncombined_schedule_is_pinned() {
    let cfg = EmulatorConfig {
        combining: false,
        ..EmulatorConfig::default()
    };
    assert_eq!(
        leveled(cfg),
        golden("leveled UnrolledShuffle(3,3) combining off")
    );
}

#[test]
fn star_schedule_is_pinned() {
    assert_eq!(star(EmulatorConfig::default()), golden("star n=4"));
}

#[test]
fn star_uncombined_schedule_is_pinned() {
    let cfg = EmulatorConfig {
        combining: false,
        ..EmulatorConfig::default()
    };
    assert_eq!(star(cfg), golden("star n=4 combining off"));
}

#[test]
fn mesh_schedule_is_pinned() {
    let (procs, space) = (25, 50);
    let mut emu = MeshPramEmulator::new(5, MODE, space, EmulatorConfig::default());
    let reads = run(procs, space, |ops, s| emu.emulate_step(ops, s));
    assert_eq!(render(&reads, emu.report()), golden("mesh n=5"));
}
