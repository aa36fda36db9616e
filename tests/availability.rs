//! Availability tests: the redundancy headline invariant.
//!
//! For any plan that permanently loses **one** disk ([`DiskLost`] —
//! the medium never comes back, unlike a [`CrashAt`] kill), a workload
//! run against a redundant Bridge machine produces exactly the
//! client-visible replies and final contents of the fault-free run:
//! reads of the lost columns are reconstructed on the fly (degraded
//! mode), a spare racks in mid-run, an online rebuild repopulates it,
//! and the closing machine-wide `pfsck` — parity audit included — comes
//! back clean. Loss may only change timing, never observable behaviour.
//!
//! Three entry points exercise it, mirroring `tests/chaos.rs`:
//!
//! * `media_loss_preserves_observable_behavior` — proptest over random
//!   loss plans, a quick subset on every `cargo test`.
//! * `avail_soak` — the CI soak hook. `AVAIL_SEED` picks the seed block
//!   (nightly CI derives it from the date), `AVAIL_CASES` the case
//!   count, and `AVAIL_REPLAY` replays one failing plan seed exactly. A
//!   failing seed is written to `target/chaos_failures/*.lossseed` so CI
//!   can attach it, and the panic message carries the replay command.
//! * `loss_seed_corpus_replays_clean` — regression corpus: every seed in
//!   `tests/fault_seeds/*.lossseed` replays on plain `cargo test`.
//!
//! Two compositions put a second fault class under the loss: a
//! coordinator kill on each early decision-log write, and a crash of the
//! node after the victim spread over its writes — the rebuild onto the
//! spare included.
//!
//! A pure-math proptest rides along: for any parity layout and any
//! single lost column, every lost block is reconstructed exactly from
//! its surviving stripe peers — the algebra the degraded path leans on.

use bridge_repro::core::{xor_into, BridgeConfig, CreateSpec, ParityLayout, Redundancy};
use bridge_repro::efs;
use bridge_repro::parsim::{mix64, splitmix64, FaultPlan, SimDuration, SERVER_DISK};
use bridge_repro::trace::TraceCollector;
use proptest::prelude::*;
use std::sync::OnceLock;
use support::{assert_same, content, corpus_seeds, run, Classes, Run, Soak, WIDE};

mod support;

/// Machine breadth used by every availability run. Four columns means a
/// whole-breadth parity group of width 3 plus the rotating parity slot.
const BREADTH: u32 = 4;

const AVAIL: Soak = Soak::new("AVAIL", 0x00AB_A11A, 4, "lossseed");

/// A loss plan: the media-loss class alone. Exactly one disk dies for
/// good at a random write ordinal — possibly before anything persists,
/// possibly past the whole write stream (in which case the victim is
/// still healthy when the spare racks in, and the rebuild must cope with
/// a freshly formatted column that lost *everything*) — under random
/// message *delays* so the loss races in-flight traffic. Drops and
/// duplicates stay out of loss plans: the operator-driven spare rack-in
/// ([`efs::install_spare`]) is a bare control message with no retry or
/// dedup identity, by design — re-racking a spare mid-rebuild wipes the
/// rebuild's progress, which is an operator error, not a fault to
/// converge through. (The chaos suite owns drop/dup coverage.)
fn loss_plan_from_seed(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed).media_loss(BREADTH)
}

/// Runs the fixed availability workload: the transcript of every
/// client-visible reply (results and read-back contents, no timing, no
/// repair counters — those are allowed to differ between the degraded
/// and fault-free runs).
///
/// When the plan loses a disk, after the degraded read phase a spare
/// medium racks into that LFS (wiping whatever survived there) and an
/// online, paced rebuild repopulates its columns from the surviving
/// group members — the full kill → degraded → rebuild arc. The final
/// reads and the closing machine-wide `pfsck` land in the transcript
/// either way, so a faulted-and-rebuilt machine must end
/// indistinguishable from one that never faulted.
fn run_workload(config: &BridgeConfig) -> Run {
    let spare = config.faults.losses.first().map(|loss| loss.disk as usize);
    run(config, move |c| {
        // `a` inherits the machine's default redundancy (parity in the
        // standard config below); `b` pins a mirror so both modes ride
        // through every plan.
        let a = c.create(CreateSpec::default());
        let b = c.create(CreateSpec {
            redundancy: Redundancy::Mirror,
            ..CreateSpec::default()
        });
        c.log.push(format!("create a={a:?} b={b:?}"));
        c.append(a, "a.append", 0..40, |i| content(0xA0, i, WIDE));
        c.append(b, "b.append", 0..24, |i| content(0xB0, i, WIDE));
        c.overwrite(a, "a.overwrite", &[3, 17, 29], |at| content(0xEE, at, WIDE));
        // Degraded phase: if the loss has fired, these reads reconstruct
        // the dead columns from the survivors — same hashes regardless.
        c.read_back(a, "a.read");
        c.read_back(b, "b.read");
        if let Some(victim) = spare {
            let spared = efs::install_spare(c.ctx, c.lfs[victim].0);
            assert!(spared, "device produced a spare medium");
            for file in [a, b] {
                c.bridge
                    .rebuild_paced(c.ctx, file, 8, SimDuration::from_micros(200))
                    .expect("rebuild onto the spare");
            }
        }
        c.rand_read(a, "a.rand_read", &[0, 17, 39]);
        c.read_back(a, "a.final");
        c.read_back(b, "b.final");
        c.pfsck(true, false);
    })
}

/// The standard availability machine: machine-wide atomicity (so parity
/// can never go stale across a crash) and parity redundancy by default.
fn avail_config() -> BridgeConfig {
    BridgeConfig::instant(BREADTH)
        .with_2pc()
        .with_redundancy(Redundancy::parity())
}

/// The fault-free run, computed once per process.
fn baseline() -> &'static Run {
    static BASELINE: OnceLock<Run> = OnceLock::new();
    BASELINE.get_or_init(|| run_workload(&avail_config()))
}

/// The headline invariant for one plan: kill the plan's disk for good,
/// serve degraded, rack in a spare, rebuild online — and the transcript
/// (replies, contents, closing pfsck verdict) equals the fault-free
/// run's. Returns the faulted run.
fn check_loss_plan(label: &str, plan: FaultPlan) -> Run {
    let faulted = run_workload(&avail_config().with_faults(plan.clone()));
    assert_same(label, baseline(), &faulted, &plan, Some(&AVAIL));
    faulted
}

fn check_loss_seed(label: &str, seed: u64) {
    check_loss_plan(label, loss_plan_from_seed(seed));
}

/// The CI soak hook (also a normal quick test when the env is unset).
#[test]
fn avail_soak() {
    AVAIL.run(check_loss_seed);
}

/// Every loss-plan seed ever caught in the wild replays clean, forever
/// (`tests/fault_seeds/*.lossseed`).
#[test]
fn loss_seed_corpus_replays_clean() {
    for seed in corpus_seeds("lossseed") {
        check_loss_seed("loss corpus", seed);
    }
}

/// Directed plan: disk 1 dies early in the write stream, no other
/// faults. The run must actually go degraded — the trace shows on-the-fly
/// reconstructions — and still match the fault-free transcript.
#[test]
fn early_loss_is_served_degraded_then_rebuilt() {
    let plan = FaultPlan::seeded(21).lose(1, 20);
    check_loss_plan("early loss", plan.clone());

    // Rerun traced to prove degraded mode actually engaged.
    let collector = TraceCollector::install();
    let mut config = avail_config().with_faults(plan);
    config.tracer = Some(collector.as_tracer());
    run_workload(&config);
    let degraded = collector
        .snapshot()
        .instants
        .iter()
        .filter(|i| i.name == "redundancy.degraded_read")
        .count();
    assert!(
        degraded > 0,
        "an early loss must force degraded reads, got none"
    );
}

/// Directed plan: the medium is gone before it persists a single block —
/// every column on disk 2 only ever exists as reconstructions until the
/// spare arrives.
#[test]
fn loss_before_first_write_converges() {
    check_loss_plan("loss at birth", FaultPlan::seeded(22).lose(2, 0));
}

/// Directed plan: the loss ordinal lies past the whole write stream, so
/// the "victim" is healthy when the spare racks in. Installing the spare
/// wipes its perfectly good columns; the rebuild must restore them and
/// the closing parity audit must still come back clean.
#[test]
fn spare_install_on_healthy_node_is_rebuilt_losslessly() {
    let plan = FaultPlan::seeded(23).lose(0, u64::MAX);
    check_loss_plan("inert loss, live wipe", plan);
}

/// Runs every corpus loss plan alone and then with each kill `kills`
/// names for it — a disk and its write ordinals, from the plan and its
/// loss-only run — asserting that each composition converges and that its
/// kill fired. An unfired kill leaves the run bit-identical to the
/// loss-only one, so a fired kill ends it later; not by the whole down
/// window, though, since the loss plan's message delays overlap part of
/// it (by up to 121 ms in this corpus).
fn compose_with_kills(kills: impl Fn(&FaultPlan, &Run) -> (u32, Vec<u64>)) {
    for seed in corpus_seeds("lossseed") {
        let loss = loss_plan_from_seed(seed);
        let loss_only = check_loss_plan(&format!("loss seed {seed}"), loss.clone());
        let (disk, ordinals) = kills(&loss, &loss_only);
        for k in ordinals {
            let label = format!("loss seed {seed} + kill of disk {disk} after write {k}");
            let killed = check_loss_plan(&label, loss.clone().kill(disk, k));
            assert!(
                killed.stats.end_time > loss_only.stats.end_time,
                "{label}: the kill never fired"
            );
        }
    }
}

/// "Coordinator killed while a column is lost" (ROADMAP C4): every corpus
/// loss plan plus a coordinator fail-stop on decision-log write 1..=8 —
/// the two creates' BEGIN and COMMIT records, then the first redundant
/// appends' transactions.
#[test]
fn loss_with_coordinator_kill_converges() {
    compose_with_kills(|_, _| (SERVER_DISK, (1..=8).collect()));
}

/// Every corpus loss plan plus a kill of the node after the victim — a
/// survivor the degraded reads and the rebuild read from — at 20 ordinals
/// spread over its writes in the loss-only run. None of them lands inside
/// `rebuild_paced` (ROADMAP C4's "node crash during rebuild"): a survivor
/// writes nothing while the rebuild runs, and the spare carries no crash
/// schedule.
#[test]
fn loss_with_survivor_crash_converges() {
    compose_with_kills(|loss, loss_only| {
        let survivor = (loss.losses[0].disk + 1) % BREADTH;
        let n = loss_only.disk_writes[survivor as usize];
        (survivor, (1..=20).map(|j| (j * n / 20).max(1)).collect())
    });
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// The headline invariant over random loss plans.
    #[test]
    fn media_loss_preserves_observable_behavior(seed in any::<u64>()) {
        check_loss_seed("proptest", seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// The algebra under the degraded path: for any grouped parity
    /// layout and any single lost column, every data block on that
    /// column is recomputed exactly by XOR-ing its surviving stripe
    /// peers with the stripe's parity block.
    #[test]
    fn any_single_lost_column_reconstructs_exactly(
        breadth in 2u32..=8,
        lost in 0u32..8,
        size in 1u64..48,
        fill in any::<u64>(),
    ) {
        let lost = lost % breadth;
        let layout = ParityLayout::new(breadth);
        let block = |b: u64| -> Vec<u8> {
            let mut s = mix64(fill, b);
            let mut draw = move || splitmix64(&mut s);
            (0..96).map(|_| (draw() & 0xFF) as u8).collect()
        };
        for b in 0..size {
            let ptr = layout.locate(b);
            if ptr.lfs.0 != lost {
                continue;
            }
            // Reconstruct block `b` from its surviving peers + parity.
            let stripe = layout.stripe_of(b);
            let mut acc: Vec<u8> = Vec::new();
            for peer in layout.stripe_peers(b, size) {
                xor_into(&mut acc, &block(peer));
            }
            let mut parity: Vec<u8> = Vec::new();
            let lo = stripe * layout.stripe_width();
            let hi = ((stripe + 1) * layout.stripe_width()).min(size);
            for d in lo..hi {
                xor_into(&mut parity, &block(d));
            }
            prop_assert!(
                layout.parity_position(stripe) != lost,
                "parity never shares a column with the stripe's data"
            );
            xor_into(&mut acc, &parity);
            let mut want = block(b);
            want.resize(acc.len().max(want.len()), 0);
            acc.resize(want.len(), 0);
            prop_assert_eq!(acc, want, "block {} reconstructs exactly", b);
        }
    }
}

/// Pins, recorded before the suites shared a harness: the fault-free
/// reference (transcript, `RunStats`, per-LFS writes) and every plan the
/// loss corpus and the default soak expand to.
#[test]
fn references_and_plans_are_pinned() {
    use support::{assert_pinned, assert_plans_pinned, Pin};
    #[rustfmt::skip]
    assert_pinned("avail", &run_workload(&avail_config()), Pin { transcript: 0x1608c1abb0cd4797, lines: 76, events: 2167, messages: 1576, bytes_sent: 729844, dispatches: 2167, end_ns: 12000000, disk_writes: &[177, 177, 159, 167] });
    // Corpus seeds (`initial.lossseed`), then the first 8 default soak seeds.
    #[rustfmt::skip]
    assert_plans_pinned("loss_plan_from_seed", loss_plan_from_seed, &[
        (1, 0x1e1b7bcf195eb7bf), (2, 0xab88b158e47bcb15), (7, 0xb7ef70ae283063e6),
        (42, 0x49d9952339bdd71e), (1274524377401475997, 0x76e0f7cf3b7cafad),
        (9550304587440695348, 0x57e6e33adbb0aa48), (17663969834643705382, 0x9db745256ebb3d84),
        (13491185638418765282, 0x7c65b4bb80174108), (5693668141262559173, 0xa3776f5d08e89631),
        (15005095702772425841, 0x43ac3a0619bbc00b), (460940896953658153, 0xb2fd9a401c483e98),
        (3058436454262527391, 0xa037bd2d20b7cd24),
    ]);
}
