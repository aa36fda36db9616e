//! Golden kernel counters for the Bridge Server's data paths.
//!
//! The benchmark and the gated benches run the server at
//! `BatchPolicy::Off` without redundancy or 2PC almost everywhere, so a
//! refactor of the block-I/O, redundant-write or cursor code could shift a
//! message or a millisecond in a corner nothing else measures. This file
//! pins those corners: every `{Off, Runs(8)} × {plain, 2PC} × {None,
//! Mirror, Parity}` machine runs one fixed script, and its
//! [`RunStats`](parsim::RunStats) message counters and the virtual time
//! at the end of every phase must equal constants recorded on the commit
//! *before* the server was split into `server/` modules (the one table
//! that moved on purpose, `DEGRADED`, says what and why). The simulation
//! is deterministic, so any difference is a behavioural change, not
//! noise.
//!
//! When a change to the constants is intended, run with `--nocapture`:
//! every mismatch prints the observed row in source form.

use bridge_core::{
    BatchPolicy, BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec, JobDeliver,
    JobWorker, PlacementSpec, Redundancy,
};
use parsim::{Ctx, ProcId};
use std::sync::mpsc;

const P: u32 = 4;
/// Blocks written sequentially: two full `Runs(8)` flushes plus a ragged
/// train of four, and a ragged final parity stripe.
const BLOCKS: u64 = 20;

/// The paper's machine with Create's fan-out at the serial arity: the
/// constants below pin the prototype's sequence whatever the default is.
fn prototype() -> BridgeConfig {
    BridgeConfig::paper(P).with_serial_create()
}

/// What one scripted run is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    events: u64,
    messages: u64,
    bytes_sent: u64,
    /// Virtual time (ns) when each phase of the script completed; the
    /// last entry is the script's end time.
    phase_nanos: &'static [u64],
}

/// Observed counterpart of [`Golden`].
#[derive(Debug)]
struct Observed {
    events: u64,
    messages: u64,
    bytes_sent: u64,
    phase_nanos: Vec<u64>,
}

impl Observed {
    fn matches(&self, g: &Golden) -> bool {
        self.events == g.events
            && self.messages == g.messages
            && self.bytes_sent == g.bytes_sent
            && self.phase_nanos == g.phase_nanos
    }

    fn as_source(&self, name: &str) -> String {
        format!(
            "    (\"{name}\", Golden {{ events: {}, messages: {}, bytes_sent: {}, phase_nanos: &{:?} }}),",
            self.events, self.messages, self.bytes_sent, self.phase_nanos
        )
    }
}

fn record(tag: u32, block: u64) -> Vec<u8> {
    let mut data = vec![0u8; 64];
    data[..4].copy_from_slice(&tag.to_le_bytes());
    data[4..12].copy_from_slice(&block.to_le_bytes());
    for (i, b) in data.iter_mut().enumerate().skip(12) {
        *b = (tag as usize * 7 + block as usize * 13 + i) as u8;
    }
    data
}

/// Runs `script` as an application process on a machine built from
/// `config`; the script returns the virtual time at the end of each of
/// its phases.
fn observe(
    config: &BridgeConfig,
    script: impl FnOnce(&mut Ctx, &mut BridgeClient, &[ProcId], parsim::NodeId) -> Vec<u64>
        + Send
        + 'static,
) -> Observed {
    let (mut sim, machine) = BridgeMachine::build(config);
    let server = machine.server;
    let lfs = machine.lfs.clone();
    let frontend = machine.frontend;
    let (tx, rx) = mpsc::channel();
    sim.spawn(frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let _ = tx.send(script(ctx, &mut bridge, &lfs, frontend));
    });
    let stats = sim.run();
    Observed {
        events: stats.events,
        messages: stats.messages,
        bytes_sent: stats.bytes_sent,
        phase_nanos: rx.try_recv().expect("script completed"),
    }
}

fn write_seq(ctx: &mut Ctx, bridge: &mut BridgeClient, file: BridgeFileId, tag: u32, n: u64) {
    for b in 0..n {
        assert_eq!(bridge.seq_write(ctx, file, record(tag, b)).unwrap(), b);
    }
}

fn read_seq(ctx: &mut Ctx, bridge: &mut BridgeClient, file: BridgeFileId, tag: u32, n: u64) {
    assert_eq!(bridge.open(ctx, file).unwrap().size, n);
    for b in 0..n {
        let data = bridge.seq_read(ctx, file).unwrap().expect("block present");
        assert_eq!(&data[..64], &record(tag, b)[..], "block {b}");
    }
    assert_eq!(bridge.seq_read(ctx, file).unwrap(), None);
}

/// The matrix script: seq write, seq read, one random overwrite, one
/// `JobRead` round and one `JobWrite` round with `t = 2p` workers (two
/// waves of `p` under `Off`).
fn matrix_script(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    _lfs: &[ProcId],
    wnode: parsim::NodeId,
) -> Vec<u64> {
    let mut phases = Vec::new();
    let file = bridge.create(ctx, CreateSpec::default()).unwrap();
    write_seq(ctx, bridge, file, 1, BLOCKS);
    phases.push(ctx.now().as_nanos());

    read_seq(ctx, bridge, file, 1, BLOCKS);
    phases.push(ctx.now().as_nanos());

    bridge.rand_write(ctx, file, 5, record(9, 5)).unwrap();
    assert_eq!(
        &bridge.rand_read(ctx, file, 5).unwrap()[..64],
        &record(9, 5)[..]
    );
    phases.push(ctx.now().as_nanos());

    let me = ctx.me();
    let t = 2 * P;
    let workers: Vec<ProcId> = (0..t)
        .map(|i| {
            ctx.spawn(wnode, format!("w{i}"), move |c| {
                let (_, job) = c.recv_as::<bridge_core::JobId>();
                let worker = JobWorker::new(job);
                let (block, data) = worker.recv_block(c).expect("round has data");
                assert_eq!(block, u64::from(i));
                let tag = if block == 5 { 9 } else { 1 };
                assert_eq!(&data[..64], &record(tag, block)[..]);
                c.send(me, ());
                worker.supply_block(c, Some(record(2, u64::from(i)).into()));
            })
        })
        .collect();
    let job = bridge.parallel_open(ctx, file, workers.clone()).unwrap();
    for &w in &workers {
        ctx.send(w, job);
    }
    assert_eq!(bridge.job_read(ctx, job).unwrap(), (t, false));
    for _ in 0..t {
        ctx.recv_as::<()>();
    }
    phases.push(ctx.now().as_nanos());

    assert_eq!(bridge.job_write(ctx, job).unwrap(), t);
    bridge.job_close(ctx, job).unwrap();
    assert_eq!(
        bridge.open(ctx, file).unwrap().size,
        BLOCKS + u64::from(t),
        "the write round appended one block per worker"
    );
    let last = BLOCKS + u64::from(t) - 1;
    assert_eq!(
        &bridge.rand_read(ctx, file, last).unwrap()[..64],
        &record(2, u64::from(t) - 1)[..]
    );
    phases.push(ctx.now().as_nanos());
    phases
}

fn matrix_config(batch: BatchPolicy, two_pc: bool, redundancy: Redundancy) -> BridgeConfig {
    let mut config = prototype().with_redundancy(redundancy);
    config.server.batch = batch;
    if two_pc {
        config = config.with_2pc();
    }
    config
}

/// Recorded on the parent of the `server/` split (PR 11's tree) — except
/// six rows re-recorded when the commit path stopped paying a positioning
/// per block (log batches and checkpoints as device runs, acknowledgement
/// before the checkpoint, one CPU charge per decide, overlapped parity
/// reads). `*/plain/parity` moved in the overwrite phase alone (the two
/// old blocks are read together: −6.25 ms, events equal); `*/2pc/mirror`
/// and `*/2pc/parity` moved throughout (every redundant write is a
/// transaction: `off/2pc/parity` 1 527 events and 6.087 s before, 1 313
/// and 4.553 s now). `messages` and `bytes_sent` are the parent's in
/// every row. `*/plain/mirror` and `*/plain/parity` — and every
/// `DEGRADED` and `REBUILD` row — were re-recorded again when Create
/// began taking its replies as they land: each node gets the data file's
/// and the companion's create, its LFS answers the second about 26 ms
/// after the first, and the server now acknowledges the next node's
/// first reply in that gap instead of waiting in send order. Every phase
/// ends 11.0 ms sooner; events, messages and bytes are unchanged. The six
/// `*/2pc/*` rows were re-recorded once more when a transaction began to
/// be answered at its COMMIT, its DECIDE round's acks taken behind the
/// reply: `phase_nanos` alone moved (`off/2pc/mirror`'s first phase
/// 2 412 151 350 → 2 390 689 500 ns).
#[rustfmt::skip]
const MATRIX: &[(&str, Golden)] = &[
    ("off/plain/none", Golden { events: 618, messages: 284, bytes_sent: 100264, phase_nanos: &[810632000, 968378400, 998346000, 1013319800, 1106359800] }),
    ("off/plain/mirror", Golden { events: 835, messages: 350, bytes_sent: 131376, phase_nanos: &[995632000, 1329378400, 1359346000, 1396319800, 1784879000] }),
    ("off/plain/parity", Golden { events: 899, messages: 390, bytes_sent: 152816, phase_nanos: &[922928800, 1080675200, 1116896400, 1131870200, 1683697400] }),
    ("off/2pc/none", Golden { events: 669, messages: 292, bytes_sent: 100592, phase_nanos: &[1519628100, 1765374500, 1833342100, 1848315900, 2017355900] }),
    ("off/2pc/mirror", Golden { events: 1247, messages: 466, bytes_sent: 194700, phase_nanos: &[2390689500, 2887281750, 2970095850, 3029069650, 3957275100] }),
    ("off/2pc/parity", Golden { events: 1311, messages: 506, bytes_sent: 216140, phase_nanos: &[2087406300, 2495998550, 2699066250, 2736040050, 3589969950] }),
    ("runs8/plain/none", Golden { events: 462, messages: 236, bytes_sent: 99592, phase_nanos: &[160177600, 236971200, 266938800, 276711000, 317549400] }),
    ("runs8/plain/mirror", Golden { events: 775, messages: 326, bytes_sent: 131024, phase_nanos: &[995632000, 1115171600, 1145139200, 1176911400, 1565470600] }),
    ("runs8/plain/parity", Golden { events: 839, messages: 366, bytes_sent: 152464, phase_nanos: &[922928800, 976468400, 1012689600, 1022461800, 1574289000] }),
    ("runs8/2pc/none", Golden { events: 501, messages: 244, bytes_sent: 99920, phase_nanos: &[251173700, 387967300, 455934900, 465707100, 544545500] }),
    ("runs8/2pc/mirror", Golden { events: 1187, messages: 442, bytes_sent: 194348, phase_nanos: &[2390689500, 2607074950, 2689889050, 2743661250, 3671866700] }),
    ("runs8/2pc/parity", Golden { events: 1251, messages: 482, bytes_sent: 215788, phase_nanos: &[2087406300, 2259791750, 2462859450, 2494631650, 3348561550] }),
];

/// Compares every observed row with its recorded one; on any mismatch
/// panics with all the observed rows in source form.
fn check_rows(table: &[(&str, Golden)], observed: &[(String, Observed)]) {
    let moved: Vec<String> = observed
        .iter()
        .filter(|(name, got)| {
            !table
                .iter()
                .any(|(n, golden)| n == name && got.matches(golden))
        })
        .map(|(name, got)| got.as_source(name))
        .collect();
    assert!(
        moved.is_empty(),
        "counters moved; observed rows:\n{}",
        moved.join("\n")
    );
    assert_eq!(observed.len(), table.len(), "every recorded row is run");
}

#[test]
fn mode_matrix_counters_are_pinned() {
    let mut observed = Vec::new();
    for (bname, batch) in [("off", BatchPolicy::Off), ("runs8", BatchPolicy::Runs(8))] {
        for (tname, two_pc) in [("plain", false), ("2pc", true)] {
            for (rname, redundancy) in [
                ("none", Redundancy::None),
                ("mirror", Redundancy::Mirror),
                ("parity", Redundancy::parity()),
            ] {
                let config = matrix_config(batch, two_pc, redundancy);
                observed.push((
                    format!("{bname}/{tname}/{rname}"),
                    observe(&config, matrix_script),
                ));
            }
        }
    }
    check_rows(MATRIX, &observed);
}

/// A linked (disordered) file: every append past the first pays the
/// old-tail read-modify-write, and a far `rand_read` walks the chain.
#[test]
fn linked_file_counters_are_pinned() {
    let got = observe(&prototype(), |ctx, bridge, _, _| {
        let file = bridge
            .create(
                ctx,
                CreateSpec {
                    placement: PlacementSpec::Linked,
                    ..CreateSpec::default()
                },
            )
            .unwrap();
        write_seq(ctx, bridge, file, 3, 12);
        let appended = ctx.now().as_nanos();
        // Block 4 of 12 is four hops from the head, the far side of
        // neither end.
        assert_eq!(
            &bridge.rand_read(ctx, file, 4).unwrap()[..64],
            &record(3, 4)[..]
        );
        let walked = ctx.now().as_nanos();
        read_seq(ctx, bridge, file, 3, 12);
        vec![appended, walked, ctx.now().as_nanos()]
    });
    check_rows(LINKED, &[("linked".into(), got)]);
}

#[rustfmt::skip]
const LINKED: &[(&str, Golden)] = &[
    ("linked", Golden { events: 415, messages: 174, bytes_sent: 71048, phase_nanos: &[814517200, 847038000, 944733200] }),
];

/// One `JobRead` round over the first `t = 2p` blocks of `file`, with
/// workers that only receive.
fn job_read_round(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    file: BridgeFileId,
    tag: u32,
    wnode: parsim::NodeId,
) {
    let me = ctx.me();
    let t = 2 * P;
    let workers: Vec<ProcId> = (0..t)
        .map(|i| {
            ctx.spawn(wnode, format!("r{i}"), move |c| {
                let env = c.recv_where(|e| e.is::<JobDeliver>());
                let d = env.downcast::<JobDeliver>().unwrap();
                assert_eq!(d.block, u64::from(i));
                assert_eq!(
                    &d.data.expect("round has data")[..64],
                    &record(tag, d.block)[..]
                );
                c.send(me, ());
            })
        })
        .collect();
    let job = bridge.parallel_open(ctx, file, workers).unwrap();
    assert_eq!(bridge.job_read(ctx, job).unwrap(), (t, false));
    for _ in 0..t {
        ctx.recv_as::<()>();
    }
    bridge.job_close(ctx, job).unwrap();
}

/// Reads a whole redundant file with one node down, sequentially and
/// then through one `JobRead` round: every block whose primary lives on
/// the dead node comes back through the mirror copy or a parity
/// reconstruction.
fn degraded_read(batch: BatchPolicy, redundancy: Redundancy) -> Observed {
    let mut config = prototype().with_redundancy(redundancy);
    config.server.batch = batch;
    observe(&config, move |ctx, bridge, lfs, wnode| {
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        write_seq(ctx, bridge, file, 4, BLOCKS);
        bridge_efs::set_failed(ctx, lfs[1], true);
        let failed = ctx.now().as_nanos();
        read_seq(ctx, bridge, file, 4, BLOCKS);
        let read = ctx.now().as_nanos();
        job_read_round(ctx, bridge, file, 4, wnode);
        vec![failed, read, ctx.now().as_nanos()]
    })
}

#[test]
fn degraded_read_counters_are_pinned() {
    let mut observed = Vec::new();
    for (bname, batch) in [("off", BatchPolicy::Off), ("runs8", BatchPolicy::Runs(8))] {
        for (rname, redundancy) in [
            ("mirror", Redundancy::Mirror),
            ("parity", Redundancy::parity()),
        ] {
            observed.push((
                format!("degraded/{bname}/{rname}"),
                degraded_read(batch, redundancy),
            ));
        }
    }
    check_rows(DEGRADED, &observed);
}

/// The one table that moved with the `server/` split, by design: a read
/// whose reply says the column is lost now goes straight to the mirror
/// copy or the parity reconstruction instead of asking the dead node for
/// the same block a second time. Each saved knock is one request and one
/// `NodeFailed` reply (two messages, three or four events); nothing else
/// differs. On the parent commit these rows read, in the same order,
/// events/messages 666/288, 770/340 (`Off`: the sequential read was
/// already single-knock, the `JobRead` round's two dead-primary blocks
/// were not), 625/274 and 729/326 (`Runs(8)`: five blocks in the
/// sequential read, two in the round).
#[rustfmt::skip]
const DEGRADED: &[(&str, Golden)] = &[
    ("degraded/off/mirror", Golden { events: 662, messages: 284, bytes_sent: 107088, phase_nanos: &[995833600, 1286596000, 1337281800] }),
    ("degraded/off/parity", Golden { events: 766, messages: 336, bytes_sent: 134960, phase_nanos: &[923130400, 1138175200, 1191621800] }),
    ("degraded/runs8/mirror", Golden { events: 611, messages: 260, bytes_sent: 106632, phase_nanos: &[995833600, 1168335600, 1213819800] }),
    ("degraded/runs8/parity", Golden { events: 715, messages: 312, bytes_sent: 134504, phase_nanos: &[923130400, 1063914800, 1112107800] }),
];

/// A spare racked into LFS 1 wipes its columns; one `rebuild_range` over
/// the front of the file recreates the column files and repairs the
/// range, block by block or (under `Runs`) from prefetched runs.
fn rebuild_after_spare(batch: BatchPolicy) -> Observed {
    let mut config = prototype().with_redundancy(Redundancy::parity());
    config.server.batch = batch;
    observe(&config, move |ctx, bridge, lfs, _| {
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        write_seq(ctx, bridge, file, 5, BLOCKS);
        assert!(bridge_efs::install_spare(ctx, lfs[1]), "spare racked in");
        let racked = ctx.now().as_nanos();
        let repaired = bridge.rebuild_range(ctx, file, 0, 12).unwrap();
        assert_eq!(repaired, 4, "three data blocks and one parity block");
        vec![racked, ctx.now().as_nanos()]
    })
}

#[test]
fn rebuild_range_counters_are_pinned() {
    let observed = [
        (
            "rebuild/off".to_string(),
            rebuild_after_spare(BatchPolicy::Off),
        ),
        (
            "rebuild/runs8".to_string(),
            rebuild_after_spare(BatchPolicy::Runs(8)),
        ),
    ];
    check_rows(REBUILD, &observed);
}

#[rustfmt::skip]
const REBUILD: &[(&str, Golden)] = &[
    ("rebuild/off", Golden { events: 685, messages: 270, bytes_sent: 100960, phase_nanos: &[923130400, 1345936000] }),
    ("rebuild/runs8", Golden { events: 659, messages: 260, bytes_sent: 100808, phase_nanos: &[923130400, 1298010800] }),
];
