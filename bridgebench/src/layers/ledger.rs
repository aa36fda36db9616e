//! The ledger: one stream of blocks entered at each boundary of the stack
//! in turn — bare scheduler, disk, file system, file-system server,
//! Bridge server, tool — on an 8-node Wren machine. Every row prices the
//! public call at its boundary *and everything beneath it*, so a layer's
//! own cost is its row minus the row below (Dagenais' method for disks,
//! partitions, volumes and RAID). Spans are taken here, around the calls,
//! with nothing added inside the system.
//!
//! Below the Bridge server there is no machine to place blocks, so the
//! rows do what the server does: block `g` of the stream goes to column
//! `g % 8` as local block `g / 8`, with the previous address as the hint.

use super::workloads::config;
use super::{assert_fiber_engine, Metrics};
use crate::gen::{self, SplitMix64};
use crate::host::{self, CpuClock};
use crate::stats;
use crate::workload::Kind;
use bridge_core::{
    BatchPolicy, BridgeClient, BridgeConfig, BridgeMachine, CreateSpec, Redundancy, SchedConfig,
};
use bridge_efs::{
    spawn_lfs_sched, Efs, EfsConfig, LfsClient, LfsData, LfsFileId, LfsOp, WalConfig,
};
use bridge_tools::{copy, sort, SortOptions, ToolOptions};
use bridge_trace::{ProfileReport, TraceCollector};
use bytes::Bytes;
use parsim::{Ctx, ProcId, SimConfig, SimDuration, Simulation};
use simdisk::{BlockAddr, DiskGeometry, DiskProfile, SimDisk};
use std::cell::Cell;
use std::sync::Arc;

/// Columns (disks, file systems, servers) under every row.
const P: usize = 8;
/// Blocks per row at full scale.
const STREAM: u64 = 8192;
/// Blocks per run in the `*_run` / `*_many` rows.
const RUN: usize = 8;
/// Timed repetitions per row (the fastest is reported, for the reason
/// the end-to-end host figures are minima); one more, with the allocator
/// armed, counts allocations.
const REPS: usize = 3;

/// One measured span: timed on the CPU clock, or counted by the
/// allocator, never both — arming the counters costs a little time.
struct Span<'a> {
    clock: &'a CpuClock,
    counting: bool,
    ns: Cell<u64>,
    allocs: Cell<u64>,
}

impl Span<'_> {
    fn measure<T>(&self, f: impl FnOnce() -> T) -> T {
        if self.counting {
            let (value, count) = host::count_allocs(f);
            self.allocs.set(self.allocs.get() + count.calls);
            value
        } else {
            let (value, ns) = self.clock.time(f);
            self.ns.set(self.ns.get() + ns);
            value
        }
    }
}

struct Ledger<'a> {
    clock: &'a CpuClock,
    out: Metrics,
}

impl Ledger<'_> {
    /// Runs `rep` once counting allocations and [`REPS`] times timed;
    /// `rep` does its own set-up, wraps the part under test in
    /// [`Span::measure`] and returns how many units (blocks, events) that
    /// part processed. Emits `<name>.ns_per_<unit>` and
    /// `<name>.allocs_per_<unit>`.
    fn row(&mut self, name: &str, unit: &str, mut rep: impl FnMut(&Span) -> u64) {
        let span = |counting| Span {
            clock: self.clock,
            counting,
            ns: Cell::new(0),
            allocs: Cell::new(0),
        };
        let counted = span(true);
        let units = rep(&counted).max(1) as f64;
        let mut ns = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let timed = span(false);
            let units = rep(&timed).max(1) as f64;
            ns.push(timed.ns.get() as f64 / units);
        }
        self.out
            .push((format!("ledger.{name}.ns_per_{unit}"), stats::min(&ns)));
        self.out.push((
            format!("ledger.{name}.allocs_per_{unit}"),
            counted.allocs.get() as f64 / units,
        ));
    }
}

/// Every ledger metric. `shrink` divides the stream length (1 = full
/// scale); `seed` feeds the random-access rows.
pub fn ledger(clock: &CpuClock, seed: u64, shrink: u64) -> Metrics {
    let n = (STREAM / shrink.max(1)).max(256);
    let mut rng = SplitMix64::new(seed ^ gen::stream_id("ledger"));
    let mut l = Ledger {
        clock,
        out: Vec::new(),
    };
    parsim_rows(&mut l, n);
    simdisk_rows(&mut l, n);
    efs_rows(&mut l, n, &mut rng);
    lfs_rows(&mut l, n);
    bridge_rows(&mut l, n, &mut rng);
    tool_rows(&mut l, n, &mut rng);
    setup_row(&mut l);
    trace_rows(&mut l, n);
    l.out
}

fn bare_sim() -> Simulation {
    let sim = Simulation::new(SimConfig::default());
    assert_fiber_engine(&sim);
    sim
}

// ---------------------------------------------------------------------
// parsim: what an event costs with nothing on top of it.

fn parsim_rows(l: &mut Ledger, n: u64) {
    // Two processes on two nodes bouncing one word: a message event and a
    // dispatch per hop, the floor under every RPC above.
    l.row("parsim.pingpong", "event", |span| {
        let mut sim = bare_sim();
        let (a, b) = (sim.add_node("a"), sim.add_node("b"));
        let echo = sim.spawn(b, "echo", |ctx| loop {
            let (from, word) = ctx.recv_as::<u64>();
            ctx.send(from, word);
        });
        let before = sim.stats().events;
        span.measure(|| {
            sim.block_on(a, "ping", move |ctx| {
                for word in 0..n {
                    ctx.send(echo, word);
                    ctx.recv_as::<u64>();
                }
            })
        });
        sim.stats().events - before
    });
    // A token round a 256-node ring: the same event, with the scheduler's
    // structures at breadth.
    l.row("parsim.ring_p256", "event", |span| {
        let mut sim = bare_sim();
        let nodes = sim.add_nodes("n", 256);
        let hops = 2 * n;
        let mut next: Option<ProcId> = None;
        let mut first = None;
        // Spawned back to front so each process is born knowing its
        // successor; the last one learns the head's id by message.
        for &node in nodes.iter().rev() {
            let succ = next;
            let pid = sim.spawn(node, "ring", move |ctx| {
                let succ = succ.unwrap_or_else(|| ctx.recv_as::<ProcId>().1);
                loop {
                    let (_, hop) = ctx.recv_as::<u64>();
                    if hop >= hops {
                        break;
                    }
                    ctx.send(succ, hop + 1);
                }
            });
            first.get_or_insert(pid);
            next = Some(pid);
        }
        let (tail, head) = (first.expect("ring is not empty"), next.expect("not empty"));
        let before = sim.stats().events;
        span.measure(|| {
            sim.block_on(nodes[0], "kick", move |ctx| {
                ctx.send(tail, head);
                ctx.send(head, 0u64);
            })
        });
        sim.stats().events - before
    });
    // Timer events: what every disk service interval costs the scheduler.
    l.row("parsim.delay", "event", |span| {
        let mut sim = bare_sim();
        let node = sim.add_node("a");
        let before = sim.stats().events;
        span.measure(|| {
            sim.block_on(node, "sleeper", move |ctx| {
                for _ in 0..2 * n {
                    ctx.delay(SimDuration::from_micros(1));
                }
            })
        });
        sim.stats().events - before
    });
}

// ---------------------------------------------------------------------
// simdisk: the device calls, one process owning all eight disks.

fn wren_disks() -> Vec<SimDisk> {
    (0..P)
        .map(|_| SimDisk::new(DiskGeometry::default(), DiskProfile::wren()))
        .collect()
}

/// Where stream block `g` lives: (column, local address). Address 0 up
/// is fine for a raw disk; nothing else is on it.
fn place(g: u64) -> (usize, BlockAddr) {
    (
        (g % P as u64) as usize,
        BlockAddr::new((g / P as u64) as u32),
    )
}

fn simdisk_rows(l: &mut Ledger, n: u64) {
    let block = Bytes::from(vec![0xA5u8; DiskGeometry::default().block_size]);
    // Whole runs, built outside the span: in the stack it is the file
    // system that assembles them, and its rows pay for that.
    let runs = |n: u64| -> Vec<(usize, Vec<(BlockAddr, Bytes)>)> {
        let per_col = n / P as u64;
        let mut out = Vec::new();
        for start in (0..per_col).step_by(RUN) {
            for col in 0..P {
                let end = (start + RUN as u64).min(per_col);
                let run = (start..end)
                    .map(|i| (BlockAddr::new(i as u32), block.clone()))
                    .collect();
                out.push((col, run));
            }
        }
        out
    };
    // Each rep writes the stream (the write rows measure that) and then
    // reads it back (the read rows measure that).
    let rep = |span: &Span, measure_write: bool, many: bool| -> u64 {
        let mut sim = bare_sim();
        let node = sim.add_node("disks");
        let mut disks = wren_disks();
        let block = block.clone();
        let runs = runs(n);
        let write = move |ctx: &mut Ctx, disks: &mut Vec<SimDisk>| {
            if many {
                for (col, run) in &runs {
                    disks[*col].write_many(ctx, run).expect("disk write");
                }
            } else {
                for g in 0..n {
                    let (col, addr) = place(g);
                    disks[col].write(ctx, addr, &block).expect("disk write");
                }
            }
        };
        let read = move |ctx: &mut Ctx, disks: &mut Vec<SimDisk>| {
            if many {
                let per_col = n / P as u64;
                for start in (0..per_col).step_by(RUN) {
                    for disk in disks.iter_mut() {
                        let addrs: Vec<BlockAddr> = (start..(start + RUN as u64).min(per_col))
                            .map(|i| BlockAddr::new(i as u32))
                            .collect();
                        disk.read_many(ctx, &addrs).expect("disk read");
                    }
                }
            } else {
                for g in 0..n {
                    let (col, addr) = place(g);
                    disks[col].read(ctx, addr).expect("disk read");
                }
            }
        };
        if measure_write {
            span.measure(|| sim.block_on(node, "w", move |ctx| write(ctx, &mut disks)));
        } else {
            let mut disks = sim.block_on(node, "w", move |ctx| {
                write(ctx, &mut disks);
                disks
            });
            span.measure(|| sim.block_on(node, "r", move |ctx| read(ctx, &mut disks)));
        }
        n / P as u64 * P as u64
    };
    l.row("simdisk.read", "block", |s| rep(s, false, false));
    l.row("simdisk.write", "block", |s| rep(s, true, false));
    l.row("simdisk.read_many", "block", |s| rep(s, false, true));
    l.row("simdisk.write_many", "block", |s| rep(s, true, true));
}

// ---------------------------------------------------------------------
// efs: direct calls on eight file systems, no server process.

const FILE: LfsFileId = LfsFileId(7);

fn fresh_efs(wal: bool) -> Vec<Efs> {
    let config = EfsConfig {
        wal: if wal {
            WalConfig::standard()
        } else {
            WalConfig::disabled()
        },
        ..EfsConfig::default()
    };
    wren_disks()
        .into_iter()
        .map(|disk| Efs::format(disk, config))
        .collect()
}

/// A full EFS payload, as the Bridge server always sends.
fn payload() -> Bytes {
    Bytes::from(vec![0x5Au8; bridge_efs::EFS_PAYLOAD])
}

/// Appends the stream block by block, as the server's naive path does.
fn efs_write_stream(ctx: &mut Ctx, fs: &mut [Efs], n: u64, commit: bool) {
    let data = payload();
    let mut hints = [None; P];
    for g in 0..n {
        let col = (g % P as u64) as usize;
        let addr = fs[col]
            .write(ctx, FILE, (g / P as u64) as u32, &data, hints[col])
            .expect("efs write");
        if commit {
            fs[col].commit(ctx).expect("wal commit");
        }
        hints[col] = Some(addr);
    }
}

fn efs_write_runs(ctx: &mut Ctx, fs: &mut [Efs], n: u64) {
    let run: Vec<Bytes> = vec![payload(); RUN];
    let per_col = n / P as u64;
    let mut hints = [None; P];
    for start in (0..per_col).step_by(RUN) {
        let len = RUN.min((per_col - start) as usize);
        for (col, efs) in fs.iter_mut().enumerate() {
            let addrs = efs
                .write_run(ctx, FILE, start as u32, &run[..len], hints[col])
                .expect("efs write_run");
            hints[col] = addrs.last().copied();
        }
    }
}

fn efs_create_all(ctx: &mut Ctx, fs: &mut [Efs]) {
    for efs in fs.iter_mut() {
        efs.create(ctx, FILE).expect("efs create");
    }
}

fn efs_rows(l: &mut Ledger, n: u64, rng: &mut SplitMix64) {
    let per_col = n / P as u64;
    let blocks = per_col * P as u64;
    // The write rows time create + the whole stream on fresh file systems.
    fn write_row(span: &Span, wal: bool, body: impl FnOnce(&mut Ctx, &mut [Efs]) + Send + 'static) {
        let mut sim = bare_sim();
        let node = sim.add_node("fs");
        let mut fs = fresh_efs(wal);
        span.measure(|| {
            sim.block_on(node, "w", move |ctx| {
                efs_create_all(ctx, &mut fs);
                body(ctx, &mut fs);
            })
        });
    }
    l.row("efs.write", "block", |span| {
        write_row(span, false, move |ctx, fs| {
            efs_write_stream(ctx, fs, blocks, false)
        });
        blocks
    });
    l.row("efs_wal.write", "block", |span| {
        write_row(span, true, move |ctx, fs| {
            efs_write_stream(ctx, fs, blocks, true)
        });
        blocks
    });
    l.row("efs.write_run", "block", |span| {
        write_row(span, false, move |ctx, fs| efs_write_runs(ctx, fs, blocks));
        blocks
    });
    // The read rows populate first (untimed), then read the stream back.
    let populated = |sim: &mut Simulation| -> Vec<Efs> {
        let node = sim.add_node("fs");
        let mut fs = fresh_efs(false);
        sim.block_on(node, "populate", move |ctx| {
            efs_create_all(ctx, &mut fs);
            efs_write_runs(ctx, &mut fs, blocks);
            fs
        })
    };
    l.row("efs.read", "block", |span| {
        let mut sim = bare_sim();
        let mut fs = populated(&mut sim);
        let node = sim.add_node("reader");
        span.measure(|| {
            sim.block_on(node, "r", move |ctx| {
                let mut hints = [None; P];
                for g in 0..blocks {
                    let col = (g % P as u64) as usize;
                    let (_, addr) = fs[col]
                        .read(ctx, FILE, (g / P as u64) as u32, hints[col])
                        .expect("efs read");
                    hints[col] = Some(addr);
                }
            })
        });
        blocks
    });
    l.row("efs.read_run", "block", |span| {
        let mut sim = bare_sim();
        let mut fs = populated(&mut sim);
        let node = sim.add_node("reader");
        span.measure(|| {
            sim.block_on(node, "r", move |ctx| {
                let mut hints = [None; P];
                for start in (0..per_col).step_by(RUN) {
                    let len = RUN.min((per_col - start) as usize) as u32;
                    for (col, efs) in fs.iter_mut().enumerate() {
                        let run = efs
                            .read_run(ctx, FILE, start as u32, len, hints[col])
                            .expect("efs read_run");
                        hints[col] = run.last().map(|(_, addr)| *addr);
                    }
                }
            })
        });
        blocks
    });
    l.row("efs.create_delete", "block", |span| {
        let mut sim = bare_sim();
        let node = sim.add_node("fs");
        let mut fs = fresh_efs(false);
        let pairs = per_col / 4;
        span.measure(|| {
            sim.block_on(node, "cd", move |ctx| {
                for i in 0..pairs {
                    for efs in fs.iter_mut() {
                        let file = LfsFileId(100 + i as u32);
                        efs.create(ctx, file).expect("efs create");
                        efs.delete(ctx, file).expect("efs delete");
                    }
                }
            })
        });
        pairs * P as u64
    });
    // Random reads with no hint: how far the list walk goes is the
    // number the churn mix's tail latency follows.
    let mut sim = bare_sim();
    let mut fs = populated(&mut sim);
    let node = sim.add_node("reader");
    let picks: Vec<u32> = (0..blocks).map(|_| rng.below(per_col) as u32).collect();
    let steps = sim.block_on(node, "rr", move |ctx| {
        let before: u64 = fs.iter().map(|e| e.stats().walk_steps).sum();
        for (g, &local) in picks.iter().enumerate() {
            fs[g % P].read(ctx, FILE, local, None).expect("efs read");
        }
        fs.iter().map(|e| e.stats().walk_steps).sum::<u64>() - before
    });
    l.out.push((
        "ledger.efs.rand_read.walk_steps_per_block".to_string(),
        steps as f64 / blocks as f64,
    ));
}

// ---------------------------------------------------------------------
// efs server: the same calls as messages to eight scheduled servers.

struct LfsRig {
    sim: Simulation,
    servers: Vec<ProcId>,
    client: parsim::NodeId,
}

fn lfs_rig() -> LfsRig {
    let mut sim = bare_sim();
    let servers = fresh_efs(false)
        .into_iter()
        .enumerate()
        .map(|(i, efs)| {
            let node = sim.add_node(format!("p{i}"));
            spawn_lfs_sched(&mut sim, node, format!("lfs{i}"), efs, SchedConfig::fifo())
        })
        .collect();
    let client = sim.add_node("client");
    LfsRig {
        sim,
        servers,
        client,
    }
}

fn lfs_create_all(ctx: &mut Ctx, lfs: &mut LfsClient, servers: &[ProcId]) {
    for &server in servers {
        lfs.call(ctx, server, LfsOp::Create { file: FILE })
            .expect("lfs create");
    }
}

fn lfs_write_stream(ctx: &mut Ctx, lfs: &mut LfsClient, servers: &[ProcId], n: u64) {
    let data = payload();
    let mut hints = [None; P];
    for g in 0..n {
        let col = (g % P as u64) as usize;
        let op = LfsOp::Write {
            file: FILE,
            block: (g / P as u64) as u32,
            data: data.clone(),
            hint: hints[col],
        };
        if let Ok(LfsData::Written { addr }) = lfs.call(ctx, servers[col], op) {
            hints[col] = Some(addr);
        } else {
            panic!("lfs write failed");
        }
    }
}

fn lfs_write_runs(ctx: &mut Ctx, lfs: &mut LfsClient, servers: &[ProcId], n: u64) {
    let per_col = n / P as u64;
    let mut hints = [None; P];
    for start in (0..per_col).step_by(RUN) {
        let len = RUN.min((per_col - start) as usize);
        for (col, &server) in servers.iter().enumerate() {
            let op = LfsOp::WriteRun {
                file: FILE,
                first: start as u32,
                data: vec![payload(); len],
                hint: hints[col],
            };
            match lfs.call(ctx, server, op) {
                Ok(LfsData::WrittenRun { addrs }) => hints[col] = addrs.last().copied(),
                other => panic!("lfs write_run failed: {other:?}"),
            }
        }
    }
}

fn lfs_rows(l: &mut Ledger, n: u64) {
    let per_col = n / P as u64;
    let blocks = per_col * P as u64;
    // The write rows time create + the whole stream on fresh servers.
    fn write_row(
        span: &Span,
        body: impl FnOnce(&mut Ctx, &mut LfsClient, &[ProcId]) + Send + 'static,
    ) {
        let LfsRig {
            mut sim,
            servers,
            client,
        } = lfs_rig();
        span.measure(|| {
            sim.block_on(client, "w", move |ctx| {
                let mut lfs = LfsClient::new();
                lfs_create_all(ctx, &mut lfs, &servers);
                body(ctx, &mut lfs, &servers);
            })
        });
    }
    l.row("lfs.write", "block", |span| {
        write_row(span, move |ctx, lfs, servers| {
            lfs_write_stream(ctx, lfs, servers, blocks)
        });
        blocks
    });
    l.row("lfs.write_run", "block", |span| {
        write_row(span, move |ctx, lfs, servers| {
            lfs_write_runs(ctx, lfs, servers, blocks)
        });
        blocks
    });
    let populated = || -> LfsRig {
        let mut rig = lfs_rig();
        let servers = rig.servers.clone();
        rig.sim.block_on(rig.client, "populate", move |ctx| {
            let mut lfs = LfsClient::new();
            lfs_create_all(ctx, &mut lfs, &servers);
            lfs_write_runs(ctx, &mut lfs, &servers, blocks);
        });
        rig
    };
    l.row("lfs.read", "block", |span| {
        let LfsRig {
            mut sim,
            servers,
            client,
        } = populated();
        span.measure(|| {
            sim.block_on(client, "r", move |ctx| {
                let mut lfs = LfsClient::new();
                let mut hints = [None; P];
                for g in 0..blocks {
                    let col = (g % P as u64) as usize;
                    let op = LfsOp::Read {
                        file: FILE,
                        block: (g / P as u64) as u32,
                        hint: hints[col],
                    };
                    match lfs.call(ctx, servers[col], op) {
                        Ok(LfsData::Block { addr, .. }) => hints[col] = Some(addr),
                        other => panic!("lfs read failed: {other:?}"),
                    }
                }
            })
        });
        blocks
    });
    l.row("lfs.read_run", "block", |span| {
        let LfsRig {
            mut sim,
            servers,
            client,
        } = populated();
        span.measure(|| {
            sim.block_on(client, "r", move |ctx| {
                let mut lfs = LfsClient::new();
                let mut hints = [None; P];
                for start in (0..per_col).step_by(RUN) {
                    let count = RUN.min((per_col - start) as usize) as u32;
                    for (col, &server) in servers.iter().enumerate() {
                        let op = LfsOp::ReadRun {
                            file: FILE,
                            first: start as u32,
                            count,
                            hint: hints[col],
                        };
                        match lfs.call(ctx, server, op) {
                            Ok(LfsData::Run { blocks }) => {
                                hints[col] = blocks.last().map(|(_, addr)| *addr);
                            }
                            other => panic!("lfs read_run failed: {other:?}"),
                        }
                    }
                }
            })
        });
        blocks
    });
}

// ---------------------------------------------------------------------
// core: the naive interface of a whole machine.

/// Builds `config`'s machine and, with `blocks > 0`, a file of that many
/// full-size blocks (untimed).
fn machine_with_file(
    config: &BridgeConfig,
    blocks: u64,
) -> (Simulation, BridgeMachine, Option<bridge_core::BridgeFileId>) {
    let (mut sim, machine) = BridgeMachine::build(config);
    assert_fiber_engine(&sim);
    let server = machine.server;
    let file = (blocks > 0).then(|| {
        sim.block_on(machine.frontend, "populate", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let file = bridge.create(ctx, CreateSpec::default()).expect("create");
            let data = Bytes::from(vec![0x3Cu8; gen::MAX_RECORD]);
            for _ in 0..blocks {
                bridge
                    .seq_write(ctx, file, data.clone())
                    .expect("seq_write");
            }
            file
        })
    });
    (sim, machine, file)
}

fn bridge_rows(l: &mut Ledger, n: u64, rng: &mut SplitMix64) {
    let plain = BridgeConfig::paper(P as u32);
    l.row("bridge.seq_write", "block", |span| {
        let (mut sim, machine, _) = machine_with_file(&plain, 0);
        let server = machine.server;
        span.measure(|| {
            sim.block_on(machine.frontend, "w", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                let file = bridge.create(ctx, CreateSpec::default()).expect("create");
                let data = Bytes::from(vec![0x3Cu8; gen::MAX_RECORD]);
                for _ in 0..n {
                    bridge
                        .seq_write(ctx, file, data.clone())
                        .expect("seq_write");
                }
            })
        });
        n
    });
    l.row("bridge.seq_read", "block", |span| {
        let (mut sim, machine, file) = machine_with_file(&plain, n);
        let (server, file) = (machine.server, file.expect("populated"));
        span.measure(|| {
            sim.block_on(machine.frontend, "r", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                bridge.open(ctx, file).expect("open");
                while bridge.seq_read(ctx, file).expect("seq_read").is_some() {}
            })
        });
        n
    });
    let picks: Vec<u64> = (0..n).map(|_| rng.below(n)).collect();
    l.row("bridge.rand_read", "block", |span| {
        let (mut sim, machine, file) = machine_with_file(&plain, n);
        let (server, file) = (machine.server, file.expect("populated"));
        let picks = picks.clone();
        span.measure(|| {
            sim.block_on(machine.frontend, "r", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                for &g in &picks {
                    bridge.rand_read(ctx, file, g).expect("rand_read");
                }
            })
        });
        n
    });
    let rand_write = |span: &Span, config: &BridgeConfig, picks: &[u64]| -> u64 {
        let (mut sim, machine, file) = machine_with_file(config, n);
        let (server, file) = (machine.server, file.expect("populated"));
        let picks = picks.to_vec();
        let count = picks.len() as u64;
        span.measure(|| {
            sim.block_on(machine.frontend, "w", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                let data = Bytes::from(vec![0xC3u8; gen::MAX_RECORD]);
                for &g in &picks {
                    bridge
                        .rand_write(ctx, file, g, data.clone())
                        .expect("rand_write");
                }
            })
        });
        count
    };
    l.row("bridge.rand_write", "block", |s| {
        rand_write(s, &plain, &picks)
    });
    let create_delete = |span: &Span, config: &BridgeConfig| -> u64 {
        let (mut sim, machine, _) = machine_with_file(config, 0);
        let server = machine.server;
        let pairs = n / 32;
        span.measure(|| {
            sim.block_on(machine.frontend, "cd", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                for _ in 0..pairs {
                    let file = bridge.create(ctx, CreateSpec::default()).expect("create");
                    bridge.delete(ctx, file).expect("delete");
                }
            })
        });
        pairs
    };
    l.row("bridge.create_delete", "block", |s| {
        create_delete(s, &plain)
    });
    let two_pc = plain.clone().with_2pc();
    l.row("bridge2pc.create_delete", "block", |s| {
        create_delete(s, &two_pc)
    });
    let parity = two_pc.clone().with_redundancy(Redundancy::parity());
    l.row("bridge2pc.parity_rand_write", "block", |s| {
        rand_write(s, &parity, &picks[..picks.len() / 4])
    });
}

// ---------------------------------------------------------------------
// tools, machine build, and the trace layer itself.

fn tool_rows(l: &mut Ledger, n: u64, rng: &mut SplitMix64) {
    let config = BridgeConfig::paper(P as u32);
    l.row("tools.copy", "block", |span| {
        let (mut sim, machine, file) = machine_with_file(&config, n);
        let (server, src) = (machine.server, file.expect("populated"));
        span.measure(|| {
            sim.block_on(machine.frontend, "copy", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                let opts = ToolOptions {
                    batch: BatchPolicy::Runs(RUN as u32),
                    ..ToolOptions::default()
                };
                copy(ctx, &mut bridge, src, &opts).expect("copy");
            })
        });
        n
    });
    let records = Arc::new(gen::keyed_records(n, rng));
    l.row("tools.sort", "block", |span| {
        let (mut sim, machine) = BridgeMachine::build(&config);
        let server = machine.server;
        let input = Arc::clone(&records);
        let src = sim.block_on(machine.frontend, "populate", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let file = bridge.create(ctx, CreateSpec::default()).expect("create");
            for rec in input.iter() {
                bridge.seq_write(ctx, file, rec.as_slice()).expect("write");
            }
            file
        });
        span.measure(|| {
            sim.block_on(machine.frontend, "sort", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                sort(ctx, &mut bridge, src, &SortOptions::default()).expect("sort");
            })
        });
        n
    });
}

fn setup_row(l: &mut Ledger) {
    let config = config(Kind::CopyP1024);
    let mut ns = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (built, cost) = l.clock.time(|| BridgeMachine::build(&config));
        drop(built);
        ns.push(cost as f64 / f64::from(config.breadth));
    }
    l.out.push((
        "ledger.setup.build_ns_per_node".to_string(),
        stats::min(&ns),
    ));
}

/// The observability layer priced like any other: what the profiler
/// costs per traced op, and what collecting the trace adds to a run.
fn trace_rows(l: &mut Ledger, n: u64) {
    // A naive write + read-back of this many blocks traces to about
    // 11.5 k ops at full scale (a Bridge op and an LFS op per call).
    let blocks = n * 45 / 128;
    let run = |traced: bool| -> (u64, Option<Arc<TraceCollector>>) {
        let mut config = BridgeConfig::paper(P as u32);
        let collector = traced.then(TraceCollector::install);
        config.tracer = collector.as_ref().map(|c| c.as_tracer());
        let (mut sim, machine) = BridgeMachine::build(&config);
        let server = machine.server;
        let ((), ns) = l.clock.time(|| {
            sim.block_on(machine.frontend, "traced", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                let file = bridge.create(ctx, CreateSpec::default()).expect("create");
                let data = Bytes::from(vec![0x3Cu8; gen::MAX_RECORD]);
                for _ in 0..blocks {
                    bridge
                        .seq_write(ctx, file, data.clone())
                        .expect("seq_write");
                }
                bridge.open(ctx, file).expect("open");
                while bridge.seq_read(ctx, file).expect("seq_read").is_some() {}
            })
        });
        (ns, collector)
    };
    let (mut plain, mut traced, mut per_op) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        plain.push(run(false).0 as f64);
        let (ns, collector) = run(true);
        traced.push(ns as f64);
        let data = collector.expect("traced run has a collector").take();
        let (report, ns) = l.clock.time(|| ProfileReport::from_trace(&data, 48));
        per_op.push(ns as f64 / report.profile.ops.len().max(1) as f64);
    }
    l.out.push((
        "ledger.trace.profile_ns_per_op".to_string(),
        stats::min(&per_op),
    ));
    l.out.push((
        "ledger.trace.collect_overhead_ratio".to_string(),
        stats::min(&traced) / stats::min(&plain),
    ));
}
