//! The five workloads, driven against a whole machine. A [`Round`] is
//! one fresh machine with its inputs in place; [`Round::iterate`] is the
//! measured phase and [`Round::verify`] the untimed check and clean-up
//! that returns the machine to where the iteration found it.

use super::{assert_fiber_engine, kernel_of, Kernel, Tally};
use crate::gen::{self, ChurnOp};
use crate::workload::{Inputs, Kind};
use bridge_core::{
    BatchPolicy, BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec, Redundancy,
};
use bridge_tools::{copy, pfsck, sort, FsckOptions, SortOptions, ToolOptions};
use bridge_trace::TraceCollector;
use parsim::{Ctx, ProcId, Simulation};
use std::collections::HashMap;
use std::sync::Arc;

/// Tracks per disk (8 blocks of 1 KB a track), sized to the workload
/// instead of the paper's 8192 (64 MB). The file system allocates
/// next-fit, so on a 64 MB disk every iteration lands on pages the
/// process has never touched: host cost then carries first-touch page
/// faults, the resident set grows with the number of iterations run
/// (554 MB for a ten-second `copy_p32`), and neither is a property of the
/// code. On a disk a few times the live data the cursor wraps within a
/// few iterations and both settle. Virtual time is untouched: the Wren
/// profile charges a flat positioning time, not a seek curve. At p=1024
/// the default geometry also made the machine build itself take 1 s to
/// 33 s (page-fault time that depended on the VM's memory state).
fn tracks(kind: Kind) -> u32 {
    match kind {
        // 320 blocks a column for the source, as many for the copy.
        Kind::CopyP32 | Kind::NaiveP32 | Kind::ChurnP8 => 256,
        // 1280 records a column, plus the sort's run and merge files.
        Kind::SortP8 => 1024,
        // 8 blocks a column, twice, beside 130 blocks of metadata.
        Kind::CopyP1024 => 32,
    }
}

/// The machine `kind` runs on: the paper's Wren profile throughout,
/// because host cost follows the event stream and an instant disk
/// retires a third of the events.
pub(super) fn config(kind: Kind) -> BridgeConfig {
    let mut c = BridgeConfig::paper(kind.breadth());
    c.disk_geometry.tracks = tracks(kind);
    match kind {
        Kind::ChurnP8 => c.with_2pc().with_redundancy(Redundancy::parity()),
        _ => c,
    }
}

/// What one iteration of the measured phase produced.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Virtual nanoseconds the iteration took.
    pub virt_ns: u64,
    /// Units of work the iteration completed: blocks copied, records
    /// sorted, blocks written and read back, or client calls (churn).
    pub units: u64,
    /// Virtual nanoseconds of each client call, in issue order (one entry
    /// for a tool workload: the tool call itself).
    pub op_ns: Vec<u64>,
    /// Calls made and calls failed, checks included.
    pub tally: Tally,
    /// Sort phases in virtual nanoseconds (local sort, merge); zero for
    /// the other workloads.
    pub sort_phases_ns: (u64, u64),
    /// The file the iteration left behind for `verify` to check and
    /// delete.
    output: Option<BridgeFileId>,
}

/// One fresh machine with a workload's inputs populated.
#[derive(Debug)]
pub struct Round {
    kind: Kind,
    inputs: Arc<Inputs>,
    pub(super) sim: Simulation,
    pub(super) machine: BridgeMachine,
    pub(super) collector: Option<Arc<TraceCollector>>,
    src: Option<BridgeFileId>,
    /// Calls made and failed while populating.
    pub(super) setup_tally: Tally,
}

impl Round {
    /// Builds the machine and writes the source file (the timed set-up).
    /// With `traced`, a trace collector rides in the machine's config.
    pub fn setup(kind: Kind, inputs: Arc<Inputs>, traced: bool) -> Round {
        let mut config = config(kind);
        let collector = traced.then(TraceCollector::install);
        config.tracer = collector.as_ref().map(|c| c.as_tracer());
        let (sim, machine) = BridgeMachine::build(&config);
        assert_fiber_engine(&sim);
        let mut round = Round {
            kind,
            inputs,
            sim,
            machine,
            collector,
            src: None,
            setup_tally: Tally::default(),
        };
        if matches!(kind, Kind::CopyP32 | Kind::SortP8 | Kind::CopyP1024) {
            round.populate();
        }
        round
    }

    /// Writes the inputs' records into a fresh default-placement file
    /// through the naive interface.
    fn populate(&mut self) {
        let inputs = Arc::clone(&self.inputs);
        let server = self.machine.server;
        let (src, tally) = self
            .sim
            .block_on(self.machine.frontend, "populate", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                let mut tally = Tally::default();
                let src = bridge.create(ctx, CreateSpec::default());
                tally.note(src.is_ok());
                if let Ok(file) = src {
                    for rec in &inputs.records {
                        tally.note(bridge.seq_write(ctx, file, rec.as_slice()).is_ok());
                    }
                }
                (src.ok(), tally)
            });
        self.src = src;
        self.setup_tally = tally;
    }

    /// The discarded first iteration that fills the caches, verified like
    /// any other. Returns its tally together with the set-up's.
    pub fn warm_up(&mut self) -> Tally {
        let warm = self.iterate();
        let mut tally = self.setup_tally;
        tally.absorb(self.verify(&warm));
        tally
    }

    /// The scheduler's counters so far.
    pub fn kernel(&self) -> Kernel {
        kernel_of(&self.sim)
    }

    /// One iteration of the measured phase.
    pub fn iterate(&mut self) -> Iteration {
        match self.kind {
            Kind::CopyP32 | Kind::CopyP1024 => self.tool_iteration(false),
            Kind::SortP8 => self.tool_iteration(true),
            Kind::NaiveP32 => self.naive_iteration(),
            Kind::ChurnP8 => self.churn_iteration(),
        }
    }

    fn tool_iteration(&mut self, sorting: bool) -> Iteration {
        let server = self.machine.server;
        let units = self.inputs.records.len() as u64;
        let Some(src) = self.src else {
            // Populate failed; the failure is already in `setup_tally`.
            return Iteration::default();
        };
        self.sim
            .block_on(self.machine.frontend, "tool", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                let mut it = Iteration::default();
                let t0 = ctx.now();
                if sorting {
                    let out = sort(ctx, &mut bridge, src, &SortOptions::default());
                    it.tally.note(out.is_ok());
                    if let Ok((dst, stats)) = out {
                        it.output = Some(dst);
                        it.sort_phases_ns = (stats.local_sort.as_nanos(), stats.merge.as_nanos());
                    }
                } else {
                    let opts = ToolOptions {
                        batch: BatchPolicy::Runs(8),
                        ..ToolOptions::default()
                    };
                    let out = copy(ctx, &mut bridge, src, &opts);
                    it.tally.note(out.is_ok());
                    it.output = out.ok().map(|(dst, _)| dst);
                }
                it.virt_ns = (ctx.now() - t0).as_nanos();
                it.units = units;
                it.op_ns.push(it.virt_ns);
                it
            })
    }

    /// The Table 2 path: create, append every record, open, read to end
    /// of file checking each block, delete.
    fn naive_iteration(&mut self) -> Iteration {
        let server = self.machine.server;
        let inputs = Arc::clone(&self.inputs);
        self.sim
            .block_on(self.machine.frontend, "naive", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                let mut it = Iteration::default();
                it.op_ns.reserve(2 * inputs.records.len() + 4);
                let t0 = ctx.now();
                let created = timed(ctx, &mut it, |ctx| {
                    bridge.create(ctx, CreateSpec::default())
                });
                if let Some(file) = created {
                    for rec in &inputs.records {
                        timed(ctx, &mut it, |ctx| {
                            bridge.seq_write(ctx, file, rec.as_slice())
                        });
                    }
                    timed(ctx, &mut it, |ctx| bridge.open(ctx, file));
                    let mut next = 0usize;
                    while let Some(Some(block)) =
                        timed(ctx, &mut it, |ctx| bridge.seq_read(ctx, file))
                    {
                        it.tally
                            .note(inputs.records.get(next).is_some_and(|r| holds(&block, r)));
                        next += 1;
                    }
                    it.tally.note(next == inputs.records.len());
                    timed(ctx, &mut it, |ctx| bridge.delete(ctx, file));
                }
                it.virt_ns = (ctx.now() - t0).as_nanos();
                it.units = inputs.records.len() as u64;
                it
            })
    }

    /// Four closed-loop clients, each replaying its script against its
    /// own files and checking every read against its model.
    fn churn_iteration(&mut self) -> Iteration {
        let server = self.machine.server;
        let node = self.machine.frontend;
        let inputs = Arc::clone(&self.inputs);
        self.sim.block_on(node, "churn", move |ctx| {
            let controller = ctx.me();
            let t0 = ctx.now();
            for client in 0..inputs.scripts.len() {
                let inputs = Arc::clone(&inputs);
                ctx.spawn(node, format!("client{client}"), move |ctx| {
                    let done = churn_client(ctx, server, &inputs.scripts[client]);
                    ctx.send(controller, done);
                });
            }
            let mut it = Iteration::default();
            for _ in 0..inputs.scripts.len() {
                let (_, done) = ctx.recv_as::<Iteration>();
                it.op_ns.extend(done.op_ns);
                it.tally.absorb(done.tally);
            }
            it.virt_ns = (ctx.now() - t0).as_nanos();
            it.units = it.op_ns.len() as u64;
            it
        })
    }

    /// Checks what `it` left behind and removes it (untimed): the copy
    /// byte-equal to the source, the sort output ordered and a
    /// permutation of the input. The naive and churn iterations check as
    /// they go and clean up after themselves. Returns the iteration's
    /// whole tally: the calls it made and these checks.
    pub fn verify(&mut self, it: &Iteration) -> Tally {
        let mut tally = it.tally;
        let Some(dst) = it.output else {
            return tally;
        };
        let server = self.machine.server;
        let inputs = Arc::clone(&self.inputs);
        let sorted = self.kind == Kind::SortP8;
        let checks = self
            .sim
            .block_on(self.machine.frontend, "verify", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                let mut tally = Tally::default();
                // The sort's output holds the record with key i at block
                // i (keys are a permutation of 0..n); the copy's holds
                // record i.
                let by_key: Vec<usize> = if sorted {
                    let mut at = vec![0usize; inputs.records.len()];
                    for (i, r) in inputs.records.iter().enumerate() {
                        at[gen::key_of(r) as usize] = i;
                    }
                    at
                } else {
                    (0..inputs.records.len()).collect()
                };
                tally.note(bridge.open(ctx, dst).is_ok());
                let mut next = 0usize;
                while let Ok(Some(block)) = bridge.seq_read(ctx, dst) {
                    tally.note(
                        by_key
                            .get(next)
                            .is_some_and(|&i| holds(&block, &inputs.records[i])),
                    );
                    next += 1;
                }
                tally.note(next == inputs.records.len());
                tally.note(bridge.delete(ctx, dst).is_ok());
                tally
            });
        tally.absorb(checks);
        tally
    }

    /// The closing consistency check: every instance and the machine-wide
    /// cross-check must come back clean (untimed).
    pub fn fsck_clean(&mut self) -> bool {
        let pairs: Vec<_> = self
            .machine
            .lfs
            .iter()
            .copied()
            .zip(self.machine.lfs_nodes.iter().copied())
            .collect();
        let opts = FsckOptions {
            server: Some(self.machine.server),
            ..FsckOptions::default()
        };
        self.sim
            .block_on(self.machine.frontend, "pfsck", move |ctx| {
                pfsck(ctx, &pairs, &opts).is_ok_and(|v| v.clean())
            })
    }
}

/// Issues one client call, recording its virtual latency and outcome.
fn timed<T, E>(
    ctx: &mut Ctx,
    it: &mut Iteration,
    call: impl FnOnce(&mut Ctx) -> Result<T, E>,
) -> Option<T> {
    let t0 = ctx.now();
    let out = call(ctx);
    it.op_ns.push((ctx.now() - t0).as_nanos());
    it.tally.note(out.is_ok());
    out.ok()
}

/// A block read back holds `record`: its bytes, then zero padding.
fn holds(block: &[u8], record: &[u8]) -> bool {
    block.len() >= record.len()
        && block[..record.len()] == *record
        && block[record.len()..].iter().all(|&b| b == 0)
}

/// One churn client's share of an iteration: its calls' latencies and
/// tally, which the controller merges.
fn churn_client(ctx: &mut Ctx, server: ProcId, script: &[ChurnOp]) -> Iteration {
    let mut bridge = BridgeClient::new(server);
    let mut it = Iteration::default();
    it.op_ns.reserve(script.len());
    // The model: per live slot, the file's id and each block's (fill, len).
    let mut files: HashMap<u32, (BridgeFileId, Vec<(u64, u16)>)> = HashMap::new();
    for op in script {
        match *op {
            ChurnOp::Create { slot } => {
                if let Some(id) = timed(ctx, &mut it, |ctx| {
                    bridge.create(ctx, CreateSpec::default())
                }) {
                    files.insert(slot, (id, Vec::new()));
                }
            }
            ChurnOp::Delete { slot } => match files.remove(&slot) {
                Some((id, _)) => {
                    timed(ctx, &mut it, |ctx| bridge.delete(ctx, id));
                }
                None => it.tally.note(false),
            },
            ChurnOp::Append { slot, fill, len } => match files.get_mut(&slot) {
                Some((id, blocks)) => {
                    let data = gen::fill_bytes(fill, usize::from(len));
                    if timed(ctx, &mut it, |ctx| bridge.seq_write(ctx, *id, data)).is_some() {
                        blocks.push((fill, len));
                    }
                }
                None => it.tally.note(false),
            },
            ChurnOp::Write {
                slot,
                block,
                fill,
                len,
            } => match files.get_mut(&slot) {
                Some((id, blocks)) => {
                    let data = gen::fill_bytes(fill, usize::from(len));
                    if timed(ctx, &mut it, |ctx| {
                        bridge.rand_write(ctx, *id, u64::from(block), data)
                    })
                    .is_some()
                    {
                        blocks[block as usize] = (fill, len);
                    }
                }
                None => it.tally.note(false),
            },
            ChurnOp::Read { slot, block } => match files.get(&slot) {
                Some((id, blocks)) => {
                    if let Some(data) = timed(ctx, &mut it, |ctx| {
                        bridge.rand_read(ctx, *id, u64::from(block))
                    }) {
                        let (fill, len) = blocks[block as usize];
                        it.tally
                            .note(holds(&data, &gen::fill_bytes(fill, usize::from(len))));
                    }
                }
                None => it.tally.note(false),
            },
        }
    }
    it
}
