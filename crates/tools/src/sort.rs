//! The merge sort tool (paper §5.2).
//!
//! Two phases:
//!
//! 1. **Local sort** — each node sorts its column with a classic external
//!    merge sort: in-core runs of `c` records (the paper uses c = 512),
//!    then k-way merge passes over scratch LFS files (the paper's k is
//!    2). "Consider the resulting files to be 'interleaved' across only
//!    one processor."
//! 2. **Parallel merge** — log(p) passes; pass `k` merges pairs of
//!    2^(k-1)-way interleaved files into 2^k-way interleaved files using
//!    the token-passing algorithm of the paper's Figure 4, with `t/2`
//!    reader processes per input file and `t` writer processes for the
//!    destination. Old files are discarded in parallel after each pass.
//!
//! Records are block-sized ("we assume that the records to be sorted are
//! the same size as a disk block") and ordered by their leading
//! [`KEY_LEN`]-byte key, compared lexicographically.
//!
//! The paper notes that "special cases are required to deal with
//! termination"; we resolve the one it leaves open — telling the *other*
//! processes the merge has ended — with a controller-mediated completion
//! broadcast.

use crate::column::{ColumnReader, ColumnWriter};
use crate::error::ToolError;
use crate::options::ToolOptions;
use crate::toolkit::{open_unlinked, scan_columns};
use bridge_core::{
    BatchPolicy, BridgeClient, BridgeFileId, BridgeHeader, CreateSpec, GlobalPtr, LfsSlice,
    PlacementSpec, BRIDGE_DATA,
};
use bridge_efs::{LfsClient, LfsFileId, LfsOp};
use bytes::Bytes;
use parsim::{Ctx, ProcId, SimDuration};

/// Bytes of each record's sort key (its leading bytes).
pub const KEY_LEN: usize = 8;

/// A spilled run of sorted records: its scratch file and its length.
type Run = (LfsFileId, u32);

/// Record sink fed by the streaming merge passes.
type EmitFn<'a> = dyn FnMut(&mut Ctx, &mut LfsClient, &[u8]) -> Result<(), ToolError> + 'a;

/// Extracts a record's key.
pub fn key_of(data: &[u8]) -> [u8; KEY_LEN] {
    let mut key = [0u8; KEY_LEN];
    let n = KEY_LEN.min(data.len());
    key[..n].copy_from_slice(&data[..n]);
    key
}

/// Sort tool tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortOptions {
    /// In-core buffer size in records (the paper's c = 512).
    pub in_core_records: u32,
    /// How many runs one local merge pass merges into one. 2 is the
    /// paper's prototype, whose log2(runs) passes make the local constant
    /// "higher than the constant for a global merge" and the sort as a
    /// whole super-linear (Table 4); `u32::MAX` is one pass over all runs,
    /// the "faster (e.g. multi-way) local merge" under which the paper
    /// expects "this anomaly should disappear" (`ablate_multiway` sweeps
    /// it).
    pub local_merge_arity: u32,
    /// Worker startup options.
    pub tool: ToolOptions,
    /// CPU time to handle one merge token.
    pub token_cpu: SimDuration,
    /// CPU time per record of in-core sorting/merging work.
    pub compare_cpu: SimDuration,
}

impl Default for SortOptions {
    fn default() -> Self {
        SortOptions {
            in_core_records: 512,
            local_merge_arity: 2,
            tool: ToolOptions::default(),
            token_cpu: SimDuration::from_micros(100),
            compare_cpu: SimDuration::from_micros(30),
        }
    }
}

/// What the sort accomplished, phase by phase (the paper's Table 4
/// columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortStats {
    /// Records sorted.
    pub records: u64,
    /// Duration of the local sort phase (barrier to barrier).
    pub local_sort: SimDuration,
    /// Duration of the parallel merge phase.
    pub merge: SimDuration,
    /// Whole-tool duration (includes setup).
    pub total: SimDuration,
    /// Local merge passes performed (max over nodes).
    pub local_merge_passes: u32,
    /// Global merge passes (⌈log2 p⌉).
    pub merge_passes: u32,
}

/// Base of the LFS file-id range reserved for tool scratch files, outside
/// the Bridge Server's assignment sequence.
const SCRATCH_BASE: u32 = 0x8000_0000;

// ---------------------------------------------------------------------
// Merge-network messages (private protocol).

#[derive(Debug, Clone, Copy)]
struct Token {
    tag: u32,
    start: bool,
    end: bool,
    key: [u8; KEY_LEN],
    originator: ProcId,
    seq: u64,
}

#[derive(Debug)]
struct WriteRec {
    tag: u32,
    seq: u64,
    data: Bytes,
}

#[derive(Debug, Clone, Copy)]
struct WriterStop {
    tag: u32,
}

/// A stopped writer's report: the blocks in its column, or the first
/// LFS error it met.
#[derive(Debug)]
struct WriterDone {
    tag: u32,
    widx: u32,
    count: Result<u32, ToolError>,
}

/// The end of one merge: the records merged, reported by the reader that
/// saw both files drained — or the LFS error that stopped a reader.
#[derive(Debug)]
struct MergeDone {
    tag: u32,
    records: Result<u64, ToolError>,
}

#[derive(Debug, Clone, Copy)]
struct ReaderStop {
    tag: u32,
}

// ---------------------------------------------------------------------

/// Sorts `src` into a fresh interleaved file; returns it with phase
/// timings. `src` is left intact.
///
/// # Errors
///
/// Propagates server and LFS errors; rejects linked files.
pub fn sort(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    src: BridgeFileId,
    opts: &SortOptions,
) -> Result<(BridgeFileId, SortStats), ToolError> {
    let t0 = ctx.now();
    let open = open_unlinked(ctx, bridge, src, "sort tool")?;
    let p = open.nodes.len();

    // Create the phase-1 output files: one per node, "interleaved across
    // only one processor". All Bridge files come from the server — it is
    // the monitor around directory operations.
    let mut phase1_files = Vec::with_capacity(p);
    for slice in &open.nodes {
        let id = bridge.create(
            ctx,
            CreateSpec {
                placement: PlacementSpec::RoundRobinAt { start: 0 },
                nodes: Some(vec![slice.index.0]),
                ..CreateSpec::default()
            },
        )?;
        phase1_files.push(id);
    }

    // Phase 1: local external sorts, one worker per node.
    let t_local = ctx.now();
    let (sort_opts, src_file, outs) = (*opts, open.lfs_file, phase1_files.clone());
    let local_results = scan_columns(ctx, &opts.tool, &open, "esort", move |c, i, slice, _| {
        local_sort(c, &sort_opts, i as u32, slice, src_file, outs[i])
    })?;
    let local_sort_time = ctx.now() - t_local;
    if ctx.trace_enabled() {
        ctx.trace_span(
            "tool",
            "tool.sort.local",
            t_local,
            &[("nodes", open.nodes.len() as u64)],
        );
    }
    let records: u64 = local_results.iter().map(|&(n, _)| u64::from(n)).sum();
    let local_merge_passes = local_results.iter().map(|&(_, p)| p).max().unwrap_or(0);

    // Phase 2: log(p) passes of pairwise token merges.
    let t_merge = ctx.now();
    let mut files: Vec<MergeFile> = open
        .nodes
        .iter()
        .zip(&phase1_files)
        .zip(&local_results)
        .map(|((slice, &id), &(count, _))| MergeFile {
            id,
            lfs_file: LfsFileId(id.0),
            slices: vec![LfsSlice {
                local_size: count,
                ..*slice
            }],
            size: u64::from(count),
        })
        .collect();

    let mut merge_passes = 0u32;
    let mut tag_base = 0u32;
    while files.len() > 1 {
        merge_passes += 1;
        let mut next_files = Vec::with_capacity(files.len().div_ceil(2));
        let mut pending = Vec::new();
        let mut inputs_to_delete = Vec::new();
        // The first error of this pass: a server error creating an
        // output, or an LFS error a reader or writer met. Whatever went
        // wrong, every network already started is awaited and stopped
        // before the error is returned.
        let mut first_err = None;
        let mut iter = files.into_iter();
        while let Some(a) = iter.next() {
            let Some(b) = iter.next() else {
                next_files.push(a); // odd file gets a bye
                break;
            };
            let out = match create_merge_output(ctx, bridge, &a, &b) {
                Ok(out) => out,
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            };
            let tag = tag_base;
            tag_base += 1;
            let network = spawn_merge_network(ctx, opts, tag, &a, &b, &out);
            inputs_to_delete.push(a.id);
            inputs_to_delete.push(b.id);
            pending.push((tag, out, network));
        }
        // Await every merge of this pass, then stop its processes.
        for (tag, out, _) in &mut pending {
            let tag = *tag;
            let env = ctx
                .recv_where(move |e| e.downcast_ref::<MergeDone>().is_some_and(|d| d.tag == tag));
            match env.downcast::<MergeDone>().expect("matched").records {
                Ok(records) => out.size = records,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        for (tag, mut out, network) in pending {
            for &r in &network.readers {
                ctx.send(r, ReaderStop { tag });
            }
            for &w in &network.writers {
                ctx.send(w, WriterStop { tag });
            }
            for _ in 0..network.writers.len() {
                let env = ctx.recv_where(move |e| {
                    e.downcast_ref::<WriterDone>().is_some_and(|d| d.tag == tag)
                });
                let done = env.downcast::<WriterDone>().expect("matched");
                match done.count {
                    Ok(count) => out.slices[done.widx as usize].local_size = count,
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            debug_assert!(
                first_err.is_some()
                    || out.size
                        == out
                            .slices
                            .iter()
                            .map(|s| u64::from(s.local_size))
                            .sum::<u64>(),
                "writer counts agree with the token sequence"
            );
            next_files.push(out);
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        // "Discard the old files in parallel."
        if !inputs_to_delete.is_empty() {
            bridge.delete_many(ctx, inputs_to_delete)?;
        }
        files = next_files;
        if ctx.trace_enabled() {
            ctx.trace_instant(
                "tool",
                "tool.sort.pass_done",
                &[
                    ("pass", u64::from(merge_passes)),
                    ("files", files.len() as u64),
                ],
            );
        }
    }
    let merge_time = ctx.now() - t_merge;
    if ctx.trace_enabled() {
        ctx.trace_span(
            "tool",
            "tool.sort.merge",
            t_merge,
            &[("passes", u64::from(merge_passes))],
        );
    }

    let result = files.pop().expect("at least one file");
    // Refresh the server's size view of the output.
    bridge.open(ctx, result.id)?;
    Ok((
        result.id,
        SortStats {
            records,
            local_sort: local_sort_time,
            merge: merge_time,
            total: ctx.now() - t0,
            local_merge_passes,
            merge_passes,
        },
    ))
}

/// A file between merge passes: identity plus per-node layout.
#[derive(Debug, Clone)]
struct MergeFile {
    id: BridgeFileId,
    lfs_file: LfsFileId,
    slices: Vec<LfsSlice>,
    size: u64,
}

fn create_merge_output(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    a: &MergeFile,
    b: &MergeFile,
) -> Result<MergeFile, ToolError> {
    let nodes: Vec<u32> = a
        .slices
        .iter()
        .chain(&b.slices)
        .map(|s| s.index.0)
        .collect();
    let id = bridge.create(
        ctx,
        CreateSpec {
            placement: PlacementSpec::RoundRobinAt { start: 0 },
            nodes: Some(nodes),
            ..CreateSpec::default()
        },
    )?;
    let open = bridge.open(ctx, id)?;
    Ok(MergeFile {
        id,
        lfs_file: open.lfs_file,
        slices: open.nodes,
        size: 0,
    })
}

struct MergeNetwork {
    readers: Vec<ProcId>,
    writers: Vec<ProcId>,
}

/// Spawns the Figure-4 process network for one pairwise merge: readers
/// over both input files' columns, writers for every output column, and
/// the start token.
fn spawn_merge_network(
    ctx: &mut Ctx,
    opts: &SortOptions,
    tag: u32,
    a: &MergeFile,
    b: &MergeFile,
    out: &MergeFile,
) -> MergeNetwork {
    let controller = ctx.me();
    let t = out.slices.len() as u64;

    // Writers first, so readers can be given their addresses.
    let mut writers = Vec::with_capacity(out.slices.len());
    for (w, slice) in out.slices.iter().enumerate() {
        ctx.delay(opts.tool.spawn_cost);
        let params = WriterParams {
            tag,
            widx: w as u32,
            t,
            lfs: slice.proc,
            lfs_index: slice.index.0,
            file: out.id,
            lfs_file: out.lfs_file,
            batch: opts.tool.batch,
        };
        writers.push(
            ctx.spawn(slice.node, format!("m{tag}w{w}"), move |c: &mut Ctx| {
                merge_writer(c, params)
            }),
        );
    }

    // Reader rings: positions of each input file, in order.
    let mut rings = [Vec::new(), Vec::new()];
    for (which, file) in [a, b].into_iter().enumerate() {
        for (i, slice) in file.slices.iter().enumerate() {
            ctx.delay(opts.tool.spawn_cost);
            let params = ReaderParams {
                tag,
                controller,
                lfs: slice.proc,
                lfs_file: file.lfs_file,
                local_size: slice.local_size,
                token_cpu: opts.token_cpu,
                batch: opts.tool.batch,
            };
            rings[which].push(ctx.spawn(
                slice.node,
                format!("m{tag}r{which}_{i}"),
                move |c: &mut Ctx| merge_reader(c, params),
            ));
        }
    }

    // Tell each reader its ring successor, the other file's first process
    // (Figure 4 needs both), and the writer addresses; then fire the start
    // token at the first process of file A.
    for (ring, other) in [(&rings[0], &rings[1]), (&rings[1], &rings[0])] {
        for (i, &r) in ring.iter().enumerate() {
            ctx.send(
                r,
                RingSetup {
                    next: ring[(i + 1) % ring.len()],
                    other_first: other[0],
                },
            );
            ctx.send(r, WriterList(writers.clone()));
        }
    }
    ctx.send(
        rings[0][0],
        Token {
            tag,
            start: true,
            end: false,
            key: [0; KEY_LEN],
            originator: controller,
            seq: 0,
        },
    );
    MergeNetwork {
        readers: rings.concat(),
        writers,
    }
}

#[derive(Debug, Clone, Copy)]
struct RingSetup {
    next: ProcId,
    other_first: ProcId,
}

#[derive(Debug, Clone, Copy)]
struct ReaderParams {
    tag: u32,
    controller: ProcId,
    lfs: ProcId,
    lfs_file: LfsFileId,
    local_size: u32,
    token_cpu: SimDuration,
    batch: BatchPolicy,
    // The writer list travels separately as a `WriterList` message.
}

#[derive(Debug, Clone, Copy)]
struct WriterParams {
    tag: u32,
    widx: u32,
    t: u64,
    lfs: ProcId,
    lfs_index: u32,
    file: BridgeFileId,
    lfs_file: LfsFileId,
    batch: BatchPolicy,
}

/// One merge writer: appends records it is sent, in arrival order (the
/// token discipline guarantees its sequence numbers ascend by t). An LFS
/// error does not stop it: it remembers the first, drains what it is
/// still sent, and reports the error when it is stopped.
fn merge_writer(ctx: &mut Ctx, params: WriterParams) {
    let mut client = LfsClient::new();
    let mut writer = ColumnWriter::new(params.lfs, params.lfs_file, 0).with_batch(params.batch);
    let mut status = Ok(());
    let tag = params.tag;
    loop {
        let env = ctx.recv_where(|e| {
            e.downcast_ref::<WriteRec>().is_some_and(|r| r.tag == tag)
                || e.downcast_ref::<WriterStop>().is_some_and(|s| s.tag == tag)
        });
        if env.is::<WriterStop>() {
            let count = status
                .and_then(|()| writer.flush(ctx, &mut client))
                .map(|()| writer.position());
            ctx.send(
                env.from(),
                WriterDone {
                    tag,
                    widx: params.widx,
                    count,
                },
            );
            return;
        }
        let rec = env.downcast::<WriteRec>().expect("matched");
        debug_assert_eq!(
            rec.seq % params.t,
            u64::from(params.widx),
            "stripe discipline"
        );
        let header = BridgeHeader {
            file: params.file,
            global_block: rec.seq,
            breadth: params.t as u32,
            next: GlobalPtr::new(params.lfs_index, writer.position() + 1),
            prev: GlobalPtr::new(params.lfs_index, writer.position().saturating_sub(1)),
        };
        if status.is_ok() {
            status = writer.append_block(ctx, &mut client, &header, &rec.data);
        }
    }
}

/// One merge reader. An LFS error ends its part in the merge: it reports
/// the error where a completed merge is reported, then waits to be
/// stopped like any other reader (the token dies with it, so no merge
/// completes behind the error).
fn merge_reader(ctx: &mut Ctx, params: ReaderParams) {
    let tag = params.tag;
    if let Err(e) = read_and_pass_tokens(ctx, &params) {
        ctx.send(
            params.controller,
            MergeDone {
                tag,
                records: Err(e),
            },
        );
        ctx.recv_where(|e| e.downcast_ref::<ReaderStop>().is_some_and(|s| s.tag == tag));
    }
}

/// The paper's Figure 4, verbatim in structure; returns when stopped.
fn read_and_pass_tokens(ctx: &mut Ctx, params: &ReaderParams) -> Result<(), ToolError> {
    // First the controller's ring setup, then the token loop.
    let setup = {
        let env = ctx.recv_where(|e| e.is::<RingSetup>());
        *env.downcast_ref::<RingSetup>().expect("matched")
    };
    let tag = params.tag;
    let me = ctx.me();
    let mut client = LfsClient::new();
    let mut reader =
        ColumnReader::new(params.lfs, params.lfs_file, params.local_size).with_batch(params.batch);
    let mut read_record = |c: &mut Ctx| {
        let block = reader.next_block(c, &mut client)?;
        Ok::<_, ToolError>(block.map(|(_, data)| (key_of(&data), data)))
    };
    // This reader's answer to a token: its own key, or "my file has ended".
    let answer = |end: bool, key: [u8; KEY_LEN], seq: u64| Token {
        tag,
        start: false,
        end,
        key,
        originator: me,
        seq,
    };

    let writers = {
        let env = ctx.recv_where(|e| e.is::<WriterList>());
        env.downcast::<WriterList>().expect("matched").0
    };
    // "Read a record."
    let mut current = read_record(ctx)?;

    loop {
        let env = ctx.recv_where(|e| {
            e.downcast_ref::<Token>().is_some_and(|t| t.tag == tag)
                || e.downcast_ref::<ReaderStop>().is_some_and(|s| s.tag == tag)
        });
        if env.is::<ReaderStop>() {
            return Ok(());
        }
        let token = *env.downcast_ref::<Token>().expect("matched");
        ctx.delay(params.token_cpu);

        if token.start {
            // Open with this file's first key — or, for a file empty at
            // the very start, an end token so the other file can drain
            // itself.
            let first = match &current {
                Some((key, _)) => answer(false, *key, 0),
                None => answer(true, [0; KEY_LEN], 0),
            };
            ctx.send(setup.other_first, first);
            continue;
        }
        match current.take() {
            // DONE: both files have ended, the merge is complete; report
            // and await Stop.
            None if token.end => ctx.send(
                params.controller,
                MergeDone {
                    tag,
                    records: Ok(token.seq),
                },
            ),
            // End of file: tell the other side to drain.
            None => ctx.send(token.originator, answer(true, [0; KEY_LEN], token.seq)),
            // This record is next in the output: ship it to its writer,
            // pass the token down the ring, read the next record.
            Some((key, data)) if token.end || key <= token.key => {
                let seq = token.seq;
                let dest = writers[(seq % writers.len() as u64) as usize];
                ctx.send_sized(dest, WriteRec { tag, seq, data }, 1024);
                ctx.send(
                    setup.next,
                    Token {
                        seq: seq + 1,
                        ..token
                    },
                );
                current = read_record(ctx)?;
            }
            // The other file's record goes first: answer with this key.
            Some((key, data)) => {
                ctx.send(token.originator, answer(false, key, token.seq));
                current = Some((key, data));
            }
        }
    }
}

#[derive(Debug, Clone)]
struct WriterList(Vec<ProcId>);

// ---------------------------------------------------------------------
// Phase 1: local external sort.

/// Sorts one column (`slice` of `src_file`) into worker `worker`'s
/// phase-1 output file `out_file`. Returns (records, local merge passes).
fn local_sort(
    ctx: &mut Ctx,
    opts: &SortOptions,
    worker: u32,
    slice: LfsSlice,
    src_file: LfsFileId,
    out_file: BridgeFileId,
) -> Result<(u32, u32), ToolError> {
    let mut client = LfsClient::new();
    let lfs = slice.proc;
    let batch = opts.tool.batch;
    let c = opts.in_core_records.max(1);

    let mut reader = ColumnReader::new(lfs, src_file, slice.local_size).with_batch(batch);
    let mut out = OutputColumn {
        writer: ColumnWriter::new(lfs, LfsFileId(out_file.0), 0).with_batch(batch),
        file: out_file,
        lfs_index: slice.index.0,
    };
    // Creates this worker's next scratch run, returning it with a writer.
    let mut run_counter = 0u32;
    let mut new_run = |ctx: &mut Ctx, client: &mut LfsClient| {
        let file = scratch_file_id(out_file, worker, run_counter);
        run_counter += 1;
        client.call(ctx, lfs, LfsOp::Create { file })?;
        let writer = ColumnWriter::new(lfs, file, 0).with_batch(batch);
        Ok::<_, ToolError>((file, writer))
    };

    // Run formation.
    let mut runs: Vec<Run> = Vec::new();
    loop {
        let mut core: Vec<Bytes> = Vec::with_capacity(c as usize);
        while (core.len() as u32) < c {
            match reader.next_block(ctx, &mut client)? {
                Some((_, data)) => core.push(data),
                None => break,
            }
        }
        if core.is_empty() {
            break;
        }
        charge_sort_cpu(ctx, opts, core.len());
        core.sort_by_key(|d| key_of(d));
        let exhausted = reader.remaining() == 0;
        if runs.is_empty() && exhausted {
            // The whole column fits in core: write straight to the output.
            for data in core {
                out.append(ctx, &mut client, &data)?;
            }
            out.writer.flush(ctx, &mut client)?;
            return Ok((out.writer.position(), 0));
        }
        // Spill a scratch run.
        let (run, mut w) = new_run(ctx, &mut client)?;
        let len = core.len() as u32;
        for data in core {
            append_scratch(&mut w, ctx, &mut client, &data)?;
        }
        w.flush(ctx, &mut client)?;
        runs.push((run, len));
        if exhausted {
            break;
        }
    }
    if runs.is_empty() {
        return Ok((0, 0));
    }

    // Merge passes: while more than k runs are left, merge them k at a
    // time into new scratch runs (a run left over alone gets a bye); then
    // merge what is left into the output. Run formation never leaves one
    // spilled run — a column that fits in core never spills — and a pass
    // over more than k leaves at least two.
    let k = opts.local_merge_arity.max(2) as usize;
    let source = RunSource {
        lfs,
        batch,
        compare_cpu: opts.compare_cpu,
    };
    let mut passes = 1u32;
    while runs.len() > k {
        passes += 1;
        let mut merged = Vec::with_capacity(runs.len().div_ceil(k));
        for group in runs.chunks(k) {
            if let [bye] = group {
                merged.push(*bye);
                continue;
            }
            let (run, mut w) = new_run(ctx, &mut client)?;
            let len = merge_runs(
                ctx,
                &mut client,
                &source,
                group,
                &mut |ctx, client, data| append_scratch(&mut w, ctx, client, data),
            )?;
            w.flush(ctx, &mut client)?;
            merged.push((run, len));
        }
        runs = merged;
    }
    merge_runs(
        ctx,
        &mut client,
        &source,
        &runs,
        &mut |ctx, client, data| out.append(ctx, client, data),
    )?;
    out.writer.flush(ctx, &mut client)?;
    Ok((out.writer.position(), passes))
}

fn scratch_file_id(out: BridgeFileId, worker: u32, run: u32) -> LfsFileId {
    LfsFileId(SCRATCH_BASE | (out.0 & 0xFFF) << 16 | (worker & 0x3F) << 10 | (run & 0x3FF))
}

fn charge_sort_cpu(ctx: &mut Ctx, opts: &SortOptions, records: usize) {
    let log = usize::BITS - records.next_power_of_two().leading_zeros();
    ctx.delay(opts.compare_cpu * (records as u64) * u64::from(log));
}

/// Appends one record to a scratch run: runs hold bare records, padded
/// to the EFS payload, with no Bridge header.
fn append_scratch(
    w: &mut ColumnWriter,
    ctx: &mut Ctx,
    client: &mut LfsClient,
    data: &[u8],
) -> Result<(), ToolError> {
    let mut payload = data.to_vec();
    payload.resize(bridge_efs::EFS_PAYLOAD, 0);
    w.append_raw(ctx, client, payload)
}

/// Where a worker's scratch runs live and what comparing two records
/// costs.
struct RunSource {
    lfs: ProcId,
    batch: BatchPolicy,
    compare_cpu: SimDuration,
}

/// Streams the merge of any number of scratch runs into `emit` and
/// deletes them; returns the merged length. Every turn costs one
/// `compare_cpu`, emits the least head record (the earliest run's on a
/// tie) and refills that head; the turn that finds every head empty ends
/// the merge. With two runs this is the prototype's 2-way merge, with all
/// of a worker's runs the one-pass multi-way merge.
fn merge_runs(
    ctx: &mut Ctx,
    client: &mut LfsClient,
    source: &RunSource,
    runs: &[Run],
    emit: &mut EmitFn<'_>,
) -> Result<u32, ToolError> {
    let next = |ctx: &mut Ctx, client: &mut LfsClient, r: &mut ColumnReader| {
        Ok::<_, ToolError>(r.next_raw(ctx, client)?.map(|p| p.slice(..BRIDGE_DATA)))
    };
    // Each run's stream with its buffered head record.
    let mut heads = Vec::with_capacity(runs.len());
    for &(run, len) in runs {
        let mut reader = ColumnReader::new(source.lfs, run, len).with_batch(source.batch);
        let head = next(ctx, client, &mut reader)?;
        heads.push((reader, head));
    }
    let mut count = 0u32;
    loop {
        ctx.delay(source.compare_cpu);
        let least = heads
            .iter()
            .enumerate()
            .filter_map(|(i, (_, head))| head.as_ref().map(|data| (i, key_of(data))))
            .min_by_key(|&(_, key)| key);
        let Some((i, _)) = least else { break };
        let (reader, head) = &mut heads[i];
        let data = head.take().expect("the least head is a record");
        emit(ctx, client, &data)?;
        *head = next(ctx, client, reader)?;
        count += 1;
    }
    for &(run, _) in runs {
        client.call(ctx, source.lfs, LfsOp::Delete { file: run })?;
    }
    Ok(count)
}

/// Appends Bridge-formatted blocks to a worker's phase-1 output column.
struct OutputColumn {
    writer: ColumnWriter,
    file: BridgeFileId,
    lfs_index: u32,
}

impl OutputColumn {
    fn append(
        &mut self,
        ctx: &mut Ctx,
        client: &mut LfsClient,
        data: &[u8],
    ) -> Result<(), ToolError> {
        let local = self.writer.position();
        let header = BridgeHeader {
            file: self.file,
            global_block: u64::from(local),
            breadth: 1,
            next: GlobalPtr::new(self.lfs_index, local + 1),
            prev: GlobalPtr::new(self.lfs_index, local.saturating_sub(1)),
        };
        self.writer.append_block(ctx, client, &header, data)
    }
}
