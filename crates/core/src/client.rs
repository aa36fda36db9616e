//! Client-side helpers: typed access to the Bridge Server from inside a
//! simulated process, and the worker half of parallel-open jobs.

use crate::error::BridgeError;
use crate::ids::{BridgeFileId, JobId};
use crate::protocol::{
    request_wire_size, BridgeCmd, BridgeData, CreateSpec, JobDeliver, JobRequest, JobSupply,
    MachineInfo, MachineManifest, OpenInfo,
};
use bridge_efs::{RetryPolicy, RpcClient, RpcProtocol};
use bytes::Bytes;
use parsim::{Ctx, ProcId};

/// The Bridge request/reply protocol as the at-least-once engine sees it.
#[derive(Debug)]
struct BridgeRpc;

impl RpcProtocol for BridgeRpc {
    type Cmd = BridgeCmd;
    type Data = BridgeData;
    type Error = BridgeError;

    fn name(cmd: &BridgeCmd) -> &'static str {
        cmd.name()
    }
    fn wire_size(cmd: &BridgeCmd) -> usize {
        request_wire_size(cmd)
    }
    fn timed_out(attempts: u32) -> BridgeError {
        BridgeError::TimedOut { attempts }
    }
}

/// A typed client for the Bridge Server.
///
/// Wraps the raw [`BridgeRequest`](crate::BridgeRequest)/
/// [`BridgeReply`](crate::BridgeReply) protocol over the same [`RpcClient`]
/// engine the LFS client uses: requests carry fresh ids
/// (drawn from the owning process's [`Ctx::open_id`] stream, so ids
/// never collide across client instances in one process) and replies are
/// matched by id (other traffic is stashed by the underlying selective
/// receive).
///
/// With a [`RetryPolicy`] installed ([`with_retry`](BridgeClient::with_retry)),
/// [`call`](BridgeClient::call) — and every typed helper built on it —
/// times out, resends the *same* request id with capped exponential
/// backoff, and gives up with [`BridgeError::TimedOut`] once the budget is
/// spent. The server's dedup window makes the resend safe for
/// non-idempotent commands. The pipelined [`send`](BridgeClient::send) /
/// [`wait`](BridgeClient::wait) pair retries too: `send` records the
/// command so `wait` can resend it (without a policy it waits
/// indefinitely).
#[derive(Debug)]
pub struct BridgeClient {
    server: ProcId,
    rpc: RpcClient<BridgeRpc>,
}

impl BridgeClient {
    /// Creates a client talking to `server` that waits indefinitely for
    /// replies (no retries).
    pub fn new(server: ProcId) -> Self {
        Self::with_retry(server, RetryPolicy::none())
    }

    /// Creates a client whose calls time out and resend per `retry`.
    pub fn with_retry(server: ProcId, retry: RetryPolicy) -> Self {
        BridgeClient {
            server,
            rpc: RpcClient::with_retry(retry),
        }
    }

    /// The server this client talks to.
    pub fn server(&self) -> ProcId {
        self.server
    }

    /// The client's retry policy.
    pub fn retry(&self) -> RetryPolicy {
        self.rpc.retry()
    }

    /// Sends `cmd` and returns its request id (for pipelining).
    pub fn send(&mut self, ctx: &mut Ctx, cmd: BridgeCmd) -> u64 {
        self.rpc.send(ctx, self.server, cmd)
    }

    /// Waits for the reply to a previously sent request, resending it on
    /// timeout when the client has a retry policy.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`], or returns
    /// [`BridgeError::TimedOut`] when the retry budget is spent without a
    /// reply.
    pub fn wait(&mut self, ctx: &mut Ctx, id: u64) -> Result<BridgeData, BridgeError> {
        self.rpc.wait(ctx, self.server, id)
    }

    /// Round trip: send `cmd` and wait for its reply, resending on
    /// timeout when the client has a retry policy.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`], or returns
    /// [`BridgeError::TimedOut`] when the retry budget is spent without a
    /// reply.
    pub fn call(&mut self, ctx: &mut Ctx, cmd: BridgeCmd) -> Result<BridgeData, BridgeError> {
        self.rpc.call(ctx, self.server, cmd)
    }

    /// Creates a file.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn create(&mut self, ctx: &mut Ctx, spec: CreateSpec) -> Result<BridgeFileId, BridgeError> {
        match self.call(ctx, BridgeCmd::Create(spec))? {
            BridgeData::Created(file) => Ok(file),
            other => Err(unexpected("Created", &other)),
        }
    }

    /// Deletes a file; returns total blocks freed.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn delete(&mut self, ctx: &mut Ctx, file: BridgeFileId) -> Result<u64, BridgeError> {
        match self.call(ctx, BridgeCmd::Delete { file })? {
            BridgeData::Deleted { blocks } => Ok(blocks),
            other => Err(unexpected("Deleted", &other)),
        }
    }

    /// Deletes several files in one parallel wave; returns total blocks
    /// freed. The disk work of different files overlaps, unlike repeated
    /// [`BridgeClient::delete`] calls.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn delete_many(
        &mut self,
        ctx: &mut Ctx,
        files: Vec<BridgeFileId>,
    ) -> Result<u64, BridgeError> {
        match self.call(ctx, BridgeCmd::DeleteMany { files })? {
            BridgeData::Deleted { blocks } => Ok(blocks),
            other => Err(unexpected("Deleted", &other)),
        }
    }

    /// Opens a file: refreshes the server's size view, resets this client's
    /// sequential cursor, and returns the structural information tools use.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn open(&mut self, ctx: &mut Ctx, file: BridgeFileId) -> Result<OpenInfo, BridgeError> {
        match self.call(ctx, BridgeCmd::Open { file })? {
            BridgeData::Opened(info) => Ok(info),
            other => Err(unexpected("Opened", &other)),
        }
    }

    /// Reads the next block sequentially; `None` at end of file.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn seq_read(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
    ) -> Result<Option<Bytes>, BridgeError> {
        match self.call(ctx, BridgeCmd::SeqRead { file })? {
            BridgeData::Block(data) => Ok(Some(data)),
            BridgeData::Eof => Ok(None),
            other => Err(unexpected("Block/Eof", &other)),
        }
    }

    /// Appends one block (at most 960 bytes); returns its global number.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn seq_write(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        data: impl Into<Bytes>,
    ) -> Result<u64, BridgeError> {
        let data = data.into();
        match self.call(ctx, BridgeCmd::SeqWrite { file, data })? {
            BridgeData::Written { block } => Ok(block),
            other => Err(unexpected("Written", &other)),
        }
    }

    /// Reads a specific global block.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn rand_read(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
    ) -> Result<Bytes, BridgeError> {
        match self.call(ctx, BridgeCmd::RandRead { file, block })? {
            BridgeData::Block(data) => Ok(data),
            other => Err(unexpected("Block", &other)),
        }
    }

    /// Overwrites a specific global block (or appends when
    /// `block == size`).
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn rand_write(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
        data: impl Into<Bytes>,
    ) -> Result<(), BridgeError> {
        let data = data.into();
        match self.call(ctx, BridgeCmd::RandWrite { file, block, data })? {
            BridgeData::Written { .. } => Ok(()),
            other => Err(unexpected("Written", &other)),
        }
    }

    /// Groups the calling process (as controller) and `workers` into a job.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn parallel_open(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        workers: Vec<ProcId>,
    ) -> Result<JobId, BridgeError> {
        match self.call(ctx, BridgeCmd::ParallelOpen { file, workers })? {
            BridgeData::JobOpened(job) => Ok(job),
            other => Err(unexpected("JobOpened", &other)),
        }
    }

    /// One lock-step read round: the next `t` blocks go to the workers.
    /// Returns `(delivered, eof)`.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn job_read(&mut self, ctx: &mut Ctx, job: JobId) -> Result<(u32, bool), BridgeError> {
        match self.call(ctx, BridgeCmd::JobRead { job })? {
            BridgeData::JobReadDone { delivered, eof } => Ok((delivered, eof)),
            other => Err(unexpected("JobReadDone", &other)),
        }
    }

    /// One lock-step write round: gathers one block from each worker.
    /// Returns the number accepted (< t when a worker signalled end).
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn job_write(&mut self, ctx: &mut Ctx, job: JobId) -> Result<u32, BridgeError> {
        match self.call(ctx, BridgeCmd::JobWrite { job })? {
            BridgeData::JobWritten { accepted } => Ok(accepted),
            other => Err(unexpected("JobWritten", &other)),
        }
    }

    /// Releases a job's server-side state.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn job_close(&mut self, ctx: &mut Ctx, job: JobId) -> Result<(), BridgeError> {
        match self.call(ctx, BridgeCmd::JobClose { job })? {
            BridgeData::JobClosed => Ok(()),
            other => Err(unexpected("JobClosed", &other)),
        }
    }

    /// Repairs a redundant file after a node failure (all nodes must be
    /// back up); returns the number of components rewritten.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn rebuild(&mut self, ctx: &mut Ctx, file: BridgeFileId) -> Result<u64, BridgeError> {
        match self.call(ctx, BridgeCmd::Rebuild { file })? {
            BridgeData::Rebuilt { repaired } => Ok(repaired),
            other => Err(unexpected("Rebuilt", &other)),
        }
    }

    /// Repairs one chunk of a redundant file — blocks `[first, first +
    /// count)`, clipped to the file's size. Chunks must be driven
    /// front-to-back: repairs onto a fresh spare land as appends.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn rebuild_range(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        first: u64,
        count: u64,
    ) -> Result<u64, BridgeError> {
        match self.call(ctx, BridgeCmd::RebuildRange { file, first, count })? {
            BridgeData::Rebuilt { repaired } => Ok(repaired),
            other => Err(unexpected("Rebuilt", &other)),
        }
    }

    /// Drives a full rebuild of `file` as a sequence of `chunk`-block
    /// [`Self::rebuild_range`] calls with `pause` simulated time between
    /// them. The chunk size and pause are the rebuild-rate knob: small
    /// chunks and long pauses keep the single-fiber server responsive to
    /// foreground traffic (low p99) at the cost of a longer rebuild;
    /// large chunks finish sooner but stall concurrent requests. Returns
    /// the total number of components rewritten.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn rebuild_paced(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        chunk: u64,
        pause: parsim::SimDuration,
    ) -> Result<u64, BridgeError> {
        assert!(chunk > 0, "rebuild chunk must be at least one block");
        let size = self.open(ctx, file)?.size;
        let mut repaired = 0;
        let mut first = 0;
        while first < size {
            repaired += self.rebuild_range(ctx, file, first, chunk)?;
            first += chunk;
            if ctx.trace_enabled() {
                ctx.trace_instant(
                    "redundancy",
                    "redundancy.rebuild_progress",
                    &[
                        ("file", u64::from(file.0)),
                        ("done", first.min(size)),
                        ("total", size),
                    ],
                );
            }
            if first < size {
                ctx.delay(pause);
            }
        }
        Ok(repaired)
    }

    /// Structural information about the machine (the tool bootstrap).
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn get_info(&mut self, ctx: &mut Ctx) -> Result<MachineInfo, BridgeError> {
        match self.call(ctx, BridgeCmd::GetInfo)? {
            BridgeData::Info(info) => Ok(info),
            other => Err(unexpected("Info", &other)),
        }
    }

    /// Fetches the server's directory manifest and 2PC decision history
    /// (the input to `pfsck`'s machine-wide pass).
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn get_manifest(&mut self, ctx: &mut Ctx) -> Result<MachineManifest, BridgeError> {
        match self.call(ctx, BridgeCmd::GetManifest)? {
            BridgeData::Manifest(m) => Ok(m),
            other => Err(unexpected("Manifest", &other)),
        }
    }

    /// Polls the machine's live health snapshot (see
    /// [`BridgeCmd::GetHealth`]). An unarmed machine answers an empty
    /// snapshot rather than an error.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`BridgeError`].
    pub fn get_health(
        &mut self,
        ctx: &mut Ctx,
    ) -> Result<bridge_trace::HealthSnapshot, BridgeError> {
        match self.call(ctx, BridgeCmd::GetHealth)? {
            BridgeData::Health(h) => Ok(*h),
            other => Err(unexpected("Health", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &BridgeData) -> BridgeError {
    BridgeError::Corrupt(format!("expected {wanted} reply, got {got:?}"))
}

/// The worker half of a parallel-open job.
///
/// Workers don't talk to the server's request interface; they receive
/// [`JobDeliver`] messages during job reads and answer [`JobRequest`]
/// messages during job writes.
#[derive(Debug, Clone, Copy)]
pub struct JobWorker {
    job: JobId,
}

impl JobWorker {
    /// Binds a worker to a job id (obtained from the controller, e.g. via
    /// an application message).
    pub fn new(job: JobId) -> Self {
        JobWorker { job }
    }

    /// Receives this worker's block from the current read round:
    /// `Some((global_block, data))`, or `None` when the file ran out.
    pub fn recv_block(&self, ctx: &mut Ctx) -> Option<(u64, Bytes)> {
        let job = self.job;
        let env = ctx.recv_where(|e| e.downcast_ref::<JobDeliver>().is_some_and(|d| d.job == job));
        let deliver = env.downcast::<JobDeliver>().expect("matched type");
        deliver.data.map(|d| (deliver.block, d))
    }

    /// Awaits the server's poll in a write round and supplies `data`
    /// (`None` = this worker is out of data).
    pub fn supply_block(&self, ctx: &mut Ctx, data: Option<Bytes>) {
        let job = self.job;
        let env = ctx.recv_where(|e| e.downcast_ref::<JobRequest>().is_some_and(|r| r.job == job));
        let server = env.from();
        let req = env.downcast::<JobRequest>().expect("matched type");
        let bytes = data.as_ref().map_or(16, |d| 16 + d.len());
        ctx.send_sized(
            server,
            JobSupply {
                job,
                block: req.block,
                data,
            },
            bytes,
        );
    }
}
