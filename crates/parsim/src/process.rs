//! Simulated processes and the context handle they run with.

use crate::envelope::{Envelope, PayloadCloner};
use crate::fiber::{self, TransferCell};
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;
use crate::trace::{TraceArg, Tracer, TracerHandle};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;

/// Identifies a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub(crate) u32);

impl ProcId {
    /// The process's index in spawn order (0-based).
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The id of the process spawned at `index` (spawn-order ids, the
    /// mirror of [`ProcId::index`]); for fixtures that need process ids
    /// without a live simulation.
    pub const fn from_index(index: usize) -> ProcId {
        ProcId(index as u32)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc{}", self.0)
    }
}

/// The body of a simulated process.
pub type ProcFn = Box<dyn FnOnce(&mut Ctx) + 'static>;

/// Payload used to unwind a process when the simulation shuts down.
/// Never observed by user code.
pub(crate) struct ShutdownSignal;

/// Scheduler → process wake-ups. Each control transfer carries the
/// authoritative clock.
pub(crate) enum Resume {
    /// Start running, or resume after a delay.
    Go { now: SimTime },
    /// A message satisfying a pending receive.
    Msg { env: Envelope, now: SimTime },
    /// A `recv_timeout` expired with no message.
    Timeout { now: SimTime },
    /// Reply to a `Spawn` syscall: the child's id.
    Spawned(ProcId),
    /// The simulation is being torn down; unwind.
    Shutdown,
}

/// A fire-and-forget message post.
pub(crate) struct Post {
    /// Destination process.
    pub(crate) dst: ProcId,
    /// Type-erased message payload.
    pub(crate) payload: Box<dyn Any + Send>,
    /// Payload size charged to the latency model.
    pub(crate) bytes: usize,
    /// Present for cloneable sends; lets the fault layer duplicate.
    pub(crate) cloner: Option<PayloadCloner>,
}

/// Process → scheduler requests. Posts are not among them: a process
/// buffers its posts in its fiber's transfer cell, and the scheduler
/// takes them with the next syscall.
pub(crate) enum Syscall {
    /// Create a new process; the scheduler replies with
    /// [`Resume::Spawned`].
    Spawn {
        /// Node to spawn on.
        node: NodeId,
        /// Process name.
        name: String,
        /// Process body.
        f: ProcFn,
    },
    /// Block until a message arrives.
    BlockRecv,
    /// Block until a message arrives or the duration elapses.
    BlockRecvTimeout(SimDuration),
    /// Block for a fixed span of virtual time.
    BlockDelay(SimDuration),
    /// The process body returned (or panicked, carrying the message).
    Exit {
        /// The panic message, if the body panicked.
        panic: Option<String>,
    },
}

/// Handle through which a simulated process interacts with virtual time,
/// the interconnect, and other processes.
///
/// A `&mut Ctx` is passed to every process body. All methods that block do
/// so in *virtual* time: the process switches its fiber out to the
/// scheduler, and the scheduler advances the clock.
pub struct Ctx {
    pid: ProcId,
    node: NodeId,
    now: SimTime,
    /// The transfer cell of the fiber this process runs on.
    cell: *mut TransferCell,
    stash: VecDeque<Envelope>,
    rng: SmallRng,
    tracer: TracerHandle,
    /// Next value handed out by [`Ctx::unique_id`].
    next_unique: u64,
    /// Ids drawn by [`Ctx::open_id`] and not yet closed, ascending.
    open: VecDeque<u64>,
}

impl Ctx {
    /// A context for the process running on the fiber that owns `cell`.
    pub(crate) fn new(
        pid: ProcId,
        node: NodeId,
        cell: *mut TransferCell,
        rng_seed: u64,
        tracer: TracerHandle,
    ) -> Self {
        Ctx {
            pid,
            node,
            now: SimTime::ZERO,
            cell,
            stash: VecDeque::new(),
            rng: SmallRng::seed_from_u64(rng_seed),
            tracer,
            next_unique: 0,
            open: VecDeque::new(),
        }
    }

    /// Parks until the scheduler starts this process; records the start
    /// time.
    pub(crate) fn wait_start(&mut self) {
        // SAFETY: we are running on the fiber that owns `cell`; the
        // scheduler parked the initial resume before entering it.
        match unsafe { fiber::take_initial_resume(self.cell) } {
            Resume::Go { now } => self.now = now,
            Resume::Shutdown => std::panic::panic_any(ShutdownSignal),
            _ => unreachable!("first resume must be Go or Shutdown"),
        }
    }

    /// Posts a message without giving up control: the post waits in the
    /// transfer cell until the process next switches out, and the
    /// scheduler services the buffered posts, in order, ahead of that
    /// syscall. The virtual clock cannot move while the process runs, so
    /// every post sees the `now` it was made at.
    fn post(&mut self, post: Post) {
        // SAFETY: we are running on the fiber that owns `cell`.
        unsafe { fiber::buffer_post(self.cell, post) }
    }

    /// Issues a syscall and waits for the scheduler's resume.
    fn call(&mut self, sc: Syscall) -> Resume {
        // SAFETY: we are running on the fiber that owns `cell`.
        match unsafe { fiber::yield_syscall(self.cell, sc) } {
            Resume::Shutdown => std::panic::panic_any(ShutdownSignal),
            r => r,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This process's id.
    pub fn me(&self) -> ProcId {
        self.pid
    }

    /// The node this process runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// A deterministic per-process random number generator.
    ///
    /// Seeded from the simulation seed and the process id, so runs are
    /// reproducible.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// The simulation's tracer (the no-op tracer unless one was installed
    /// via [`SimConfig`](crate::SimConfig)).
    pub fn tracer(&self) -> &dyn Tracer {
        &*self.tracer
    }

    /// True when a recording tracer is installed. Gate span/instant
    /// emission on this so disabled runs construct nothing.
    pub fn trace_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Emits a span attributed to this process, closing at the current
    /// virtual time. Call with the `start` captured before the traced work.
    pub fn trace_span(&self, cat: &'static str, name: &str, start: SimTime, args: &[TraceArg]) {
        self.tracer.span(self.pid, cat, name, start, self.now, args);
    }

    /// Emits a zero-duration marker attributed to this process at the
    /// current virtual time.
    pub fn trace_instant(&self, cat: &'static str, name: &str, args: &[TraceArg]) {
        self.tracer.instant(self.pid, cat, name, self.now, args);
    }

    /// Advances virtual time by `d`, modelling computation or device service
    /// time. Messages arriving in the meantime are queued, not lost.
    pub fn delay(&mut self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        match self.call(Syscall::BlockDelay(d)) {
            Resume::Go { now } => self.now = now,
            _ => unreachable!("delay resumed with non-Go"),
        }
    }

    /// Sends `msg` to `dst`, charged as a zero-byte message (header-only
    /// cost under the latency model). Never blocks in virtual time.
    pub fn send<M: Send + 'static>(&mut self, dst: ProcId, msg: M) {
        self.send_sized(dst, msg, 0);
    }

    /// Sends `msg` to `dst`, charging the latency model for a payload of
    /// `bytes` bytes. Never blocks in virtual time.
    ///
    /// Delivery order between the same (sender, receiver) pair is FIFO when
    /// latencies are equal; the scheduler breaks virtual-time ties in post
    /// order.
    pub fn send_sized<M: Send + 'static>(&mut self, dst: ProcId, msg: M, bytes: usize) {
        self.post(Post {
            dst,
            payload: Box::new(msg),
            bytes,
            cloner: None,
        });
    }

    /// Like [`Ctx::send_sized`], for `Clone` payloads: the message carries
    /// a duplicator so an active [`FaultPlan`](crate::FaultPlan) can
    /// deliver it twice. Use this for protocol requests and replies —
    /// whose receivers are expected to tolerate duplicates — so
    /// duplicate-delivery faults actually exercise that path; messages
    /// sent without it deliver once regardless of the plan.
    pub fn send_sized_cloneable<M: Clone + Send + 'static>(
        &mut self,
        dst: ProcId,
        msg: M,
        bytes: usize,
    ) {
        self.post(Post {
            dst,
            payload: Box::new(msg),
            bytes,
            cloner: Some(|payload| {
                let m = payload
                    .downcast_ref::<M>()
                    .expect("cloner called with the payload type it was built for");
                Box::new(m.clone())
            }),
        });
    }

    /// A process-unique identifier: 1, 2, 3, ... in call order.
    ///
    /// Intended for request ids: every RPC client on this process draws
    /// from the same counter, so a server-side dedup window keyed by
    /// (sender, id) never sees two distinct requests under one key even
    /// when a process runs several client instances.
    pub fn unique_id(&mut self) -> u64 {
        self.next_unique += 1;
        self.next_unique
    }

    /// A [`Ctx::unique_id`] for a request this process will await: it holds
    /// [`Ctx::low_id`] down until [`Ctx::close_id`] releases it.
    pub fn open_id(&mut self) -> u64 {
        let id = self.unique_id();
        self.open.push_back(id);
        id
    }

    /// Releases an id from [`Ctx::open_id`]: its reply was taken or it was
    /// given up on. Closing an id twice, or one never opened, is a no-op.
    pub fn close_id(&mut self, id: u64) {
        if let Some(pos) = self.open.iter().position(|&o| o == id) {
            self.open.remove(pos);
        }
    }

    /// The process's mark: its lowest open id, or the next id to be drawn
    /// when none is open. No id below it is awaited any more, so a server
    /// may forget every reply below it and drop any request below it.
    pub fn low_id(&self) -> u64 {
        self.open.front().copied().unwrap_or(self.next_unique + 1)
    }

    /// Ids opened by [`Ctx::open_id`] and not yet closed.
    pub fn open_ids(&self) -> usize {
        self.open.len()
    }

    /// Receives the next message, blocking in virtual time until one is
    /// available. Messages set aside by [`Ctx::recv_where`] are returned
    /// first, oldest first.
    pub fn recv(&mut self) -> Envelope {
        self.recv_where(|_| true)
    }

    /// Receives the next message, or returns `None` once `d` has elapsed.
    ///
    /// Checks the stash first (without consuming any virtual time).
    pub fn recv_timeout(&mut self, d: SimDuration) -> Option<Envelope> {
        self.recv_where_timeout(|_| true, d)
    }

    /// Receives the first message matching `pred`, setting aside (stashing)
    /// any non-matching messages for later `recv` calls.
    ///
    /// This is the selective receive that lets a process serve interleaved
    /// protocols — e.g. a merge worker awaiting an LFS reply while merge
    /// tokens keep arriving.
    pub fn recv_where(&mut self, mut pred: impl FnMut(&Envelope) -> bool) -> Envelope {
        if let Some(pos) = self.stash.iter().position(&mut pred) {
            return self.stash.remove(pos).expect("position is in range");
        }
        loop {
            let Resume::Msg { env, now } = self.call(Syscall::BlockRecv) else {
                unreachable!("recv resumed with non-Msg");
            };
            self.now = now;
            if pred(&env) {
                return env;
            }
            self.stash.push_back(env);
        }
    }

    /// Receives the first message matching `pred`, stashing non-matches,
    /// or returns `None` once `d` has elapsed with no match.
    ///
    /// The timeout is measured from the call; messages that arrive and
    /// fail the predicate do not extend it. This is the receive a
    /// retrying RPC client needs: wait for *this* reply, set everything
    /// else aside, give up at the deadline.
    pub fn recv_where_timeout(
        &mut self,
        mut pred: impl FnMut(&Envelope) -> bool,
        d: SimDuration,
    ) -> Option<Envelope> {
        if let Some(pos) = self.stash.iter().position(&mut pred) {
            return Some(self.stash.remove(pos).expect("position is in range"));
        }
        let deadline = self.now + d;
        loop {
            let remaining = deadline.saturating_duration_since(self.now);
            match self.call(Syscall::BlockRecvTimeout(remaining)) {
                Resume::Msg { env, now } => {
                    self.now = now;
                    if pred(&env) {
                        return Some(env);
                    }
                    self.stash.push_back(env);
                }
                Resume::Timeout { now } => {
                    self.now = now;
                    return None;
                }
                _ => unreachable!("recv_where_timeout resumed with unexpected variant"),
            }
        }
    }

    /// Takes the oldest stashed message matching `pred`, if any, without
    /// receiving: no syscall, no event, no virtual time. What has reached
    /// the mailbox but no receive has set aside yet stays there.
    ///
    /// A server that batches uses this to gather the requests that queued
    /// while it was busy, without waiting for more.
    pub fn take_stashed(&mut self, pred: impl FnMut(&Envelope) -> bool) -> Option<Envelope> {
        let pos = self.stash.iter().position(pred)?;
        self.stash.remove(pos)
    }

    /// Drops every stashed message matching `pred`.
    ///
    /// A retrying client uses this after a request completes to purge
    /// duplicate replies to it (matched by exact request id) that earlier
    /// receives set aside, so they never surface from a later `recv`.
    pub fn discard_stashed(&mut self, mut pred: impl FnMut(&Envelope) -> bool) {
        self.stash.retain(|env| !pred(env));
    }

    /// Receives the next message whose payload is of type `M`, stashing
    /// others, and returns the sender and payload.
    pub fn recv_as<M: Send + 'static>(&mut self) -> (ProcId, M) {
        let env = self.recv_where(|e| e.is::<M>());
        let from = env.from();
        let msg = env.downcast::<M>().expect("predicate guarantees type");
        (from, msg)
    }

    /// Receives the next `M` sent by `src`, stashing everything else.
    pub fn recv_from<M: Send + 'static>(&mut self, src: ProcId) -> M {
        let env = self.recv_where(|e| e.from() == src && e.is::<M>());
        env.downcast::<M>().expect("predicate guarantees type")
    }

    /// Number of messages currently set aside by selective receives.
    pub fn stashed(&self) -> usize {
        self.stash.len()
    }

    /// Spawns a new process on `node` and returns its id. The child starts
    /// at the current virtual time, after the caller next blocks.
    pub fn spawn(
        &mut self,
        node: NodeId,
        name: impl Into<String>,
        f: impl FnOnce(&mut Ctx) + 'static,
    ) -> ProcId {
        match self.call(Syscall::Spawn {
            node,
            name: name.into(),
            f: Box::new(f),
        }) {
            Resume::Spawned(pid) => pid,
            _ => unreachable!("spawn resumed without Spawned"),
        }
    }
}

impl fmt::Debug for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("pid", &self.pid)
            .field("node", &self.node)
            .field("now", &self.now)
            .field("stash", &self.stash.len())
            .finish()
    }
}
