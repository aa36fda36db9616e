//! The deterministic event scheduler.
//!
//! Exactly one simulated process executes at any instant. The scheduler
//! pops events in (virtual-time, sequence) order and *dispatches* each to
//! its process, servicing the syscalls the process issues until it blocks
//! (message receive, delay) or exits. Runs are therefore bit-for-bit
//! reproducible regardless of host scheduling.
//!
//! Each process runs on a stackful fiber on the scheduler's own thread: a
//! dispatch is two register-window swaps ([`crate::fiber`]), and only
//! blocking syscalls switch — posts ride along with the next one.

use crate::envelope::Envelope;
use crate::fault::{FaultPlan, FaultState, MsgFate, OutageKind};
use crate::fiber;
use crate::process::{Ctx, Post, ProcFn, ProcId, Resume, ShutdownSignal, Syscall};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LatencyModel, NodeId, UniformLatency};
use crate::trace::{nop_tracer, TracerHandle};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// How simulated process bodies execute. There is one engine; the enum
/// stays so callers can name it and check which one runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Stackful fibers on the scheduler's thread: one event dispatch is a
    /// pair of register-window swaps.
    #[default]
    RunToCompletion,
}

/// Configuration for a [`Simulation`].
pub struct SimConfig {
    /// Interconnect latency model.
    pub latency: Box<dyn LatencyModel>,
    /// Seed for per-process deterministic RNGs.
    pub seed: u64,
    /// Virtual-time tracer (`None` = the no-op tracer). Tracers observe
    /// only: installing one never changes scheduling, [`RunStats`], or the
    /// virtual end time.
    pub tracer: Option<TracerHandle>,
    /// Deterministic fault plan. [`FaultPlan::none`] (the default)
    /// installs no fault state at all: the run takes the exact
    /// pre-fault-layer code path, bit-identical stats and timestamps.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: Box::new(UniformLatency::default()),
            seed: 0x0b71dce5,
            tracer: None,
            faults: FaultPlan::none(),
        }
    }
}

impl std::fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConfig")
            .field("latency", &"<dyn LatencyModel>")
            .field("seed", &self.seed)
            .field("tracer", &self.tracer)
            .field("faults", &self.faults)
            .finish()
    }
}

/// Counters describing a completed [`Simulation::run`].
///
/// Every field is a function of the simulation alone — its processes,
/// seed and fault plan — never of host scheduling: the same run gives
/// bit-identical `RunStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Events popped from the queue.
    pub events: u64,
    /// Messages delivered to mailboxes or waiting receivers.
    pub messages: u64,
    /// Processes spawned over the simulation's lifetime.
    pub spawned: u64,
    /// Payload bytes posted through the interconnect (the sum of every
    /// `send_sized` size argument).
    pub bytes_sent: u64,
    /// High-water mark of the pending event queue — the scheduler's peak
    /// working-set, which batching should shrink.
    pub queue_high_water: usize,
    /// Control transfers into a process carrying a start, message, or
    /// timer wake-up — the unit the engine pays for (a fiber switch pair).
    pub dispatches: u64,
    /// Syscalls serviced across all dispatches: posts, spawns, blocks,
    /// exits. The scheduler's instruction count, one level below
    /// `dispatches`.
    pub syscalls: u64,
    /// Timer wake-ups batched out: recv-timeout wakes superseded by a
    /// message and discarded clock-free, without a dispatch.
    pub wakes_elided: u64,
    /// Peak number of consecutive events dispatched at one virtual
    /// instant — the instantaneous ready-set depth the scheduler
    /// serializes, which grows with machine breadth.
    pub ready_peak: u64,
    /// Virtual time when the run stopped.
    pub end_time: SimTime,
}

#[derive(PartialEq, Eq, Clone, Copy, Debug)]
enum ProcState {
    /// Spawned; start event pending.
    Starting,
    /// Currently executing (at most one process at a time).
    Running,
    BlockedRecv,
    BlockedRecvTimeout,
    BlockedDelay,
    Dead,
}

/// The execution resource behind one process.
enum Body {
    /// Not yet started: the body closure waits for the start event, when
    /// it is wrapped into a fiber (so a built fiber is always entered
    /// immediately, and abandoned processes never leak an un-entered
    /// stack).
    Pending { f: Option<ProcFn> },
    /// Started: the process's fiber.
    Fiber(fiber::Fiber),
    /// Exited; its stack has been freed.
    Done,
}

struct ProcSlot {
    name: String,
    node: NodeId,
    body: Body,
    state: ProcState,
    mailbox: VecDeque<Envelope>,
    /// Generation counter invalidating stale wake events.
    wake_gen: u64,
    /// Virtual time the current run interval began (tracing only): set
    /// when the process leaves a receive wait, cleared when it next blocks
    /// in one. Delays do not end an interval — they model the process
    /// actively computing or waiting on a device, not sitting idle.
    run_started: Option<SimTime>,
    /// Tracing only: the parent process and flow id of the spawn edge, so
    /// the child's start is stitched to its spawner in the trace's
    /// causality graph. `None` for processes spawned from the host.
    start_flow: Option<(ProcId, u64)>,
}

enum EventKind {
    Start { pid: ProcId },
    Deliver { dst: ProcId, env: Envelope },
    Wake { pid: ProcId, gen: u64 },
}

struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A deterministic discrete-event simulation of a message-passing
/// multiprocessor.
///
/// # Examples
///
/// Two processes on different nodes exchanging a message:
///
/// ```
/// use parsim::{SimConfig, SimDuration, Simulation};
///
/// let mut sim = Simulation::new(SimConfig::default());
/// let a = sim.add_node("a");
/// let b = sim.add_node("b");
///
/// let pong = sim.spawn(b, "pong", |ctx| {
///     let (from, n) = ctx.recv_as::<u32>();
///     ctx.send(from, n + 1);
/// });
///
/// let got = sim.block_on(a, "ping", move |ctx| {
///     ctx.send(pong, 41u32);
///     let (_, n) = ctx.recv_as::<u32>();
///     n
/// });
/// assert_eq!(got, 42);
/// ```
pub struct Simulation {
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<Event>>,
    procs: Vec<ProcSlot>,
    nodes: Vec<String>,
    latency: Box<dyn LatencyModel>,
    seed: u64,
    stats: RunStats,
    tracer: TracerHandle,
    /// Next message id handed to the tracer's flow events.
    flow_seq: u64,
    /// Message-fault state; `None` when the plan is inert, which keeps
    /// the fault-free paths untouched.
    faults: Option<FaultState>,
    /// Pending [`EventKind::Wake`] events already superseded by a message
    /// resume. They are queue residue, not simulation activity, so the
    /// dispatcher discards them clock-free and the high-water mark
    /// excludes them — arming recv timeouts that never fire must leave
    /// [`RunStats`] bit-identical to the timeout-free run.
    stale_wakes: usize,
    /// Length of the current run of events sharing one timestamp (feeds
    /// [`RunStats::ready_peak`]).
    ready_run: u64,
    /// Timestamp of the most recently dispatched event.
    last_event_time: Option<SimTime>,
    /// Virtual-time sampler (see [`Simulation::set_sampler`]). `None`
    /// keeps the hot loop's fast path untouched.
    sampler: Option<SamplerSlot>,
    /// The posts taken from the running fiber's transfer cell while they
    /// are serviced (empty between dispatches; kept for its allocation).
    posted: Vec<Post>,
}

/// The observer callback behind [`Simulation::set_sampler`].
type SamplerHook = Box<dyn FnMut(SimTime, &RunStats)>;

/// State behind [`Simulation::set_sampler`]: the interval, the next
/// boundary to fire at, and the observer callback.
struct SamplerSlot {
    interval: SimDuration,
    next: SimTime,
    hook: SamplerHook,
}

/// Suppress the panic-hook output for the internal shutdown unwind while
/// leaving genuine panics fully reported.
fn install_panic_filter() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ShutdownSignal>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Mixes the simulation seed with a process id into an RNG seed
/// (splitmix64 finalizer).
fn mix_seed(seed: u64, pid: u32) -> u64 {
    let mut z = seed ^ (u64::from(pid).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Simulation {
    /// Creates an empty simulation with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        install_panic_filter();
        Simulation {
            now: SimTime::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            procs: Vec::new(),
            nodes: Vec::new(),
            latency: config.latency,
            seed: config.seed,
            stats: RunStats::default(),
            tracer: config.tracer.unwrap_or_else(nop_tracer),
            flow_seq: 0,
            faults: if config.faults.is_inert_for_scheduler() {
                None
            } else {
                Some(FaultState::new(&config.faults))
            },
            stale_wakes: 0,
            ready_run: 0,
            last_event_time: None,
            sampler: None,
            posted: Vec::new(),
        }
    }

    /// Installs a virtual-time sampler: `hook` fires once per `interval`
    /// boundary the clock crosses while running (carrying the boundary
    /// time and the counters accumulated so far, `end_time` set to the
    /// boundary), plus once more at quiescence with the final counters —
    /// that last sample is bit-identical to the [`RunStats`] the run
    /// returns.
    ///
    /// Sampling is observation-only, like tracing: the hook runs on the
    /// host between event dispatches, consumes no virtual time, sends no
    /// messages, and schedules nothing, so a run with a sampler installed
    /// produces bit-identical `RunStats` to the same run without one.
    /// Boundaries with no intervening events fire in order before the
    /// event that crosses them; an event landing exactly on a boundary is
    /// sampled before it dispatches.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn set_sampler(
        &mut self,
        interval: SimDuration,
        hook: impl FnMut(SimTime, &RunStats) + 'static,
    ) {
        assert!(!interval.is_zero(), "sampler interval must be positive");
        self.sampler = Some(SamplerSlot {
            interval,
            next: self.now + interval,
            hook: Box::new(hook),
        });
    }

    /// Removes the sampler installed by [`set_sampler`](Self::set_sampler).
    pub fn clear_sampler(&mut self) {
        self.sampler = None;
    }

    /// The engine executing this simulation.
    pub fn engine(&self) -> Engine {
        Engine::RunToCompletion
    }

    /// Adds a processing node and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        let name = name.into();
        if self.tracer.enabled() {
            self.tracer.node_named(id, &name);
        }
        self.nodes.push(name);
        id
    }

    /// Adds `n` nodes named `prefix0..prefix{n-1}` and returns their ids.
    pub fn add_nodes(&mut self, prefix: &str, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(|i| self.add_node(format!("{prefix}{i}")))
            .collect()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of processes that are not dead.
    pub fn live_processes(&self) -> usize {
        self.procs
            .iter()
            .filter(|p| p.state != ProcState::Dead)
            .count()
    }

    /// The registered name of a process.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not spawned by this simulation.
    pub fn process_name(&self, pid: ProcId) -> &str {
        &self.procs[pid.index()].name
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Event { time, seq, kind }));
        let live = self.events.len() - self.stale_wakes;
        if live > self.stats.queue_high_water {
            self.stats.queue_high_water = live;
        }
    }

    /// Spawns a process on `node`; it starts at the current virtual time
    /// once [`Simulation::run`] is (next) called.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not created by [`Simulation::add_node`].
    pub fn spawn(
        &mut self,
        node: NodeId,
        name: impl Into<String>,
        f: impl FnOnce(&mut Ctx) + 'static,
    ) -> ProcId {
        self.spawn_boxed(node, name.into(), Box::new(f))
    }

    fn spawn_boxed(&mut self, node: NodeId, name: String, f: ProcFn) -> ProcId {
        assert!(
            node.index() < self.nodes.len(),
            "node {node} does not exist"
        );
        let pid = ProcId(u32::try_from(self.procs.len()).expect("too many processes"));
        if self.tracer.enabled() {
            self.tracer.proc_named(pid, node, &name);
        }
        self.procs.push(ProcSlot {
            name,
            node,
            body: Body::Pending { f: Some(f) },
            state: ProcState::Starting,
            mailbox: VecDeque::new(),
            wake_gen: 0,
            run_started: None,
            start_flow: None,
        });
        self.stats.spawned += 1;
        self.push_event(self.now, EventKind::Start { pid });
        pid
    }

    /// Wraps a pending body into its fiber. Called at the process's start
    /// event, immediately before its first dispatch.
    fn ensure_fiber(&mut self, pid: ProcId) {
        if !matches!(self.procs[pid.index()].body, Body::Pending { .. }) {
            return;
        }
        let rng_seed = mix_seed(self.seed, pid.0);
        let tracer = self.tracer.clone();
        let slot = &mut self.procs[pid.index()];
        let node = slot.node;
        let f = match &mut slot.body {
            Body::Pending { f } => f.take().expect("pending body taken twice"),
            _ => unreachable!("checked above"),
        };
        let body: fiber::FiberBody = Box::new(move |cell| {
            let mut ctx = Ctx::new(pid, node, cell, rng_seed, tracer);
            // The shutdown unwind exits quietly; a genuine panic carries
            // its message back to the scheduler in the Exit syscall.
            let result = catch_unwind(AssertUnwindSafe(|| {
                ctx.wait_start();
                f(&mut ctx);
            }));
            drop(ctx);
            match result {
                Ok(()) => Syscall::Exit { panic: None },
                Err(payload) => {
                    if payload.downcast_ref::<ShutdownSignal>().is_some() {
                        Syscall::Exit { panic: None }
                    } else {
                        Syscall::Exit {
                            panic: Some(panic_message(&*payload)),
                        }
                    }
                }
            }
        });
        slot.body = Body::Fiber(fiber::Fiber::new(fiber::DEFAULT_STACK_BYTES, body));
    }

    /// Runs until no events remain (all processes exited or are blocked
    /// waiting for messages that will never arrive).
    ///
    /// # Panics
    ///
    /// Panics if a simulated process panics, propagating its message.
    pub fn run(&mut self) -> RunStats {
        self.run_inner(None)
    }

    /// The counters accumulated so far, with `end_time` at the current
    /// clock — the same value the most recent [`run`](Simulation::run)
    /// returned. Lets callers of [`block_on`](Simulation::block_on)
    /// (which keeps the process result, not the run's stats) read them.
    pub fn stats(&self) -> RunStats {
        RunStats {
            end_time: self.now,
            ..self.stats
        }
    }

    /// Runs until the event queue is exhausted or the next event would
    /// occur after `limit`; the clock is left at `min(limit, end)`.
    pub fn run_until(&mut self, limit: SimTime) -> RunStats {
        let stats = self.run_inner(Some(limit));
        if self.now < limit {
            self.now = limit;
        }
        stats
    }

    fn run_inner(&mut self, limit: Option<SimTime>) -> RunStats {
        loop {
            match self.events.peek() {
                None => break,
                Some(Reverse(ev)) => {
                    if let Some(limit) = limit {
                        if ev.time > limit {
                            break;
                        }
                    }
                }
            }
            let Reverse(ev) = self.events.pop().expect("peeked event exists");
            debug_assert!(ev.time >= self.now, "event time regression");
            if let EventKind::Wake { pid, gen } = ev.kind {
                // Superseded by a message or a later block: discard
                // without advancing the clock or counting an event.
                if self.procs[pid.index()].wake_gen != gen {
                    self.stale_wakes -= 1;
                    self.stats.wakes_elided += 1;
                    continue;
                }
            }
            if let Some(s) = self.sampler.as_mut() {
                // Fire every boundary the clock is about to cross, before
                // the crossing event dispatches, so each sample sees
                // exactly the state as of its boundary instant.
                while s.next <= ev.time {
                    let at = s.next;
                    s.next = at + s.interval;
                    let stats = RunStats {
                        end_time: at,
                        ..self.stats
                    };
                    (s.hook)(at, &stats);
                }
            }
            self.now = ev.time;
            self.stats.events += 1;
            if self.last_event_time == Some(ev.time) {
                self.ready_run += 1;
            } else {
                self.last_event_time = Some(ev.time);
                self.ready_run = 1;
            }
            if self.ready_run > self.stats.ready_peak {
                self.stats.ready_peak = self.ready_run;
            }
            match ev.kind {
                EventKind::Start { pid } => {
                    debug_assert_eq!(self.procs[pid.index()].state, ProcState::Starting);
                    if let Some((parent, flow)) = self.procs[pid.index()].start_flow.take() {
                        if self.tracer.enabled() {
                            self.tracer.flow_recv(flow, parent, pid, self.now);
                        }
                    }
                    self.ensure_fiber(pid);
                    self.dispatch(pid, Resume::Go { now: self.now });
                }
                EventKind::Deliver { dst, env } => {
                    // Outage windows act at delivery time, so one window
                    // covers every message in flight toward the node.
                    if let Some(f) = self.faults.as_ref() {
                        let node = self.procs[dst.index()].node;
                        if let Some(o) = f.outage_at(node, self.now) {
                            match o.kind {
                                OutageKind::Down => {
                                    if self.tracer.enabled() {
                                        self.tracer.instant(
                                            dst,
                                            "fault",
                                            "fault.outage_drop",
                                            self.now,
                                            &[],
                                        );
                                    }
                                    continue;
                                }
                                OutageKind::Paused => {
                                    // Re-queue at the window's end; the
                                    // fresh seq keeps deferred messages in
                                    // their original relative order.
                                    let until = o.until;
                                    self.push_event(until, EventKind::Deliver { dst, env });
                                    continue;
                                }
                            }
                        }
                    }
                    self.stats.messages += 1;
                    if self.tracer.enabled() {
                        self.tracer.flow_recv(env.flow, env.from, dst, self.now);
                    }
                    let slot = &mut self.procs[dst.index()];
                    match slot.state {
                        ProcState::BlockedRecv | ProcState::BlockedRecvTimeout => {
                            // Invalidate any pending recv-timeout wake.
                            if slot.state == ProcState::BlockedRecvTimeout {
                                self.stale_wakes += 1;
                            }
                            slot.wake_gen += 1;
                            self.dispatch(dst, Resume::Msg { env, now: self.now });
                        }
                        ProcState::Dead => { /* dropped on the floor */ }
                        ProcState::Starting | ProcState::BlockedDelay => {
                            slot.mailbox.push_back(env);
                        }
                        ProcState::Running => {
                            unreachable!("no process runs while the scheduler dispatches")
                        }
                    }
                }
                EventKind::Wake { pid, gen } => {
                    let slot = &self.procs[pid.index()];
                    debug_assert_eq!(slot.wake_gen, gen, "stale wakes are pre-filtered");
                    match slot.state {
                        ProcState::BlockedDelay => {
                            self.dispatch(pid, Resume::Go { now: self.now });
                        }
                        ProcState::BlockedRecvTimeout => {
                            self.dispatch(pid, Resume::Timeout { now: self.now });
                        }
                        _ => { /* stale */ }
                    }
                }
            }
        }
        let finished = RunStats {
            end_time: self.now,
            ..self.stats
        };
        if let Some(s) = self.sampler.as_mut() {
            // One final sample at quiescence carrying the run's own
            // counters verbatim — the end-of-run snapshot reconciles
            // against the returned `RunStats` with zero slack.
            (s.hook)(finished.end_time, &finished);
            if s.next <= finished.end_time {
                s.next = finished.end_time + s.interval;
            }
        }
        finished
    }

    /// Closes `pid`'s run interval (if open) and reports it to the tracer.
    fn trace_run_end(&mut self, pid: ProcId) {
        if let Some(start) = self.procs[pid.index()].run_started.take() {
            if self.tracer.enabled() {
                self.tracer.span(pid, "sched", "run", start, self.now, &[]);
            }
        }
    }

    /// Switches into `pid`'s fiber carrying `r`, services the posts it
    /// buffered during that run, and returns the syscall it switched out
    /// with.
    ///
    /// The posts are serviced in post order, each counting as a syscall.
    /// Nothing else ran and the clock did not move since the first of them
    /// was posted, so event sequence numbers, flow ids and fault draws come
    /// out exactly as if each had been serviced on the spot.
    fn deliver(&mut self, pid: ProcId, r: Resume) -> Syscall {
        let Body::Fiber(fib) = &mut self.procs[pid.index()].body else {
            unreachable!("dispatch to a process with no runnable body")
        };
        let (sc, finished) = fib.resume(r);
        debug_assert_eq!(
            finished,
            matches!(sc, Syscall::Exit { .. }),
            "a fiber's final switch carries exactly its Exit"
        );
        let mut posted = std::mem::take(&mut self.posted);
        fib.take_posts(&mut posted);
        for post in posted.drain(..) {
            self.stats.syscalls += 1;
            self.service_post(pid, post);
        }
        self.posted = posted;
        sc
    }

    /// Puts one posted message on the interconnect: charges the latency
    /// model, draws its fate from the fault plan, and queues the delivery.
    fn service_post(&mut self, pid: ProcId, post: Post) {
        let Post {
            dst,
            payload,
            bytes,
            cloner,
        } = post;
        assert!(
            dst.index() < self.procs.len(),
            "message to unknown process {dst}"
        );
        self.stats.bytes_sent += bytes as u64;
        let lat = self.latency.latency(
            self.procs[pid.index()].node,
            self.procs[dst.index()].node,
            bytes,
        );
        let flow = self.flow_seq;
        self.flow_seq += 1;
        if self.tracer.enabled() {
            self.tracer.flow_send(flow, pid, dst, self.now, bytes);
        }
        let mut env = Envelope {
            from: pid,
            sent_at: self.now,
            delivered_at: self.now + lat,
            payload,
            flow,
            cloner,
        };
        // One fate draw per post, even when it resolves to a plain
        // delivery, so the fault stream is a function of the post
        // sequence alone.
        let fate = match self.faults.as_mut() {
            Some(f) => f.next_fate(),
            None => MsgFate::Deliver,
        };
        match fate {
            MsgFate::Deliver => {
                self.push_event(self.now + lat, EventKind::Deliver { dst, env });
            }
            MsgFate::Drop => {
                if self.tracer.enabled() {
                    self.tracer.instant(
                        pid,
                        "fault",
                        "fault.msg_drop",
                        self.now,
                        &[("dst", u64::from(dst.0))],
                    );
                }
                // The envelope falls on the floor: the flow's send was
                // traced, its delivery never happens.
            }
            MsgFate::Duplicate => {
                let copy = env.duplicate();
                self.push_event(self.now + lat, EventKind::Deliver { dst, env });
                if let Some(mut copy) = copy {
                    copy.flow = self.flow_seq;
                    self.flow_seq += 1;
                    if self.tracer.enabled() {
                        self.tracer.flow_send(copy.flow, pid, dst, self.now, 0);
                        self.tracer.instant(
                            pid,
                            "fault",
                            "fault.msg_dup",
                            self.now,
                            &[("dst", u64::from(dst.0))],
                        );
                    }
                    self.push_event(self.now + lat, EventKind::Deliver { dst, env: copy });
                }
            }
            MsgFate::Delay(extra) => {
                env.delivered_at = self.now + lat + extra;
                if self.tracer.enabled() {
                    self.tracer.instant(
                        pid,
                        "fault",
                        "fault.msg_delay",
                        self.now,
                        &[("extra_nanos", extra.as_nanos())],
                    );
                }
                self.push_event(self.now + lat + extra, EventKind::Deliver { dst, env });
            }
        }
    }

    /// Transfers control to `pid` carrying `first` (a start, message, or
    /// timer wake-up) and services its syscalls until it blocks or exits.
    fn dispatch(&mut self, pid: ProcId, first: Resume) {
        {
            let slot = &mut self.procs[pid.index()];
            slot.state = ProcState::Running;
            // A run interval opens when the process leaves a receive wait
            // (or starts); a delay wake-up resumes the interval already
            // open.
            if slot.run_started.is_none() {
                slot.run_started = Some(self.now);
            }
        }
        self.stats.dispatches += 1;
        let mut resume = first;
        loop {
            let sc = self.deliver(pid, resume);
            self.stats.syscalls += 1;
            resume = match sc {
                Syscall::Spawn { node, name, f } => {
                    let child = self.spawn_boxed(node, name, f);
                    // Spawn edges carry a flow so the trace's causality
                    // graph reaches the child from its parent. The id is
                    // allocated unconditionally (like a post's) so traced
                    // and untraced runs stay bit-identical.
                    let flow = self.flow_seq;
                    self.flow_seq += 1;
                    if self.tracer.enabled() {
                        self.tracer.flow_send(flow, pid, child, self.now, 0);
                        self.procs[child.index()].start_flow = Some((pid, flow));
                    }
                    Resume::Spawned(child)
                }
                Syscall::BlockRecv => {
                    let slot = &mut self.procs[pid.index()];
                    if let Some(env) = slot.mailbox.pop_front() {
                        self.stats.dispatches += 1;
                        Resume::Msg { env, now: self.now }
                    } else {
                        slot.state = ProcState::BlockedRecv;
                        self.trace_run_end(pid);
                        return;
                    }
                }
                Syscall::BlockRecvTimeout(d) => {
                    let slot = &mut self.procs[pid.index()];
                    if let Some(env) = slot.mailbox.pop_front() {
                        self.stats.dispatches += 1;
                        Resume::Msg { env, now: self.now }
                    } else {
                        slot.wake_gen += 1;
                        slot.state = ProcState::BlockedRecvTimeout;
                        let gen = slot.wake_gen;
                        self.push_event(self.now + d, EventKind::Wake { pid, gen });
                        self.trace_run_end(pid);
                        return;
                    }
                }
                Syscall::BlockDelay(d) => {
                    let slot = &mut self.procs[pid.index()];
                    slot.wake_gen += 1;
                    slot.state = ProcState::BlockedDelay;
                    let gen = slot.wake_gen;
                    self.push_event(self.now + d, EventKind::Wake { pid, gen });
                    return;
                }
                Syscall::Exit { panic } => {
                    self.trace_run_end(pid);
                    let slot = &mut self.procs[pid.index()];
                    slot.state = ProcState::Dead;
                    // Free an exited fiber's stack eagerly — at p=1024 the
                    // stacks are most of the bytes *allocated* (1 MiB
                    // each; bridgebench's copy_p1024 allocates 1.1 GB an
                    // iteration), though not of the memory resident: a
                    // stack commits only the pages it touches, and that
                    // whole run peaks at about 165 MB resident.
                    slot.body = Body::Done;
                    if let Some(msg) = panic {
                        let name = slot.name.clone();
                        panic!("simulated process '{name}' ({pid}) panicked: {msg}");
                    }
                    return;
                }
            };
        }
    }

    /// Spawns `f`, runs the simulation to quiescence, and returns `f`'s
    /// result. The go-to way to drive a simulation from a test or bench.
    ///
    /// # Panics
    ///
    /// Panics if the simulation quiesces before `f` completes (deadlock).
    pub fn block_on<R: 'static>(
        &mut self,
        node: NodeId,
        name: impl Into<String>,
        f: impl FnOnce(&mut Ctx) -> R + 'static,
    ) -> R {
        let (result_tx, result_rx) = crossbeam::channel::bounded(1);
        let name = name.into();
        self.spawn(node, name.clone(), move |ctx| {
            let r = f(ctx);
            let _ = result_tx.send(r);
        });
        self.run();
        result_rx
            .try_recv()
            .unwrap_or_else(|_| panic!("process '{name}' did not complete: simulation deadlocked"))
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        for slot in &mut self.procs {
            if let Body::Fiber(fib) = &mut slot.body {
                // Unwind the parked process on its own stack; its final
                // switch hands back the Exit syscall. A destructor that
                // blocks mid-unwind is shut down again; one that posts only
                // adds to the cell's buffer, which is freed with the fiber
                // (the message goes nowhere).
                while !fib.resume(Resume::Shutdown).1 {}
            }
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("processes", &self.procs.len())
            .field("pending_events", &self.events.len())
            .finish()
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
