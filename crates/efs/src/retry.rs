//! Client timeout/retry policy and server-side duplicate suppression.
//!
//! Every protocol in the machine is request/reply over an interconnect
//! that a fault plan may drop, duplicate, or delay (see
//! [`parsim::FaultPlan`]), and every one puts the same envelope on the
//! wire: a [`Request`] carrying the id, the sender's mark and the command,
//! and a [`Reply`] echoing the id beside the outcome. End to end recovery
//! needs both halves, and each is written once:
//!
//! * **Client:** every call carries a per-process unique id; if no reply
//!   arrives within a timeout the client resends the *same id* with
//!   capped exponential backoff, up to a retry budget
//!   ([`RetryPolicy`]). One engine, [`RpcClient`], runs this for every
//!   protocol in the machine ([`RpcProtocol`]); the LFS and Bridge
//!   clients are typed faces on it. Every call also carries the sending
//!   process's *mark* ([`Ctx::low_id`]): the lowest id it still awaits.
//!   An id is open from its send until its reply is taken, its budget is
//!   spent or it is forgotten, whichever [`RpcClient`] of the process
//!   sent it.
//! * **Server:** a [`DedupWindow`] remembers, per client, which ids are
//!   in flight and the replies of completed ones at or above the highest
//!   mark the client has sent. A retransmit of an in-flight request is
//!   dropped (the original's reply will serve); a retransmit of a
//!   completed request replays the cached reply instead of re-executing —
//!   which is what makes retries safe for non-idempotent operations
//!   (append-writes, deletes); a request below the mark is one nobody
//!   awaits, and is dropped unanswered. However late a duplicate arrives,
//!   it lands in one of those three cases, and the window holds no more
//!   per client than the ids issued since its oldest outstanding call.
//!   Every server in the machine — the LFS instances, the Bridge server,
//!   the fan-out agents — admits through
//!   [`admit_or_settle`](DedupWindow::admit_or_settle), which also drops or
//!   replays a duplicate, and sends through
//!   [`answer`](DedupWindow::answer), which records the reply first.
//!
//! Everything runs on virtual time, so timeouts and backoff are exactly
//! reproducible.

use parsim::{Ctx, FixedMap, ProcId, SimDuration, SimTime};
use std::fmt;

/// Client-side timeout/retry policy for request/reply calls.
///
/// The wait for attempt `n` (0-based) is `timeout << n`, capped at
/// `backoff_cap`. A policy with a zero timeout or budget is *disabled*:
/// calls block forever, exactly like the pre-retry protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Wait for the first attempt's reply. Zero disables retries.
    pub timeout: SimDuration,
    /// Upper bound on the per-attempt wait as backoff doubles.
    pub backoff_cap: SimDuration,
    /// Total send attempts allowed (first try included). Zero disables
    /// retries.
    pub budget: u32,
}

impl RetryPolicy {
    /// The disabled policy: wait forever, never resend.
    pub fn none() -> Self {
        RetryPolicy {
            timeout: SimDuration::ZERO,
            backoff_cap: SimDuration::ZERO,
            budget: 0,
        }
    }

    /// A policy tuned for the simulated Bridge machine: generous against
    /// queueing delay (LFS service times are tens of milliseconds), and
    /// with enough budget to ride out multi-second outage windows.
    pub fn standard() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_millis(250),
            backoff_cap: SimDuration::from_secs(4),
            budget: 40,
        }
    }

    /// True when calls should time out and resend.
    pub fn is_enabled(&self) -> bool {
        !self.timeout.is_zero() && self.budget > 0
    }

    /// The reply wait for 0-based attempt `n`: `timeout * 2^n`, capped.
    pub fn wait_for(&self, attempt: u32) -> SimDuration {
        let shift = attempt.min(20);
        let doubled =
            SimDuration::from_nanos(self.timeout.as_nanos().saturating_mul(1u64 << shift));
        doubled.min(self.backoff_cap.max(self.timeout))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// A request on the wire: the sender-chosen id its reply echoes, the
/// sender's mark — no id below it is awaited any more ([`Ctx::low_id`]) —
/// and the command.
#[derive(Debug, Clone)]
pub struct Request<C> {
    /// Sender-chosen id echoed in the reply.
    pub id: u64,
    /// The sending process's mark.
    pub low: u64,
    /// What the sender asks for.
    pub cmd: C,
}

/// A reply on the wire: the id of the request it answers, and the outcome.
#[derive(Debug, Clone)]
pub struct Reply<T, E> {
    /// Echo of the request id.
    pub id: u64,
    /// Outcome.
    pub result: Result<T, E>,
}

/// A request/reply protocol [`RpcClient`] can drive: its commands go on
/// the wire as [`Request`]s and come back as [`Reply`]s.
pub trait RpcProtocol {
    /// What the caller asks for (cloned only to be resent).
    type Cmd: Clone + fmt::Debug + Send + 'static;
    /// A successful reply's payload.
    type Data: 'static;
    /// The protocol's error type.
    type Error: 'static;

    /// Stable span name of `cmd`; the engine traces `client.<name>`.
    fn name(cmd: &Self::Cmd) -> &'static str;
    /// Wire size charged to a request carrying `cmd`.
    fn wire_size(cmd: &Self::Cmd) -> usize;
    /// Sends `cmd` to `server` as the wire request `id` carrying the
    /// sender's mark ([`Ctx::low_id`]), charged at [`wire_size`](Self::wire_size)
    /// (cloneable, so a fault plan may duplicate it).
    fn post(ctx: &mut Ctx, server: ProcId, id: u64, cmd: Self::Cmd) {
        let (bytes, low) = (Self::wire_size(&cmd), ctx.low_id());
        ctx.send_sized_cloneable(server, Request { id, low, cmd }, bytes);
    }
    /// The error for a retry budget spent after `attempts` sends.
    fn timed_out(attempts: u32) -> Self::Error;
}

/// The wire reply of protocol `P`.
type ReplyOf<P> = Reply<<P as RpcProtocol>::Data, <P as RpcProtocol>::Error>;

/// Matches the reply from `server` that answers request `id`.
fn answers<P: RpcProtocol>(server: ProcId, id: u64) -> impl Fn(&parsim::Envelope) -> bool + Copy {
    move |e| e.from() == server && e.downcast_ref::<ReplyOf<P>>().is_some_and(|r| r.id == id)
}

/// The at-least-once client engine: send under a fresh id, trace a
/// `client.rpc` span, wait for the matching reply, resend the same id
/// with backoff on timeout, forget. Request ids come from the owning
/// process's [`Ctx::open_id`] stream, so they never collide across
/// client instances in one process — which is what the server-side
/// [`DedupWindow`] keys on — and the process's mark covers every client
/// instance in it.
#[derive(Debug)]
pub struct RpcClient<P: RpcProtocol> {
    retry: RetryPolicy,
    /// Requests sent but not yet answered, kept only when retries are
    /// enabled so a wait can resend them. Host-side bookkeeping: recording
    /// a command has no effect on virtual time.
    pending: Vec<Pending<P::Cmd>>,
    /// Send time, server, and command name per in-flight request, kept
    /// only while tracing so the reply can close a `client.rpc` span.
    /// Host-side bookkeeping: has no effect on virtual time.
    sent: Vec<(u64, SimTime, ProcId, &'static str)>,
    /// Timed-out requests retransmitted so far (telemetry's retry-storm
    /// gauge). Host-side bookkeeping: has no effect on virtual time.
    resends: u64,
}

/// A request sent under a retry policy and not yet answered.
#[derive(Debug)]
struct Pending<C> {
    id: u64,
    /// What a resend puts back on the wire.
    cmd: C,
    /// Sends so far, the first included.
    attempts: u32,
    /// When the first wait naming the request began, and when its current
    /// attempt times out; `None` until something waits on it.
    clock: Option<(SimTime, SimTime)>,
}

impl<P: RpcProtocol> Default for RpcClient<P> {
    fn default() -> Self {
        Self::with_retry(RetryPolicy::none())
    }
}

impl<P: RpcProtocol> RpcClient<P> {
    /// Creates a client that waits indefinitely for replies (no retries).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a client whose calls time out and resend per `retry`.
    pub fn with_retry(retry: RetryPolicy) -> Self {
        RpcClient {
            retry,
            pending: Vec::new(),
            sent: Vec::new(),
            resends: 0,
        }
    }

    /// The client's retry policy.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// Timed-out requests this client has retransmitted so far.
    pub fn resends(&self) -> u64 {
        self.resends
    }

    /// Sends `cmd` to `server` and returns the request id.
    pub fn send(&mut self, ctx: &mut Ctx, server: ProcId, cmd: P::Cmd) -> u64 {
        let id = ctx.open_id();
        if self.retry.is_enabled() {
            self.pending.push(Pending {
                id,
                cmd: cmd.clone(),
                attempts: 1,
                clock: None,
            });
        }
        if ctx.trace_enabled() {
            self.sent.push((id, ctx.now(), server, P::name(&cmd)));
        }
        P::post(ctx, server, id, cmd);
        id
    }

    /// Round trip: [`send`](Self::send) then [`wait`](Self::wait).
    ///
    /// # Errors
    ///
    /// As [`wait`](Self::wait).
    pub fn call(
        &mut self,
        ctx: &mut Ctx,
        server: ProcId,
        cmd: P::Cmd,
    ) -> Result<P::Data, P::Error> {
        let id = self.send(ctx, server, cmd);
        self.wait(ctx, server, id)
    }

    /// Abandons an in-flight request: closes `id` and drops its retry and
    /// tracing bookkeeping without waiting for its reply.
    pub fn forget(&mut self, ctx: &mut Ctx, id: u64) {
        ctx.close_id(id);
        self.pending.retain(|p| p.id != id);
        self.sent.retain(|(s, _, _, _)| *s != id);
    }

    /// Waits for the reply to `id` from `server`, resending the request on
    /// timeout when the client has a retry policy: the one-request case of
    /// [`wait_any`](Self::wait_any).
    ///
    /// # Errors
    ///
    /// Propagates the server-side error, or returns
    /// [`RpcProtocol::timed_out`] when the retry budget is spent without
    /// a reply.
    pub fn wait(&mut self, ctx: &mut Ctx, server: ProcId, id: u64) -> Result<P::Data, P::Error> {
        self.wait_any(ctx, &[(server, id)], |&sent| sent).1
    }

    /// Waits for whichever of `waiting` — entries each naming, through
    /// `sent`, a `(server, id)` pair this client sent — is answered first,
    /// and returns its position in `waiting` with its reply: replies are
    /// taken in arrival order, so a caller that reduces them never sits on
    /// one while another is ready.
    ///
    /// Under a retry policy each request keeps its own attempt count and
    /// deadline, and its clock starts at the first wait that names it (as
    /// [`wait`](Self::wait)'s always has). A timeout resends the requests
    /// whose deadline has passed, each backing off on its own, and a
    /// request whose budget is spent is returned as answered by
    /// [`RpcProtocol::timed_out`]; the rest stay outstanding for the next
    /// wait.
    ///
    /// # Panics
    ///
    /// If `waiting` is empty.
    pub fn wait_any<W>(
        &mut self,
        ctx: &mut Ctx,
        waiting: &[W],
        sent: impl Fn(&W) -> (ProcId, u64),
    ) -> (usize, Result<P::Data, P::Error>) {
        assert!(!waiting.is_empty(), "a wait needs a request to wait on");
        let answered = |e: &parsim::Envelope| {
            let id = e.downcast_ref::<ReplyOf<P>>()?.id;
            waiting.iter().position(|w| sent(w) == (e.from(), id))
        };
        let retry = self.retry;
        loop {
            let now = ctx.now();
            let deadline = self
                .pending
                .iter_mut()
                .filter(|p| waiting.iter().any(|w| sent(w).1 == p.id))
                .map(|p| p.clock.get_or_insert((now, now + retry.wait_for(0))).1)
                .min();
            let env = match deadline {
                None => Some(ctx.recv_where(|e| answered(e).is_some())),
                Some(at) => ctx.recv_where_timeout(
                    |e| answered(e).is_some(),
                    at.saturating_duration_since(now),
                ),
            };
            if let Some(env) = env {
                let at = answered(&env).expect("matched a waiting request");
                let (server, id) = sent(&waiting[at]);
                ctx.close_id(id);
                if let Some(slot) = self.pending.iter().position(|p| p.id == id) {
                    let done = self.pending.swap_remove(slot);
                    // The network may duplicate replies and earlier
                    // attempts may still produce replays: drop any copy
                    // that already got stashed so they cannot pile up.
                    ctx.discard_stashed(answers::<P>(server, id));
                    if done.attempts > 1 && ctx.trace_enabled() {
                        let started = done.clock.expect("waited on").0;
                        let latency = ctx.now().duration_since(started);
                        ctx.trace_instant(
                            "retry",
                            "retry.recovered",
                            &[
                                ("id", id),
                                ("attempts", u64::from(done.attempts)),
                                ("latency_nanos", latency.as_nanos()),
                            ],
                        );
                    }
                }
                return (at, self.open(ctx, id, env));
            }
            let now = ctx.now();
            for (at, (server, id)) in waiting.iter().map(&sent).enumerate() {
                let Some(slot) = self
                    .pending
                    .iter()
                    .position(|p| p.id == id && p.clock.is_some_and(|(_, due)| due <= now))
                else {
                    continue;
                };
                let attempts = self.pending[slot].attempts;
                if attempts >= retry.budget {
                    self.pending.swap_remove(slot);
                    ctx.close_id(id);
                    if ctx.trace_enabled() {
                        ctx.trace_instant(
                            "retry",
                            "retry.exhausted",
                            &[("id", id), ("attempts", u64::from(attempts))],
                        );
                    }
                    // No reply ever arrived: drop the span bookkeeping so
                    // a later id reuse cannot pair with this send.
                    self.sent.retain(|(s, _, _, _)| *s != id);
                    return (at, Err(P::timed_out(attempts)));
                }
                self.resends += 1;
                if ctx.trace_enabled() {
                    ctx.trace_instant(
                        "retry",
                        "retry.resend",
                        &[("id", id), ("attempt", u64::from(attempts))],
                    );
                }
                let pending = &mut self.pending[slot];
                P::post(ctx, server, id, pending.cmd.clone());
                pending.attempts += 1;
                if let Some((_, due)) = &mut pending.clock {
                    *due = now + retry.wait_for(attempts);
                }
            }
        }
    }

    /// Opens the reply for `id` and closes the `client.rpc` span its send
    /// opened (a no-op when the send was not traced).
    fn open(&mut self, ctx: &mut Ctx, id: u64, env: parsim::Envelope) -> Result<P::Data, P::Error> {
        let result = env
            .downcast::<ReplyOf<P>>()
            .expect("matched by type")
            .result;
        if let Some(slot) = self.sent.iter().position(|(s, _, _, _)| *s == id) {
            let (_, t0, server, name) = self.sent.swap_remove(slot);
            if ctx.trace_enabled() {
                ctx.trace_span(
                    "client",
                    &format!("client.{name}"),
                    t0,
                    &[
                        ("id", id),
                        ("server", server.index() as u64),
                        ("ok", u64::from(result.is_ok())),
                    ],
                );
            }
        }
        result
    }
}

/// Verdict of `DedupWindow::admit` for an arriving request id.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Admission<R> {
    /// First sighting: execute it (the id is now recorded in flight).
    New,
    /// A retransmit of a request still being serviced: drop it — the
    /// original's reply will satisfy the client.
    InFlight,
    /// A retransmit of a completed request: resend this cached reply
    /// without re-executing.
    Replay(R),
    /// An id below the client's mark: the client awaits it no more, so
    /// drop it unanswered and unexecuted.
    Stale,
}

/// Per-client duplicate suppression, bounded by what each client awaits.
///
/// Keys are `(client process, request id)`; ids must be unique per client
/// process (see [`Ctx::open_id`](parsim::Ctx::open_id)), never reused.
/// Every request also carries its sender's mark
/// ([`Ctx::low_id`](parsim::Ctx::low_id)): no id below it is awaited any
/// more. The window keeps the highest mark each client has sent, drops that
/// client's entries below it, and calls a request below it stale.
/// So a duplicate however late either replays, waits on its original, or
/// is one nobody awaits, and a client's share of the window is the ids it
/// issued since its oldest outstanding call — its pipelining depth, not a
/// count or a clock.
#[derive(Debug)]
pub struct DedupWindow<R> {
    clients: FixedMap<ProcId, ClientWindow<R>>,
}

/// One client's share of a [`DedupWindow`]: the highest mark it has sent,
/// and its ids at or above the mark, each in flight (`None`) or completed
/// with its reply.
type ClientWindow<R> = (u64, Vec<(u64, Option<R>)>);

impl<R> Default for DedupWindow<R> {
    fn default() -> Self {
        DedupWindow {
            clients: FixedMap::default(),
        }
    }
}

impl<R: Clone> DedupWindow<R> {
    /// Raises `client`'s mark to `low`, then classifies request `id` and,
    /// if new, marks it in flight.
    fn admit(&mut self, client: ProcId, id: u64, low: u64) -> Admission<R> {
        let (mark, ids) = self.clients.entry(client).or_default();
        if low > *mark {
            *mark = low;
            ids.retain(|&(i, _)| i >= low);
        }
        if id < *mark {
            return Admission::Stale;
        }
        match ids.iter().find(|&&(i, _)| i == id) {
            Some((_, Some(reply))) => Admission::Replay(reply.clone()),
            Some((_, None)) => Admission::InFlight,
            None => {
                ids.push((id, None));
                Admission::New
            }
        }
    }

    /// Records the reply for an executed request so retransmits replay it.
    /// Also seeds the window after a crash recovery with the reply of a
    /// committed operation reconstructed from the WAL, so a delayed
    /// duplicate replays instead of re-executing against the recovered
    /// state. The first reply recorded for an id stays; an id below the
    /// mark is not recorded.
    pub fn complete(&mut self, client: ProcId, id: u64, reply: R) {
        let (mark, ids) = self.clients.entry(client).or_default();
        match ids.iter_mut().find(|(i, _)| *i == id) {
            Some((_, slot)) => _ = slot.get_or_insert(reply),
            None if id >= *mark => ids.push((id, Some(reply))),
            None => {}
        }
    }

    /// Forgets an admitted request that was discarded without executing
    /// (fail-stop drain), so a later retransmit runs it fresh.
    pub fn forget(&mut self, client: ProcId, id: u64) {
        if let Some((_, ids)) = self.clients.get_mut(&client) {
            ids.retain(|(i, reply)| *i != id || reply.is_some());
        }
    }

    /// Total entries held: in-flight ids plus cached replies across all
    /// clients — the occupancy gauge telemetry reports.
    pub fn len(&self) -> usize {
        self.clients.values().map(|(_, ids)| ids.len()).sum()
    }

    /// True when the window holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T, E> DedupWindow<Reply<T, E>>
where
    Reply<T, E>: Clone + Send + 'static,
{
    /// Admits request `req` from `client`, or settles it. A new request is
    /// returned, in flight until [`answer`](Self::answer) records its
    /// reply. A settled one is replayed or dropped, and says so with a
    /// `retry.*` trace instant: a copy of a request already answered gets
    /// the recorded reply back at `wire_size` instead of re-running a
    /// possibly non-idempotent command (`retry.replay`); a copy of one
    /// still in flight, whose original's reply will serve, or one below
    /// the client's mark, which nobody awaits, goes unanswered
    /// (`retry.dup_dropped`).
    ///
    /// # Errors
    ///
    /// A settled request: `Err(true)` when it was replayed, `Err(false)`
    /// when it was dropped.
    pub fn admit_or_settle<C>(
        &mut self,
        ctx: &mut Ctx,
        client: ProcId,
        req: Request<C>,
        wire_size: fn(&Reply<T, E>) -> usize,
    ) -> Result<Request<C>, bool> {
        match self.admit(client, req.id, req.low) {
            Admission::New => Ok(req),
            Admission::InFlight | Admission::Stale => {
                if ctx.trace_enabled() {
                    ctx.trace_instant("retry", "retry.dup_dropped", &[("id", req.id)]);
                }
                Err(false)
            }
            Admission::Replay(reply) => {
                if ctx.trace_enabled() {
                    ctx.trace_instant("retry", "retry.replay", &[("id", req.id)]);
                }
                let bytes = wire_size(&reply);
                ctx.send_sized_cloneable(client, reply, bytes);
                Err(true)
            }
        }
    }

    /// Records `reply` as the answer to `client`'s request `reply.id`, so
    /// its retransmits replay it, and sends it at `wire_size`.
    pub fn answer(
        &mut self,
        ctx: &mut Ctx,
        client: ProcId,
        reply: Reply<T, E>,
        wire_size: fn(&Reply<T, E>) -> usize,
    ) {
        self.complete(client, reply.id, reply.clone());
        let bytes = wire_size(&reply);
        ctx.send_sized_cloneable(client, reply, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn pid(n: usize) -> ProcId {
        ProcId::from_index(n)
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            timeout: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_millis(350),
            budget: 5,
        };
        assert_eq!(p.wait_for(0), SimDuration::from_millis(100));
        assert_eq!(p.wait_for(1), SimDuration::from_millis(200));
        assert_eq!(p.wait_for(2), SimDuration::from_millis(350));
        assert_eq!(p.wait_for(63), SimDuration::from_millis(350), "no overflow");
    }

    #[test]
    fn disabled_policies_say_so() {
        assert!(!RetryPolicy::none().is_enabled());
        assert!(!RetryPolicy::default().is_enabled());
        assert!(RetryPolicy::standard().is_enabled());
    }

    fn at(millis: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(millis)
    }

    /// A protocol for driving [`RpcClient`] itself: the command is how
    /// many milliseconds the echo server takes to answer.
    #[derive(Debug)]
    struct Echo;

    impl RpcProtocol for Echo {
        type Cmd = u64;
        type Data = ();
        type Error = u32;

        fn name(_: &u64) -> &'static str {
            "echo"
        }
        fn wire_size(_: &u64) -> usize {
            0
        }
        fn timed_out(attempts: u32) -> u32 {
            attempts
        }
    }

    /// Adds three echo servers to `sim`, server i on node 1 + i (node 0
    /// is left for the client), each counting in `served[i]` the requests
    /// it answers.
    fn echo_servers(sim: &mut parsim::Simulation, served: &Arc<[AtomicU32; 3]>) -> Vec<ProcId> {
        (0..3)
            .map(|i| {
                let node = sim.add_node(format!("s{i}"));
                let served = Arc::clone(served);
                sim.spawn(node, format!("echo{i}"), move |ctx| loop {
                    let (from, req) = ctx.recv_as::<Request<u64>>();
                    served[i].fetch_add(1, Ordering::Relaxed);
                    ctx.delay(SimDuration::from_millis(req.cmd));
                    let reply: Reply<(), u32> = Reply {
                        id: req.id,
                        result: Ok(()),
                    };
                    ctx.send_sized_cloneable(from, reply, 0);
                })
            })
            .collect()
    }

    /// Under a drop plan — a Down window that loses the first copy of the
    /// request to echo server 1 — the wait hands replies back as they land,
    /// and a timeout resends only the request whose own deadline passed:
    /// the request to server 0, waited on from 10 ms, is still inside its
    /// first attempt when server 1's, waited on from 0, times out at 100.
    #[test]
    fn wait_any_takes_replies_in_arrival_order_and_resends_only_the_overdue() {
        use parsim::{FaultPlan, NodeId, Outage, OutageKind, SimConfig, Simulation};

        let plan = FaultPlan {
            outages: vec![Outage {
                node: NodeId::from_index(2),
                from: SimTime::ZERO,
                until: at(1),
                kind: OutageKind::Down,
            }],
            ..FaultPlan::none()
        };
        let mut sim = Simulation::new(SimConfig {
            faults: plan,
            ..SimConfig::default()
        });
        let client_node = sim.add_node("client");
        let served: Arc<[AtomicU32; 3]> = Arc::default();
        let servers = echo_servers(&mut sim, &served);
        let retry = RetryPolicy {
            timeout: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_secs(1),
            budget: 3,
        };
        let (landed, resends) = sim.block_on(client_node, "client", move |ctx| {
            let mut client: RpcClient<Echo> = RpcClient::with_retry(retry);
            let mut landed = Vec::new();
            let mut wait = |ctx: &mut Ctx, client: &mut RpcClient<Echo>, waiting: &mut Vec<_>| {
                let (at, reply) = client.wait_any(ctx, waiting, |&sent| sent);
                assert_eq!(reply, Ok(()));
                let (server, _) = waiting.remove(at);
                let index = servers.iter().position(|&s| s == server).unwrap();
                landed.push((
                    index,
                    ctx.now().duration_since(SimTime::ZERO).as_millis_f64(),
                ));
            };
            let mut waiting = vec![
                (servers[2], client.send(ctx, servers[2], 10)),
                (servers[1], client.send(ctx, servers[1], 5)),
            ];
            wait(ctx, &mut client, &mut waiting);
            waiting.push((servers[0], client.send(ctx, servers[0], 97)));
            while !waiting.is_empty() {
                wait(ctx, &mut client, &mut waiting);
            }
            (landed, client.resends())
        });
        let order: Vec<usize> = landed.iter().map(|&(index, _)| index).collect();
        assert_eq!(order, [2, 1, 0], "arrival order: {landed:?}");
        assert!(
            landed[1].1 > 100.0,
            "server 1 answered its resend: {landed:?}"
        );
        assert!(landed[2].1 < 110.0, "server 0 answered in time: {landed:?}");
        assert_eq!(resends, 1, "only the overdue request was resent");
        let served = served.each_ref().map(|n| n.load(Ordering::Relaxed));
        assert_eq!(served, [1, 1, 1], "server 1 saw the resend only");
    }

    /// The waited-on entries may carry more than the `(server, id)` pair
    /// their projection names: the position returned indexes the caller's
    /// own list, whatever its entries hold.
    #[test]
    fn wait_any_reads_each_entry_through_its_projection() {
        use parsim::{SimConfig, Simulation};

        struct Sent {
            tag: char,
            to: ProcId,
            id: u64,
        }
        let mut sim = Simulation::new(SimConfig::default());
        let client_node = sim.add_node("client");
        let served: Arc<[AtomicU32; 3]> = Arc::default();
        let servers = echo_servers(&mut sim, &served);
        let tags = sim.block_on(client_node, "client", move |ctx| {
            let mut client: RpcClient<Echo> = RpcClient::new();
            let mut waiting: Vec<Sent> = (servers.iter().zip(['a', 'b', 'c']))
                .zip([30, 10, 20])
                .map(|((&to, tag), millis)| Sent {
                    tag,
                    to,
                    id: client.send(ctx, to, millis),
                })
                .collect();
            let mut tags = Vec::new();
            while !waiting.is_empty() {
                let (at, reply) = client.wait_any(ctx, &waiting, |s| (s.to, s.id));
                assert_eq!(reply, Ok(()));
                tags.push(waiting.remove(at).tag);
            }
            tags
        });
        assert_eq!(tags, ['b', 'c', 'a'], "taken as they landed");
        let served = served.each_ref().map(|n| n.load(Ordering::Relaxed));
        assert_eq!(served, [1, 1, 1]);
    }

    #[test]
    fn window_classifies_new_inflight_done() {
        let mut w: DedupWindow<&'static str> = DedupWindow::default();
        assert_eq!(w.admit(pid(1), 10, 10), Admission::New);
        assert_eq!(w.admit(pid(1), 10, 10), Admission::InFlight);
        assert_eq!(w.admit(pid(2), 10, 10), Admission::New, "keyed per client");
        w.complete(pid(1), 10, "reply");
        assert_eq!(w.admit(pid(1), 10, 10), Admission::Replay("reply"));
        assert_eq!(w.len(), 2, "client 2's request still open");
        // Client 1's mark passes 10: its reply goes, a late copy is stale,
        // and client 2's share is untouched.
        assert_eq!(w.admit(pid(1), 11, 11), Admission::New);
        assert_eq!(w.admit(pid(1), 10, 10), Admission::Stale);
        assert_eq!(w.admit(pid(2), 10, 10), Admission::InFlight);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn forget_reopens_an_id() {
        let mut w: DedupWindow<u64> = DedupWindow::default();
        assert_eq!(w.admit(pid(1), 5, 5), Admission::New);
        w.forget(pid(1), 5);
        assert_eq!(w.admit(pid(1), 5, 5), Admission::New);
    }

    /// The reference for an unbounded delay: a window that keeps every
    /// completed reply forever, beside the highest mark each client sent.
    #[derive(Default)]
    struct ForeverModel {
        low: HashMap<ProcId, u64>,
        in_flight: HashSet<(ProcId, u64)>,
        done: HashMap<(ProcId, u64), u64>,
    }

    impl ForeverModel {
        /// `Stale` below the client's mark, else the verdict of a window
        /// that never forgets.
        fn admit(&mut self, client: ProcId, id: u64, low: u64) -> Admission<u64> {
            let mark = self.low.entry(client).or_default();
            *mark = (*mark).max(low);
            if id < *mark {
                Admission::Stale
            } else if let Some(&reply) = self.done.get(&(client, id)) {
                Admission::Replay(reply)
            } else if self.in_flight.insert((client, id)) {
                Admission::New
            } else {
                Admission::InFlight
            }
        }

        fn complete(&mut self, client: ProcId, id: u64, reply: u64) {
            self.in_flight.remove(&(client, id));
            self.done.entry((client, id)).or_insert(reply);
        }

        /// Completed ids at or above their client's mark.
        fn live_done(&self) -> usize {
            let mark = |c: &ProcId| self.low.get(c).copied().unwrap_or(0);
            self.done.keys().filter(|(c, id)| *id >= mark(c)).count()
        }
    }

    #[derive(Debug, Clone)]
    enum WindowOp {
        /// The client's next fresh id, delivered now or (when false) only
        /// by a later `Deliver`.
        Send(bool),
        /// A retransmit of an id the client still awaits, chosen by
        /// position, carrying the client's mark of the moment.
        Resend(usize),
        /// A late or duplicated delivery of any copy ever sent, with the
        /// mark it was sent under.
        Deliver(usize),
        /// The server completes an id it holds open, chosen by position
        /// (so completions run out of order).
        Complete(usize),
        /// The server drops an id it holds open without executing it.
        Forget(usize),
        /// Recovery re-seeds the reply of any id ever sent.
        Restore(usize),
        /// The client stops awaiting an id (reply taken, budget spent or
        /// forgotten), which may advance its mark.
        Close(usize),
    }

    fn window_op() -> impl Strategy<Value = WindowOp> {
        // Arms repeat to weight them: sends, deliveries, completions and
        // closes are the common case.
        prop_oneof![
            any::<bool>().prop_map(WindowOp::Send),
            any::<bool>().prop_map(WindowOp::Send),
            any::<bool>().prop_map(WindowOp::Send),
            (0usize..8).prop_map(WindowOp::Resend),
            (0usize..64).prop_map(WindowOp::Deliver),
            (0usize..64).prop_map(WindowOp::Deliver),
            (0usize..8).prop_map(WindowOp::Complete),
            (0usize..8).prop_map(WindowOp::Complete),
            (0usize..8).prop_map(WindowOp::Forget),
            (0usize..64).prop_map(WindowOp::Restore),
            (0usize..8).prop_map(WindowOp::Close),
            (0usize..8).prop_map(WindowOp::Close),
        ]
    }

    /// One client's side of the protocol as the window must see it.
    #[derive(Default)]
    struct ClientSide {
        next: u64,
        /// Ids sent and still awaited, ascending: the first is the mark.
        awaited: Vec<u64>,
        /// Every copy put on the wire: `(id, mark at its send)`.
        copies: Vec<(u64, u64)>,
        /// Ids the server admitted as new and has not completed or
        /// forgotten.
        open: Vec<u64>,
    }

    impl ClientSide {
        fn mark(&self) -> u64 {
            self.awaited.first().copied().unwrap_or(self.next + 1)
        }

        /// Delivers one copy of `id` sent under mark `low` to both windows.
        fn deliver(
            &mut self,
            client: ProcId,
            window: &mut DedupWindow<u64>,
            model: &mut ForeverModel,
            (id, low): (u64, u64),
        ) -> Admission<u64> {
            let verdict = window.admit(client, id, low);
            assert_eq!(verdict, model.admit(client, id, low), "id {id} low {low}");
            if verdict == Admission::New {
                self.open.push(id);
            }
            verdict
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Under random interleavings from two clients — fresh and late
        /// deliveries, resends, out-of-order completion, forget, restore,
        /// and marks advancing as clients stop awaiting — the window gives
        /// the forever model's verdict on every id at or above the
        /// client's mark and `Stale` below it, never calls an awaited id
        /// stale, and holds no more than the ids the server has open plus
        /// the completed ones at or above the marks.
        #[test]
        fn window_matches_unbounded_model(
            ops in proptest::collection::vec((0usize..2, window_op()), 1..300),
        ) {
            let mut window: DedupWindow<u64> = DedupWindow::default();
            let mut model = ForeverModel::default();
            let mut clients: [ClientSide; 2] = Default::default();
            for (c, op) in ops {
                let client = pid(c + 1);
                let side = &mut clients[c];
                let pick = |list: &[u64], n: usize| (!list.is_empty()).then(|| list[n % list.len()]);
                match op {
                    WindowOp::Send(now) => {
                        side.next += 1;
                        let id = side.next;
                        side.awaited.push(id);
                        let copy = (id, side.mark());
                        side.copies.push(copy);
                        if now {
                            let verdict = side.deliver(client, &mut window, &mut model, copy);
                            prop_assert_eq!(verdict, Admission::New);
                        }
                    }
                    WindowOp::Resend(n) => {
                        if let Some(id) = pick(&side.awaited, n) {
                            let copy = (id, side.mark());
                            side.copies.push(copy);
                            let verdict = side.deliver(client, &mut window, &mut model, copy);
                            prop_assert_ne!(verdict, Admission::Stale);
                        }
                    }
                    WindowOp::Deliver(n) => {
                        if !side.copies.is_empty() {
                            let copy = side.copies[n % side.copies.len()];
                            side.deliver(client, &mut window, &mut model, copy);
                        }
                    }
                    WindowOp::Complete(n) | WindowOp::Forget(n) => {
                        if let Some(id) = pick(&side.open, n) {
                            side.open.retain(|&o| o != id);
                            if matches!(op, WindowOp::Complete(_)) {
                                window.complete(client, id, id * 10);
                                model.complete(client, id, id * 10);
                            } else {
                                window.forget(client, id);
                                model.in_flight.remove(&(client, id));
                            }
                        }
                    }
                    WindowOp::Restore(n) => {
                        if !side.copies.is_empty() {
                            let (id, _) = side.copies[n % side.copies.len()];
                            side.open.retain(|&o| o != id);
                            window.complete(client, id, id * 10 + 1);
                            model.complete(client, id, id * 10 + 1);
                        }
                    }
                    WindowOp::Close(n) => {
                        if let Some(id) = pick(&side.awaited, n) {
                            side.awaited.retain(|&a| a != id);
                        }
                    }
                }
                let open: usize = clients.iter().map(|s| s.open.len()).sum();
                prop_assert!(window.len() <= open + model.live_done());
            }
            // Closing sweep: every copy ever sent gets the model's verdict.
            for (c, side) in clients.iter().enumerate() {
                for &(id, low) in &side.copies {
                    prop_assert_eq!(window.admit(pid(c + 1), id, low), model.admit(pid(c + 1), id, low));
                }
            }
        }
    }
}
