//! Client timeout/retry policy and server-side duplicate suppression.
//!
//! The LFS protocol is request/reply over an interconnect that a fault
//! plan may drop, duplicate, or delay (see [`parsim::FaultPlan`]). End to
//! end recovery needs both halves:
//!
//! * **Client:** every call carries a per-process unique id; if no reply
//!   arrives within a timeout the client resends the *same id* with
//!   capped exponential backoff, up to a retry budget
//!   ([`RetryPolicy`]). One engine, [`RpcClient`], runs this for every
//!   protocol in the machine ([`RpcProtocol`]); the LFS and Bridge
//!   clients are typed faces on it.
//! * **Server:** a [`DedupWindow`] remembers, per client, which ids are
//!   in flight and a ring of recently completed replies. A retransmit of
//!   an in-flight request is dropped (the original's reply will serve);
//!   a retransmit of a completed request replays the cached reply instead
//!   of re-executing — which is what makes retries safe for
//!   non-idempotent operations (append-writes, deletes).
//!
//! Everything runs on virtual time, so timeouts and backoff are exactly
//! reproducible.

use parsim::{Ctx, FixedMap, ProcId, SimDuration, SimTime};
use std::collections::VecDeque;
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

/// A request/reply protocol [`RpcClient`] can drive: how a command goes
/// on the wire, and how a wire reply is matched and opened.
pub trait RpcProtocol {
    /// What the caller asks for (cloned only to be resent).
    type Cmd: Clone + fmt::Debug;
    /// The wire reply echoing the id.
    type Reply: 'static;
    /// A successful reply's payload.
    type Data;
    /// The protocol's error type.
    type Error;

    /// Stable span name of `cmd`; the engine traces `client.<name>`.
    fn name(cmd: &Self::Cmd) -> &'static str;
    /// Sends `cmd` to `server` as the wire request `id`, charged at the
    /// protocol's wire size (cloneable, so a fault plan may duplicate it).
    fn post(ctx: &mut Ctx, server: ProcId, id: u64, cmd: Self::Cmd);
    /// The request id `reply` answers.
    fn reply_id(reply: &Self::Reply) -> u64;
    /// Opens a reply.
    fn result(reply: Self::Reply) -> Result<Self::Data, Self::Error>;
    /// The error for a retry budget spent after `attempts` sends.
    fn timed_out(attempts: u32) -> Self::Error;
}

/// Matches the reply from `server` that answers request `id`.
fn answers<P: RpcProtocol>(server: ProcId, id: u64) -> impl Fn(&parsim::Envelope) -> bool + Copy {
    move |e| {
        e.from() == server
            && e.downcast_ref::<P::Reply>()
                .is_some_and(|r| P::reply_id(r) == id)
    }
}

/// The at-least-once client engine: send under a fresh id, trace a
/// `client.rpc` span, wait for the matching reply, resend the same id
/// with backoff on timeout, forget. Request ids come from the owning
/// process's [`Ctx::unique_id`] stream, so they never collide across
/// client instances in one process — which is what the server-side
/// [`DedupWindow`] keys on.
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
        let id = ctx.unique_id();
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

    /// Abandons an in-flight request: drops the retry and tracing
    /// bookkeeping for `id` without waiting for its reply.
    pub fn forget(&mut self, id: u64) {
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
        self.wait_any(ctx, &[(server, id)]).1
    }

    /// Waits for whichever of `waiting` — `(server, id)` pairs this client
    /// sent — is answered first, and returns its position in `waiting`
    /// with its reply: replies are taken in arrival order, so a caller
    /// that reduces them never sits on one while another is ready.
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
    pub fn wait_any(
        &mut self,
        ctx: &mut Ctx,
        waiting: &[(ProcId, u64)],
    ) -> (usize, Result<P::Data, P::Error>) {
        assert!(!waiting.is_empty(), "a wait needs a request to wait on");
        let answered = |e: &parsim::Envelope| {
            let id = P::reply_id(e.downcast_ref::<P::Reply>()?);
            waiting.iter().position(|&w| w == (e.from(), id))
        };
        let retry = self.retry;
        loop {
            let now = ctx.now();
            let deadline = self
                .pending
                .iter_mut()
                .filter(|p| waiting.iter().any(|&(_, id)| id == p.id))
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
                let (server, id) = waiting[at];
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
            for (at, &(server, id)) in waiting.iter().enumerate() {
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
        let reply = env.downcast::<P::Reply>().expect("matched by type");
        let result = P::result(reply);
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

/// How many completed replies a [`DedupWindow`] retains per client
/// regardless of age.
pub const DEDUP_WINDOW: usize = 64;

/// How long a [`DedupWindow`] keeps completed replies beyond the ring
/// capacity. A duplicate the network can still deliver must find its
/// cached reply even when the client has completed more than
/// [`DEDUP_WINDOW`] calls in the meantime — operations can finish in
/// near-zero virtual time on a zero-latency interconnect, so a pure
/// count-based ring is not enough. The latest a duplicate can arrive is
/// its fault delay (`delay_max`) plus any outage deferral chain it lands
/// in, so a *bounded* fault plan must keep that sum below this retention
/// for replay to be airtight.
pub const DEDUP_RETENTION: SimDuration = SimDuration::from_secs(4);

/// Verdict of [`DedupWindow::admit`] for an arriving request id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission<R> {
    /// First sighting: execute it (the id is now recorded in flight).
    New,
    /// A retransmit of a request still being serviced: drop it — the
    /// original's reply will satisfy the client.
    InFlight,
    /// A retransmit of a completed request: resend this cached reply
    /// without re-executing.
    Replay(R),
}

/// Per-client duplicate suppression with a bounded replay cache.
///
/// Keys are `(client process, request id)`; ids must be unique per client
/// process (see [`Ctx::unique_id`](parsim::Ctx::unique_id)), never reused.
/// Completed replies are kept per client in a ring of at least `cap`
/// entries; entries beyond `cap` linger until they are `retention` old in
/// virtual time, so a retransmit or network duplicate still in flight
/// (delays are bounded by the fault plan) always finds its cached reply,
/// however quickly the client churns through calls.
///
/// Ids are also monotone per client process, so a first transmission
/// carries an id above everything the client has completed: `admit` looks
/// at the ring only for ids at or below the client's high-water mark, and
/// the common path is one map lookup.
#[derive(Debug)]
pub struct DedupWindow<R> {
    cap: usize,
    retention: SimDuration,
    clients: FixedMap<ProcId, ClientWindow<R>>,
}

/// One client's share of a [`DedupWindow`].
#[derive(Debug)]
struct ClientWindow<R> {
    /// Ids admitted and not yet completed or forgotten (a handful at most:
    /// the client's pipelining depth toward this server).
    in_flight: Vec<u64>,
    /// Completed replies, oldest first.
    done: VecDeque<(u64, SimTime, R)>,
    /// Highest id ever pushed onto `done`; no larger id can be in it.
    high_water: u64,
}

impl<R> Default for ClientWindow<R> {
    fn default() -> Self {
        ClientWindow {
            in_flight: Vec::new(),
            done: VecDeque::new(),
            high_water: 0,
        }
    }
}

impl<R> ClientWindow<R> {
    fn clear_in_flight(&mut self, id: u64) {
        if let Some(pos) = self.in_flight.iter().position(|&f| f == id) {
            self.in_flight.swap_remove(pos);
        }
    }

    fn push_done(&mut self, id: u64, now: SimTime, reply: R) {
        self.high_water = self.high_water.max(id);
        self.done.push_back((id, now, reply));
    }
}

impl<R: Clone> DedupWindow<R> {
    /// An empty window retaining `cap` completed replies per client, plus
    /// any newer than `retention`.
    pub fn new(cap: usize, retention: SimDuration) -> Self {
        DedupWindow {
            cap,
            retention,
            clients: FixedMap::default(),
        }
    }

    /// The standard window: [`DEDUP_WINDOW`] entries held for at least
    /// [`DEDUP_RETENTION`].
    pub fn standard() -> Self {
        Self::new(DEDUP_WINDOW, DEDUP_RETENTION)
    }

    /// Classifies an arriving request and, if new, marks it in flight.
    pub fn admit(&mut self, client: ProcId, id: u64) -> Admission<R> {
        let window = self.clients.entry(client).or_default();
        if id <= window.high_water {
            if let Some((_, _, reply)) = window.done.iter().find(|(done_id, _, _)| *done_id == id) {
                return Admission::Replay(reply.clone());
            }
        }
        if window.in_flight.contains(&id) {
            return Admission::InFlight;
        }
        window.in_flight.push(id);
        Admission::New
    }

    /// Records the reply for an executed request so retransmits replay it.
    /// `now` is the completion's virtual time, used for age-based
    /// eviction.
    pub fn complete(&mut self, client: ProcId, id: u64, now: SimTime, reply: R) {
        let window = self.clients.entry(client).or_default();
        window.clear_in_flight(id);
        window.push_done(id, now, reply);
        while window.done.len() > self.cap {
            match window.done.front() {
                Some(&(_, done_at, _)) if now.duration_since(done_at) > self.retention => {
                    window.done.pop_front();
                }
                _ => break,
            }
        }
    }

    /// Seeds the replay cache after a crash recovery: the reply of a
    /// committed operation reconstructed from the WAL is restored as if
    /// [`DedupWindow::complete`] had recorded it, so a delayed duplicate
    /// still in the network replays instead of re-executing against the
    /// recovered state. Idempotent per id; any stale in-flight mark for
    /// the id is cleared.
    pub fn restore(&mut self, client: ProcId, id: u64, now: SimTime, reply: R) {
        let window = self.clients.entry(client).or_default();
        window.clear_in_flight(id);
        if window.done.iter().any(|(done_id, _, _)| *done_id == id) {
            return;
        }
        window.push_done(id, now, reply);
    }

    /// Forgets an admitted request that was discarded without executing
    /// (fail-stop drain), so a later retransmit runs it fresh.
    pub fn forget(&mut self, client: ProcId, id: u64) {
        if let Some(window) = self.clients.get_mut(&client) {
            window.clear_in_flight(id);
        }
    }

    /// Requests currently marked in flight (tests, debugging).
    pub fn in_flight(&self) -> usize {
        self.clients.values().map(|w| w.in_flight.len()).sum()
    }

    /// Total entries held: in-flight marks plus cached replies across all
    /// clients — the occupancy gauge telemetry reports.
    pub fn len(&self) -> usize {
        self.clients
            .values()
            .map(|w| w.in_flight.len() + w.done.len())
            .sum()
    }

    /// True when the window holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

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

    #[derive(Debug, Clone)]
    struct EchoRequest {
        id: u64,
        millis: u64,
    }

    #[derive(Debug, Clone)]
    struct EchoReply {
        id: u64,
    }

    impl RpcProtocol for Echo {
        type Cmd = u64;
        type Reply = EchoReply;
        type Data = ();
        type Error = u32;

        fn name(_: &u64) -> &'static str {
            "echo"
        }
        fn post(ctx: &mut Ctx, server: ProcId, id: u64, millis: u64) {
            ctx.send_sized_cloneable(server, EchoRequest { id, millis }, 0);
        }
        fn reply_id(reply: &EchoReply) -> u64 {
            reply.id
        }
        fn result(_: EchoReply) -> Result<(), u32> {
            Ok(())
        }
        fn timed_out(attempts: u32) -> u32 {
            attempts
        }
    }

    /// Under a drop plan — a Down window that loses the first copy of the
    /// request to echo server 1 — the wait hands replies back as they land,
    /// and a timeout resends only the request whose own deadline passed:
    /// the request to server 0, waited on from 10 ms, is still inside its
    /// first attempt when server 1's, waited on from 0, times out at 100.
    #[test]
    fn wait_any_takes_replies_in_arrival_order_and_resends_only_the_overdue() {
        use parsim::{FaultPlan, NodeId, Outage, OutageKind, SimConfig, Simulation};
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;

        // Node 0 is the client's, node 1 + i echo server i's.
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
        let servers: Vec<ProcId> = (0..3)
            .map(|i| {
                let node = sim.add_node(format!("s{i}"));
                let served = Arc::clone(&served);
                sim.spawn(node, format!("echo{i}"), move |ctx| loop {
                    let (from, req) = ctx.recv_as::<EchoRequest>();
                    served[i].fetch_add(1, Ordering::Relaxed);
                    ctx.delay(SimDuration::from_millis(req.millis));
                    ctx.send_sized_cloneable(from, EchoReply { id: req.id }, 0);
                })
            })
            .collect();
        let retry = RetryPolicy {
            timeout: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_secs(1),
            budget: 3,
        };
        let (landed, resends) = sim.block_on(client_node, "client", move |ctx| {
            let mut client: RpcClient<Echo> = RpcClient::with_retry(retry);
            let mut landed = Vec::new();
            let mut wait = |ctx: &mut Ctx, client: &mut RpcClient<Echo>, waiting: &mut Vec<_>| {
                let (at, reply) = client.wait_any(ctx, waiting);
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

    #[test]
    fn window_classifies_new_inflight_done() {
        let mut w: DedupWindow<&'static str> = DedupWindow::new(4, SimDuration::ZERO);
        assert_eq!(w.admit(pid(1), 10), Admission::New);
        assert_eq!(w.admit(pid(1), 10), Admission::InFlight);
        assert_eq!(w.admit(pid(2), 10), Admission::New, "keyed per client");
        w.complete(pid(1), 10, at(0), "reply");
        assert_eq!(w.admit(pid(1), 10), Admission::Replay("reply"));
        assert_eq!(w.in_flight(), 1, "client 2's request still open");
    }

    #[test]
    fn window_evicts_oldest_aged_out_reply() {
        let mut w: DedupWindow<u64> = DedupWindow::new(2, SimDuration::from_millis(10));
        for id in 0..3u64 {
            assert_eq!(w.admit(pid(1), id), Admission::New);
            w.complete(pid(1), id, at(id * 100), id * 100);
        }
        assert_eq!(w.admit(pid(1), 0), Admission::New, "evicted: runs fresh");
        assert_eq!(w.admit(pid(1), 2), Admission::Replay(200));
    }

    #[test]
    fn window_retains_young_overflow_entries() {
        let mut w: DedupWindow<u64> = DedupWindow::new(2, SimDuration::from_secs(1));
        for id in 0..50u64 {
            assert_eq!(w.admit(pid(1), id), Admission::New);
            // All completions within one retention window: nothing may be
            // evicted even though the ring capacity is 2.
            w.complete(pid(1), id, at(id), id);
        }
        assert_eq!(w.admit(pid(1), 0), Admission::Replay(0));
        // Once completions move past the retention horizon, old entries go.
        w.admit(pid(1), 99);
        w.complete(pid(1), 99, at(5000), 99);
        assert_eq!(w.admit(pid(1), 0), Admission::New, "aged out: runs fresh");
        assert_eq!(w.admit(pid(1), 99), Admission::Replay(99));
    }

    #[test]
    fn forget_reopens_an_id() {
        let mut w: DedupWindow<u64> = DedupWindow::new(2, SimDuration::ZERO);
        assert_eq!(w.admit(pid(1), 5), Admission::New);
        w.forget(pid(1), 5);
        assert_eq!(w.admit(pid(1), 5), Admission::New);
    }
    /// The reference: the window as it stood before the per-client
    /// high-water mark — a global in-flight set, and a reply ring that
    /// every `admit` scans.
    struct RingModel {
        cap: usize,
        retention: SimDuration,
        in_flight: HashSet<(ProcId, u64)>,
        done: HashMap<ProcId, VecDeque<(u64, SimTime, u64)>>,
    }

    impl RingModel {
        fn admit(&mut self, client: ProcId, id: u64) -> Admission<u64> {
            if let Some(ring) = self.done.get(&client) {
                if let Some(&(_, _, reply)) = ring.iter().find(|(done_id, _, _)| *done_id == id) {
                    return Admission::Replay(reply);
                }
            }
            if !self.in_flight.insert((client, id)) {
                return Admission::InFlight;
            }
            Admission::New
        }

        fn complete(&mut self, client: ProcId, id: u64, now: SimTime, reply: u64) {
            self.in_flight.remove(&(client, id));
            let ring = self.done.entry(client).or_default();
            ring.push_back((id, now, reply));
            while ring.len() > self.cap {
                match ring.front() {
                    Some(&(_, done_at, _)) if now.duration_since(done_at) > self.retention => {
                        ring.pop_front();
                    }
                    _ => break,
                }
            }
        }

        fn restore(&mut self, client: ProcId, id: u64, now: SimTime, reply: u64) {
            self.in_flight.remove(&(client, id));
            let ring = self.done.entry(client).or_default();
            if !ring.iter().any(|(done_id, _, _)| *done_id == id) {
                ring.push_back((id, now, reply));
            }
        }

        fn forget(&mut self, client: ProcId, id: u64) {
            self.in_flight.remove(&(client, id));
        }

        fn len(&self) -> usize {
            self.in_flight.len() + self.done.values().map(VecDeque::len).sum::<usize>()
        }
    }

    #[derive(Debug, Clone)]
    enum WindowOp {
        /// A first transmission: the client's next fresh id.
        AdmitFresh,
        /// A retransmit or late duplicate of an id already issued, chosen
        /// by position — often far below the high-water mark.
        AdmitOld(usize),
        /// Completes an in-flight id chosen by position (so completions
        /// run out of order).
        Complete(usize),
        Forget(usize),
        /// Recovery re-seeding an id already issued.
        Restore(usize),
        /// Lets virtual time pass.
        Tick(u64),
    }

    fn window_op() -> impl Strategy<Value = WindowOp> {
        prop_oneof![
            // Two arms of eight: fresh ids are the common case.
            (0u8..1).prop_map(|_| WindowOp::AdmitFresh),
            (0u8..1).prop_map(|_| WindowOp::AdmitFresh),
            (0usize..64).prop_map(WindowOp::AdmitOld),
            (0usize..8).prop_map(WindowOp::Complete),
            (0usize..8).prop_map(WindowOp::Complete),
            (0usize..8).prop_map(WindowOp::Forget),
            (0usize..64).prop_map(WindowOp::Restore),
            (0u64..40).prop_map(WindowOp::Tick),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Same admissions and the same occupancy as the ring model under
        /// random interleavings from two clients: out-of-order completion,
        /// replays below the high-water mark, ids evicted by the
        /// `cap`/`retention` rule running fresh, forget and restore.
        #[test]
        fn window_matches_ring_model(
            cap in 1usize..5,
            retention_ms in 0u64..30,
            ops in proptest::collection::vec((0usize..2, window_op()), 1..300),
        ) {
            let retention = SimDuration::from_millis(retention_ms);
            let mut window: DedupWindow<u64> = DedupWindow::new(cap, retention);
            let mut model = RingModel {
                cap,
                retention,
                in_flight: HashSet::new(),
                done: HashMap::new(),
            };
            let mut now = 0u64;
            // Per client: every id issued so far (monotone, as
            // `Ctx::unique_id` hands them out) and those now in flight.
            let mut issued: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
            let mut open: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
            for (c, op) in ops {
                let client = pid(c + 1);
                let pick = |list: &[u64], n: usize| (!list.is_empty()).then(|| list[n % list.len()]);
                match op {
                    WindowOp::AdmitFresh => {
                        let id = issued[c].len() as u64 + 1;
                        issued[c].push(id);
                        open[c].push(id);
                        prop_assert_eq!(window.admit(client, id), Admission::New);
                        prop_assert_eq!(model.admit(client, id), Admission::New);
                    }
                    WindowOp::AdmitOld(n) => {
                        if let Some(id) = pick(&issued[c], n) {
                            let verdict = window.admit(client, id);
                            prop_assert_eq!(&verdict, &model.admit(client, id));
                            if verdict == Admission::New && !open[c].contains(&id) {
                                open[c].push(id);
                            }
                        }
                    }
                    WindowOp::Complete(n) => {
                        if let Some(id) = pick(&open[c], n) {
                            open[c].retain(|&o| o != id);
                            window.complete(client, id, at(now), id * 10);
                            model.complete(client, id, at(now), id * 10);
                        }
                    }
                    WindowOp::Forget(n) => {
                        if let Some(id) = pick(&open[c], n) {
                            open[c].retain(|&o| o != id);
                            window.forget(client, id);
                            model.forget(client, id);
                        }
                    }
                    WindowOp::Restore(n) => {
                        if let Some(id) = pick(&issued[c], n) {
                            open[c].retain(|&o| o != id);
                            window.restore(client, id, at(now), id * 10 + 1);
                            model.restore(client, id, at(now), id * 10 + 1);
                        }
                    }
                    WindowOp::Tick(ms) => now += ms,
                }
                prop_assert_eq!(window.len(), model.len());
                prop_assert_eq!(window.in_flight(), model.in_flight.len());
            }
            // Closing sweep: every id ever issued gets the model's verdict,
            // evicted ones (New), cached ones (Replay) and open ones alike.
            for (c, ids) in issued.iter().enumerate() {
                for &id in ids {
                    prop_assert_eq!(window.admit(pid(c + 1), id), model.admit(pid(c + 1), id));
                }
            }
        }
    }
}
