//! Dispatch pins: the scheduler's event order, held to literals.
//!
//! What the scheduler decides at one virtual instant — which of the
//! events tied there runs first, the order a process's posts are serviced
//! in, where a spawn's flow id falls among them, which fate each post
//! draws from a fault plan — shows in three places: the receiver's
//! transcript, [`RunStats`], and the flow and fault events the scheduler
//! reports to a tracer. Each workload below folds all three into a
//! [`Pin`] with [`parsim::mix64`]; a mismatch prints the observed pin in
//! source form.
//!
//! The literals are what both of parsim's engines (fibers, and one OS
//! thread per process) produced when they were taken. DESIGN §9 lists the
//! scheduler mutants they catch. The tests after the pins hold the
//! engine's panic and teardown contracts.

use parsim::{
    mix64, Ctx, FaultPlan, MsgFaults, ProcId, RunStats, SimConfig, SimDuration, SimTime,
    Simulation, TraceArg, Tracer,
};
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One side of a message transfer as the tracer saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FlowSeen {
    send: bool,
    id: u64,
    from: usize,
    to: usize,
    at: u64,
    bytes: usize,
}

/// Records what the *scheduler* reports about messages: every flow event
/// (ids, endpoints, times, sizes) and every fault instant, in emission
/// order.
#[derive(Debug, Default)]
struct FlowLog {
    flows: Mutex<Vec<FlowSeen>>,
    fates: Mutex<Vec<(usize, String, u64)>>,
}

impl Tracer for FlowLog {
    fn enabled(&self) -> bool {
        true
    }
    fn instant(&self, pid: ProcId, cat: &'static str, name: &str, at: SimTime, _: &[TraceArg]) {
        if cat == "fault" {
            let mut fates = self.fates.lock().unwrap();
            fates.push((pid.index(), name.to_string(), at.as_nanos()));
        }
    }
    fn flow_send(&self, id: u64, from: ProcId, to: ProcId, at: SimTime, bytes: usize) {
        let mut flows = self.flows.lock().unwrap();
        flows.push(FlowSeen {
            send: true,
            id,
            from: from.index(),
            to: to.index(),
            at: at.as_nanos(),
            bytes,
        });
    }
    fn flow_recv(&self, id: u64, from: ProcId, to: ProcId, at: SimTime) {
        let mut flows = self.flows.lock().unwrap();
        flows.push(FlowSeen {
            send: false,
            id,
            from: from.index(),
            to: to.index(),
            at: at.as_nanos(),
            bytes: 0,
        });
    }
}

/// The hub's record of one delivery: (virtual ns, sender, message number).
type Received = Vec<(u64, u32, u32)>;

/// Everything one run produced.
struct Observed {
    received: Received,
    stats: RunStats,
    log: Arc<FlowLog>,
    /// The message of the one process body that panicked, if any.
    panic: Option<String>,
}

/// A run folded to literals: each log as (length, digest), and every
/// [`RunStats`] field in declaration order, `end_time` in ns last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    received: (usize, u64),
    flows: (usize, u64),
    fates: (usize, u64),
    stats: [u64; 10],
}

/// Folds `words` into one digest.
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0, mix64)
}

impl Observed {
    fn pin(&self) -> Pin {
        let flows = self.log.flows.lock().unwrap();
        let fates = self.log.fates.lock().unwrap();
        let s = self.stats;
        Pin {
            received: (
                self.received.len(),
                fold(
                    self.received
                        .iter()
                        .flat_map(|&(at, who, k)| [at, u64::from(who), u64::from(k)]),
                ),
            ),
            flows: (
                flows.len(),
                fold(flows.iter().flat_map(|f| {
                    [
                        u64::from(f.send),
                        f.id,
                        f.from as u64,
                        f.to as u64,
                        f.at,
                        f.bytes as u64,
                    ]
                })),
            ),
            fates: (
                fates.len(),
                fold(fates.iter().flat_map(|(pid, name, at)| {
                    [*pid as u64, fold(name.bytes().map(u64::from)), *at]
                })),
            ),
            stats: [
                s.events,
                s.messages,
                s.spawned,
                s.bytes_sent,
                s.queue_high_water as u64,
                s.dispatches,
                s.syscalls,
                s.wakes_elided,
                s.ready_peak,
                s.end_time.as_nanos(),
            ],
        }
    }

    /// Holds the run to `want`, printing the observed pin on a mismatch.
    fn assert_pinned(&self, want: Pin) {
        let got = self.pin();
        assert!(got == want, "dispatch order moved; observed:\n{got:?}");
    }
}

fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        msg: MsgFaults {
            drop_per_mille: 80,
            max_consecutive_drops: 3,
            dup_per_mille: 60,
            delay_per_mille: 60,
            delay_max: SimDuration::from_millis(2),
        },
        ..FaultPlan::none()
    }
}

/// A simulation on the default latency model with `log` installed.
fn traced_sim(seed: u64, log: &Arc<FlowLog>, faults: FaultPlan) -> Simulation {
    Simulation::new(SimConfig {
        seed,
        tracer: Some(log.clone()),
        faults,
        ..SimConfig::default()
    })
}

/// Spawns the hub: it records every `(sender, number)` it receives until
/// 50 virtual ms pass with nothing.
fn spawn_hub(sim: &mut Simulation) -> (ProcId, Arc<Mutex<Received>>) {
    let node = sim.add_node("hub");
    let received = Arc::new(Mutex::new(Vec::new()));
    let sunk = received.clone();
    let hub = sim.spawn(node, "hub", move |ctx| {
        while let Some(env) = ctx.recv_timeout(SimDuration::from_millis(50)) {
            let (who, k) = *env.downcast_ref::<(u32, u32)>().expect("hub payload");
            sunk.lock().unwrap().push((ctx.now().as_nanos(), who, k));
        }
    });
    (hub, received)
}

/// Posts `k` cloneable messages to `hub` back to back, numbered from
/// `base` and sized 8, 9, 10, ... bytes. Nothing blocks in between, so the
/// scheduler services them together when the process next switches out.
fn burst(ctx: &mut Ctx, hub: ProcId, who: u32, base: u32, k: u32) {
    for j in 0..k {
        ctx.send_sized_cloneable(hub, (who, base + j), 8 + j as usize);
    }
}

/// Runs `sim` to quiescence. A panic escapes `run`; it is caught, its
/// message kept, and the run resumed so the posts that preceded it can be
/// seen arriving.
fn finish(mut sim: Simulation, received: Arc<Mutex<Received>>, log: Arc<FlowLog>) -> Observed {
    let mut panic = None;
    while let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run())) {
        let msg = payload
            .downcast::<String>()
            .expect("panic carries a message");
        assert!(panic.replace(*msg).is_none(), "one panicking body per run");
    }
    let received = received.lock().unwrap().clone();
    Observed {
        received,
        stats: sim.stats(),
        log,
        panic,
    }
}

/// The tie: four workers sleep to one instant and wake there together.
/// Each posts a burst; workers 1 and 3 then spawn a child — whose start
/// ties with the wakes of the workers still waiting to run — and post
/// again after the spawn. A second shared wake closes with one post each.
fn run_tie(faults: FaultPlan) -> Observed {
    let log = Arc::new(FlowLog::default());
    let mut sim = traced_sim(0x71E5, &log, faults);
    let (hub, received) = spawn_hub(&mut sim);
    for i in 0..4u32 {
        let node = sim.add_node(format!("n{i}"));
        sim.spawn(node, format!("w{i}"), move |ctx: &mut Ctx| {
            ctx.delay(SimDuration::from_micros(100));
            burst(ctx, hub, i, 0, 3 + i);
            if i % 2 == 1 {
                ctx.spawn(node, format!("w{i}-child"), move |c: &mut Ctx| {
                    burst(c, hub, i, 100, 2);
                });
            }
            burst(ctx, hub, i, 200, 2);
            ctx.delay(SimDuration::from_micros(50));
            burst(ctx, hub, i, 300, 1);
        });
    }
    finish(sim, received, log)
}

/// The hub workout: `senders` processes post numbered 64-byte messages
/// after think times `delays`, then each spawns a child that posts one
/// 16-byte tail after a jitter drawn from its own RNG.
fn run_hub(seed: u64, senders: u32, delays: &[u16], faults: FaultPlan) -> Observed {
    let log = Arc::new(FlowLog::default());
    let mut sim = traced_sim(seed, &log, faults);
    let nodes: Vec<_> = (0..senders)
        .map(|i| sim.add_node(format!("n{i}")))
        .collect();
    let (hub, received) = spawn_hub(&mut sim);
    for (i, &node) in (0u32..).zip(&nodes) {
        let delays = delays.to_vec();
        sim.spawn(node, format!("s{i}"), move |ctx: &mut Ctx| {
            for (k, &d) in (0u32..).zip(&delays) {
                ctx.delay(SimDuration::from_micros(u64::from(d)));
                ctx.send_sized_cloneable(hub, (i, k), 64);
            }
            let tail = delays.len() as u32;
            ctx.spawn(node, format!("s{i}-child"), move |c: &mut Ctx| {
                let jitter = u64::from(c.rng().random_range(0u16..500));
                c.delay(SimDuration::from_micros(jitter));
                c.send_sized_cloneable(hub, (i, tail), 16);
            });
        });
    }
    finish(sim, received, log)
}

/// What a burst process does once it has posted its first burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum After {
    /// `delay`, then another burst.
    Delay,
    /// `recv_timeout` (nothing arrives), then another burst.
    RecvTimeout,
    /// `spawn` a child that posts a burst of its own, then another burst.
    Spawn,
    /// Return from the body with the burst still unserviced.
    Return,
    /// Panic with the burst still unserviced.
    Panic,
}

/// One process per entry of `plan`: after a stagger of 7 µs per index,
/// post a burst of `k`, then do what `After` says.
fn run_bursts(seed: u64, plan: &[(u32, After)], faults: FaultPlan) -> Observed {
    let log = Arc::new(FlowLog::default());
    let mut sim = traced_sim(seed, &log, faults);
    let (hub, received) = spawn_hub(&mut sim);
    for (i, &(k, after)) in (0u32..).zip(plan) {
        let node = sim.add_node(format!("n{i}"));
        sim.spawn(node, format!("b{i}"), move |ctx: &mut Ctx| {
            ctx.delay(SimDuration::from_micros(u64::from(i) * 7));
            burst(ctx, hub, i, 0, k);
            match after {
                After::Delay => {
                    ctx.delay(SimDuration::from_micros(30));
                    burst(ctx, hub, i, 100, k);
                }
                After::RecvTimeout => {
                    assert!(ctx.recv_timeout(SimDuration::from_micros(40)).is_none());
                    burst(ctx, hub, i, 100, k);
                }
                After::Spawn => {
                    ctx.spawn(node, format!("b{i}-child"), move |c: &mut Ctx| {
                        burst(c, hub, i, 200, k);
                    });
                    burst(ctx, hub, i, 100, k);
                }
                After::Return => {}
                After::Panic => panic!("burst {i} done"),
            }
        });
    }
    finish(sim, received, log)
}

#[test]
fn tie_at_one_instant_is_pinned() {
    let run = run_tie(FaultPlan::none());
    assert_eq!(run.received.len(), 3 + 4 + 5 + 6 + 2 * 2 + 4 * 2 + 4);
    run.assert_pinned(Pin {
        received: (34, 623586307074290485),
        flows: (72, 2123527636454986548),
        fates: (0, 0),
        stats: [50, 34, 7, 312, 35, 50, 86, 34, 10, 50250400],
    });
}

#[test]
fn tie_at_one_instant_under_faults_is_pinned() {
    let run = run_tie(lossy_plan(0x71E5));
    assert!(!run.log.fates.lock().unwrap().is_empty());
    run.assert_pinned(Pin {
        received: (35, 11842990895288525025),
        flows: (77, 11373835638043550144),
        fates: (7, 13699062207544036722),
        stats: [51, 35, 7, 312, 36, 51, 87, 35, 12, 50250400],
    });
}

#[test]
fn hub_workload_is_pinned() {
    let run = run_hub(
        0xB71D6E,
        5,
        &[0, 13, 200, 7, 4999, 0, 42],
        FaultPlan::none(),
    );
    assert!(run.stats.dispatches > 0 && run.stats.syscalls > run.stats.dispatches);
    run.assert_pinned(Pin {
        received: (40, 9097375206926216624),
        flows: (90, 7330387039038379940),
        fates: (0, 0),
        stats: [82, 40, 11, 2320, 21, 82, 127, 40, 10, 55778800],
    });
}

#[test]
fn hub_workload_under_faults_is_pinned() {
    let run = run_hub(99, 4, &[3, 0, 77, 1200, 5], lossy_plan(7));
    run.assert_pinned(Pin {
        received: (22, 10121971403588064882),
        flows: (54, 11493106539264940960),
        fates: (3, 7270632685526162577),
        stats: [52, 22, 9, 1344, 16, 52, 80, 22, 8, 51736800],
    });
}

#[test]
fn post_bursts_before_every_kind_of_block_are_pinned() {
    let plan = [
        (5, After::Delay),
        (3, After::RecvTimeout),
        (4, After::Spawn),
        (6, After::Return),
        (0, After::Delay),
        (1, After::Spawn),
    ];
    let run = run_bursts(0xB0057, &plan, FaultPlan::none());
    assert_eq!(run.panic, None);
    // Every post arrived: first bursts, second bursts, children's bursts.
    let sent: u32 = plan
        .iter()
        .map(|&(k, after)| match after {
            After::Return => k,
            After::Spawn => 3 * k,
            _ => 2 * k,
        })
        .sum();
    assert_eq!(run.received.len(), sent as usize);
    // A post is a syscall, buffered or not: posts, plus the blocks,
    // spawns and exits around them.
    assert!(run.stats.syscalls > u64::from(sent) + run.stats.dispatches);
    // Flow ids are handed out in post order: each burst carries
    // consecutive ids, sized 8, 9, 10, ...
    let flows = run.log.flows.lock().unwrap();
    let first_burst: Vec<_> = flows
        .iter()
        .filter(|f| f.send && f.from == 1 && f.bytes >= 8)
        .take(5)
        .collect();
    for (j, f) in first_burst.iter().enumerate() {
        assert_eq!((f.id, f.bytes), (first_burst[0].id + j as u64, 8 + j));
    }
    drop(flows);
    run.assert_pinned(Pin {
        received: (37, 13505940889698273682),
        flows: (78, 930896293247929380),
        fates: (0, 0),
        stats: [55, 37, 9, 355, 39, 55, 94, 37, 7, 50147500],
    });
}

#[test]
fn post_bursts_draw_pinned_fates() {
    let plan = [
        (8, After::Delay),
        (8, After::Spawn),
        (8, After::RecvTimeout),
        (8, After::Return),
    ];
    let run = run_bursts(0xFA7E, &plan, lossy_plan(0xFA7E));
    assert!(
        !run.log.fates.lock().unwrap().is_empty(),
        "the plan faulted no post: the fate stream was not exercised"
    );
    run.assert_pinned(Pin {
        received: (64, 4292356789725606987),
        flows: (132, 3709810505993629727),
        fates: (5, 6251719405440344531),
        stats: [76, 64, 6, 736, 65, 76, 141, 64, 5, 51732234],
    });
}

#[test]
fn posts_before_a_panic_are_still_delivered() {
    let plan = [(3, After::Delay), (4, After::Panic), (2, After::Return)];
    let run = run_bursts(7, &plan, FaultPlan::none());
    let msg = run.panic.as_deref().expect("the panic reached the host");
    assert!(
        msg.contains("b1") && msg.contains("burst 1 done"),
        "{msg:?}"
    );
    let from_doomed: Vec<u32> = run
        .received
        .iter()
        .filter(|&&(_, who, _)| who == 1)
        .map(|&(_, _, k)| k)
        .collect();
    assert_eq!(from_doomed, vec![0, 1, 2, 3], "posted before the panic");
    assert_eq!(run.received.len(), 6 + 4 + 2);
    run.assert_pinned(Pin {
        received: (12, 5844683195605810272),
        flows: (24, 17786788796317747905),
        fates: (0, 0),
        stats: [20, 12, 4, 109, 13, 20, 32, 12, 4, 50130500],
    });
}

#[test]
fn panic_propagates_with_its_message() {
    let result = std::panic::catch_unwind(|| {
        let mut sim = Simulation::new(SimConfig::default());
        let n = sim.add_node("n");
        sim.spawn(n, "doomed", |ctx| {
            ctx.delay(SimDuration::from_micros(5));
            panic!("intentional test panic");
        });
        sim.run();
    });
    let msg = *result
        .expect_err("simulated panic must propagate")
        .downcast::<String>()
        .expect("panic carries a message");
    assert!(
        msg.contains("doomed") && msg.contains("intentional test panic"),
        "unexpected panic message {msg:?}"
    );
}

#[test]
fn teardown_unwinds_blocked_processes() {
    let mut sim = Simulation::new(SimConfig::default());
    let n = sim.add_node("n");
    // A server blocked forever in recv, and one parked in a delay:
    // dropping the simulation must unwind both on their own stacks
    // without hanging or leaking.
    sim.spawn(n, "receiver", |ctx| {
        let _ = ctx.recv();
        unreachable!("no message ever arrives");
    });
    sim.spawn(n, "sleeper", |ctx| {
        ctx.delay(SimDuration::from_secs(3600));
    });
    sim.run_until(SimTime::ZERO + SimDuration::from_millis(1));
    assert_eq!(sim.live_processes(), 2);
    drop(sim);
}

/// A payload that counts its drops.
struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn teardown_drops_posted_but_undelivered_messages_once() {
    let drops = Arc::new(AtomicUsize::new(0));
    let mut sim = Simulation::new(SimConfig::default());
    let n = sim.add_node("n");
    let sink = sim.spawn(n, "sink", |ctx| {
        let _ = ctx.recv();
        unreachable!("the run stops before anything is delivered");
    });
    let counter = drops.clone();
    sim.spawn(n, "poster", move |ctx| {
        for _ in 0..5 {
            ctx.send(sink, Counted(counter.clone()));
        }
        ctx.delay(SimDuration::from_secs(1));
        // Never reached: the simulation is dropped first.
        ctx.send(sink, Counted(counter.clone()));
    });
    // Stop at time zero: the five posts are serviced (the poster
    // blocked), their deliveries still queued behind the latency.
    let stats = sim.run_until(SimTime::ZERO);
    assert_eq!((stats.messages, stats.bytes_sent), (0, 0));
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    drop(sim);
    assert_eq!(drops.load(Ordering::SeqCst), 5);
}

#[test]
fn teardown_after_a_post_to_nowhere_frees_the_rest_of_the_burst() {
    let drops = Arc::new(AtomicUsize::new(0));
    let counter = drops.clone();
    let result = std::panic::catch_unwind(move || {
        let mut sim = Simulation::new(SimConfig::default());
        let n = sim.add_node("n");
        let sink = sim.spawn(n, "sink", |ctx| {
            let _ = ctx.recv();
        });
        sim.spawn(n, "poster", move |ctx| {
            ctx.send(sink, Counted(counter.clone()));
            // The scheduler refuses this one, with two more of the burst
            // behind it.
            ctx.send(ProcId::from_index(99), Counted(counter.clone()));
            ctx.send(sink, Counted(counter.clone()));
            ctx.send(sink, Counted(counter.clone()));
            ctx.delay(SimDuration::from_micros(1));
        });
        sim.run();
    });
    let msg = *result
        .expect_err("a post to an unknown process is a bug in the caller")
        .downcast::<String>()
        .expect("panic carries a message");
    assert!(msg.contains("unknown process"), "{msg:?}");
    assert_eq!(drops.load(Ordering::SeqCst), 4);
}
