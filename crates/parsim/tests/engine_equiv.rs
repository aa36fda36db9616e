//! Engine equivalence: the run-to-completion fiber engine and the
//! threaded compatibility engine must produce bit-identical results — the
//! same delivery transcripts (timestamps included), the same
//! [`RunStats`], under plain runs, armed-and-fired timeouts, mid-run
//! spawns, and active fault plans. Determinism is structural (both
//! engines run the same process code against the same event order), and
//! these tests pin it.

use parsim::{
    Ctx, Engine, FaultPlan, MsgFaults, ProcId, RunStats, SimConfig, SimDuration, SimTime,
    Simulation, TraceArg, Tracer, UniformLatency,
};
use proptest::prelude::*;
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const ENGINES: [Engine; 2] = [Engine::RunToCompletion, Engine::Threaded];

/// A kernel workout touching every syscall: `senders` processes send
/// numbered messages (cloneable, so fault plans can duplicate them) to a
/// hub draining with `recv_timeout`, each sender spawns a child mid-run,
/// and think times come from per-process RNGs. Returns the hub's
/// transcript and the run's counters.
fn run_workload(
    engine: Engine,
    seed: u64,
    senders: usize,
    delays: &[u16],
    faults: FaultPlan,
) -> (Vec<(u64, u32, u32)>, RunStats) {
    let mut sim = Simulation::new(SimConfig {
        latency: Box::new(UniformLatency::default()),
        seed,
        tracer: None,
        faults,
        engine,
    });
    let nodes: Vec<_> = (0..senders.max(1))
        .map(|i| sim.add_node(format!("n{i}")))
        .collect();
    let hub_node = sim.add_node("hub");
    let trace = Arc::new(Mutex::new(Vec::new()));
    let sunk = trace.clone();
    let hub = sim.spawn(hub_node, "hub", move |ctx| {
        while let Some(env) = ctx.recv_timeout(SimDuration::from_millis(50)) {
            let (who, k) = *env.downcast_ref::<(u32, u32)>().expect("sender payload");
            sunk.lock().unwrap().push((ctx.now().as_nanos(), who, k));
        }
    });
    let delays = delays.to_vec();
    for (i, &node) in nodes.iter().enumerate().take(senders) {
        let delays = delays.clone();
        sim.spawn(node, format!("s{i}"), move |ctx: &mut Ctx| {
            for (k, &d) in delays.iter().enumerate() {
                ctx.delay(SimDuration::from_micros(u64::from(d)));
                // Cloneable, so duplicate-delivery faults exercise their
                // real path.
                ctx.send_sized_cloneable(hub, (i as u32, k as u32), 64);
            }
            // A mid-run spawn: the child posts one tail message after a
            // think time drawn from its own deterministic RNG.
            let tail = delays.len() as u32;
            let _child = ctx.spawn(node, format!("s{i}-child"), move |c: &mut Ctx| {
                let jitter = u64::from(c.rng().random_range(0u16..500));
                c.delay(SimDuration::from_micros(jitter));
                c.send_sized_cloneable(hub, (i as u32, tail), 16);
            });
        });
    }
    sim.run();
    let t = trace.lock().unwrap().clone();
    (t, sim.stats())
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

#[test]
fn engines_agree_on_fixed_seed_workload() {
    let delays = [0u16, 13, 200, 7, 4999, 0, 42];
    let fiber = run_workload(
        Engine::RunToCompletion,
        0xB71D6E,
        5,
        &delays,
        FaultPlan::none(),
    );
    let thread = run_workload(Engine::Threaded, 0xB71D6E, 5, &delays, FaultPlan::none());
    assert_eq!(fiber.0, thread.0, "delivery transcripts diverged");
    assert_eq!(fiber.1, thread.1, "RunStats diverged");
    assert!(fiber.1.dispatches > 0 && fiber.1.syscalls > fiber.1.dispatches);
}

#[test]
fn engines_agree_under_faults() {
    let delays = [3u16, 0, 77, 1200, 5];
    let fiber = run_workload(Engine::RunToCompletion, 99, 4, &delays, lossy_plan(7));
    let thread = run_workload(Engine::Threaded, 99, 4, &delays, lossy_plan(7));
    assert_eq!(fiber.0, thread.0, "chaos transcripts diverged");
    assert_eq!(fiber.1, thread.1, "RunStats diverged under faults");
}

#[test]
fn engines_agree_on_panic_propagation() {
    for engine in ENGINES {
        let result = std::panic::catch_unwind(move || {
            let mut sim = Simulation::new(SimConfig {
                engine,
                ..SimConfig::default()
            });
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
            "engine {engine:?}: unexpected panic message {msg:?}"
        );
    }
}

#[test]
fn teardown_unwinds_blocked_processes_on_both_engines() {
    for engine in ENGINES {
        let mut sim = Simulation::new(SimConfig {
            engine,
            ..SimConfig::default()
        });
        let n = sim.add_node("n");
        // A server blocked forever in recv, and one parked in a delay:
        // dropping the simulation must unwind both without hanging or
        // leaking (fiber stacks are freed by the unwind; threads join).
        sim.spawn(n, "receiver", |ctx| {
            let _ = ctx.recv();
            unreachable!("no message ever arrives");
        });
        sim.spawn(n, "sleeper", |ctx| {
            ctx.delay(SimDuration::from_secs(3600));
        });
        sim.run_until(parsim::SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(sim.live_processes(), 2);
        drop(sim);
    }
}

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
/// order. Both come from the scheduler alone, so their order is a
/// function of the post sequence and must not depend on the engine.
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

/// What a process does once it has posted its burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum After {
    /// `delay`, then another burst.
    Delay,
    /// `recv_timeout` (nothing arrives), then another burst.
    RecvTimeout,
    /// `spawn` a child that posts a burst of its own and returns.
    Spawn,
    /// Return from the body with the burst still unserviced.
    Return,
    /// Panic with the burst still unserviced.
    Panic,
}

/// Everything one burst run produced.
type BurstRun = (Vec<(u64, u32, u32)>, RunStats, Arc<FlowLog>, Option<String>);

/// One process per entry of `plan`: post `k` cloneable messages to the
/// hub back to back (no blocking in between — on the fiber engine they
/// all wait in the transfer cell), then do what `After` says. A panic
/// escapes `run`; it is caught, its message kept, and the run resumed so
/// the posts that preceded it can be seen arriving.
fn run_bursts(engine: Engine, seed: u64, plan: &[(u8, After)], faults: FaultPlan) -> BurstRun {
    let log = Arc::new(FlowLog::default());
    let mut sim = Simulation::new(SimConfig {
        latency: Box::new(UniformLatency::default()),
        seed,
        tracer: Some(log.clone()),
        faults,
        engine,
    });
    let hub_node = sim.add_node("hub");
    let transcript = Arc::new(Mutex::new(Vec::new()));
    let sunk = transcript.clone();
    let hub = sim.spawn(hub_node, "hub", move |ctx| {
        while let Some(env) = ctx.recv_timeout(SimDuration::from_millis(50)) {
            let (who, k) = *env.downcast_ref::<(u32, u32)>().expect("burst payload");
            sunk.lock().unwrap().push((ctx.now().as_nanos(), who, k));
        }
    });
    for (i, &(k, after)) in plan.iter().enumerate() {
        let node = sim.add_node(format!("n{i}"));
        let who = i as u32;
        sim.spawn(node, format!("b{i}"), move |ctx: &mut Ctx| {
            let burst = move |c: &mut Ctx, base: u32| {
                for j in 0..u32::from(k) {
                    c.send_sized_cloneable(hub, (who, base + j), 8 + j as usize);
                }
            };
            ctx.delay(SimDuration::from_micros(u64::from(who) * 7));
            burst(ctx, 0);
            match after {
                After::Delay => {
                    ctx.delay(SimDuration::from_micros(30));
                    burst(ctx, 100);
                }
                After::RecvTimeout => {
                    assert!(ctx.recv_timeout(SimDuration::from_micros(40)).is_none());
                    burst(ctx, 100);
                }
                After::Spawn => {
                    ctx.spawn(node, format!("b{i}-child"), move |c: &mut Ctx| {
                        burst(c, 200)
                    });
                    burst(ctx, 100);
                }
                After::Return => {}
                After::Panic => panic!("burst {who} done"),
            }
        });
    }
    let mut panic = None;
    while let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run())) {
        let msg = payload
            .downcast::<String>()
            .expect("panic carries a message");
        assert!(panic.replace(*msg).is_none(), "one panicking body per plan");
    }
    let t = transcript.lock().unwrap().clone();
    (t, sim.stats(), log, panic)
}

/// Runs `plan` on both engines and holds everything observable equal.
fn assert_bursts_agree(seed: u64, plan: &[(u8, After)], faults: FaultPlan) -> BurstRun {
    let fiber = run_bursts(Engine::RunToCompletion, seed, plan, faults.clone());
    let thread = run_bursts(Engine::Threaded, seed, plan, faults);
    assert_eq!(fiber.0, thread.0, "delivery transcripts diverged");
    assert_eq!(fiber.1, thread.1, "RunStats diverged");
    assert_eq!(
        *fiber.2.flows.lock().unwrap(),
        *thread.2.flows.lock().unwrap(),
        "flow ids or times diverged"
    );
    assert_eq!(
        *fiber.2.fates.lock().unwrap(),
        *thread.2.fates.lock().unwrap(),
        "fault-fate stream diverged"
    );
    assert_eq!(fiber.3, thread.3, "panic propagation diverged");
    fiber
}

#[test]
fn post_bursts_before_every_kind_of_block_agree() {
    let plan = [
        (5, After::Delay),
        (3, After::RecvTimeout),
        (4, After::Spawn),
        (6, After::Return),
        (0, After::Delay),
        (1, After::Spawn),
    ];
    let (transcript, stats, log, panic) = assert_bursts_agree(0xB0057, &plan, FaultPlan::none());
    assert_eq!(panic, None);
    // Every post arrived: first bursts, second bursts, children's bursts.
    let sent: usize = plan
        .iter()
        .map(|&(k, after)| match after {
            After::Return => usize::from(k),
            After::Spawn => 3 * usize::from(k),
            _ => 2 * usize::from(k),
        })
        .sum();
    assert_eq!(transcript.len(), sent);
    // A post is a syscall on either engine, buffered or not: posts, plus
    // the blocks, spawns and exits around them.
    assert!(stats.syscalls > sent as u64 + stats.dispatches);
    // Flow ids are handed out in post order: each sender's burst carries
    // consecutive ids, sized 8, 9, 10, ...
    let flows = log.flows.lock().unwrap();
    let first_burst: Vec<_> = flows
        .iter()
        .filter(|f| f.send && f.from == 1 && f.bytes >= 8)
        .take(5)
        .collect();
    for (j, f) in first_burst.iter().enumerate() {
        assert_eq!((f.id, f.bytes), (first_burst[0].id + j as u64, 8 + j));
    }
}

#[test]
fn posts_before_a_panic_are_still_delivered() {
    let plan = [(3, After::Delay), (4, After::Panic), (2, After::Return)];
    let (transcript, _, _, panic) = assert_bursts_agree(7, &plan, FaultPlan::none());
    let msg = panic.expect("the panic reached the host");
    assert!(
        msg.contains("b1") && msg.contains("burst 1 done"),
        "{msg:?}"
    );
    let from_doomed: Vec<u32> = transcript
        .iter()
        .filter(|&&(_, who, _)| who == 1)
        .map(|&(_, _, k)| k)
        .collect();
    assert_eq!(from_doomed, vec![0, 1, 2, 3], "posted before the panic");
    assert_eq!(transcript.len(), 6 + 4 + 2);
}

#[test]
fn post_bursts_draw_the_same_fates_on_both_engines() {
    let plan = [
        (8, After::Delay),
        (8, After::Spawn),
        (8, After::RecvTimeout),
        (8, After::Return),
    ];
    let (_, _, log, _) = assert_bursts_agree(0xFA7E, &plan, lossy_plan(0xFA7E));
    assert!(
        !log.fates.lock().unwrap().is_empty(),
        "the plan faulted no post: the fate stream was not exercised"
    );
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
    for engine in ENGINES {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut sim = Simulation::new(SimConfig {
            engine,
            ..SimConfig::default()
        });
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
        assert_eq!(drops.load(Ordering::SeqCst), 5, "{engine:?}");
    }
}

#[test]
fn teardown_after_a_post_to_nowhere_frees_the_rest_of_the_burst() {
    for engine in ENGINES {
        let drops = Arc::new(AtomicUsize::new(0));
        let counter = drops.clone();
        let result = std::panic::catch_unwind(move || {
            let mut sim = Simulation::new(SimConfig {
                engine,
                ..SimConfig::default()
            });
            let n = sim.add_node("n");
            let sink = sim.spawn(n, "sink", |ctx| {
                let _ = ctx.recv();
            });
            sim.spawn(n, "poster", move |ctx| {
                ctx.send(sink, Counted(counter.clone()));
                // The scheduler refuses this one, with two more of the
                // burst behind it.
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
        assert!(msg.contains("unknown process"), "{engine:?}: {msg:?}");
        assert_eq!(drops.load(Ordering::SeqCst), 4, "{engine:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Property form: arbitrary seeds/workloads, with and without faults,
    /// produce identical transcripts and counters on both engines.
    #[test]
    fn engines_bit_identical(
        seed in any::<u64>(),
        senders in 1usize..5,
        delays in proptest::collection::vec(0u16..5000, 1..12),
        faulty in any::<bool>(),
    ) {
        let plan = if faulty { lossy_plan(seed ^ 0x5eed) } else { FaultPlan::none() };
        let fiber = run_workload(Engine::RunToCompletion, seed, senders, &delays, plan.clone());
        let thread = run_workload(Engine::Threaded, seed, senders, &delays, plan);
        prop_assert_eq!(fiber.0, thread.0);
        prop_assert_eq!(fiber.1, thread.1);
    }

    /// Bursts of posts ahead of every kind of block, with and without
    /// faults: transcripts, every `RunStats` field, flow ids and the
    /// fault-fate stream agree across engines.
    #[test]
    fn post_bursts_bit_identical(
        seed in any::<u64>(),
        plan in proptest::collection::vec((0u8..9, 0u8..4), 1..6),
        faulty in any::<bool>(),
    ) {
        let kinds = [After::Delay, After::RecvTimeout, After::Spawn, After::Return];
        let plan: Vec<(u8, After)> = plan
            .into_iter()
            .map(|(k, kind)| (k, kinds[usize::from(kind)]))
            .collect();
        let faults = if faulty { lossy_plan(seed ^ 0xB0057) } else { FaultPlan::none() };
        assert_bursts_agree(seed, &plan, faults);
    }
}
