//! Integration tests for the parsim kernel: timing semantics, determinism,
//! selective receive, process lifecycle, and failure propagation.

use parsim::{
    Ctx, ProcId, SimConfig, SimDuration, SimTime, Simulation, UniformLatency, ZeroLatency,
};
use std::sync::{Arc, Mutex};

fn sim_with(latency: impl parsim::LatencyModel + 'static) -> Simulation {
    Simulation::new(SimConfig {
        latency: Box::new(latency),
        seed: 7,
        tracer: None,
        ..SimConfig::default()
    })
}

#[test]
fn delay_advances_virtual_time_only() {
    let mut sim = Simulation::new(SimConfig::default());
    let n = sim.add_node("n");
    let wall = std::time::Instant::now();
    let end = sim.block_on(n, "sleeper", |ctx| {
        ctx.delay(SimDuration::from_secs(3600)); // one virtual hour
        ctx.now()
    });
    assert_eq!(end, SimTime::ZERO + SimDuration::from_secs(3600));
    assert!(wall.elapsed().as_secs() < 5, "must not sleep in wall time");
}

#[test]
fn message_latency_is_charged_per_model() {
    let mut sim = sim_with(UniformLatency {
        local: SimDuration::from_micros(5),
        remote_base: SimDuration::from_micros(100),
        per_byte: SimDuration::from_nanos(50),
    });
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let echo = sim.spawn(b, "echo", |ctx| {
        let env = ctx.recv();
        let from = env.from();
        ctx.send_sized(from, (), 1024);
    });
    let (sent, got) = sim.block_on(a, "main", move |ctx| {
        let sent = ctx.now();
        ctx.send_sized(echo, (), 1024);
        let env = ctx.recv();
        (sent, env.delivered_at())
    });
    // Round trip: 2 * (100us + 1024 * 50ns) = 2 * 151.2us
    assert_eq!(
        got.duration_since(sent),
        SimDuration::from_nanos(2 * 151_200)
    );
}

#[test]
fn local_messages_are_cheaper_than_remote() {
    let mut sim = sim_with(UniformLatency::default());
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let (local, remote) = sim.block_on(a, "main", move |ctx| {
        let me = ctx.me();
        let _local_peer = ctx.spawn(a, "lp", move |c: &mut Ctx| {
            let env = c.recv();
            let t = env.delivered_at().duration_since(env.sent_at());
            c.send(me, ("local", t));
        });
        let _remote_peer = ctx.spawn(b, "rp", move |c: &mut Ctx| {
            let env = c.recv();
            let t = env.delivered_at().duration_since(env.sent_at());
            c.send(me, ("remote", t));
        });
        // Children start once we block; send to each and gather.
        ctx.delay(SimDuration::from_nanos(1));
        ctx.send(_local_peer, 0u8);
        ctx.send(_remote_peer, 0u8);
        let (_, (tag1, t1)) = ctx.recv_as::<(&str, SimDuration)>();
        let (_, (tag2, t2)) = ctx.recv_as::<(&str, SimDuration)>();
        let mut m = std::collections::HashMap::new();
        m.insert(tag1, t1);
        m.insert(tag2, t2);
        (m["local"], m["remote"])
    });
    assert!(local < remote, "local {local} should beat remote {remote}");
}

#[test]
fn fifo_between_same_pair() {
    let mut sim = sim_with(ZeroLatency);
    let n = sim.add_node("n");
    let sink = Arc::new(Mutex::new(Vec::new()));
    let sunk = sink.clone();
    let rx = sim.spawn(n, "rx", move |ctx| {
        for _ in 0..100 {
            let (_, v) = ctx.recv_as::<u32>();
            sunk.lock().unwrap().push(v);
        }
    });
    sim.block_on(n, "tx", move |ctx| {
        for i in 0..100u32 {
            ctx.send(rx, i);
        }
    });
    let got = sink.lock().unwrap().clone();
    assert_eq!(got, (0..100).collect::<Vec<_>>());
}

#[test]
fn recv_where_stashes_and_replays_in_order() {
    let mut sim = sim_with(ZeroLatency);
    let n = sim.add_node("n");
    let out = sim.block_on(n, "main", move |ctx| {
        let me = ctx.me();
        ctx.spawn(n, "noise", move |c: &mut Ctx| {
            c.send(me, 1u32);
            c.send(me, "interesting");
            c.send(me, 2u32);
            c.send(me, 3u32);
        });
        // Selectively take the &str first; the u32s must be stashed.
        let env = ctx.recv_where(|e| e.is::<&str>());
        let s = *env.downcast_ref::<&str>().unwrap();
        assert_eq!(ctx.stashed(), 1, "u32 #1 was stashed");
        let mut nums = Vec::new();
        for _ in 0..3 {
            nums.push(ctx.recv_as::<u32>().1);
        }
        (s, nums)
    });
    assert_eq!(out, ("interesting", vec![1, 2, 3]));
}

/// `take_stashed` hands back set-aside messages, oldest matching first,
/// and never receives: with the stash empty it answers `None` at once,
/// though more mail waits in the mailbox, and costs the run no event.
#[test]
fn take_stashed_takes_from_the_stash_only() {
    let run = |take: bool| {
        let mut sim = sim_with(ZeroLatency);
        let n = sim.add_node("n");
        let out = sim.block_on(n, "main", move |ctx| {
            let me = ctx.me();
            ctx.spawn(n, "noise", move |c: &mut Ctx| {
                c.send(me, 1u32);
                c.send(me, 2u32);
                c.send(me, "interesting");
                c.send(me, 3u32);
            });
            ctx.recv_where(|e| e.is::<&str>());
            let mut taken = Vec::new();
            if take {
                while let Some(env) = ctx.take_stashed(|e| e.is::<u32>()) {
                    taken.push(*env.downcast_ref::<u32>().unwrap());
                }
            }
            assert_eq!(ctx.stashed(), if take { 0 } else { 2 });
            // The last u32 is still in the mailbox, not the stash.
            ctx.recv_where(|e| e.downcast_ref::<u32>() == Some(&3));
            (taken, ctx.now())
        });
        (out, sim.stats())
    };
    let ((taken, at), stats) = run(true);
    assert_eq!(taken, [1, 2], "the stash, oldest first");
    let ((_, plain_at), plain) = run(false);
    assert_eq!(at, plain_at, "no virtual time");
    assert_eq!(
        (stats.events, stats.dispatches),
        (plain.events, plain.dispatches),
        "no event, no syscall"
    );
}

#[test]
fn recv_from_filters_by_sender() {
    let mut sim = sim_with(ZeroLatency);
    let n = sim.add_node("n");
    let got = sim.block_on(n, "main", move |ctx| {
        let me = ctx.me();
        let a = ctx.spawn(n, "a", move |c: &mut Ctx| c.send(me, 10u32));
        let b = ctx.spawn(n, "b", move |c: &mut Ctx| c.send(me, 20u32));
        // Ask for b's message even though a's may arrive first.
        let vb = ctx.recv_from::<u32>(b);
        let va = ctx.recv_from::<u32>(a);
        (va, vb)
    });
    assert_eq!(got, (10, 20));
}

#[test]
fn recv_timeout_fires_and_is_cancelled_by_message() {
    let mut sim = sim_with(ZeroLatency);
    let n = sim.add_node("n");
    let (timed_out_at, got_late) = sim.block_on(n, "main", move |ctx| {
        let me = ctx.me();
        ctx.spawn(n, "late", move |c: &mut Ctx| {
            c.delay(SimDuration::from_millis(10));
            c.send(me, 99u32);
        });
        // First wait is too short: must time out at exactly +2ms.
        assert!(ctx.recv_timeout(SimDuration::from_millis(2)).is_none());
        let timed_out_at = ctx.now();
        // Second wait is long enough: message at +10ms wins over +50ms timer.
        let env = ctx
            .recv_timeout(SimDuration::from_millis(50))
            .expect("message arrives before timeout");
        (timed_out_at, (env.downcast::<u32>().unwrap(), ctx.now()))
    });
    assert_eq!(timed_out_at, SimTime::ZERO + SimDuration::from_millis(2));
    assert_eq!(got_late.0, 99);
    assert_eq!(got_late.1, SimTime::ZERO + SimDuration::from_millis(10));
}

#[test]
fn stale_timeout_does_not_fire_later() {
    // A message cancels a pending timeout; the stale wake event must not
    // disturb a subsequent blocking receive.
    let mut sim = sim_with(ZeroLatency);
    let n = sim.add_node("n");
    let v = sim.block_on(n, "main", move |ctx| {
        let me = ctx.me();
        ctx.spawn(n, "fast", move |c: &mut Ctx| c.send(me, 1u32));
        ctx.spawn(n, "slow", move |c: &mut Ctx| {
            c.delay(SimDuration::from_secs(1));
            c.send(me, 2u32);
        });
        let first = ctx
            .recv_timeout(SimDuration::from_millis(500))
            .expect("fast message beats the timer");
        // The 500ms wake event is now stale. Block again; the stale event
        // must be ignored and the 1s message received.
        let second = ctx.recv();
        (
            first.downcast::<u32>().unwrap(),
            second.downcast::<u32>().unwrap(),
        )
    });
    assert_eq!(v, (1, 2));
}

#[test]
fn spawn_tree_runs_to_completion() {
    // A binary tree of processes, each reporting to its parent.
    fn worker(ctx: &mut Ctx, depth: u32, parent: Option<ProcId>) {
        let mut total = 1u64;
        if depth > 0 {
            let me = ctx.me();
            let node = ctx.node();
            for i in 0..2 {
                ctx.spawn(node, format!("w{depth}-{i}"), move |c: &mut Ctx| {
                    worker(c, depth - 1, Some(me));
                });
            }
            for _ in 0..2 {
                total += ctx.recv_as::<u64>().1;
            }
        }
        if let Some(p) = parent {
            ctx.send(p, total);
        }
    }
    let mut sim = sim_with(ZeroLatency);
    let n = sim.add_node("n");
    let total = sim.block_on(n, "root", move |ctx| {
        let me = ctx.me();
        let node = ctx.node();
        ctx.spawn(node, "w", move |c: &mut Ctx| worker(c, 5, Some(me)));
        ctx.recv_as::<u64>().1
    });
    assert_eq!(
        total,
        (1 << 6) - 1,
        "2^6 - 1 nodes in a depth-5 binary tree"
    );
}

#[test]
fn determinism_identical_runs() {
    fn run_once() -> Vec<(u64, u32)> {
        let mut sim = Simulation::new(SimConfig {
            latency: Box::new(UniformLatency::default()),
            seed: 1234,
            tracer: None,
            ..SimConfig::default()
        });
        let nodes = sim.add_nodes("n", 4);
        let trace = Arc::new(Mutex::new(Vec::new()));
        let hub_trace = trace.clone();
        let hub = sim.spawn(nodes[0], "hub", move |ctx| {
            for _ in 0..30 {
                let (_, v) = ctx.recv_as::<u32>();
                hub_trace.lock().unwrap().push((ctx.now().as_nanos(), v));
            }
        });
        for (i, &nd) in nodes.iter().enumerate().take(3) {
            sim.spawn(nd, format!("gen{i}"), move |ctx| {
                use rand::Rng;
                for k in 0..10u32 {
                    let jitter = ctx.rng().random_range(1..1000u64);
                    ctx.delay(SimDuration::from_micros(jitter));
                    ctx.send(hub, (i as u32) * 100 + k);
                }
            });
        }
        sim.run();
        let t = trace.lock().unwrap().clone();
        assert_eq!(t.len(), 30);
        t
    }
    assert_eq!(run_once(), run_once(), "same seed, same trace");
}

#[test]
fn run_until_pauses_and_resumes() {
    let mut sim = sim_with(ZeroLatency);
    let n = sim.add_node("n");
    let flag = Arc::new(Mutex::new(0u32));
    let f2 = flag.clone();
    sim.spawn(n, "ticker", move |ctx| {
        for i in 1..=10 {
            ctx.delay(SimDuration::from_millis(10));
            *f2.lock().unwrap() = i;
        }
    });
    sim.run_until(SimTime::ZERO + SimDuration::from_millis(35));
    assert_eq!(*flag.lock().unwrap(), 3);
    assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(35));
    sim.run();
    assert_eq!(*flag.lock().unwrap(), 10);
}

#[test]
fn run_stats_count_events_and_messages() {
    let mut sim = sim_with(ZeroLatency);
    let n = sim.add_node("n");
    let rx = sim.spawn(n, "rx", |ctx| {
        for _ in 0..5 {
            ctx.recv();
        }
    });
    sim.spawn(n, "tx", move |ctx| {
        for _ in 0..5 {
            ctx.send(rx, ());
        }
    });
    let stats = sim.run();
    assert_eq!(stats.messages, 5);
    assert_eq!(stats.spawned, 2);
    assert!(stats.events >= 7, "2 starts + 5 delivers at minimum");
}

#[test]
fn run_stats_count_bytes_and_queue_high_water() {
    let mut sim = sim_with(ZeroLatency);
    let n = sim.add_node("n");
    let rx = sim.spawn(n, "rx", |ctx| {
        for _ in 0..4 {
            ctx.recv();
        }
    });
    sim.spawn(n, "tx", move |ctx| {
        // Posted back to back: all four deliveries are queued at once, so
        // the high-water mark must reach at least 4.
        for _ in 0..4 {
            ctx.send_sized(rx, (), 1024);
        }
    });
    let stats = sim.run();
    assert_eq!(stats.bytes_sent, 4 * 1024);
    assert!(
        stats.queue_high_water >= 4,
        "4 in-flight deliveries must register, got {}",
        stats.queue_high_water
    );
}

#[test]
#[should_panic(expected = "deadlocked")]
fn block_on_detects_deadlock() {
    let mut sim = sim_with(ZeroLatency);
    let n = sim.add_node("n");
    let _: () = sim.block_on(n, "waiter", |ctx| {
        ctx.recv(); // nobody will ever send
    });
}

#[test]
#[should_panic(expected = "simulated process 'kaboom'")]
fn block_on_panic_reports_process_name() {
    let mut sim = sim_with(ZeroLatency);
    let n = sim.add_node("n");
    let _: () = sim.block_on(n, "kaboom", |_ctx| {
        panic!("intentional failure");
    });
}

#[test]
#[should_panic(expected = "boom")]
fn process_panic_propagates_with_name() {
    let mut sim = sim_with(ZeroLatency);
    let n = sim.add_node("n");
    sim.spawn(n, "bomb", |ctx| {
        ctx.delay(SimDuration::from_millis(1));
        panic!("boom");
    });
    sim.run();
}

#[test]
fn dropping_mid_run_does_not_hang() {
    let mut sim = sim_with(ZeroLatency);
    let n = sim.add_node("n");
    for i in 0..20 {
        sim.spawn(n, format!("idle{i}"), |ctx| {
            ctx.recv(); // parked forever
        });
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_millis(1));
    drop(sim); // must join all 20 parked threads without deadlock
}

#[test]
fn messages_to_starting_or_delayed_process_are_queued() {
    let mut sim = sim_with(ZeroLatency);
    let n = sim.add_node("n");
    let got = sim.block_on(n, "main", move |ctx| {
        let me = ctx.me();
        let kid = ctx.spawn(n, "kid", move |c: &mut Ctx| {
            c.delay(SimDuration::from_millis(5)); // messages arrive while delayed
            let a = c.recv_as::<u32>().1;
            let b = c.recv_as::<u32>().1;
            c.send(me, a + b);
        });
        ctx.send(kid, 2u32); // delivered while kid is Starting/Delayed
        ctx.send(kid, 40u32);
        ctx.recv_as::<u32>().1
    });
    assert_eq!(got, 42);
}

#[test]
fn per_process_rng_is_deterministic_and_distinct() {
    use rand::Rng;
    let draw = |seed: u64| -> Vec<u64> {
        let mut sim = Simulation::new(SimConfig {
            latency: Box::new(ZeroLatency),
            seed,
            tracer: None,
            ..SimConfig::default()
        });
        let n = sim.add_node("n");
        sim.block_on(n, "main", move |ctx| {
            let me = ctx.me();
            ctx.spawn(n, "other", move |c: &mut Ctx| {
                let v: u64 = c.rng().random();
                c.send(me, v);
            });
            let mine: u64 = ctx.rng().random();
            let theirs = ctx.recv_as::<u64>().1;
            vec![mine, theirs]
        })
    };
    let a = draw(9);
    let b = draw(9);
    let c = draw(10);
    assert_eq!(a, b, "same seed reproduces");
    assert_ne!(a, c, "different seed differs");
    assert_ne!(a[0], a[1], "processes get distinct streams");
}
