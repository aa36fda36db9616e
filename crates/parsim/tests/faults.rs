//! Behavioural tests for the deterministic fault-injection layer.

use parsim::{
    FaultPlan, MsgFaults, Outage, OutageKind, SimConfig, SimDuration, SimTime, Simulation,
    UniformLatency, ZeroLatency,
};
use std::sync::mpsc;

fn sim_with_plan(faults: FaultPlan) -> Simulation {
    Simulation::new(SimConfig {
        latency: Box::new(UniformLatency::constant(SimDuration::from_micros(10))),
        seed: 7,
        tracer: None,
        faults,
    })
}

/// Sends `n` numbered messages at a receiver that drains with a generous
/// timeout, and returns the payloads it saw (reported over a host-side
/// channel so the fault layer cannot touch the report itself).
fn collect_received(mut sim: Simulation, n: u32, cloneable: bool) -> Vec<u32> {
    let node = sim.add_node("n");
    let peer = sim.add_node("peer");
    let (tx, rx_chan) = mpsc::channel();
    let rx = sim.spawn(peer, "rx", move |ctx| {
        let mut got = Vec::new();
        while let Some(env) = ctx.recv_timeout(SimDuration::from_secs(1)) {
            got.push(*env.downcast_ref::<u32>().expect("u32 payload"));
        }
        tx.send(got).expect("report received payloads");
    });
    sim.block_on(node, "tx", move |ctx| {
        for i in 0..n {
            if cloneable {
                ctx.send_sized_cloneable(rx, i, 64);
            } else {
                ctx.send_sized(rx, i, 64);
            }
        }
    });
    sim.run();
    rx_chan.recv().expect("receiver reported")
}

#[test]
fn always_drop_with_cap_forces_every_fourth_through() {
    let plan = FaultPlan {
        seed: 1,
        msg: MsgFaults {
            drop_per_mille: 1000,
            max_consecutive_drops: 3,
            ..MsgFaults::default()
        },
        ..FaultPlan::none()
    };
    let got = collect_received(sim_with_plan(plan), 12, false);
    // Drops: 0,1,2 dropped; 3 forced through; 4,5,6 dropped; 7 forced; ...
    assert_eq!(got, vec![3, 7, 11]);
}

#[test]
fn duplicates_only_apply_to_cloneable_sends() {
    let plan = FaultPlan {
        seed: 2,
        msg: MsgFaults {
            dup_per_mille: 1000,
            ..MsgFaults::default()
        },
        ..FaultPlan::none()
    };
    let got = collect_received(sim_with_plan(plan.clone()), 4, true);
    assert_eq!(
        got,
        vec![0, 0, 1, 1, 2, 2, 3, 3],
        "cloneable sends deliver twice"
    );

    let got = collect_received(sim_with_plan(plan), 4, false);
    assert_eq!(got, vec![0, 1, 2, 3], "opaque sends deliver once");
}

#[test]
fn delays_defer_within_the_bound_and_lose_nothing() {
    let plan = FaultPlan {
        seed: 3,
        msg: MsgFaults {
            delay_per_mille: 1000,
            delay_max: SimDuration::from_millis(2),
            ..MsgFaults::default()
        },
        ..FaultPlan::none()
    };
    let mut sim = sim_with_plan(plan);
    let node = sim.add_node("n");
    let peer = sim.add_node("peer");
    let (tx, rx_chan) = mpsc::channel();
    let rx = sim.spawn(peer, "rx", move |ctx| {
        let mut arrivals = Vec::new();
        while let Some(env) = ctx.recv_timeout(SimDuration::from_secs(1)) {
            arrivals.push((env.sent_at(), env.delivered_at(), ctx.now()));
        }
        tx.send(arrivals).expect("report arrivals");
    });
    sim.block_on(node, "tx", move |ctx| {
        for _ in 0..16u32 {
            ctx.send_sized(rx, 0u32, 64);
        }
    });
    sim.run();
    let arrivals = rx_chan.recv().expect("receiver reported");
    assert_eq!(arrivals.len(), 16, "delayed messages are not lost");
    let base = SimDuration::from_micros(10);
    for (sent, delivered, seen) in arrivals {
        let lat = delivered.duration_since(sent);
        assert!(lat >= base, "latency at least the interconnect cost");
        assert!(
            lat < base + SimDuration::from_millis(2),
            "extra delay bounded by delay_max"
        );
        assert_eq!(delivered, seen, "envelope timing matches the clock");
    }
}

#[test]
fn down_outage_loses_in_window_messages() {
    let mut sim = Simulation::new(SimConfig {
        latency: Box::new(ZeroLatency),
        seed: 7,
        tracer: None,
        faults: FaultPlan {
            outages: vec![Outage {
                // "peer" below is the second node created.
                node: node_by_creation(1),
                from: SimTime::ZERO,
                until: SimTime::ZERO + SimDuration::from_millis(10),
                kind: OutageKind::Down,
            }],
            ..FaultPlan::none()
        },
    });
    let node = sim.add_node("n");
    let peer = sim.add_node("peer");
    let (tx, rx_chan) = mpsc::channel();
    let rx = sim.spawn(peer, "rx", move |ctx| {
        let mut got = Vec::new();
        while let Some(env) = ctx.recv_timeout(SimDuration::from_secs(1)) {
            got.push(*env.downcast_ref::<u32>().expect("u32 payload"));
        }
        tx.send(got).expect("report");
    });
    sim.block_on(node, "tx", move |ctx| {
        ctx.send(rx, 1u32); // in the outage window: lost
        ctx.delay(SimDuration::from_millis(20));
        ctx.send(rx, 2u32); // after the window: delivered
    });
    sim.run();
    assert_eq!(rx_chan.recv().expect("report"), vec![2]);
}

#[test]
fn paused_outage_defers_in_order_to_window_end() {
    let pause_end = SimTime::ZERO + SimDuration::from_millis(10);
    let mut sim = Simulation::new(SimConfig {
        latency: Box::new(ZeroLatency),
        seed: 7,
        tracer: None,
        faults: FaultPlan {
            outages: vec![Outage {
                node: node_by_creation(1),
                from: SimTime::ZERO,
                until: pause_end,
                kind: OutageKind::Paused,
            }],
            ..FaultPlan::none()
        },
    });
    let node = sim.add_node("n");
    let peer = sim.add_node("peer");
    let (tx, rx_chan) = mpsc::channel();
    let rx = sim.spawn(peer, "rx", move |ctx| {
        let mut got = Vec::new();
        while let Some(env) = ctx.recv_timeout(SimDuration::from_secs(1)) {
            got.push((*env.downcast_ref::<u32>().expect("u32"), ctx.now()));
        }
        tx.send(got).expect("report");
    });
    sim.block_on(node, "tx", move |ctx| {
        ctx.send(rx, 1u32);
        ctx.send(rx, 2u32);
        ctx.send(rx, 3u32);
    });
    sim.run();
    let got = rx_chan.recv().expect("report");
    let values: Vec<u32> = got.iter().map(|&(v, _)| v).collect();
    assert_eq!(values, vec![1, 2, 3], "deferred messages keep their order");
    for &(_, at) in &got {
        assert!(at >= pause_end, "nothing delivered inside the pause");
    }
}

#[test]
fn same_plan_same_run() {
    let plan = FaultPlan {
        seed: 99,
        msg: MsgFaults {
            drop_per_mille: 200,
            dup_per_mille: 100,
            delay_per_mille: 300,
            delay_max: SimDuration::from_millis(1),
            max_consecutive_drops: 4,
        },
        ..FaultPlan::none()
    };
    let run = |plan: FaultPlan| collect_received(sim_with_plan(plan), 64, true);
    let first = run(plan.clone());
    assert_eq!(first, run(plan));
    assert!(!first.is_empty(), "the cap guarantees some deliveries");
}

#[test]
fn none_plan_matches_a_config_without_faults() {
    let run = |faults: FaultPlan| {
        let mut sim = Simulation::new(SimConfig {
            latency: Box::new(UniformLatency::default()),
            seed: 42,
            tracer: None,
            faults,
        });
        let nodes = sim.add_nodes("n", 3);
        let hub = sim.spawn(nodes[0], "hub", |ctx| {
            let mut total = 0u64;
            for _ in 0..20 {
                let (_, v) = ctx.recv_as::<u64>();
                total += v;
            }
            assert_eq!(total, 190);
        });
        for (i, &node) in nodes.iter().enumerate() {
            sim.spawn(node, format!("w{i}"), move |ctx| {
                for k in 0..20u64 {
                    if k as usize % 3 == i {
                        ctx.delay(SimDuration::from_micros(k));
                        ctx.send_sized_cloneable(hub, k, 32);
                    }
                }
            });
        }
        sim.run()
    };
    assert_eq!(run(FaultPlan::none()), run(FaultPlan::none()));
}

#[test]
fn unique_ids_are_process_local_and_monotonic() {
    let mut sim = Simulation::new(SimConfig::default());
    let n = sim.add_node("n");
    let ids = sim.block_on(n, "main", |ctx| {
        (0..4).map(|_| ctx.unique_id()).collect::<Vec<u64>>()
    });
    assert_eq!(ids, vec![1, 2, 3, 4]);
}

/// The mark is the lowest open id: plain unique ids never hold it, ids
/// close in any order, and with nothing open it is the next id to draw.
#[test]
fn low_id_is_the_lowest_open_id() {
    let mut sim = Simulation::new(SimConfig::default());
    let n = sim.add_node("n");
    let lows = sim.block_on(n, "main", |ctx| {
        let mut lows = vec![ctx.low_id()];
        let a = ctx.open_id();
        ctx.unique_id();
        let b = ctx.open_id();
        lows.push(ctx.low_id());
        ctx.close_id(b);
        lows.push(ctx.low_id());
        let c = ctx.open_id();
        ctx.close_id(a);
        lows.push(ctx.low_id());
        ctx.close_id(c);
        ctx.close_id(c);
        lows.push(ctx.low_id());
        (lows, ctx.open_ids())
    });
    assert_eq!(lows, (vec![1, 1, 1, 4, 5], 0));
}

#[test]
fn recv_where_timeout_stashes_and_expires() {
    let mut sim = Simulation::new(SimConfig {
        latency: Box::new(ZeroLatency),
        ..SimConfig::default()
    });
    let n = sim.add_node("n");
    let got = sim.block_on(n, "main", move |ctx| {
        let me = ctx.me();
        ctx.spawn(n, "peer", move |c| {
            c.send(me, 1u32);
            c.delay(SimDuration::from_millis(5));
            c.send(me, "late");
        });
        // Wait for a &str with a deadline before the peer sends one: the
        // u32 is stashed, the wait times out.
        let miss = ctx.recv_where_timeout(|e| e.is::<&str>(), SimDuration::from_millis(2));
        assert!(miss.is_none(), "deadline expires without a match");
        assert_eq!(ctx.stashed(), 1, "non-matching message was set aside");
        // A second wait with a later deadline gets it.
        let hit = ctx
            .recv_where_timeout(|e| e.is::<&str>(), SimDuration::from_millis(10))
            .expect("late message arrives inside the second window");
        assert_eq!(hit.downcast_ref::<&str>(), Some(&"late"));
        // The stash still yields the earlier u32; discard_stashed purges it.
        ctx.discard_stashed(|e| e.is::<u32>());
        assert_eq!(ctx.stashed(), 0);
        true
    });
    assert!(got);
}

/// Builds "the node created at index `i`" for outage plans: `NodeId`s are
/// just creation-order indices, so ids from a scratch simulation transfer.
fn node_by_creation(i: u32) -> parsim::NodeId {
    let mut sim = Simulation::new(SimConfig::default());
    let mut last = sim.add_node("scratch0");
    for k in 1..=i {
        last = sim.add_node(format!("scratch{k}"));
    }
    last
}
