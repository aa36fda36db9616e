//! End-to-end timeout/retry recovery for the LFS protocol under message
//! faults: lost, duplicated, and delayed requests and replies must be
//! invisible to a client using a retry policy — same replies, same file
//! contents as a fault-free run.

use bridge_efs::{
    Efs, EfsConfig, EfsError, LfsClient, LfsData, LfsFileId, LfsOp, LfsReply, LfsRequest,
    RetryPolicy,
};
use parsim::{
    FaultPlan, MsgFaults, Outage, OutageKind, SimConfig, SimDuration, SimTime, Simulation,
    UniformLatency,
};
use simdisk::{DiskGeometry, DiskProfile, SimDisk};

fn small_geometry() -> DiskGeometry {
    DiskGeometry {
        block_size: 1024,
        blocks_per_track: 8,
        tracks: 256,
    }
}

fn sim_with(faults: FaultPlan) -> Simulation {
    Simulation::new(SimConfig {
        latency: Box::new(UniformLatency::constant(SimDuration::from_micros(50))),
        seed: 7,
        tracer: None,
        faults,
    })
}

fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        msg: MsgFaults {
            drop_per_mille: 250,
            dup_per_mille: 200,
            delay_per_mille: 200,
            delay_max: SimDuration::from_millis(5),
            max_consecutive_drops: 6,
        },
        ..FaultPlan::none()
    }
}

/// Runs a create + append + read-back workload and returns the bytes read.
fn run_workload(mut sim: Simulation, retry: RetryPolicy) -> Vec<u8> {
    let nodes = sim.add_nodes("n", 2);
    let efs = Efs::format(
        SimDisk::new(small_geometry(), DiskProfile::wren()),
        EfsConfig::default(),
    );
    let lfs = bridge_efs::spawn_lfs(&mut sim, nodes[0], "lfs", efs);
    sim.block_on(nodes[1], "client", move |ctx| {
        let mut client = LfsClient::with_retry(retry);
        let f = LfsFileId(3);
        client.call(ctx, lfs, LfsOp::Create { file: f }).unwrap();
        for i in 0..12u32 {
            client
                .call(
                    ctx,
                    lfs,
                    LfsOp::Write {
                        file: f,
                        block: i,
                        data: vec![i as u8; 16].into(),
                        hint: None,
                    },
                )
                .unwrap();
        }
        let mut out = Vec::new();
        for i in 0..12u32 {
            match client
                .call(
                    ctx,
                    lfs,
                    LfsOp::Read {
                        file: f,
                        block: i,
                        hint: None,
                    },
                )
                .unwrap()
            {
                LfsData::Block { data, .. } => out.extend_from_slice(&data[..16]),
                other => panic!("unexpected reply {other:?}"),
            }
        }
        match client.call(ctx, lfs, LfsOp::Stat { file: f }).unwrap() {
            LfsData::Info(info) => assert_eq!(info.size, 12, "every append applied exactly once"),
            other => panic!("unexpected reply {other:?}"),
        }
        out
    })
}

#[test]
fn lossy_network_is_invisible_to_a_retrying_client() {
    let faulted = run_workload(sim_with(lossy_plan(0xFA)), RetryPolicy::standard());
    let clean = run_workload(sim_with(FaultPlan::none()), RetryPolicy::none());
    assert_eq!(faulted, clean, "same file contents as the fault-free run");
}

#[test]
fn duplicated_creates_never_surface_file_exists() {
    // Every message duplicated: without server-side dedup a replayed
    // Create would re-execute and answer FileExists.
    let plan = FaultPlan {
        seed: 5,
        msg: MsgFaults {
            dup_per_mille: 1000,
            ..MsgFaults::default()
        },
        ..FaultPlan::none()
    };
    let mut sim = sim_with(plan);
    let nodes = sim.add_nodes("n", 2);
    let efs = Efs::format(
        SimDisk::new(small_geometry(), DiskProfile::instant()),
        EfsConfig::default(),
    );
    let lfs = bridge_efs::spawn_lfs(&mut sim, nodes[0], "lfs", efs);
    sim.block_on(nodes[1], "client", move |ctx| {
        let mut client = LfsClient::with_retry(RetryPolicy::standard());
        for k in 0..24u32 {
            let got = client.call(ctx, lfs, LfsOp::Create { file: LfsFileId(k) });
            assert!(matches!(got, Ok(LfsData::Done)), "create {k}: {got:?}");
        }
    });
}

#[test]
fn retransmit_of_a_completed_request_replays_the_cached_reply() {
    // No faults: drive the dedup window directly by resending the same
    // request id. Re-execution would answer FileExists; the window must
    // replay the original Ok.
    let mut sim = sim_with(FaultPlan::none());
    let nodes = sim.add_nodes("n", 2);
    let efs = Efs::format(
        SimDisk::new(small_geometry(), DiskProfile::instant()),
        EfsConfig::default(),
    );
    let lfs = bridge_efs::spawn_lfs(&mut sim, nodes[0], "lfs", efs);
    sim.block_on(nodes[1], "client", move |ctx| {
        let req = LfsRequest {
            id: ctx.unique_id(),
            low: 0,
            cmd: LfsOp::Create { file: LfsFileId(1) },
        };
        for round in 0..2 {
            ctx.send_sized_cloneable(lfs, req.clone(), 32);
            let env = ctx.recv_where(|e| e.downcast_ref::<LfsReply>().is_some());
            let reply = env.downcast::<LfsReply>().unwrap();
            assert_eq!(reply.id, req.id);
            assert!(
                matches!(reply.result, Ok(LfsData::Done)),
                "round {round}: retransmit must replay, not re-execute: {:?}",
                reply.result
            );
        }
    });
}

#[test]
fn retry_budget_exhausts_against_a_long_pause() {
    let server_node_index = 0;
    let plan = FaultPlan {
        outages: vec![Outage {
            node: parsim::NodeId::from_index(server_node_index),
            from: SimTime::ZERO,
            until: SimTime::ZERO + SimDuration::from_secs(30),
            kind: OutageKind::Paused,
        }],
        ..FaultPlan::none()
    };
    let mut sim = sim_with(plan);
    let nodes = sim.add_nodes("n", 2);
    let efs = Efs::format(
        SimDisk::new(small_geometry(), DiskProfile::instant()),
        EfsConfig::default(),
    );
    let lfs = bridge_efs::spawn_lfs(&mut sim, nodes[server_node_index], "lfs", efs);
    sim.block_on(nodes[1], "client", move |ctx| {
        let mut client = LfsClient::with_retry(RetryPolicy {
            timeout: SimDuration::from_millis(10),
            backoff_cap: SimDuration::from_millis(40),
            budget: 4,
        });
        let got = client.call(ctx, lfs, LfsOp::Stat { file: LfsFileId(1) });
        assert_eq!(got, Err(EfsError::TimedOut { attempts: 4 }));
    });
}
