//! The per-node fan-out agents of tree-structured Create.

use crate::error::BridgeError;
use crate::protocol::{FanoutAck, FanoutCreate};
use bridge_efs::{LfsClient, LfsOp, RetryPolicy};
use parsim::{NodeId, ProcId, SimDuration, Simulation};

/// Spawns a fan-out agent on `node`: a small resident process that relays
/// [`FanoutCreate`] requests down the embedded binary tree, performs the
/// create at its local LFS, and aggregates acknowledgements upward.
/// `relay_cpu` is the CPU cost the agent pays per message it initiates;
/// `retry` is applied to the agent's local-LFS client (the agent↔agent
/// relay itself is not retried — fault plans exercising the tree fan-out
/// must keep it lossless).
pub fn spawn_bridge_agent(
    sim: &mut Simulation,
    node: NodeId,
    name: impl Into<String>,
    relay_cpu: SimDuration,
    retry: RetryPolicy,
) -> ProcId {
    sim.spawn(node, name, move |ctx| {
        let mut client = LfsClient::with_retry(retry);
        loop {
            let env = ctx.recv_where(|e| e.is::<FanoutCreate>());
            let parent = env.from();
            let req = env.downcast::<FanoutCreate>().expect("matched");
            let id = req.id;
            let mut targets = req.targets;
            let (_, my_lfs) = targets.remove(0);
            let mid = targets.len() / 2;
            let right = targets.split_off(mid);
            let left = targets;
            let mut children = 0;
            for half in [left, right] {
                if let Some(&(agent, _)) = half.first() {
                    ctx.delay(relay_cpu);
                    ctx.send(
                        agent,
                        FanoutCreate {
                            id,
                            lfs_file: req.lfs_file,
                            companion: req.companion,
                            targets: half,
                        },
                    );
                    children += 1;
                }
            }
            ctx.delay(relay_cpu);
            let mut result = std::iter::once(req.lfs_file)
                .chain(req.companion)
                .try_for_each(|file| {
                    client
                        .call(ctx, my_lfs, LfsOp::Create { file })
                        .map(|_| ())
                        .map_err(BridgeError::Lfs)
                });
            for _ in 0..children {
                let env = ctx
                    .recv_where(move |e| e.downcast_ref::<FanoutAck>().is_some_and(|a| a.id == id));
                let ack = env.downcast::<FanoutAck>().expect("matched");
                if result.is_ok() {
                    result = ack.result;
                }
            }
            ctx.send(parent, FanoutAck { id, result });
        }
    })
}
