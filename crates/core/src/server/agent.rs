//! Create's fan-out, written once: the routine the Bridge Server runs as
//! the root of the tree and every per-node agent runs as an inner node.

use super::{trace_served, BridgeServerConfig};
use crate::protocol::{RelayCreate, RelayRequest, RelayRpc};
use bridge_efs::{
    reply_wire_size, Admission, DedupWindow, EfsError, LfsClient, LfsData, LfsOp, LfsReply,
    RpcClient,
};
use parsim::{Ctx, NodeId, ProcId, Simulation};

/// Creates `cmd`'s files on every one of `cmd.targets`: the first `own`
/// of them are each a group of one, the rest are split into at most
/// `config.create_arity` groups. Each group costs `create_init_cpu` to
/// send to — a group of one goes straight to that node's LFS, a larger
/// one to its first node's agent, which runs this same routine over it —
/// and each reply, collected in send order, costs `create_ack_cpu`.
///
/// "Bridge gets some parallelism by starting all the LFS operations
/// before waiting for them, but the initiation and termination are
/// sequential": an arity no smaller than the target count makes every
/// group a leaf, which is that sequence — Table 2's — message for message.
///
/// # Errors
///
/// The first failure in send order, surfaced only after every reply has
/// been consumed, so a failed fan-out leaves nothing behind in the
/// caller's mailbox or its clients' retry lists.
pub(super) fn create_on(
    ctx: &mut Ctx,
    lfs: &mut LfsClient,
    agents: &mut RpcClient<RelayRpc>,
    config: &BridgeServerConfig,
    cmd: &RelayCreate,
    own: usize,
) -> Result<LfsData, EfsError> {
    let (own, rest) = cmd.targets.split_at(own.min(cmd.targets.len()));
    // (destination, request id, whether the destination is an agent).
    let mut sent = Vec::new();
    // At most `create_arity` contiguous groups of the rest, equal but for
    // the last.
    let size = rest.len().div_ceil(config.create_arity.max(1) as usize);
    for group in own.chunks(1).chain(rest.chunks(size.max(1))) {
        ctx.delay(config.create_init_cpu);
        if let [(_, proc)] = *group {
            for &file in &cmd.files {
                sent.push((proc, lfs.send(ctx, proc, LfsOp::Create { file }), false));
            }
        } else {
            let agent = group[0].0;
            let relay = RelayCreate {
                files: cmd.files.clone(),
                targets: group.to_vec(),
            };
            sent.push((agent, agents.send(ctx, agent, relay), true));
        }
    }
    let mut outcome = Ok(LfsData::Done);
    for (proc, id, relayed) in sent {
        let reply = if relayed {
            agents.wait(ctx, proc, id)
        } else {
            lfs.wait(ctx, proc, id)
        };
        ctx.delay(config.create_ack_cpu);
        outcome = outcome.and(reply);
    }
    outcome
}

/// Spawns a fan-out agent on `node`: a small resident process that serves
/// [`RelayRequest`]s by running the server's own fan-out routine over the
/// request's targets — its own LFS, then the rest split among its
/// children — under the server's charges and retry policy. A retransmitted
/// or duplicated request replays its recorded reply and never creates
/// twice, so the tree is at-least-once end to end.
pub fn spawn_bridge_agent(
    sim: &mut Simulation,
    node: NodeId,
    name: impl Into<String>,
    config: BridgeServerConfig,
) -> ProcId {
    sim.spawn(node, name, move |ctx| {
        let mut lfs = LfsClient::with_retry(config.lfs_retry);
        let mut agents = RpcClient::with_retry(config.lfs_retry);
        let mut dedup: DedupWindow<LfsReply> = DedupWindow::standard();
        loop {
            let (from, req) = ctx.recv_as::<RelayRequest>();
            let reply = match dedup.admit(from, req.id) {
                Admission::New => {
                    let t0 = ctx.now();
                    let result = create_on(ctx, &mut lfs, &mut agents, &config, &req.cmd, 1);
                    trace_served(ctx, "bridge.relay", t0, result.is_ok(), req.id, from);
                    let reply = LfsReply { id: req.id, result };
                    dedup.complete(from, req.id, ctx.now(), reply.clone());
                    reply
                }
                // One request is served at a time, so a copy of it that
                // arrives meanwhile waits in the mailbox and replays.
                Admission::InFlight => continue,
                Admission::Replay(reply) => {
                    ctx.trace_instant("retry", "retry.replay", &[("id", req.id)]);
                    reply
                }
            };
            let bytes = reply_wire_size(&reply);
            ctx.send_sized_cloneable(from, reply, bytes);
        }
    })
}
