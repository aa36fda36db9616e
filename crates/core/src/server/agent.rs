//! Create's fan-out, written once: the routine the Bridge Server runs as
//! the root of the tree and every per-node agent runs as an inner node,
//! and the tree's shape, which the tools' worker start shares.

use super::{trace_served, BridgeServerConfig};
use crate::protocol::{RelayCreate, RelayRequest, TierCmd, TierRpc};
use bridge_efs::{reply_wire_size, DedupWindow, EfsError, LfsData, LfsOp, LfsReply, RpcClient};
use parsim::{Ctx, NodeId, ProcId, Simulation};

/// Splits `items` into the groups one hop of a k-nomial tree of `arity`
/// sends to, in send order: each round takes `arity − 1` groups of
/// ⌈rest / `arity`⌉ items, so the largest subtree goes first and sizes
/// never increase. Arity 2 is the binomial tree, whose depth is
/// ⌈log2 n⌉; an arity of at least `items.len()` makes every group a
/// singleton — a serial sequence — and arities below 2 act as 2. A group
/// of two comes out as two singletons, since a relay to two costs more
/// than sending to both.
pub fn fan_groups<I>(items: I, arity: u32) -> Vec<Vec<I::Item>>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
{
    let k = arity.max(2) as usize;
    let mut groups = Vec::new();
    let mut rest = items.into_iter();
    while rest.len() > 0 {
        let size = rest.len().div_ceil(k);
        for _ in 1..k {
            let group: Vec<_> = rest.by_ref().take(size).collect();
            match group.len() {
                0 => break,
                2 => groups.extend(group.into_iter().map(|item| vec![item])),
                _ => groups.push(group),
            }
        }
    }
    groups
}

/// Creates `cmd`'s files on every one of `cmd.targets`: the first `own`
/// of them are the sender's own, the rest are split by [`fan_groups`] at
/// `config.create_arity`. Each group costs `create_init_cpu` to send to —
/// a group of one goes straight to that node's LFS, a larger one to its
/// first node's agent, which runs this same routine over it — and the
/// sender's own LFS goes last, after every subtree is on its way. Each
/// reply costs `create_ack_cpu` and is consumed as it arrives.
///
/// "Bridge gets some parallelism by starting all the LFS operations
/// before waiting for them, but the initiation and termination are
/// sequential": an arity no smaller than the target count makes every
/// group a leaf, which is that sequence — Table 2's — message for message.
///
/// # Errors
///
/// The first failure to arrive, surfaced only after every reply has been
/// consumed, so a failed fan-out leaves nothing behind in the caller's
/// mailbox or its client's retry list.
pub(super) fn create_on(
    ctx: &mut Ctx,
    client: &mut RpcClient<TierRpc>,
    config: &BridgeServerConfig,
    cmd: &RelayCreate,
    own: usize,
) -> Result<LfsData, EfsError> {
    let (own, rest) = cmd.targets.split_at(own.min(cmd.targets.len()));
    let groups = fan_groups(rest.iter().copied(), config.create_arity);
    // (destination, request id) of every send not yet answered.
    let mut waiting = Vec::new();
    for group in groups
        .into_iter()
        .chain(own.iter().map(|&target| vec![target]))
    {
        ctx.delay(config.create_init_cpu);
        if let [(_, proc)] = *group {
            for &file in &cmd.files {
                let id = client.send(ctx, proc, TierCmd::Lfs(LfsOp::Create { file }));
                waiting.push((proc, id));
            }
        } else {
            let agent = group[0].0;
            let relay = RelayCreate {
                files: cmd.files.clone(),
                targets: group,
            };
            waiting.push((agent, client.send(ctx, agent, TierCmd::Relay(relay))));
        }
    }
    let mut outcome = Ok(LfsData::Done);
    while !waiting.is_empty() {
        let (at, reply) = client.wait_any(ctx, &waiting);
        waiting.remove(at);
        ctx.delay(config.create_ack_cpu);
        outcome = outcome.and(reply);
    }
    outcome
}

/// Spawns a fan-out agent on `node`: a small resident process that serves
/// [`RelayRequest`]s by running the server's own fan-out routine over the
/// request's targets — the rest split among its children, then its own
/// LFS — under the server's charges and retry policy. A retransmitted or
/// duplicated request replays its recorded reply and never creates twice,
/// so the tree is at-least-once end to end.
pub fn spawn_bridge_agent(
    sim: &mut Simulation,
    node: NodeId,
    name: impl Into<String>,
    config: BridgeServerConfig,
) -> ProcId {
    sim.spawn(node, name, move |ctx| {
        let mut client = RpcClient::with_retry(config.lfs_retry);
        let mut dedup: DedupWindow<LfsReply> = DedupWindow::default();
        loop {
            let (from, req) = ctx.recv_as::<RelayRequest>();
            let Ok(req) = dedup.admit_or_settle(ctx, from, req, reply_wire_size) else {
                continue;
            };
            let t0 = ctx.now();
            let result = create_on(ctx, &mut client, &config, &req.cmd, 1);
            trace_served(ctx, "bridge.relay", t0, result.is_ok(), req.id, from);
            dedup.answer(ctx, from, LfsReply { id: req.id, result }, reply_wire_size);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SERIAL_ARITY;
    use proptest::prelude::*;

    fn sizes(n: usize, arity: u32) -> Vec<usize> {
        fan_groups(0..n, arity).iter().map(Vec::len).collect()
    }

    /// Relay hops from the sender to the deepest item: a group of one is
    /// a leaf, a larger one a relay whose head splits the rest again.
    fn depth(items: Vec<usize>, arity: u32) -> u32 {
        fan_groups(items, arity)
            .into_iter()
            .map(|mut group| match group.len() {
                1 => 0,
                _ => 1 + depth(group.split_off(1), arity),
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn shapes_are_the_k_nomial_trees() {
        assert_eq!(sizes(0, 2), Vec::<usize>::new());
        assert_eq!(sizes(1, 2), [1]);
        // Binomial: halves, largest first; the pair at the tail is two
        // leaves, so four nodes or fewer are the serial sequence.
        assert_eq!(sizes(4, 2), [1, 1, 1, 1]);
        assert_eq!(sizes(5, 2), [3, 1, 1]);
        assert_eq!(sizes(8, 2), [4, 1, 1, 1, 1]);
        assert_eq!(
            sizes(1024, 2),
            [512, 256, 128, 64, 32, 16, 8, 4, 1, 1, 1, 1]
        );
        // Three groups a round at arity 4; a round's pairs become leaves.
        assert_eq!(sizes(32, 4), [8, 8, 8, 1, 1, 1, 1, 1, 1, 1, 1]);
        assert_eq!(sizes(9, 3), [3, 3, 1, 1, 1]);
        // An arity below 2 is the binomial tree.
        assert_eq!(sizes(8, 1), sizes(8, 2));
        assert_eq!(sizes(8, 0), sizes(8, 2));
    }

    proptest! {
        #[test]
        fn groups_partition_the_items_in_order(n in 0usize..600, arity in 0u32..12) {
            let groups = fan_groups(0..n, arity);
            prop_assert!(groups.iter().all(|g| !g.is_empty()));
            let flat: Vec<usize> = groups.into_iter().flatten().collect();
            prop_assert_eq!(flat, (0..n).collect::<Vec<_>>());
        }

        #[test]
        fn a_covering_arity_is_all_singletons(n in 0usize..300, extra in 0u32..4) {
            let sizes = sizes(n, n as u32 + extra);
            prop_assert!(sizes.iter().all(|&s| s == 1));
            prop_assert_eq!(sizes.len(), n);
            prop_assert!(self::sizes(n, SERIAL_ARITY).iter().all(|&s| s == 1));
        }

        #[test]
        fn the_binomial_tree_is_log_deep(n in 1usize..2_000) {
            let sizes = sizes(n, 2);
            prop_assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "{:?}", sizes);
            prop_assert!(!sizes.contains(&2), "{:?}", sizes);
            let log2 = n.next_power_of_two().trailing_zeros();
            prop_assert!(depth((0..n).collect(), 2) <= log2);
        }
    }
}
