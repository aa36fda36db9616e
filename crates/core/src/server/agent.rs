//! Create's fan-out, written once: relay-and-reduce over one round of
//! per-node ops — a plain Create's LFS creates, a 2PC Create's PREPAREs
//! or DECIDEs — the routine the Bridge Server runs as the root of the
//! tree and every per-node agent runs as an inner node, and the tree's
//! shape, which the tools' worker start shares.

use super::{trace_served, BridgeServerConfig};
use crate::protocol::{Fold, RelayCreate, RelayRequest, TierCmd, TierRpc};
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

/// One hop of a round in flight: every send not yet answered, with the
/// position among the round's targets it answers for and whether a lost
/// column there is tolerated (never for a relay: its failure is a
/// subtree's veto, already past its own tolerance).
pub(super) struct Fan {
    fold: Fold,
    charged: bool,
    /// Take replies in send order rather than as they arrive.
    in_order: bool,
    waiting: Vec<(ProcId, u64)>,
    slots: Vec<(usize, bool)>,
}

/// What a folded round came to: its tolerated lost columns and the
/// blocks its targets freed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Tally {
    pub lost: u32,
    pub freed: u64,
}

impl Fan {
    /// An uncharged round of `calls` — (LFS, op, tolerant) — sent
    /// straight to each LFS and taken in send order: a transaction
    /// that does not ride the tree.
    pub fn direct<I>(ctx: &mut Ctx, client: &mut RpcClient<TierRpc>, calls: I) -> Fan
    where
        I: IntoIterator<Item = (ProcId, LfsOp, bool)>,
    {
        let mut fan = Fan {
            fold: Fold::Tally,
            charged: false,
            in_order: true,
            waiting: Vec::new(),
            slots: Vec::new(),
        };
        for (pos, (lfs, op, tolerant)) in calls.into_iter().enumerate() {
            let id = client.send(ctx, lfs, TierCmd::Lfs(op));
            fan.waiting.push((lfs, id));
            fan.slots.push((pos, tolerant));
        }
        fan
    }

    /// The request ids still in flight.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.waiting.iter().map(|&(_, id)| id)
    }
}

/// Sends `cmd`'s round to every one of `cmd.targets`: the first `own` of
/// them are the sender's own, the rest are split by [`fan_groups`] at
/// `config.create_arity`. A charged round costs `create_init_cpu` per
/// group sent to — a group of one goes straight to that node's LFS, a
/// larger one to its first node's agent, which runs this same routine
/// over it — and the sender's own LFS goes last, after every subtree is
/// on its way.
///
/// "Bridge gets some parallelism by starting all the LFS operations
/// before waiting for them, but the initiation and termination are
/// sequential": an arity no smaller than the target count makes every
/// group a leaf, which is that sequence — Table 2's — message for message.
pub(super) fn fan_out(
    ctx: &mut Ctx,
    client: &mut RpcClient<TierRpc>,
    config: &BridgeServerConfig,
    cmd: &RelayCreate,
    own: usize,
) -> Fan {
    let (own, rest) = cmd.targets.split_at(own.min(cmd.targets.len()));
    let rest = rest.iter().enumerate().map(|(i, t)| (own.len() + i, t));
    let mut fan = Fan {
        fold: cmd.fold,
        charged: cmd.charged,
        in_order: false,
        waiting: Vec::new(),
        slots: Vec::new(),
    };
    for group in fan_groups(rest, config.create_arity)
        .into_iter()
        .chain(own.iter().enumerate().map(|target| vec![target]))
    {
        if cmd.charged {
            ctx.delay(config.create_init_cpu);
        }
        let (pos, head) = group[0];
        if group.len() == 1 {
            for op in &cmd.ops {
                let id = client.send(ctx, head.lfs, TierCmd::Lfs(op.clone()));
                fan.waiting.push((head.lfs, id));
                fan.slots.push((pos, head.tolerant));
            }
        } else {
            let relay = RelayCreate {
                ops: cmd.ops.clone(),
                targets: group.into_iter().map(|(_, &target)| target).collect(),
                ..*cmd
            };
            let id = client.send(ctx, head.agent, TierCmd::Relay(relay));
            fan.waiting.push((head.agent, id));
            fan.slots.push((pos, false));
        }
    }
    fan
}

/// Takes every reply `fan` waits on and folds them: a charged round costs
/// `create_ack_cpu` per reply. A plain Create keeps the first failure to
/// arrive; a tally sums the lost columns its tolerant targets report and
/// the blocks freed, and keeps the veto of the earliest target.
///
/// # Errors
///
/// The kept failure, surfaced only after every reply has been consumed,
/// so a failed round leaves nothing behind in the caller's mailbox or its
/// client's retry list.
pub(super) fn gather(
    ctx: &mut Ctx,
    client: &mut RpcClient<TierRpc>,
    config: &BridgeServerConfig,
    mut fan: Fan,
) -> Result<Tally, EfsError> {
    let mut tally = Tally::default();
    let mut veto: Option<(usize, EfsError)> = None;
    let mut arrival = 0;
    while !fan.waiting.is_empty() {
        let span = if fan.in_order { 1 } else { fan.waiting.len() };
        let (at, reply) = client.wait_any(ctx, &fan.waiting[..span]);
        fan.waiting.remove(at);
        let (pos, tolerant) = fan.slots.remove(at);
        if fan.charged {
            ctx.delay(config.create_ack_cpu);
        }
        match reply {
            Ok(LfsData::Tally { lost, freed }) => {
                tally.lost += lost;
                tally.freed += freed;
            }
            Ok(LfsData::Freed(freed) | LfsData::Prepared { freed }) => {
                tally.freed += u64::from(freed);
            }
            Ok(_) => {}
            Err(e) if tolerant && e.column_lost() => tally.lost += 1,
            Err(e) => {
                let pos = match fan.fold {
                    Fold::FirstFailure => arrival,
                    Fold::Tally => pos,
                };
                if veto.as_ref().is_none_or(|&(first, _)| pos < first) {
                    veto = Some((pos, e));
                }
            }
        }
        arrival += 1;
    }
    veto.map_or(Ok(tally), |(_, e)| Err(e))
}

/// Runs `cmd`'s round over its targets, the first `own` of them the
/// sender's own: [`fan_out`], then [`gather`], folded into the reply an
/// LFS would give for itself — `Done` for a plain Create, else a
/// [`LfsData::Tally`].
///
/// # Errors
///
/// As [`gather`].
pub(super) fn create_on(
    ctx: &mut Ctx,
    client: &mut RpcClient<TierRpc>,
    config: &BridgeServerConfig,
    cmd: &RelayCreate,
    own: usize,
) -> Result<LfsData, EfsError> {
    let fan = fan_out(ctx, client, config, cmd, own);
    let Tally { lost, freed } = gather(ctx, client, config, fan)?;
    Ok(match cmd.fold {
        Fold::FirstFailure => LfsData::Done,
        Fold::Tally => LfsData::Tally { lost, freed },
    })
}

/// Spawns a fan-out agent on `node`: a small resident process that serves
/// [`RelayRequest`]s by running the server's own fan-out routine over the
/// request's targets — the rest split among its children, then its own
/// LFS — under the server's charges and retry policy, and answers with
/// the subtree's folded reply. A retransmitted or duplicated request
/// replays its recorded reply and never sends its round twice, so the
/// tree is at-least-once end to end. One request is served at a time, so
/// a round reaches a subtree only after the round before it has.
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
