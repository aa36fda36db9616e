//! The server's one round routine: a round of per-target LFS ops is
//! sent ([`Tier::send_round`]) before any reply is awaited and folded
//! ([`Tier::gather`]) as the replies arrive. Its wiring has one owner, a
//! [`Tier`]: the Bridge Server holds one and runs it as the root of every
//! multi-node command, and a per-node agent holds its own and runs it as
//! an inner node of a relayed round. Also here: the tree's shape, which
//! the tools' worker start shares, and the one rule for which rounds
//! relay ([`Shape`]).

use super::{trace_served, BridgeServerConfig, SERIAL_ARITY};
use crate::protocol::{RelayRequest, RelayTarget, Round, TierCmd, TierRpc};
use bridge_efs::{reply_wire_size, DedupWindow, EfsError, LfsData, LfsOp, LfsReply, RpcClient};
use parsim::{Ctx, NodeId, ProcId, SimDuration, Simulation};

/// The sizes of the groups [`fan_groups`] splits `n` items into, in send
/// order, without collecting them.
fn group_sizes(n: usize, arity: u32) -> impl Iterator<Item = usize> {
    let k = arity.max(2) as usize;
    let (mut rest, mut size, mut slots, mut pair) = (n, 0, 0, false);
    std::iter::from_fn(move || {
        if std::mem::take(&mut pair) {
            return Some(1);
        }
        if rest == 0 {
            return None;
        }
        if slots == 0 {
            (size, slots) = (rest.div_ceil(k), k - 1);
        }
        slots -= 1;
        let group = size.min(rest);
        rest -= group;
        pair = group == 2;
        Some(if pair { 1 } else { group })
    })
}

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
    let mut items = items.into_iter();
    group_sizes(items.len(), arity)
        .map(|size| items.by_ref().take(size).collect())
        .collect()
}

/// What relays, decided once. A Create's rounds — a plain Create's, a
/// 2PC Create's PREPAREs and DECIDEs — ride the tree at `create_arity`.
/// Every other round goes straight to each target: a send takes no
/// virtual time and an uncharged round charges nothing per reply, so a
/// relay would only add hops — and Open and the read round need each
/// target's own answer, which a relay folds away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Shape {
    /// All leaves, charged nothing.
    Direct,
    /// Relayed at `create_arity`; `charged` pays Create's initiation and
    /// termination CPU at each hop.
    Tree { charged: bool },
}

/// One send of a round in flight: where it went, its request id, and its
/// slot — the position among the round's targets it answers for, and
/// whether a lost column there is tolerated (never for a relay: its
/// failure is a subtree's veto, already past its own tolerance).
struct Sent {
    to: ProcId,
    id: u64,
    slot: (usize, bool),
}

/// One hop of a round in flight: every send not yet answered, and what a
/// charged round pays per reply.
#[derive(Default)]
pub(super) struct Fan {
    ack: Option<SimDuration>,
    sends: Vec<Sent>,
}

/// What a folded round came to: its tolerated lost columns and the
/// blocks its targets freed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Tally {
    pub lost: u32,
    pub freed: u64,
}

/// A reply as a round takes it.
pub(super) type LfsResult = Result<LfsData, EfsError>;

impl Fan {
    /// The request ids still in flight.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.sends.iter().map(|sent| sent.id)
    }

    /// Takes in `other`'s sends, each now answering for position `pos`,
    /// so that one gather takes both rounds' replies as they land.
    pub fn join(&mut self, other: Fan, pos: usize) {
        for mut sent in other.sends {
            sent.slot.0 = pos;
            self.sends.push(sent);
        }
    }
}

/// Sends a round: each of `targets` — its position in the round, and
/// the target — is sent its `ops`, taken from `ops` target after target.
/// The targets are split as [`fan_groups`] splits them, at the arity
/// `shape` says: a group of one goes straight to that node's LFS, a
/// larger one to its first node's agent as a [`Round`], which runs this
/// same routine over it. A charged round costs `create_init_cpu` per
/// group sent to, and records `create_ack_cpu` as its charge per reply.
///
/// "Bridge gets some parallelism by starting all the LFS operations
/// before waiting for them, but the initiation and termination are
/// sequential": an arity no smaller than the target count makes every
/// group a leaf, which is that sequence — Table 2's — message for message.
fn fan_out(
    ctx: &mut Ctx,
    client: &mut RpcClient<TierRpc>,
    config: &BridgeServerConfig,
    shape: Shape,
    mut targets: impl ExactSizeIterator<Item = (usize, RelayTarget)>,
    ops: impl IntoIterator<Item = LfsOp>,
) -> Fan {
    let mut ops = ops.into_iter();
    let (arity, charged) = match shape {
        Shape::Direct => (SERIAL_ARITY, false),
        Shape::Tree { charged } => (config.create_arity, charged),
    };
    let mut fan = Fan {
        ack: charged.then_some(config.create_ack_cpu),
        sends: Vec::with_capacity(targets.len()),
    };
    for size in group_sizes(targets.len(), arity) {
        let (pos, head) = targets.next().expect("a group per run of targets");
        if charged {
            ctx.delay(config.create_init_cpu);
        }
        if size == 1 {
            let (to, slot) = (head.lfs, (pos, head.tolerant));
            for op in ops.by_ref().take(head.ops as usize) {
                let id = client.send(ctx, to, TierCmd::Lfs(op));
                fan.sends.push(Sent { to, id, slot });
            }
            continue;
        }
        let rest = targets.by_ref().take(size - 1).map(|(_, target)| target);
        let group: Vec<RelayTarget> = std::iter::once(head).chain(rest).collect();
        let count = group.iter().map(|target| target.ops as usize).sum();
        let round = Round {
            ops: ops.by_ref().take(count).collect(),
            targets: group,
            charged,
        };
        let (to, slot) = (head.agent, (pos, false));
        let id = client.send(ctx, to, TierCmd::Relay(round));
        fan.sends.push(Sent { to, id, slot });
    }
    fan
}

/// The round routine's wiring, with one owner — the server, or an agent:
/// the client every send and wait goes through, the configuration whose
/// `create_*` charges and arity Create's rounds pay and split by, and
/// the server's addresses for each node's LFS and agent (an agent keeps
/// none: its rounds name their targets).
pub(super) struct Tier {
    pub lfs: Vec<(ProcId, NodeId)>,
    agents: Vec<ProcId>,
    pub client: RpcClient<TierRpc>,
    config: BridgeServerConfig,
}

impl Tier {
    /// The wiring over `lfs` and `agents`, one each per node (an agent
    /// passes neither), its client retrying under `config.lfs_retry`.
    pub fn new(
        lfs: Vec<(ProcId, NodeId)>,
        agents: Vec<ProcId>,
        config: BridgeServerConfig,
    ) -> Self {
        let client = RpcClient::with_retry(config.lfs_retry);
        Tier {
            lfs,
            agents,
            client,
            config,
        }
    }

    /// Sends a round from the server, the root: each of `targets` — a
    /// node, whether the round survives its column being lost, and how
    /// many of `ops` it takes — in order, shaped by `shape`.
    pub fn send_round(
        &mut self,
        ctx: &mut Ctx,
        shape: Shape,
        targets: impl ExactSizeIterator<Item = (u32, bool, u32)>,
        ops: impl Iterator<Item = LfsOp>,
    ) -> Fan {
        let (lfs, agents) = (&self.lfs, &self.agents);
        let targets = targets.map(|(n, tolerant, ops)| RelayTarget {
            agent: agents[n as usize],
            lfs: lfs[n as usize].0,
            tolerant,
            ops,
        });
        let client = &mut self.client;
        fan_out(ctx, client, &self.config, shape, targets.enumerate(), ops)
    }

    /// Takes `fan`'s next reply as it arrives: the position it answers
    /// for, whether a lost column there is tolerated, and the reply;
    /// `None` once every reply is in. A charged round costs its per-reply
    /// charge here. Between replies the caller is free to do other work,
    /// further rounds included.
    pub fn next(&mut self, ctx: &mut Ctx, fan: &mut Fan) -> Option<(usize, bool, LfsResult)> {
        if fan.sends.is_empty() {
            return None;
        }
        let (at, reply) = (self.client).wait_any(ctx, &fan.sends, |sent| (sent.to, sent.id));
        let (pos, tolerant) = fan.sends.remove(at).slot;
        if let Some(ack) = fan.ack {
            ctx.delay(ack);
        }
        Some((pos, tolerant, reply))
    }

    /// Takes every reply `fan` waits on ([`Tier::next`]), hands it to
    /// `each` with the position of the target it answers for, and folds
    /// them. The fold sums the lost columns its tolerant targets report
    /// and the blocks freed, and keeps the veto of the earliest target —
    /// each hop knows whose it is, since every group it sends to is a
    /// contiguous run of its targets.
    ///
    /// # Errors
    ///
    /// The kept veto, surfaced only after every reply has been consumed,
    /// so a failed round leaves nothing behind in the caller's mailbox or
    /// its client's retry list.
    pub fn gather(
        &mut self,
        ctx: &mut Ctx,
        mut fan: Fan,
        mut each: impl FnMut(usize, LfsResult),
    ) -> Result<Tally, EfsError> {
        let mut tally = Tally::default();
        let mut veto: Option<(usize, EfsError)> = None;
        while let Some((pos, tolerant, reply)) = self.next(ctx, &mut fan) {
            match &reply {
                Ok(LfsData::Tally { lost, freed }) => {
                    tally.lost += lost;
                    tally.freed += freed;
                }
                Ok(LfsData::Freed(freed) | LfsData::Prepared { freed }) => {
                    tally.freed += u64::from(*freed);
                }
                Err(e) if tolerant && e.column_lost() => tally.lost += 1,
                Err(e) if veto.as_ref().is_none_or(|&(first, _)| pos < first) => {
                    veto = Some((pos, e.clone()));
                }
                Ok(_) | Err(_) => {}
            }
            each(pos, reply);
        }
        veto.map_or(Ok(tally), |(_, e)| Err(e))
    }

    /// Runs a relayed `round` as an inner node of the tree: the rest of
    /// its targets split among this hop's children, then — once every
    /// subtree is on its way — the receiver's own LFS as a group of its
    /// own, answering for the first position; then folds the replies.
    fn relay(&mut self, ctx: &mut Ctx, round: Round) -> Result<Tally, EfsError> {
        let (charged, mut ops) = (round.charged, round.ops);
        let mut targets = round.targets.into_iter().enumerate();
        let own = targets.next().expect("a round covers its receiver");
        let (client, config, shape) = (&mut self.client, &self.config, Shape::Tree { charged });
        let others = ops.drain(own.1.ops as usize..);
        let mut fan = fan_out(ctx, client, config, shape, targets, others);
        let mine = fan_out(ctx, client, config, shape, std::iter::once(own), ops);
        fan.join(mine, own.0);
        self.gather(ctx, fan, |_, _| {})
    }
}

/// Spawns a fan-out agent on `node`: a small resident process that serves
/// [`RelayRequest`]s by running the server's own round routine over the
/// request's targets — the rest split among its children, then its own
/// LFS, after every subtree is on its way — under the server's charges
/// and retry policy, and answers with the subtree's folded reply, an
/// [`LfsData::Tally`]. A retransmitted or duplicated request replays its
/// recorded reply and never sends its round twice, so the tree is
/// at-least-once end to end. One request is served at a time, so a round
/// reaches a subtree only after the round before it has.
pub fn spawn_bridge_agent(
    sim: &mut Simulation,
    node: NodeId,
    name: impl Into<String>,
    config: BridgeServerConfig,
) -> ProcId {
    sim.spawn(node, name, move |ctx| {
        let mut tier = Tier::new(Vec::new(), Vec::new(), config);
        let mut dedup: DedupWindow<LfsReply> = DedupWindow::default();
        loop {
            let (from, req) = ctx.recv_as::<RelayRequest>();
            let Ok(req) = dedup.admit_or_settle(ctx, from, req, reply_wire_size) else {
                continue;
            };
            let t0 = ctx.now();
            let result = (tier.relay(ctx, req.cmd))
                .map(|Tally { lost, freed }| LfsData::Tally { lost, freed });
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
