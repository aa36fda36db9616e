//! Worker orchestration: starting one subprocess per LFS node and joining
//! their results through a fan-out tree of any arity.
//!
//! "Typical interaction between tools and the other components of the
//! system involves (1) a brief phase of communication with the Bridge
//! Server …, (2) the creation of subprocesses on all the LFS nodes, and
//! (3) a lengthy series of interactions between the subprocesses and the
//! instances of LFS." This module is phases (1) and (2) as every tool
//! runs them — [`open_unlinked`], then [`scan_columns`] over
//! [`run_workers`] — with completion handled by the tree that started the
//! workers.
//!
//! Completion is delivered with an at-least-once protocol: each worker
//! tags its result batch with a sender-unique id, resends it on a capped
//! exponential backoff until the collector acknowledges, and collectors
//! merge batches idempotently by worker index. A fault plan that drops,
//! duplicates, or delays messages therefore cannot strand the join — the
//! property pfsck relies on when it audits a machine whose interconnect
//! is still under an armed [`FaultPlan`](parsim::FaultPlan). Only node
//! outages that kill a worker process outright are out of scope; tools
//! start their workers after forming a plan and assume the nodes they
//! picked stay up for the (short) completion exchange.

use crate::error::ToolError;
use crate::options::ToolOptions;
use bridge_core::{
    fan_groups, BatchPolicy, BridgeClient, BridgeError, BridgeFileId, LfsSlice, OpenInfo,
    PlacementKind,
};
use parsim::{Ctx, NodeId, ProcId, SimDuration};
use std::collections::BTreeSet;
use std::rc::Rc;

/// The boxed body a worker runs on its node.
pub type WorkerBody<R> = Box<dyn FnOnce(&mut Ctx) -> Result<R, ToolError>>;

/// One worker to start: where, what to call it, and what it runs.
pub struct WorkerSpec<R> {
    /// Node to start the worker on (tools place workers on the LFS nodes
    /// that hold their data).
    pub node: NodeId,
    /// Process name (debugging).
    pub name: String,
    /// The worker body.
    pub run: WorkerBody<R>,
}

impl<R> std::fmt::Debug for WorkerSpec<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerSpec")
            .field("node", &self.node)
            .field("name", &self.name)
            .finish()
    }
}

type Batch<R> = Vec<(usize, Result<R, ToolError>)>;

/// Wire form of a completion batch: the results plus a sender-unique tag
/// the collector echoes back in its [`BatchAck`]. Sent cloneable so
/// duplicate-delivery faults exercise the collectors' dedup.
#[derive(Debug, Clone)]
struct TaggedBatch<R> {
    delivery: u64,
    batch: Batch<R>,
}

/// Collector → worker acknowledgement of a [`TaggedBatch`].
#[derive(Debug, Clone, Copy)]
struct BatchAck {
    delivery: u64,
}

/// First ack wait; doubles per resend up to [`DELIVERY_BACKOFF_CAP_MS`].
const DELIVERY_TIMEOUT_MS: u64 = 250;
const DELIVERY_BACKOFF_CAP_MS: u64 = 4_000;
/// Send attempts before a worker stops waiting for its ack. Far above any
/// bounded fault plan's consecutive-drop cap, so the batch itself always
/// lands; only the terminal ack can be abandoned, and an unacked worker
/// exits instead of resending forever.
const DELIVERY_ATTEMPTS: u32 = 32;

/// Sends `batch` to `parent` until acknowledged (at-least-once). While
/// waiting for the ack, keeps re-acknowledging any child batch resends so
/// a relay's own children are never stranded by a lost ack.
fn deliver_batch<R: Clone + Send + 'static>(ctx: &mut Ctx, parent: ProcId, batch: Batch<R>) {
    let delivery = ctx.unique_id();
    let mut wait = SimDuration::from_millis(DELIVERY_TIMEOUT_MS);
    let cap = SimDuration::from_millis(DELIVERY_BACKOFF_CAP_MS);
    for _ in 0..DELIVERY_ATTEMPTS {
        ctx.send_sized_cloneable(
            parent,
            TaggedBatch {
                delivery,
                batch: batch.clone(),
            },
            0,
        );
        loop {
            let is_my_ack = |e: &parsim::Envelope| {
                e.from() == parent
                    && e.downcast_ref::<BatchAck>()
                        .is_some_and(|a| a.delivery == delivery)
            };
            let Some(env) =
                ctx.recv_where_timeout(|e| is_my_ack(e) || e.is::<TaggedBatch<R>>(), wait)
            else {
                break; // timed out: resend
            };
            if env.is::<TaggedBatch<R>>() {
                // A child's resend of a batch this relay already merged:
                // re-acknowledge so the child can stop.
                ack_batch::<R>(ctx, env);
            } else {
                ctx.discard_stashed(is_my_ack);
                return;
            }
        }
        wait = SimDuration::from_nanos(wait.as_nanos().saturating_mul(2)).min(cap);
    }
    // The ack never arrived. Under a bounded fault plan the batch itself
    // has long since been delivered; give up on the receipt and exit.
}

/// Receives the next [`TaggedBatch`], acknowledges it, and returns it.
fn recv_batch<R: Send + 'static>(ctx: &mut Ctx) -> Batch<R> {
    let env = ctx.recv_where(|e| e.is::<TaggedBatch<R>>());
    ack_batch::<R>(ctx, env)
}

/// Acknowledges a received batch envelope and unwraps its payload.
fn ack_batch<R: Send + 'static>(ctx: &mut Ctx, env: parsim::Envelope) -> Batch<R> {
    let from = env.from();
    let tb = env
        .downcast::<TaggedBatch<R>>()
        .expect("caller matched the type");
    ctx.send_sized_cloneable(
        from,
        BatchAck {
            delivery: tb.delivery,
        },
        0,
    );
    tb.batch
}

/// Starts every worker, waits for all of them, and returns their results
/// in spec order.
///
/// The first worker is started from here and starts the rest through a
/// tree of [`ToolOptions::start_arity`]; completions aggregate back up
/// it, so startup and completion are O(log p) at any fixed arity and O(p)
/// at [`SERIAL_ARITY`](bridge_core::SERIAL_ARITY).
///
/// # Errors
///
/// Returns the first failing worker's error (by spec order).
pub fn run_workers<R: Clone + Send + 'static>(
    ctx: &mut Ctx,
    opts: &ToolOptions,
    specs: Vec<WorkerSpec<R>>,
) -> Result<Vec<R>, ToolError> {
    if specs.is_empty() {
        return Ok(Vec::new());
    }
    let n = specs.len();
    let mut collected: Vec<Option<Result<R, ToolError>>> = Vec::new();
    collected.resize_with(n, || None);
    let indexed = specs.into_iter().enumerate().collect();
    spawn_subtree(ctx, ctx.me(), indexed, opts.spawn_cost, opts.start_arity);

    // Merge until every worker index has reported; duplicates re-deliver
    // indices that are already filled and are ignored.
    let mut remaining = n;
    while remaining > 0 {
        for (idx, r) in recv_batch::<R>(ctx) {
            let slot = &mut collected[idx];
            if slot.is_none() {
                *slot = Some(r);
                remaining -= 1;
            }
        }
    }
    // Late resends may still be parked in the stash; they are merged
    // already, so drop them rather than leak them to later receives.
    ctx.discard_stashed(|e| e.is::<TaggedBatch<R>>());

    let mut out = Vec::with_capacity(n);
    for (idx, slot) in collected.into_iter().enumerate() {
        match slot {
            Some(Ok(r)) => out.push(r),
            Some(Err(e)) => return Err(e),
            None => return Err(ToolError::Protocol(format!("worker {idx} never reported"))),
        }
    }
    Ok(out)
}

/// Spawns the head of `specs` as a relay worker that splits the remainder
/// by [`fan_groups`] at `arity` — Create's tree shape, largest subtree
/// first — starts each group the same way, runs its own body last,
/// collects its subtree's batches, and delivers the aggregate to `parent`.
fn spawn_subtree<R: Clone + Send + 'static>(
    ctx: &mut Ctx,
    parent: ProcId,
    specs: Vec<(usize, WorkerSpec<R>)>,
    spawn_cost: SimDuration,
    arity: u32,
) {
    let mut rest = specs.into_iter();
    let (idx, spec) = rest.next().expect("a subtree has a head");
    ctx.delay(spawn_cost);
    ctx.spawn(spec.node, spec.name, move |c: &mut Ctx| {
        let me = c.me();
        let below = rest.len();
        // Consuming the list frees its buffer before the body runs, which
        // would otherwise pin its heap page under everything allocated
        // since: 10 MB of resident set at p = 1024.
        for group in fan_groups(rest, arity) {
            spawn_subtree(c, me, group, spawn_cost, arity);
        }
        let mine = (spec.run)(c);
        let mut batch: Batch<R> = vec![(idx, mine)];
        let mut have: BTreeSet<usize> = BTreeSet::new();
        while have.len() < below {
            for (i, r) in recv_batch::<R>(c) {
                if have.insert(i) {
                    batch.push((i, r));
                }
            }
        }
        deliver_batch(c, parent, batch);
    });
}

/// Step one of every column tool: `Open` the file for its per-node
/// layout, refusing a linked (disordered) file — its order lives in the
/// block headers' chain, which no per-column pass can follow.
///
/// # Errors
///
/// Propagates server errors; [`BridgeError::LinkedUnsupported`] naming
/// `op` for a linked file.
pub(crate) fn open_unlinked(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    file: BridgeFileId,
    op: &'static str,
) -> Result<OpenInfo, ToolError> {
    let open = bridge.open(ctx, file)?;
    if matches!(open.placement, PlacementKind::Linked) {
        return Err(ToolError::Bridge(BridgeError::LinkedUnsupported { op }));
    }
    Ok(open)
}

/// Step two of every column tool: one worker per constituent LFS of
/// `open`, on that LFS's node and named `name` plus its index, each
/// running `body(ctx, index, slice, batch)` over its own column; returns
/// the bodies' results in column order.
///
/// # Errors
///
/// Returns the first failing column's error (by column order).
pub(crate) fn scan_columns<R, F>(
    ctx: &mut Ctx,
    opts: &ToolOptions,
    open: &OpenInfo,
    name: &str,
    body: F,
) -> Result<Vec<R>, ToolError>
where
    R: Clone + Send + 'static,
    F: Fn(&mut Ctx, usize, LfsSlice, BatchPolicy) -> Result<R, ToolError> + 'static,
{
    let body = Rc::new(body);
    let batch = opts.batch;
    let specs = open
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &slice)| {
            let body = Rc::clone(&body);
            WorkerSpec {
                node: slice.node,
                name: format!("{name}{i}"),
                run: Box::new(move |c: &mut Ctx| body(c, i, slice, batch)),
            }
        })
        .collect();
    run_workers(ctx, opts, specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bridge_core::SERIAL_ARITY;
    use parsim::{FaultPlan, MsgFaults, SimConfig, SimDuration, SimTime, Simulation};

    /// The arities every test below takes as an input, the widest last.
    const ARITIES: [u32; 5] = [2, 3, 4, 8, SERIAL_ARITY];

    /// Starts `workers` workers (worker `i` returns `10 i`) from a node of
    /// its own on a machine built from `config`; returns the results and
    /// the virtual time `run_workers` took.
    fn run_with(config: SimConfig, start_arity: u32, workers: usize) -> (Vec<u32>, SimDuration) {
        let mut sim = Simulation::new(config);
        let nodes: Vec<NodeId> = (0..workers)
            .map(|i| sim.add_node(format!("n{i}")))
            .collect();
        let ctrl = sim.add_node("ctrl");
        let opts = ToolOptions {
            spawn_cost: SimDuration::from_millis(10),
            start_arity,
            ..ToolOptions::default()
        };
        sim.block_on(ctrl, "controller", move |ctx| {
            let specs: Vec<WorkerSpec<u32>> = nodes
                .iter()
                .enumerate()
                .map(|(i, &node)| WorkerSpec {
                    node,
                    name: format!("w{i}"),
                    run: Box::new(move |_c: &mut Ctx| Ok(i as u32 * 10)),
                })
                .collect();
            let t0 = ctx.now();
            let results = run_workers(ctx, &opts, specs).unwrap();
            (results, ctx.now() - t0)
        })
    }

    #[test]
    fn results_come_back_in_order_at_every_arity() {
        for arity in ARITIES {
            let (results, _) = run_with(SimConfig::default(), arity, 9);
            assert_eq!(
                results,
                (0..9).map(|i| i * 10).collect::<Vec<_>>(),
                "arity {arity}"
            );
        }
    }

    #[test]
    fn tree_startup_is_logarithmic() {
        let time = |arity, n| run_with(SimConfig::default(), arity, n).1;
        // Start-up at n = 64 shrinks as the arity falls from serial: every
        // tree beats the serial start clearly, 8 loses to 2, and 2, 3
        // and 4 sit within a level's cost of each other (a wider head pays
        // more spawns, a narrower tree more levels — EXPERIMENTS A4).
        let at64 = ARITIES.map(|arity| time(arity, 64));
        let (tree64, serial64) = (at64[0], at64[ARITIES.len() - 1]);
        assert!(
            at64[..4].iter().all(|&t| t < serial64 / 3),
            "every tree should beat serial {serial64} clearly at p=64: {at64:?}"
        );
        assert!(tree64 < at64[3], "arity 2 starts sooner than 8: {at64:?}");
        // And the gap widens with p (logarithmic vs linear).
        let gain16 = time(SERIAL_ARITY, 16).as_secs_f64() / time(2, 16).as_secs_f64();
        let gain64 = serial64.as_secs_f64() / tree64.as_secs_f64();
        assert!(
            gain64 > gain16,
            "advantage grows: {gain16:.2} → {gain64:.2}"
        );
    }

    #[test]
    fn worker_errors_propagate() {
        let mut sim = Simulation::new(SimConfig::default());
        let n = sim.add_node("n");
        let err = sim.block_on(n, "controller", move |ctx| {
            let specs: Vec<WorkerSpec<()>> = (0..3)
                .map(|i| WorkerSpec {
                    node: n,
                    name: format!("w{i}"),
                    run: Box::new(move |_c: &mut Ctx| {
                        if i == 1 {
                            Err(ToolError::Protocol("worker 1 failed".into()))
                        } else {
                            Ok(())
                        }
                    }),
                })
                .collect();
            run_workers(ctx, &ToolOptions::default(), specs).unwrap_err()
        });
        assert_eq!(err, ToolError::Protocol("worker 1 failed".into()));
    }

    #[test]
    fn empty_spec_list_is_fine() {
        let mut sim = Simulation::new(SimConfig::default());
        let n = sim.add_node("n");
        let out = sim.block_on(n, "controller", move |ctx| {
            run_workers::<u8>(ctx, &ToolOptions::default(), vec![]).unwrap()
        });
        assert!(out.is_empty());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    /// The join must survive an interconnect that drops, duplicates, and
    /// delays completion traffic — the regression that stranded pfsck
    /// under crash-era chaos plans.
    #[test]
    fn join_survives_message_faults_at_every_arity() {
        for arity in ARITIES {
            for seed in 1..=8u64 {
                let config = SimConfig {
                    faults: FaultPlan {
                        seed,
                        msg: MsgFaults {
                            drop_per_mille: 300,
                            dup_per_mille: 250,
                            delay_per_mille: 300,
                            delay_max: SimDuration::from_millis(80),
                            max_consecutive_drops: 4,
                        },
                        ..FaultPlan::default()
                    },
                    ..SimConfig::default()
                };
                let (results, _) = run_with(config, arity, 9);
                assert_eq!(
                    results,
                    (0..9).map(|i| i * 10).collect::<Vec<_>>(),
                    "arity {arity} seed {seed}"
                );
            }
        }
    }
}
