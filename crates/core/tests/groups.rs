//! Commit groups: requests that queue while the Bridge server is busy are
//! served together — their reads in one round, their transactions under
//! one BEGIN and one COMMIT.
//!
//! * `concurrent_scripts_match_the_model` — a proptest: 2–6 clients run
//!   random create/append/overwrite/rand_read/delete scripts on a parity
//!   and on a mirror 2PC machine. Every reply equals each client's model,
//!   every block reads back byte-exact, the closing pfsck is clean on all
//!   four passes, and from three clients on their opening Creates were
//!   served in groups.
//! * `a_concurrent_mix_forms_groups` — the same run on fixed seeds, where
//!   groups of two and more must be observed, Creates and Deletes among
//!   their members.
//! * `a_veto_fails_only_its_member` — one member's participant answers
//!   `LogFull` (a ring full behind an undecided Prepare): that append
//!   fails and leaves the file's size alone, its siblings commit.
//! * `a_vetoed_create_enters_no_file` — the same veto on a Create in a
//!   group of three Creates: it enters nothing in the directory, its
//!   siblings commit under the same COMMIT.
//! * `a_read_rides_beside_an_overwrite` — a `rand_read` grouped with an
//!   overwrite of another file.
//! * `a_group_exports_and_attributes` — a three-client group's trace
//!   exports to Chrome, stitches causally, and leaves nothing untraced.

use bridge_core::{
    BridgeClient, BridgeConfig, BridgeError, BridgeFileId, BridgeMachine, CreateSpec, Redundancy,
    BRIDGE_DATA,
};
use bridge_efs::{EfsError, LfsClient, LfsData, LfsFileId, LfsOp, PrepareIntent};
use bridge_tools::{pfsck, FsckOptions};
use bridge_trace::{
    chrome_trace_json, profile, validate_causality, validate_chrome_trace, Category,
    TraceCollector, TraceData,
};
use bytes::Bytes;
use parsim::{Ctx, NodeId, ProcId, SimDuration, UniformLatency};
use proptest::prelude::*;

const BREADTH: u32 = 4;

/// A 2PC machine on instant disks whose messages and request handling
/// still take time, so that requests queue behind one another.
fn machine() -> BridgeConfig {
    let mut config = BridgeConfig::instant(BREADTH).with_2pc();
    config.latency = UniformLatency::constant(SimDuration::from_micros(100));
    config.server.cpu_per_request = SimDuration::from_millis(1);
    config.efs.cpu_per_request = SimDuration::from_millis(2);
    config
}

/// [`machine`] with every file `redundancy`.
fn config(redundancy: Redundancy) -> BridgeConfig {
    machine().with_redundancy(redundancy)
}

/// One concurrent client: what it does, and what it returns.
type Body<R> = Box<dyn FnOnce(&mut Ctx) -> R + Send>;

/// Runs `bodies` as concurrent clients on the frontend and returns what
/// each one returns, in order.
fn concurrently<R: Send + 'static>(ctx: &mut Ctx, node: NodeId, bodies: Vec<Body<R>>) -> Vec<R> {
    let me = ctx.me();
    let n = bodies.len();
    for (i, body) in bodies.into_iter().enumerate() {
        ctx.spawn(node, format!("client{i}"), move |ctx| {
            let out = body(ctx);
            ctx.send(me, (i, out));
        });
    }
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let (_, (i, r)) = ctx.recv_as::<(usize, R)>();
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every client reports"))
        .collect()
}

/// The names of `server`'s `bridge` spans that overlap another one —
/// members of a group of two or more — one entry per such span.
fn grouped_names(data: &TraceData, server: ProcId) -> Vec<&str> {
    let spans: Vec<(u64, u64, &str)> = data
        .spans
        .iter()
        .filter(|s| s.cat == "bridge" && s.pid == server.index())
        .map(|s| (s.start.as_nanos(), s.end.as_nanos(), s.name.as_str()))
        .collect();
    (0..spans.len())
        .filter(|&i| {
            let (s, e, _) = spans[i];
            spans
                .iter()
                .enumerate()
                .any(|(j, &(s2, e2, _))| j != i && s2 < e && s < e2)
        })
        .map(|i| spans[i].2)
        .collect()
}

/// How many of `server`'s `bridge` spans were served in a group of two
/// or more.
fn grouped_spans(data: &TraceData, server: ProcId) -> usize {
    grouped_names(data, server).len()
}

/// What a block written with `data` reads back as.
fn padded(data: &[u8]) -> Vec<u8> {
    let mut block = data.to_vec();
    block.resize(BRIDGE_DATA, 0);
    block
}

/// Blocks a Delete of a file of `size` blocks frees: its data, and its
/// mirror copies or its stripes' parity blocks.
fn freed(redundancy: Redundancy, size: u64) -> u64 {
    match redundancy {
        Redundancy::Mirror => 2 * size,
        _ => size + size.div_ceil(u64::from(BREADTH) - 1),
    }
}

/// One step of a client's script, interpreted against the client's own
/// model so that every step is valid when issued.
#[derive(Debug, Clone, Copy)]
struct Step {
    kind: u8,
    pick: u64,
    len: usize,
    fill: u8,
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..10, any::<u64>(), 1usize..=BRIDGE_DATA, any::<u8>()).prop_map(
        |(kind, pick, len, fill)| Step {
            kind,
            pick,
            len,
            fill,
        },
    )
}

/// A client's run: its transcript of replies checked against its model.
/// Returns the number of calls it made.
fn run_script(ctx: &mut Ctx, server: ProcId, redundancy: Redundancy, steps: &[Step]) -> usize {
    let mut bridge = BridgeClient::new(server);
    // Per live file, its blocks' data.
    let mut files: Vec<(BridgeFileId, Vec<Vec<u8>>)> = Vec::new();
    let mut calls = 0;
    for (n, s) in steps.iter().enumerate() {
        calls += 1;
        let data = vec![s.fill ^ n as u8; s.len];
        if files.is_empty() || s.kind == 0 {
            let id = bridge.create(ctx, CreateSpec::default()).expect("create");
            files.push((id, Vec::new()));
            continue;
        }
        let at = (s.pick % files.len() as u64) as usize;
        if s.kind == 1 && files.len() > 1 {
            let (id, blocks) = files.remove(at);
            let got = bridge.delete(ctx, id).expect("delete");
            assert_eq!(got, freed(redundancy, blocks.len() as u64), "delete frees");
            continue;
        }
        let (id, blocks) = &mut files[at];
        match s.kind {
            2..=4 => {
                let block = bridge.seq_write(ctx, *id, data.clone()).expect("append");
                assert_eq!(block, blocks.len() as u64, "append lands at the end");
                blocks.push(data);
            }
            5..=6 if !blocks.is_empty() => {
                let block = s.pick % blocks.len() as u64;
                bridge
                    .rand_write(ctx, *id, block, data.clone())
                    .expect("overwrite");
                blocks[block as usize] = data;
            }
            _ if !blocks.is_empty() => {
                let block = s.pick % blocks.len() as u64;
                let got = bridge.rand_read(ctx, *id, block).expect("rand_read");
                assert_eq!(got[..], padded(&blocks[block as usize])[..], "rand_read");
            }
            _ => {
                let got = bridge.rand_read(ctx, *id, 0);
                let size = 0;
                assert_eq!(
                    got,
                    Err(BridgeError::BlockOutOfRange {
                        file: *id,
                        block: 0,
                        size
                    })
                );
            }
        }
    }
    // Everything reads back byte-exact; then the client cleans up.
    for (id, blocks) in files {
        for (b, data) in blocks.iter().enumerate() {
            let got = bridge.rand_read(ctx, id, b as u64).expect("read back");
            assert_eq!(got[..], padded(data)[..], "read back block {b}");
        }
        let got = bridge.delete(ctx, id).expect("delete");
        assert_eq!(got, freed(redundancy, blocks.len() as u64));
        calls += blocks.len() + 1;
    }
    calls
}

/// Runs one script per client concurrently on `redundancy`'s machine
/// under a trace collector, then pfsck over every instance with the
/// machine pass. Returns the trace and the server's process id.
fn run_mix(redundancy: Redundancy, scripts: Vec<Vec<Step>>) -> (TraceData, ProcId) {
    let collector = TraceCollector::install();
    let mut config = config(redundancy);
    config.tracer = Some(collector.as_tracer());
    let (mut sim, machine) = BridgeMachine::build(&config);
    let (server, frontend) = (machine.server, machine.frontend);
    let lfs: Vec<(ProcId, NodeId)> = machine
        .lfs
        .iter()
        .copied()
        .zip(machine.lfs_nodes.iter().copied())
        .collect();
    sim.block_on(frontend, "controller", move |ctx| {
        let bodies = scripts
            .into_iter()
            .map(|steps| {
                Box::new(move |ctx: &mut Ctx| run_script(ctx, server, redundancy, &steps))
                    as Body<usize>
            })
            .collect();
        concurrently(ctx, frontend, bodies);
        let options = FsckOptions {
            server: Some(server),
            ..FsckOptions::default()
        };
        let verdict = pfsck(ctx, &lfs, &options).expect("pfsck");
        assert!(verdict.clean(), "pfsck: {:?}", verdict.errors());
        assert!(verdict.machine.is_some(), "the machine pass ran");
    });
    (collector.take(), server)
}

fn scripts() -> impl Strategy<Value = Vec<Vec<Step>>> {
    proptest::collection::vec(proptest::collection::vec(step(), 1..12), 2..=6)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Random concurrent scripts on both redundant 2PC machines: every
    /// reply is the model's, every block reads back byte-exact, and the
    /// machine is clean afterwards.
    #[test]
    fn concurrent_scripts_match_the_model(scripts in scripts(), mirror in any::<bool>()) {
        let redundancy = if mirror { Redundancy::Mirror } else { Redundancy::parity() };
        let clients = scripts.len();
        let (data, server) = run_mix(redundancy, scripts);
        // Every client opens with a Create at the same instant. The first
        // is served alone; the rest queue behind it and, from the third
        // client on, are served together.
        let grouped = grouped_names(&data, server);
        let creates = grouped.iter().filter(|&&name| name == "bridge.create").count();
        prop_assert!(
            clients < 3 || creates >= 2,
            "the opening Creates were not grouped: {:?}",
            grouped
        );
    }
}

/// Fixed scripts for four clients: appends and overwrites on their own
/// files, reads between.
fn fixed_scripts() -> Vec<Vec<Step>> {
    (0..4u8)
        .map(|c| {
            (0..16u8)
                .map(|i| Step {
                    kind: [2, 3, 5, 7, 4, 6][(i + c) as usize % 6],
                    pick: u64::from(i * 7 + c),
                    len: 64 + usize::from(i) * 40,
                    fill: c.wrapping_mul(31) ^ i,
                })
                .collect()
        })
        .collect()
}

/// On both machines the four clients' requests queue, and are served in
/// groups of two and more.
#[test]
fn a_concurrent_mix_forms_groups() {
    for redundancy in [Redundancy::parity(), Redundancy::Mirror] {
        let (data, server) = run_mix(redundancy, fixed_scripts());
        let grouped = grouped_names(&data, server);
        assert!(grouped.len() >= 2, "{redundancy:?}: no group formed");
        for name in ["bridge.create", "bridge.delete"] {
            assert!(
                grouped.contains(&name),
                "{redundancy:?}: no {name} in a group: {grouped:?}"
            );
        }
        let commits: Vec<u64> = data
            .instants
            .iter()
            .filter(|i| i.name == "2pc.commit")
            .filter_map(|i| i.arg("txns"))
            .collect();
        assert!(
            commits.iter().any(|&t| t >= 2),
            "{redundancy:?}: a COMMIT named several transactions: {commits:?}"
        );
    }
}

/// A parity file on `nodes`, with one block appended.
fn parity_file(ctx: &mut Ctx, bridge: &mut BridgeClient, nodes: Vec<u32>) -> BridgeFileId {
    let spec = CreateSpec {
        nodes: Some(nodes),
        redundancy: Redundancy::parity(),
        ..CreateSpec::default()
    };
    let file = bridge.create(ctx, spec).expect("create");
    bridge
        .seq_write(ctx, file, vec![0xA0; 100])
        .expect("append");
    file
}

/// A node's log filled behind a transaction it holds in doubt: every
/// further logged write on it is refused with `LogFull` until the
/// transaction is released.
struct LogFull {
    lfs: LfsClient,
    node: ProcId,
    txn: u64,
    intent: PrepareIntent,
}

impl LogFull {
    /// Prepares a transaction on `node` and writes until its log is full.
    fn fill(ctx: &mut Ctx, node: ProcId) -> LogFull {
        let mut lfs = LfsClient::new();
        let (held, scratch) = (LfsFileId(0x7000), LfsFileId(0x7001));
        for file in [held, scratch] {
            lfs.call(ctx, node, LfsOp::Create { file }).expect("create");
        }
        let intent = PrepareIntent::WriteBlock {
            file: held,
            block_no: 0,
            payload: Bytes::from(vec![0xB0; 100]),
        };
        let txn = 1 << 40;
        lfs.call(
            ctx,
            node,
            LfsOp::Prepare {
                txn,
                intent: intent.clone(),
            },
        )
        .expect("prepare");
        let refused = (0..100_000)
            .find_map(|i: u32| {
                let op = LfsOp::Write {
                    file: scratch,
                    block: 0,
                    data: Bytes::from(vec![i as u8; 100]),
                    hint: None,
                };
                lfs.call(ctx, node, op).err()
            })
            .expect("the ring fills");
        assert_eq!(refused, EfsError::LogFull);
        LogFull {
            lfs,
            node,
            txn,
            intent,
        }
    }

    /// Aborts the held transaction.
    fn release(mut self, ctx: &mut Ctx) {
        let (txn, commit, intent) = (self.txn, false, self.intent);
        let ack = (self.lfs).call(
            ctx,
            self.node,
            LfsOp::Decide {
                txn,
                commit,
                intent,
            },
        );
        assert!(
            matches!(ack, Ok(LfsData::Freed(0) | LfsData::Done)),
            "{ack:?}"
        );
    }
}

/// Node 0 holds a transaction in doubt and has written until its log is
/// full; a group of three appends follows. The append whose parity
/// column lives on node 0 is vetoed with `LogFull` and fails alone: its
/// file keeps its size, and the other two commit under the same BEGIN.
#[test]
fn a_veto_fails_only_its_member() {
    let collector = TraceCollector::install();
    let mut config = machine();
    config.tracer = Some(collector.as_tracer());
    let (mut sim, machine) = BridgeMachine::build(&config);
    let (server, frontend, lfs0) = (machine.server, machine.frontend, machine.lfs[0]);
    let outcomes = sim.block_on(frontend, "controller", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        // Stripe 0's parity lives on the file's start position: x's (start
        // 0) on node 0, y's (start 1) and z's (start 2) on node 2.
        let x = parity_file(ctx, &mut bridge, vec![0, 1, 2]);
        let y = parity_file(ctx, &mut bridge, vec![1, 2, 3]);
        let z = parity_file(ctx, &mut bridge, vec![1, 3, 2]);
        let held = LogFull::fill(ctx, lfs0);
        let bodies = [x, y, z]
            .into_iter()
            .map(|file| {
                Box::new(move |ctx: &mut Ctx| {
                    BridgeClient::new(server).seq_write(ctx, file, vec![0xC0; 100])
                }) as Body<Result<u64, BridgeError>>
            })
            .collect();
        let outcomes = concurrently(ctx, frontend, bodies);
        // x still holds one block; y and z hold two.
        let sizes: Vec<Result<Bytes, BridgeError>> = [x, y, z]
            .into_iter()
            .map(|file| bridge.rand_read(ctx, file, 1))
            .collect();
        assert_eq!(
            sizes[0],
            Err(BridgeError::BlockOutOfRange {
                file: x,
                block: 1,
                size: 1
            })
        );
        assert!(sizes[1..].iter().all(Result::is_ok), "{sizes:?}");
        held.release(ctx);
        outcomes
    });
    assert_eq!(
        outcomes,
        [Err(BridgeError::Lfs(EfsError::LogFull)), Ok(1), Ok(1)]
    );
    let data = collector.take();
    let commits: Vec<u64> = data
        .instants
        .iter()
        .filter(|i| i.name == "2pc.commit")
        .filter_map(|i| i.arg("txns"))
        .collect();
    assert_eq!(commits.last(), Some(&2), "the siblings share one COMMIT");
    assert!(
        grouped_spans(&data, server) >= 3,
        "the three appends grouped"
    );
}

/// A `rand_read` of one file queues behind an overwrite of another and is
/// served in its group: both answer as if alone.
#[test]
fn a_read_rides_beside_an_overwrite() {
    let collector = TraceCollector::install();
    let mut config = config(Redundancy::parity());
    config.tracer = Some(collector.as_tracer());
    let (mut sim, machine) = BridgeMachine::build(&config);
    let (server, frontend) = (machine.server, machine.frontend);
    sim.block_on(frontend, "controller", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let (a, b) = (
            bridge.create(ctx, CreateSpec::default()).expect("create"),
            bridge.create(ctx, CreateSpec::default()).expect("create"),
        );
        for i in 0..5u8 {
            bridge.seq_write(ctx, a, vec![i; 300]).expect("append");
            bridge
                .seq_write(ctx, b, vec![0x80 | i; 300])
                .expect("append");
        }
        let bodies: Vec<Body<Bytes>> = vec![
            Box::new(move |ctx: &mut Ctx| {
                let mut c = BridgeClient::new(server);
                c.rand_write(ctx, a, 2, vec![0xEE; 500]).expect("overwrite");
                c.rand_read(ctx, a, 2).expect("read a")
            }),
            Box::new(move |ctx: &mut Ctx| {
                BridgeClient::new(server)
                    .rand_read(ctx, b, 3)
                    .expect("read b")
            }),
        ];
        let got = concurrently(ctx, frontend, bodies);
        assert_eq!(got[0][..], padded(&[0xEE; 500])[..]);
        assert_eq!(got[1][..], padded(&[0x83; 300])[..]);
    });
    let data = collector.take();
    assert!(
        grouped_spans(&data, server) >= 2,
        "the read and the overwrite grouped"
    );
}

/// A group of three members on the server: the Chrome export gives the
/// overlapping `bridge` spans lanes and validates, every client span
/// stitches to its service, and no nanosecond of any op is untraced.
#[test]
fn a_group_exports_and_attributes() {
    let scripts = fixed_scripts().into_iter().take(3).collect();
    let (data, server) = run_mix(Redundancy::parity(), scripts);
    assert!(grouped_spans(&data, server) >= 3, "a group of three formed");
    let json = chrome_trace_json(&data);
    let summary = validate_chrome_trace(&json).expect("valid Chrome trace");
    assert_eq!(summary.spans, data.spans.len());
    validate_causality(&data).expect("causal");
    let total = profile(&data).total();
    assert_eq!(total.get(Category::Untraced), 0, "nothing untraced");
    assert!(total.get(Category::Bridge) > 0);
}

/// Node 0's log is full behind a transaction in doubt, and four clients
/// create files at once: the first, on nodes 1–3, is served alone while
/// the other three queue and are served together — one on nodes 0–2, two
/// on nodes 1–3. That Create's PREPARE on node 0 is vetoed with `LogFull`:
/// it fails alone and enters nothing in the directory, while its siblings
/// commit under the group's one COMMIT.
#[test]
fn a_vetoed_create_enters_no_file() {
    let collector = TraceCollector::install();
    let mut config = machine();
    config.tracer = Some(collector.as_tracer());
    let (mut sim, machine) = BridgeMachine::build(&config);
    let (server, frontend, lfs0) = (machine.server, machine.frontend, machine.lfs[0]);
    let (outcomes, files) = sim.block_on(frontend, "controller", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let held = LogFull::fill(ctx, lfs0);
        let bodies = [vec![1, 2, 3], vec![0, 1, 2], vec![1, 2, 3], vec![3, 2, 1]]
            .into_iter()
            .map(|nodes| {
                Box::new(move |ctx: &mut Ctx| {
                    let spec = CreateSpec {
                        nodes: Some(nodes),
                        ..CreateSpec::default()
                    };
                    BridgeClient::new(server).create(ctx, spec)
                }) as Body<Result<BridgeFileId, BridgeError>>
            })
            .collect();
        let outcomes = concurrently(ctx, frontend, bodies);
        held.release(ctx);
        let manifest = bridge.get_manifest(ctx).expect("manifest");
        let files: Vec<BridgeFileId> = manifest.files.iter().map(|e| e.file).collect();
        for created in outcomes.iter().flatten() {
            bridge
                .seq_write(ctx, *created, vec![0xC1; 100])
                .expect("a created file takes an append");
        }
        (outcomes, files)
    });
    assert_eq!(outcomes[1], Err(BridgeError::Lfs(EfsError::LogFull)));
    let created: Vec<BridgeFileId> = outcomes.iter().flatten().copied().collect();
    assert_eq!(created.len(), 3, "{outcomes:?}");
    assert_eq!(files, created, "the vetoed Create entered nothing");
    let data = collector.take();
    let commits: Vec<u64> = data
        .instants
        .iter()
        .filter(|i| i.name == "2pc.commit")
        .filter_map(|i| i.arg("txns"))
        .collect();
    assert_eq!(commits, [1, 2], "the siblings share one COMMIT");
    // The first Create commits alone; the three that queued behind it are
    // admitted under its COMMIT, so every Create's span overlaps another.
    let grouped = grouped_names(&data, server);
    let creates = grouped.iter().filter(|&&n| n == "bridge.create").count();
    assert_eq!(
        creates, 4,
        "every Create served beside another: {grouped:?}"
    );
}
