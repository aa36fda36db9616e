//! Golden virtual times and kernel counters for the tools.
//!
//! Every tool is the same three steps — a word with the Bridge Server,
//! one subprocess per LFS node, a long exchange between each subprocess
//! and its LFS — so a rewrite of the shared start/join, of the per-column
//! scan or of the sort's local merge could move a message or a
//! microsecond in a tool no bench happens to time. This file pins them:
//! each row runs one tool on `BridgeConfig::paper(p)` (or bare
//! `run_workers` on a plain simulation) and the virtual time of each of
//! its phases and the run's [`RunStats`](parsim::RunStats) counters must
//! equal literals recorded on the commit *before* `crates/tools` was
//! reworked. The simulation is deterministic, so any difference is a
//! behavioural change, not noise.
//!
//! When a change to a literal is intended, run with `--nocapture`: every
//! mismatch prints the observed row in source form.

use bridge_core::{
    BatchPolicy, BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec, PlacementSpec,
};
use bridge_tools::{
    copy, copy_with, grep, pfsck, run_workers, sort, summarize, transforms, FsckOptions,
    SortOptions, ToolOptions, WorkerSpec,
};
use parsim::{Ctx, NodeId, ProcId, SimConfig, SimDuration, Simulation};

/// What one run is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// Virtual durations (ns) the tool reported, then the virtual clock
    /// (ns since the machine started) at its return.
    phase_nanos: &'static [u64],
    events: u64,
    messages: u64,
    bytes_sent: u64,
    dispatches: u64,
}

/// Observed counterpart of [`Golden`].
#[derive(Debug)]
struct Observed {
    phase_nanos: Vec<u64>,
    events: u64,
    messages: u64,
    bytes_sent: u64,
    dispatches: u64,
}

impl Observed {
    fn new(phase_nanos: Vec<u64>, stats: parsim::RunStats) -> Self {
        Observed {
            phase_nanos,
            events: stats.events,
            messages: stats.messages,
            bytes_sent: stats.bytes_sent,
            dispatches: stats.dispatches,
        }
    }

    /// Whether the run equals its pin; prints the observed row in source
    /// form when it does not.
    fn matches(&self, name: &str, g: &Golden) -> bool {
        let same = self.phase_nanos == g.phase_nanos
            && self.events == g.events
            && self.messages == g.messages
            && self.bytes_sent == g.bytes_sent
            && self.dispatches == g.dispatches;
        if !same {
            println!(
                "{name}: observed\n        Golden {{\n            phase_nanos: &{:?},\n            \
                 events: {},\n            messages: {},\n            bytes_sent: {},\n            \
                 dispatches: {},\n        }}",
                self.phase_nanos, self.events, self.messages, self.bytes_sent, self.dispatches
            );
        }
        same
    }

    fn check(&self, name: &str, g: &Golden) {
        assert!(self.matches(name, g), "{name} moved off its pin {g:?}");
    }
}

/// What a script is told about the machine it runs on.
struct Machine {
    lfs: Vec<(ProcId, NodeId)>,
    server: ProcId,
}

/// Runs `script` as a process on the front end of `BridgeConfig::paper(p)`;
/// the script returns the durations it wants pinned, and the clock at its
/// return is appended.
fn observe(
    p: u32,
    script: impl FnOnce(&mut Ctx, &mut BridgeClient, &Machine) -> Vec<u64> + Send + 'static,
) -> Observed {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::paper(p));
    let info = Machine {
        lfs: machine
            .lfs
            .iter()
            .copied()
            .zip(machine.lfs_nodes.iter().copied())
            .collect(),
        server: machine.server,
    };
    let phases = sim.block_on(machine.frontend, "tool", move |ctx| {
        let mut bridge = BridgeClient::new(info.server);
        let mut phases = script(ctx, &mut bridge, &info);
        phases.push(ctx.now().as_nanos());
        phases
    });
    Observed::new(phases, sim.stats())
}

/// Record `i` of a file: a big-endian key drawn from a fixed LCG (so keys
/// repeat and arrive shuffled), then text a grep can find.
fn record(i: u64) -> Vec<u8> {
    let key = (i
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
        >> 33)
        % 4096;
    let mut data = vec![0u8; 96];
    data[..8].copy_from_slice(&key.to_be_bytes());
    let text = format!("Record {i:06} of the Golden file; needle{}", i % 7);
    data[8..8 + text.len()].copy_from_slice(text.as_bytes());
    data
}

fn write_file(ctx: &mut Ctx, bridge: &mut BridgeClient, spec: CreateSpec, n: u64) -> BridgeFileId {
    let file = bridge.create(ctx, spec).unwrap();
    for i in 0..n {
        bridge.seq_write(ctx, file, record(i)).unwrap();
    }
    file
}

fn tool(batch: BatchPolicy) -> ToolOptions {
    ToolOptions {
        batch,
        start_arity: 2,
        ..ToolOptions::default()
    }
}

/// A copy of a `blocks`-block default-placement file at breadth `p`.
fn copy_row(p: u32, blocks: u64, batch: BatchPolicy) -> Observed {
    observe(p, move |ctx, bridge, _| {
        let src = write_file(ctx, bridge, CreateSpec::default(), blocks);
        let (_, stats) = copy(ctx, bridge, src, &tool(batch)).unwrap();
        assert_eq!(stats.blocks, blocks);
        vec![stats.elapsed.as_nanos()]
    })
}

#[test]
fn copy_p4_off() {
    copy_row(4, 50, BatchPolicy::Off).check(
        "copy_p4_off",
        &Golden {
            phase_nanos: &[1226008800, 3396556800],
            events: 1237,
            messages: 458,
            bytes_sent: 171696,
            dispatches: 1237,
        },
    );
}

#[test]
fn copy_p4_runs8() {
    copy_row(4, 50, BatchPolicy::Runs(8)).check(
        "copy_p4_runs8",
        &Golden {
            phase_nanos: &[316788800, 2487336800],
            events: 729,
            messages: 290,
            bytes_sent: 168192,
            dispatches: 729,
        },
    );
}

#[test]
fn copy_p32_off() {
    copy_row(32, 200, BatchPolicy::Off).check(
        "copy_p32_off",
        &Golden {
            phase_nanos: &[758830800, 8248240000],
            events: 5433,
            messages: 2022,
            bytes_sent: 694128,
            dispatches: 5433,
        },
    );
}

#[test]
fn copy_p32_runs8() {
    copy_row(32, 200, BatchPolicy::Runs(8)).check(
        "copy_p32_runs8",
        &Golden {
            phase_nanos: &[255610800, 7745020000],
            events: 3417,
            messages: 1350,
            bytes_sent: 680112,
            dispatches: 3417,
        },
    );
}

#[test]
fn copy_with_rot13_p4() {
    observe(4, |ctx, bridge, _| {
        let src = write_file(ctx, bridge, CreateSpec::default(), 50);
        let opts = tool(BatchPolicy::Off);
        let (dst, stats) = copy_with(ctx, bridge, src, transforms::rot13(), &opts).unwrap();
        assert_eq!(stats.blocks, 50);
        let hits = grep(ctx, bridge, dst, b"Erpbeq".to_vec(), &opts).unwrap();
        assert_eq!(hits.len(), 50);
        vec![stats.elapsed.as_nanos()]
    })
    .check(
        "copy_with_rot13_p4",
        &Golden {
            phase_nanos: &[1226008800, 3559200400],
            events: 1522,
            messages: 576,
            bytes_sent: 225760,
            dispatches: 1522,
        },
    );
}

#[test]
fn chunked_copy_p4() {
    observe(4, |ctx, bridge, _| {
        let spec = CreateSpec {
            placement: PlacementSpec::Chunked,
            size_hint: Some(50),
            ..CreateSpec::default()
        };
        let src = write_file(ctx, bridge, spec, 50);
        let (dst, stats) = copy(ctx, bridge, src, &tool(BatchPolicy::Off)).unwrap();
        assert_eq!(stats.blocks, 50);
        let (src, dst) = (
            bridge.open(ctx, src).unwrap(),
            bridge.open(ctx, dst).unwrap(),
        );
        assert_eq!(src.placement, dst.placement);
        vec![stats.elapsed.as_nanos()]
    })
    .check(
        "chunked_copy_p4",
        &Golden {
            phase_nanos: &[1226008800, 3409384000],
            events: 1275,
            messages: 478,
            bytes_sent: 172624,
            dispatches: 1275,
        },
    );
}

#[test]
fn grep_p8() {
    observe(8, |ctx, bridge, _| {
        let src = write_file(ctx, bridge, CreateSpec::default(), 100);
        let t0 = ctx.now();
        let hits = grep(
            ctx,
            bridge,
            src,
            b"needle3".to_vec(),
            &tool(BatchPolicy::Off),
        )
        .unwrap();
        assert_eq!(hits.len(), 14);
        vec![(ctx.now() - t0).as_nanos()]
    })
    .check(
        "grep_p8",
        &Golden {
            phase_nanos: &[143748400, 4412450400],
            events: 1640,
            messages: 654,
            bytes_sent: 234368,
            dispatches: 1640,
        },
    );
}

#[test]
fn summarize_p8() {
    observe(8, |ctx, bridge, _| {
        let src = write_file(ctx, bridge, CreateSpec::default(), 100);
        let t0 = ctx.now();
        let summary = summarize(ctx, bridge, src, &tool(BatchPolicy::Runs(8))).unwrap();
        assert_eq!(summary.blocks, 100);
        vec![(ctx.now() - t0).as_nanos()]
    })
    .check(
        "summarize_p8",
        &Golden {
            phase_nanos: &[88638400, 4357340400],
            events: 1220,
            messages: 486,
            bytes_sent: 231136,
            dispatches: 1220,
        },
    );
}

/// A sort of a file that leaves every node 1 025 records: at the default
/// 512 in core each spills three runs (512, 512, 1), so the 2-way local
/// merge runs a pass with a bye and then the final merge.
fn sort_row(p: u32, opts: SortOptions) -> Observed {
    observe(p, move |ctx, bridge, _| {
        let records = u64::from(p) * 1025;
        let src = write_file(ctx, bridge, CreateSpec::default(), records);
        let (out, stats) = sort(ctx, bridge, src, &opts).unwrap();
        assert_eq!(stats.records, records);
        assert_eq!(bridge.open(ctx, out).unwrap().size, records);
        vec![
            stats.local_sort.as_nanos(),
            stats.merge.as_nanos(),
            stats.total.as_nanos(),
            u64::from(stats.local_merge_passes),
        ]
    })
}

#[test]
fn sort_p2() {
    sort_row(2, SortOptions::default()).check(
        "sort_p2",
        &Golden {
            phase_nanos: &[234473520000, 89975447200, 324586605600, 2, 416793164800],
            events: 130258,
            messages: 45644,
            bytes_sent: 22188096,
            dispatches: 130258,
        },
    );
}

#[test]
fn sort_p8() {
    sort_row(8, SortOptions::default()).check(
        "sort_p8",
        &Golden {
            phase_nanos: &[234482520000, 272740750200, 507735371000, 2, 876363171400],
            events: 794700,
            messages: 294797,
            bytes_sent: 140579360,
            dispatches: 794700,
        },
    );
}

#[test]
fn sort_p8_multiway() {
    let opts = SortOptions {
        local_merge_arity: u32::MAX,
        ..SortOptions::default()
    };
    sort_row(8, opts).check(
        "sort_p8_multiway",
        &Golden {
            phase_nanos: &[144315170000, 272740750200, 417568021000, 1, 786195821400],
            events: 688126,
            messages: 261997,
            bytes_sent: 123080224,
            dispatches: 688126,
        },
    );
}

#[test]
fn pfsck_parallel_p8() {
    observe(8, |ctx, bridge, machine| {
        for blocks in [40, 9] {
            write_file(ctx, bridge, CreateSpec::default(), blocks);
        }
        let opts = FsckOptions {
            server: Some(machine.server),
            tool: tool(BatchPolicy::Off),
            ..FsckOptions::default()
        };
        let verdict = pfsck(ctx, &machine.lfs, &opts).unwrap();
        assert!(verdict.clean(), "{:?}", verdict.errors());
        vec![verdict.elapsed.as_nanos()]
    })
    .check(
        "pfsck_parallel_p8",
        &Golden {
            phase_nanos: &[572626400, 2447147600],
            events: 1766,
            messages: 286,
            bytes_sent: 64672,
            dispatches: 1766,
        },
    );
}

/// Bare `run_workers`: `n` workers on `n` nodes, started from a node of
/// their own, each busy for a few milliseconds that differ by index so
/// completions do not arrive in spec order.
fn run_workers_row(n: usize) -> Observed {
    let mut sim = Simulation::new(SimConfig::default());
    let nodes: Vec<NodeId> = (0..n).map(|i| sim.add_node(format!("n{i}"))).collect();
    let ctrl = sim.add_node("ctrl");
    let opts = tool(BatchPolicy::Off);
    let elapsed = sim.block_on(ctrl, "controller", move |ctx| {
        let specs: Vec<WorkerSpec<usize>> = nodes
            .iter()
            .enumerate()
            .map(|(i, &node)| WorkerSpec {
                node,
                name: format!("w{i}"),
                run: Box::new(move |c: &mut Ctx| {
                    c.delay(SimDuration::from_millis(1 + (i as u64 * 3) % 5));
                    Ok(i)
                }),
            })
            .collect();
        let t0 = ctx.now();
        let results = run_workers(ctx, &opts, specs).unwrap();
        assert_eq!(results, (0..n).collect::<Vec<_>>());
        (ctx.now() - t0).as_nanos()
    });
    Observed::new(vec![elapsed], sim.stats())
}

#[test]
fn run_workers_on_the_tree() {
    const ROWS: [(usize, Golden); 6] = [
        (
            1,
            Golden {
                phase_nanos: &[4100000],
                events: 6,
                messages: 2,
                bytes_sent: 0,
                dispatches: 6,
            },
        ),
        (
            2,
            Golden {
                phase_nanos: &[10200000],
                events: 11,
                messages: 4,
                bytes_sent: 0,
                dispatches: 11,
            },
        ),
        (
            3,
            Golden {
                phase_nanos: &[11200000],
                events: 16,
                messages: 6,
                bytes_sent: 0,
                dispatches: 16,
            },
        ),
        (
            9,
            Golden {
                phase_nanos: &[23200000],
                events: 46,
                messages: 18,
                bytes_sent: 0,
                dispatches: 46,
            },
        ),
        (
            32,
            Golden {
                phase_nanos: &[26400000],
                events: 161,
                messages: 64,
                bytes_sent: 0,
                dispatches: 161,
            },
        ),
        (
            33,
            Golden {
                phase_nanos: &[26400000],
                events: 166,
                messages: 66,
                bytes_sent: 0,
                dispatches: 166,
            },
        ),
    ];
    let moved = ROWS
        .iter()
        .filter(|(n, golden)| !run_workers_row(*n).matches(&format!("run_workers n={n}"), golden))
        .count();
    assert_eq!(moved, 0, "run_workers moved off its pins");
}
