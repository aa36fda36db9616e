//! Exactly-once under a storm, pinned: the server half of the
//! at-least-once engine — admission through the dedup window, the
//! dropped duplicate, the replayed reply — as the LFS instances, the
//! Bridge server and the fan-out agents run it.
//!
//! Three clients run a short create / append / `rand_write` /
//! `rand_read` / delete mix under one fixed-seed storm of duplicated and
//! delayed messages, every client and the server's internal clients on
//! [`RetryPolicy::standard`]. Two machines take it: `paper(8)` with 2PC
//! and parity, whose Creates are transactions served in the commit-group
//! rounds, and the same machine without the decision log, whose Creates
//! over 8 nodes fan out through the agents at the default arity. What
//! the storm makes each kind of process do is counted from its `retry.*`
//! trace instants, and, with the clients' transcript and the kernel's
//! counters, folded with [`parsim::mix64`] into a [`Pin`] held to
//! literals. The simulation is deterministic: any difference is a
//! behavioural change, not noise. A mismatch prints the observed pin in
//! source form.

use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine, CreateSpec, Redundancy};
use bridge_efs::RetryPolicy;
use bridge_trace::TraceCollector;
use parsim::{mix64, FaultPlan, MsgFaults, SimDuration};
use std::sync::{Arc, Mutex};

/// Process kinds whose `retry.*` instants are counted, by name prefix.
const KINDS: [&str; 4] = ["lfs", "bridge-server", "agent", "client"];

/// The instants counted per kind, in [`Pin::retry`] column order.
const INSTANTS: [&str; 3] = ["retry.dup_dropped", "retry.replay", "retry.resend"];

/// What one run under the storm produced.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// Per kind of [`KINDS`], the count of each instant of [`INSTANTS`].
    retry: [[u64; 3]; 4],
    /// The clients' transcript: entries, and their digest.
    transcript: (usize, u64),
    /// `RunStats` `events`, `messages`, `bytes_sent`, and `end_time` (ns).
    stats: [u64; 4],
}

/// Folds `words` into one digest.
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0, mix64)
}

/// The storm: every message may be duplicated or delayed, none dropped.
fn storm() -> FaultPlan {
    FaultPlan {
        seed: 33,
        msg: MsgFaults {
            dup_per_mille: 300,
            delay_per_mille: 300,
            delay_max: SimDuration::from_millis(400),
            ..MsgFaults::default()
        },
        ..FaultPlan::none()
    }
}

/// A block's payload: client `k`'s `i`-th write, tagged with `tag`.
fn block(k: u8, tag: u8, i: u64) -> Vec<u8> {
    (0..120)
        .map(|b| k ^ tag ^ (i as u8).wrapping_mul(31) ^ b)
        .collect()
}

/// Client `k`'s mix; every outcome is appended to `log` in debug form.
fn mix(ctx: &mut parsim::Ctx, bridge: &mut BridgeClient, k: u8, log: &mut Vec<String>) {
    let file = bridge.create(ctx, CreateSpec::default());
    log.push(format!("create {file:?}"));
    let file = file.expect("create");
    for i in 0..6 {
        let r = bridge.seq_write(ctx, file, block(k, 0, i));
        log.push(format!("append {r:?}"));
    }
    let scratch = bridge.create(ctx, CreateSpec::default());
    log.push(format!("create {scratch:?}"));
    let scratch = scratch.expect("create");
    for i in 0..2 {
        let r = bridge.seq_write(ctx, scratch, block(k, 1, i));
        log.push(format!("append {r:?}"));
    }
    for at in [1, 4] {
        let r = bridge.rand_write(ctx, file, at, block(k, 2, at));
        log.push(format!("rand_write {r:?}"));
    }
    for at in [0, 4, 5] {
        let r = bridge.rand_read(ctx, file, at);
        log.push(format!("rand_read {r:?}"));
    }
    log.push(format!("delete {:?}", bridge.delete(ctx, scratch)));
    log.push(format!("delete {:?}", bridge.delete(ctx, file)));
}

/// Runs the three clients' mix on `config` under the storm, traced. Every
/// call must succeed: a duplicate executed twice would show as an error
/// or a wrong block number.
fn run(config: BridgeConfig) -> Pin {
    let collector = TraceCollector::install();
    let mut config = config.with_faults(storm());
    config.tracer = Some(collector.as_tracer());
    let (mut sim, machine) = BridgeMachine::build(&config);
    let logs: Vec<Arc<Mutex<Vec<String>>>> = (0..3).map(|_| Arc::default()).collect();
    for (k, log) in logs.iter().enumerate() {
        let (server, log) = (machine.server, Arc::clone(log));
        sim.spawn(machine.frontend, format!("client{k}"), move |ctx| {
            let mut bridge = BridgeClient::with_retry(server, RetryPolicy::standard());
            mix(ctx, &mut bridge, k as u8, &mut log.lock().unwrap());
        });
    }
    let stats = sim.run();
    let trace = collector.take();
    let mut retry = [[0u64; 3]; 4];
    for i in &trace.instants {
        let name = trace.proc_name(i.pid);
        let kind = KINDS.iter().position(|k| name.starts_with(k));
        let instant = INSTANTS.iter().position(|n| i.name == *n);
        if let (Some(kind), Some(instant)) = (kind, instant) {
            retry[kind][instant] += 1;
        }
    }
    let transcript: Vec<String> = logs
        .iter()
        .flat_map(|log| log.lock().unwrap().clone())
        .collect();
    assert!(
        !transcript.iter().any(|e| e.contains("Err")),
        "a call failed under the storm: {transcript:#?}"
    );
    Pin {
        retry,
        transcript: (
            transcript.len(),
            fold(transcript.iter().flat_map(|e| e.bytes().map(u64::from))),
        ),
        stats: [
            stats.events,
            stats.messages,
            stats.bytes_sent,
            stats.end_time.as_nanos(),
        ],
    }
}

fn check(label: &str, got: &Pin, want: &Pin) {
    if got != want {
        println!("{label}: observed {got:?}");
    }
    assert_eq!(got, want, "{label}: the run under the storm moved");
}

/// The 2PC + parity machine: duplicates reach the LFS instances' and the
/// server's windows, each of which both drops and replays. Re-pinned when
/// a transaction began to be answered at its COMMIT: the three scratch
/// Creates' file ids permute, every other reply is the same, and the run
/// ends at 13.279 virtual s (14.917 before). Re-pinned again when a group
/// began to carry the next group's reads under its COMMIT force: the
/// transcript is unchanged, and the run ends at 13.019 virtual s.
#[test]
fn two_pc_parity_storm_is_pinned() {
    let got = run(BridgeConfig::paper(8)
        .with_2pc()
        .with_redundancy(Redundancy::parity()));
    let want = Pin {
        retry: [[99, 43, 0], [98, 8, 43], [0, 11, 9], [0, 0, 69]],
        transcript: (51, 3_884_220_534_137_958_612),
        stats: [2_874, 1_315, 237_853, 13_018_699_350],
    };
    check("2pc parity", &got, &want);
    let [lfs, server, _, _] = got.retry;
    assert!(lfs[0] > 0 && lfs[1] > 0, "an LFS arm went unexercised");
    assert!(
        server[0] > 0 && server[1] > 0,
        "a server arm went unexercised"
    );
}

/// The same machine without the decision log: Creates over 8 nodes fan out
/// through the agents, and a duplicated relay replays from an agent's
/// window.
#[test]
fn fan_out_parity_storm_is_pinned() {
    let got = run(BridgeConfig::paper(8).with_redundancy(Redundancy::parity()));
    let want = Pin {
        retry: [[102, 58, 0], [5, 111, 56], [0, 12, 10], [0, 0, 73]],
        transcript: (51, 13_166_686_167_400_487_755),
        stats: [2_695, 1_323, 179_024, 12_772_823_200],
    };
    check("fan-out parity", &got, &want);
    let [_, _, agent, _] = got.retry;
    assert!(agent[1] > 0, "no agent replayed a duplicated relay");
}
