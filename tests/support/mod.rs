//! The fault suites' one harness. `chaos.rs`, `crash.rs`,
//! `availability.rs` and `telemetry.rs` each include it with
//! `mod support;` (a module of the suite, not a test target of its own),
//! so a suite that uses only part of it leaves the rest dead.
//!
//! * **One run loop**: [`run`] builds the machine, hands a workload body a
//!   [`Client`] whose helpers append each reply to the transcript, and
//!   returns one [`Run`].
//! * **One oracle**: [`assert_same`] — a faulted transcript equals the
//!   fault-free one, or the first divergence is reported with the plan and
//!   its replay command, and the seed is saved for CI.
//! * **One seed path**: a [`Soak`] names a suite's env knobs and failure
//!   extension; [`Soak::run`] is the soak hook, [`corpus_seeds`] reads the
//!   `tests/fault_seeds/` corpora.
//! * **Plans composed from classes** ([`Classes`]): the bounded envelope,
//!   node crashes, the coordinator kill and the single media loss each
//!   draw from their own salted stream, so a composition never moves what
//!   another class drew.
#![allow(dead_code)]

use bridge_repro::core::{
    BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec, RetryPolicy,
};
use bridge_repro::parsim::{
    mix64, splitmix64, BlockFaultRule, CrashAt, Ctx, DiskLost, FaultPlan, MsgFaults, NodeId,
    Outage, OutageKind, ProcId, RunStats, SimDuration, SimTime, SERVER_DISK,
};
use bridge_repro::tools::{pfsck, FsckOptions};
use std::fmt::Write as _;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Node indexes in a [`BridgeMachine`] build: the server node is added
/// first, then the frontend, then one node per LFS.
pub const SERVER_NODE: usize = 0;
pub const FIRST_LFS_NODE: usize = 2;

/// FNV-1a, to log block contents compactly.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A payload size series: `base + (i mod steps) · 16` bytes.
#[derive(Clone, Copy)]
pub struct Shape {
    base: usize,
    steps: usize,
}

/// 64 to 160 bytes (chaos, the fan-out workload, availability).
pub const WIDE: Shape = Shape { base: 64, steps: 7 };
/// 48 to 112 bytes (the crash sweeps and the pfsck instances).
pub const NARROW: Shape = Shape { base: 48, steps: 5 };

/// Deterministic payload for append/overwrite `i` of stream `tag`.
pub fn content(tag: u8, i: u64, shape: Shape) -> Vec<u8> {
    vec![tag ^ (i as u8), (i >> 8) as u8, tag, 0x42]
        .into_iter()
        .cycle()
        .take(shape.base + (i as usize % shape.steps) * 16)
        .collect()
}

/// One concurrent client's part of a workload ([`Client::concurrently`]).
pub type Body = Box<dyn FnOnce(&mut Client) + Send>;

/// A concurrent client's word that its transcript is in.
struct Finished;

/// The application process a workload body drives: a Bridge client on
/// the frontend, what it knows of the machine, and the transcript its
/// helpers append one line per client-visible reply to (results and
/// read-back contents, no timing).
pub struct Client<'a> {
    pub ctx: &'a mut Ctx,
    pub bridge: BridgeClient,
    pub server: ProcId,
    /// Each LFS server with its node, by machine index (pfsck's targets).
    pub lfs: Vec<(ProcId, NodeId)>,
    /// The machine's LFS retry policy (the client's too).
    pub retry: RetryPolicy,
    pub log: Vec<String>,
}

impl Client<'_> {
    pub fn create(&mut self, spec: CreateSpec) -> BridgeFileId {
        self.bridge.create(self.ctx, spec).expect("create")
    }

    /// Appends `payload(i)` for each `i` in `blocks`: `{label}[i] -> n`.
    pub fn append(
        &mut self,
        file: BridgeFileId,
        label: &str,
        blocks: Range<u64>,
        payload: impl Fn(u64) -> Vec<u8>,
    ) {
        for i in blocks {
            let n = self
                .bridge
                .seq_write(self.ctx, file, payload(i))
                .expect("append");
            self.log.push(format!("{label}[{i}] -> {n}"));
        }
    }

    /// Overwrites each block of `at` with `payload(at)`: `{label}[at]`.
    pub fn overwrite(
        &mut self,
        file: BridgeFileId,
        label: &str,
        at: &[u64],
        payload: impl Fn(u64) -> Vec<u8>,
    ) {
        for &at in at {
            self.bridge
                .rand_write(self.ctx, file, at, payload(at))
                .expect("overwrite");
            self.log.push(format!("{label}[{at}]"));
        }
    }

    /// Deletes `file`: `{label} -> blocks freed`.
    pub fn delete(&mut self, file: BridgeFileId, label: &str) {
        let freed = self.bridge.delete(self.ctx, file).expect("delete");
        self.log.push(format!("{label} -> {freed}"));
    }

    /// Reads each block of `at`: `{label}[at] -> hash`.
    pub fn rand_read(&mut self, file: BridgeFileId, label: &str, at: &[u64]) {
        for &at in at {
            let block = self
                .bridge
                .rand_read(self.ctx, file, at)
                .expect("rand read");
            self.log
                .push(format!("{label}[{at}] -> {:016x}", fnv(&block)));
        }
    }

    /// Opens `file` and reads it back as one line of block hashes:
    /// `{label} size=n: hash …`.
    pub fn read_back(&mut self, file: BridgeFileId, label: &str) {
        let info = self.bridge.open(self.ctx, file).expect("open");
        let mut line = format!("{label} size={}:", info.size);
        while let Some(block) = self.bridge.seq_read(self.ctx, file).expect("seq read") {
            write!(line, " {:016x}", fnv(&block)).unwrap();
        }
        self.log.push(line);
    }

    /// Runs `bodies` as clients of their own, concurrently: each a process
    /// on this one's node with its own retrying Bridge client, whose
    /// requests queue at the server beside the others'. Their transcripts
    /// join this one's in body order, each line tagged with its client, so
    /// the transcript is the same however their requests interleave. The
    /// clients hand their transcripts over in shared memory, so no fault
    /// plan can lose one.
    pub fn concurrently(&mut self, bodies: Vec<Body>) {
        let done: Arc<Mutex<Vec<Option<Vec<String>>>>> =
            Arc::new(Mutex::new(vec![None; bodies.len()]));
        let (me, node) = (self.ctx.me(), self.ctx.node());
        for (i, body) in bodies.into_iter().enumerate() {
            let (done, lfs) = (Arc::clone(&done), self.lfs.clone());
            let (server, retry) = (self.server, self.retry);
            self.ctx.spawn(node, format!("client{i}"), move |ctx| {
                let mut client = Client {
                    ctx,
                    bridge: BridgeClient::with_retry(server, retry),
                    server,
                    lfs,
                    retry,
                    log: Vec::new(),
                };
                body(&mut client);
                done.lock().expect("clients never panic holding it")[i] = Some(client.log);
                client.ctx.send(me, Finished);
            });
        }
        let finished = |done: &Mutex<Vec<Option<Vec<String>>>>| {
            done.lock()
                .expect("not poisoned")
                .iter()
                .all(Option::is_some)
        };
        while !finished(&done) {
            self.ctx
                .recv_where_timeout(|e| e.is::<Finished>(), SimDuration::from_secs(1));
        }
        let logs = std::mem::take(&mut *done.lock().expect("not poisoned"));
        for (i, log) in logs.into_iter().enumerate() {
            let log = log.expect("finished");
            self.log
                .extend(log.into_iter().map(|l| format!("client{i}: {l}")));
        }
    }

    /// Runs `pfsck --check` over every instance — with the machine-wide
    /// pass (the server's directory and decision log against every
    /// instance) when `machine_pass` — and logs its verdict, with the
    /// repair count when `repaired` (availability leaves it out: a
    /// degraded machine may count differently).
    pub fn pfsck(&mut self, machine_pass: bool, repaired: bool) {
        let options = FsckOptions {
            retry: self.retry,
            server: machine_pass.then_some(self.server),
            ..FsckOptions::default()
        };
        let verdict = pfsck(self.ctx, &self.lfs, &options).expect("pfsck");
        let repaired = if repaired {
            format!(" repaired={}", verdict.repaired)
        } else {
            String::new()
        };
        self.log.push(format!(
            "pfsck clean={}{repaired} errors={:?}",
            verdict.clean(),
            verdict.errors(),
        ));
    }
}

/// One workload run: the client transcript, the kernel's counters when
/// the client finished, and each LFS disk's elementary write count — the
/// `CrashAt` ordinal space — read host-side from the telemetry registry,
/// so reading it costs the run nothing (empty on a machine built with
/// telemetry off).
pub struct Run {
    pub transcript: Vec<String>,
    pub stats: RunStats,
    pub disk_writes: Vec<u64>,
}

/// Builds `config`'s machine and runs `body` as the application on its
/// frontend.
pub fn run(config: &BridgeConfig, body: impl FnOnce(&mut Client) + Send + 'static) -> Run {
    let (mut sim, machine) = BridgeMachine::build(config);
    let (server, retry) = (machine.server, config.server.lfs_retry);
    let lfs = machine.lfs.iter().copied();
    let lfs = lfs.zip(machine.lfs_nodes.iter().copied()).collect();
    let transcript = sim.block_on(machine.frontend, "client", move |ctx| {
        let mut client = Client {
            ctx,
            bridge: BridgeClient::with_retry(server, retry),
            server,
            lfs,
            retry,
            log: Vec::new(),
        };
        body(&mut client);
        client.log
    });
    let disk_writes = machine.telemetry.map_or_else(Vec::new, |registry| {
        (0..machine.lfs.len())
            .map(|i| registry.lfs(i).disk.writes)
            .collect()
    });
    Run {
        transcript,
        stats: sim.stats(),
        disk_writes,
    }
}

/// The one oracle: `faulted`'s transcript equals `baseline`'s line for
/// line. On a divergence, saves the plan's seed for `replay`'s soak hook
/// (when there is one) and panics with the first diverging reply, the
/// replay command and the plan.
pub fn assert_same(
    label: &str,
    baseline: &Run,
    faulted: &Run,
    plan: &FaultPlan,
    replay: Option<&Soak>,
) {
    let (base, fault) = (&baseline.transcript, &faulted.transcript);
    let Some(at) = base
        .iter()
        .zip(fault)
        .position(|(b, f)| b != f)
        .or((base.len() != fault.len()).then(|| base.len().min(fault.len())))
    else {
        return;
    };
    let replay = replay.map_or_else(String::new, |soak| {
        record_failure(plan.seed, soak.ext);
        soak.command(plan.seed)
    });
    panic!(
        "{label}: invariant violated (plan seed {seed})\n\
         first divergence at reply {at}:\n\
           fault-free: {b:?}\n\
           faulted:    {f:?}\n\
         {replay}plan: {plan:?}",
        seed = plan.seed,
        b = base.get(at),
        f = fault.get(at),
    );
}

/// A suite's soak hook, `{prefix}_soak`: its env knobs
/// `{prefix}_REPLAY` (replays exactly one plan seed), `{prefix}_SEED`
/// (picks the seed block; nightly CI derives it from the date) and
/// `{prefix}_CASES`, and the extension its failing seeds are saved under
/// (which picks the replay command in CI's summary).
pub struct Soak {
    prefix: &'static str,
    default_seed: u64,
    default_cases: u64,
    ext: &'static str,
}

impl Soak {
    pub const fn new(prefix: &'static str, seed: u64, cases: u64, ext: &'static str) -> Soak {
        Soak {
            prefix,
            default_seed: seed,
            default_cases: cases,
            ext,
        }
    }

    /// Runs `check(label, seed)` on the replay seed if one is set, else on
    /// the cases of the seed block.
    pub fn run(&self, check: impl Fn(&str, u64)) {
        let knob = |name| format!("{}_{name}", self.prefix);
        if std::env::var(knob("REPLAY")).is_ok() {
            return check("replay", env_u64(&knob("REPLAY"), 0));
        }
        let base = env_u64(&knob("SEED"), self.default_seed);
        for case in 0..env_u64(&knob("CASES"), self.default_cases) {
            check("soak", mix64(base, case));
        }
    }

    fn command(&self, seed: u64) -> String {
        format!(
            "replay with: {}_REPLAY={seed} cargo test --test {} {}_soak\n",
            self.prefix,
            env!("CARGO_CRATE_NAME"),
            self.prefix.to_lowercase(),
        )
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be a u64, got {v:?}")),
        Err(_) => default,
    }
}

/// Saves a failing plan seed as `target/chaos_failures/{seed}.{ext}` so
/// CI can upload it (and a developer can move it into `tests/fault_seeds/`
/// to pin the regression).
fn record_failure(seed: u64, ext: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("chaos_failures");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{seed}.{ext}")), format!("{seed}\n"));
    }
}

/// Every seed (decimal u64, one per line, `#` comments) in the
/// `tests/fault_seeds/*.{ext}` corpus files.
pub fn corpus_seeds(ext: &str) -> Vec<u64> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fault_seeds");
    let mut seeds = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("tests/fault_seeds exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|e| e != ext) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable seed file");
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let seed = line
                .parse()
                .unwrap_or_else(|_| panic!("bad seed line {line:?} in {path:?}"));
            seeds.push(seed);
        }
    }
    assert!(!seeds.is_empty(), "corpus holds at least one .{ext} seed");
    seeds
}

/// The down window of a directed [`Classes::kill`].
pub const DOWN: SimDuration = SimDuration::from_millis(300);

/// The fault classes plans are composed from. Every drawn class reads its
/// own stream — the plan's seed mixed with the class's salt — so classes
/// compose in any combination and a corpus seed keeps expanding to the
/// plan it was found as.
pub trait Classes {
    /// No faults yet.
    fn seeded(seed: u64) -> Self;
    /// The bounded envelope: message drop/dup/delay with the drop run
    /// capped, up to two short outages (the server or an LFS node, never
    /// the frontend), transient disk errors under the driver retry limit.
    fn envelope(self, breadth: u32) -> Self;
    /// One or two LFS node kills at write ordinals 1..=256.
    fn node_crashes(self, breadth: u32) -> Self;
    /// A fail-stop of the coordinator at decision-log write 1..=8.
    fn coordinator_kill(self) -> Self;
    /// One disk lost for good at a write ordinal under 600, under message
    /// delays only (it sets the plan's message faults).
    fn media_loss(self, breadth: u32) -> Self;
    /// A kill of `disk` after its `after_writes`-th write, down [`DOWN`].
    fn kill(self, disk: u32, after_writes: u64) -> Self;
    /// `disk` lost for good after its `after_writes`-th write.
    fn lose(self, disk: u32, after_writes: u64) -> Self;
}

fn stream(seed: u64, salt: u64) -> impl FnMut() -> u64 {
    let mut s = mix64(seed, salt);
    move || splitmix64(&mut s)
}

impl Classes for FaultPlan {
    fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    fn envelope(mut self, breadth: u32) -> Self {
        let mut draw = stream(self.seed, 0x00C4_A05B);
        self.msg = MsgFaults {
            drop_per_mille: (draw() % 250) as u16,
            dup_per_mille: (draw() % 250) as u16,
            delay_per_mille: (draw() % 300) as u16,
            delay_max: SimDuration::from_micros(1 + draw() % 100_000),
            max_consecutive_drops: 2 + (draw() % 6) as u32,
        };
        for _ in 0..draw() % 3 {
            let node = match draw() % u64::from(breadth + 1) {
                0 => SERVER_NODE,
                pick => FIRST_LFS_NODE + (pick as usize - 1),
            };
            let from = SimTime::ZERO + SimDuration::from_millis(draw() % 1_500);
            let len = SimDuration::from_millis(10 + draw() % 800);
            self.outages.push(Outage {
                node: NodeId::from_index(node),
                from,
                until: from + len,
                kind: if draw().is_multiple_of(2) {
                    OutageKind::Down
                } else {
                    OutageKind::Paused
                },
            });
        }
        for _ in 0..draw() % 3 {
            self.disk.targets.push(BlockFaultRule {
                disk: (draw() % u64::from(breadth)) as u32,
                block: (draw() % 256) as u32,
                fails: 1 + (draw() % 4) as u32,
            });
        }
        self.disk.error_per_mille = (draw() % 150) as u16;
        self.disk.max_consecutive = 1 + (draw() % 6) as u32;
        self
    }

    fn node_crashes(mut self, breadth: u32) -> Self {
        let mut draw = stream(self.seed, 0x0C4A_511E);
        for _ in 0..1 + draw() % 2 {
            self.crashes.push(CrashAt {
                disk: (draw() % u64::from(breadth)) as u32,
                after_writes: 1 + draw() % 256,
                down: SimDuration::from_millis(200 + draw() % 1_800),
            });
        }
        self
    }

    fn coordinator_kill(mut self) -> Self {
        let mut draw = stream(self.seed, 0x7C10_2BC0);
        self.crashes.push(CrashAt {
            disk: SERVER_DISK,
            after_writes: 1 + draw() % 8,
            down: SimDuration::from_millis(200 + draw() % 800),
        });
        self
    }

    fn media_loss(mut self, breadth: u32) -> Self {
        let mut draw = stream(self.seed, 0x0105_5EED);
        self.msg = MsgFaults {
            delay_per_mille: (draw() % 300) as u16,
            delay_max: SimDuration::from_micros(1 + draw() % 50_000),
            ..MsgFaults::default()
        };
        let disk = (draw() % u64::from(breadth)) as u32;
        self.lose(disk, draw() % 600)
    }

    fn kill(mut self, disk: u32, after_writes: u64) -> Self {
        self.crashes.push(CrashAt {
            disk,
            after_writes,
            down: DOWN,
        });
        self
    }

    fn lose(mut self, disk: u32, after_writes: u64) -> Self {
        self.losses.push(DiskLost { disk, after_writes });
        self
    }
}

/// A fault-free reference run, pinned: the transcript as the FNV of its
/// joined lines plus the line count, the kernel's counters, and per-LFS
/// `DiskStats.writes`. A reference that matches its pin ran the same
/// program, and offers a crash plan the same ordinals.
#[derive(Debug, PartialEq, Eq)]
pub struct Pin<'a> {
    pub transcript: u64,
    pub lines: usize,
    pub events: u64,
    pub messages: u64,
    pub bytes_sent: u64,
    pub dispatches: u64,
    pub end_ns: u64,
    pub disk_writes: &'a [u64],
}

/// Asserts that `run` matches its pin.
pub fn assert_pinned(label: &str, run: &Run, want: Pin) {
    let observed = Pin {
        transcript: fnv(run.transcript.join("\n").as_bytes()),
        lines: run.transcript.len(),
        events: run.stats.events,
        messages: run.stats.messages,
        bytes_sent: run.stats.bytes_sent,
        dispatches: run.stats.dispatches,
        end_ns: run.stats.end_time.as_nanos(),
        disk_writes: &run.disk_writes,
    };
    assert_eq!(observed, want, "{label}: the reference moved");
}

/// Asserts that `generate` still expands each pinned seed to the plan it
/// did: `want` holds `(seed, FNV of format!("{plan:?}"))` pairs.
pub fn assert_plans_pinned(label: &str, generate: fn(u64) -> FaultPlan, want: &[(u64, u64)]) {
    let observed: Vec<(u64, u64)> = want
        .iter()
        .map(|&(seed, _)| (seed, fnv(format!("{:?}", generate(seed)).as_bytes())))
        .collect();
    assert_eq!(observed, want, "{label}: a plan moved");
}
