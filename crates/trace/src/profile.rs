//! Causal profiling: per-operation critical-path attribution and a
//! whole-run critical path computed from a recorded [`TraceData`].
//!
//! The profiler stitches the trace's spans into a causality DAG — client
//! RPC spans pair with their server-side service spans by request id,
//! service spans contain disk spans and nested RPCs by virtual-time
//! containment on the same process, and [`FlowEvent`](crate::FlowEvent)s connect processes
//! across the interconnect (every posted message and every spawn carries
//! a flow). Two analyses run over that DAG:
//!
//! * **Per-op attribution** ([`profile`], [`OpProfile`]): each client
//!   operation's latency `[send, reply]` is partitioned — exactly, with
//!   zero slack — into [`Category`] buckets. Anything the decomposition
//!   cannot justify lands in [`Category::Untraced`], never silently in a
//!   neighbouring bucket.
//! * **Whole-run critical path** ([`CriticalPath`]): a backward walk from
//!   the last scheduler run interval, hopping flow edges to whichever
//!   process the current one was waiting on, painting every traversed
//!   nanosecond with the innermost application span covering it. The
//!   painted total always equals the makespan exactly.
//!
//! [`validate_causality`] audits the DAG: every successful client op must
//! reach its service span through a request flow and return through a
//! reply flow.

use crate::collect::{SpanEvent, TraceData};
use crate::json::write_str;
use parsim::{FixedMap, FixedSet};
use std::fmt::Write as _;

/// Maximum recursion depth when a service span's interior contains nested
/// RPCs (the Bridge Server calling LFS servers, which could in principle
/// nest further).
const MAX_NEST: usize = 8;

/// Where a nanosecond of an operation's (or the run's) latency went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Client-side RPC machinery (send/receive bookkeeping, and any part
    /// of a nested RPC too deep to decompose further).
    ClientRpc,
    /// Bridge Server: request CPU charge, mailbox wait, dispatch logic,
    /// and fan-out agent relaying.
    Bridge,
    /// Message flight time on the interconnect (request and reply legs,
    /// and flow edges on the run critical path).
    Interconnect,
    /// Waiting in an LFS server's request queue behind other requests.
    LfsQueueWait,
    /// LFS server execution that is not disk time (allocation, header
    /// bookkeeping, scheduling).
    LfsServe,
    /// Disk head positioning: seeks, rotational settle, and fault
    /// repositioning penalties.
    DiskPosition,
    /// Disk media transfer at streaming rate.
    DiskTransfer,
    /// Waiting out a retry timeout before resending a request.
    RetryBackoff,
    /// Tool-side compute (sort comparisons, record shuffling — any
    /// process time not otherwise claimed on a non-server process).
    ToolCompute,
    /// Time the trace cannot explain. Always reported, never absorbed.
    Untraced,
}

impl Category {
    /// Every category, in rendering order.
    pub const ALL: [Category; 10] = [
        Category::ClientRpc,
        Category::Bridge,
        Category::Interconnect,
        Category::LfsQueueWait,
        Category::LfsServe,
        Category::DiskPosition,
        Category::DiskTransfer,
        Category::RetryBackoff,
        Category::ToolCompute,
        Category::Untraced,
    ];

    /// The category's stable label (used in JSON and tables).
    pub fn label(self) -> &'static str {
        match self {
            Category::ClientRpc => "client.rpc",
            Category::Bridge => "bridge",
            Category::Interconnect => "interconnect",
            Category::LfsQueueWait => "lfs.queue_wait",
            Category::LfsServe => "lfs.serve",
            Category::DiskPosition => "disk.position",
            Category::DiskTransfer => "disk.transfer",
            Category::RetryBackoff => "retry.backoff",
            Category::ToolCompute => "tool.compute",
            Category::Untraced => "untraced",
        }
    }

    fn index(self) -> usize {
        Category::ALL
            .iter()
            .position(|c| *c == self)
            .expect("category is in ALL")
    }
}

/// Nanoseconds attributed per [`Category`]. Sums are exact: every helper
/// that fills a breakdown partitions an interval, so
/// [`total`](Breakdown::total) equals the interval's width.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    nanos: [u64; Category::ALL.len()],
}

impl Breakdown {
    /// Adds `nanos` to `cat`'s bucket.
    pub fn add(&mut self, cat: Category, nanos: u64) {
        self.nanos[cat.index()] += nanos;
    }

    /// The bucket for `cat`.
    pub fn get(&self, cat: Category) -> u64 {
        self.nanos[cat.index()]
    }

    /// Sum over all buckets.
    pub fn total(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &Breakdown) {
        for (mine, theirs) in self.nanos.iter_mut().zip(&other.nanos) {
            *mine += theirs;
        }
    }

    /// `(category, nanos)` pairs in rendering order (zeros included).
    pub fn iter(&self) -> impl Iterator<Item = (Category, u64)> + '_ {
        Category::ALL.iter().map(|&c| (c, self.get(c)))
    }
}

/// One client operation's critical-path attribution.
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// Process index of the caller.
    pub client: usize,
    /// Process index of the server it called.
    pub server: usize,
    /// Request id (unique per client process).
    pub id: u64,
    /// The client span's name, e.g. `"client.bridge.seq_read"`.
    pub name: String,
    /// Send time of the first attempt, nanoseconds of virtual time.
    pub start_nanos: u64,
    /// Reply receipt time, nanoseconds of virtual time.
    pub end_nanos: u64,
    /// Whether the server reported success.
    pub ok: bool,
    /// Exact partition of `[start, end]` into categories.
    pub breakdown: Breakdown,
}

impl OpProfile {
    /// End-to-end latency in nanoseconds.
    pub fn latency_nanos(&self) -> u64 {
        self.end_nanos - self.start_nanos
    }

    /// Nanoseconds of this op's latency the trace could not explain.
    pub fn untraced_nanos(&self) -> u64 {
        self.breakdown.get(Category::Untraced)
    }

    /// `untraced / latency`, zero for zero-latency ops.
    pub fn untraced_fraction(&self) -> f64 {
        let latency = self.latency_nanos();
        if latency == 0 {
            0.0
        } else {
            self.untraced_nanos() as f64 / latency as f64
        }
    }
}

/// The whole run's critical path: a contiguous backward walk from the
/// last run interval to time zero, painted by category. The breakdown's
/// total equals `makespan_nanos` exactly.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// End of the latest scheduler run interval (the run's makespan).
    pub makespan_nanos: u64,
    /// Exact partition of `[0, makespan]` into categories.
    pub breakdown: Breakdown,
    /// Number of flow edges the walk crossed between processes.
    pub hops: usize,
}

/// Everything [`profile`] computes from one trace.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Per-operation attributions, in client-span emission order.
    pub ops: Vec<OpProfile>,
    /// The whole-run critical path.
    pub critical_path: CriticalPath,
}

impl Profile {
    /// Sum of all per-op breakdowns.
    pub fn total(&self) -> Breakdown {
        let mut total = Breakdown::default();
        for op in &self.ops {
            total.merge(&op.breakdown);
        }
        total
    }

    /// The ops whose send time falls inside `[from_nanos, to_nanos)` —
    /// e.g. one benchmark phase — summed into a breakdown.
    pub fn breakdown_between(&self, from_nanos: u64, to_nanos: u64) -> Breakdown {
        let mut sum = Breakdown::default();
        for op in &self.ops {
            if op.start_nanos >= from_nanos && op.start_nanos < to_nanos {
                sum.merge(&op.breakdown);
            }
        }
        sum
    }

    /// The largest `untraced / latency` ratio over all ops (zero when
    /// there are none). The CI smoke gate fails when this exceeds 5%.
    pub fn worst_untraced_fraction(&self) -> f64 {
        self.ops
            .iter()
            .map(OpProfile::untraced_fraction)
            .fold(0.0, f64::max)
    }
}

/// One contiguous piece of an op's timeline.
type Seg = (u64, u64, Category);

/// One process's spans sorted by `(start, emission index)`, with a
/// max-`end` tournament tree over that order, so the spans overlapping a
/// window are enumerated without touching the rest.
struct SpanIndex {
    /// Span indices into [`TraceData::spans`].
    order: Vec<usize>,
    /// `starts[k]` is the start of span `order[k]`.
    starts: Vec<u64>,
    /// Implicit binary tree over `order` padded to a power of two: node
    /// `n` holds the largest `end` below it, the leaves sit at
    /// `tree.len() / 2 ..`.
    tree: Vec<u64>,
}

impl SpanIndex {
    fn build(mut order: Vec<usize>, spans: &[SpanEvent]) -> Self {
        order.sort_by_key(|&i| (spans[i].start, i));
        let starts = order.iter().map(|&i| spans[i].start.as_nanos()).collect();
        let leaves = order.len().next_power_of_two();
        let mut tree = vec![0u64; 2 * leaves];
        for (k, &i) in order.iter().enumerate() {
            tree[leaves + k] = spans[i].end.as_nanos();
        }
        for n in (1..leaves).rev() {
            tree[n] = tree[2 * n].max(tree[2 * n + 1]);
        }
        SpanIndex {
            order,
            starts,
            tree,
        }
    }

    /// The spans starting within `[lo, hi]`, in `(start, index)` order.
    fn starting_within(&self, lo: u64, hi: u64) -> &[usize] {
        let from = self.starts.partition_point(|&s| s < lo);
        let to = self.starts.partition_point(|&s| s <= hi);
        &self.order[from..to.max(from)]
    }

    /// The spans with `start < b` and `end > a`, in `(start, index)` order.
    fn overlapping(&self, a: u64, b: u64) -> Vec<usize> {
        let limit = self.starts.partition_point(|&s| s < b);
        let mut out = Vec::new();
        if limit > 0 {
            self.collect_ending_after(1, 0, self.tree.len() / 2, limit, a, &mut out);
        }
        out
    }

    /// Pushes `order[k]` for every `k < limit` under `node` (which covers
    /// positions `lo..hi`) whose span ends after `a`, left to right.
    fn collect_ending_after(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        limit: usize,
        a: u64,
        out: &mut Vec<usize>,
    ) {
        if lo >= limit || self.tree[node] <= a {
            return;
        }
        if hi - lo == 1 {
            out.push(self.order[lo]);
            return;
        }
        let mid = lo + (hi - lo) / 2;
        self.collect_ending_after(2 * node, lo, mid, limit, a, out);
        self.collect_ending_after(2 * node + 1, mid, hi, limit, a, out);
    }
}

/// One process's scheduler run intervals, indexed both ways the
/// critical-path walk asks about them.
struct RunIndex {
    /// `(start, end)`, sorted.
    by_start: Vec<(u64, u64)>,
    /// `max_end[k]` is the largest `end` among `by_start[..=k]`.
    max_end: Vec<u64>,
    /// `(end, start)`, sorted.
    by_end: Vec<(u64, u64)>,
}

impl RunIndex {
    fn build(mut by_start: Vec<(u64, u64)>) -> Self {
        by_start.sort_unstable();
        let mut max_end = Vec::with_capacity(by_start.len());
        let mut high = 0u64;
        for &(_, e) in &by_start {
            high = high.max(e);
            max_end.push(high);
        }
        let mut by_end: Vec<(u64, u64)> = by_start.iter().map(|&(s, e)| (e, s)).collect();
        by_end.sort_unstable();
        RunIndex {
            by_start,
            max_end,
            by_end,
        }
    }

    /// The earliest-starting interval with `start <= t <= end`.
    fn covering(&self, t: u64) -> Option<(u64, u64)> {
        // The first position whose running maximum reaches `t` is itself
        // an interval ending at or after `t`, and no earlier one does.
        let k = self.max_end.partition_point(|&e| e < t);
        self.by_start.get(k).copied().filter(|&(s, _)| s <= t)
    }

    /// The latest `end <= t` among intervals with `start < t`.
    fn end_before(&self, t: u64) -> Option<u64> {
        let upto = self.by_end.partition_point(|&(e, _)| e <= t);
        // Only an empty interval sitting exactly at `t` can end by `t`
        // without starting before it; those sort last and are skipped.
        self.by_end[..upto]
            .iter()
            .rev()
            .find(|&&(_, s)| s < t)
            .map(|&(e, _)| e)
    }
}

/// Prebuilt lookup tables over one trace.
struct Stitcher<'a> {
    data: &'a TraceData,
    /// `(server pid, request id, client pid)` → `lfs.queue_wait` span.
    queue_waits: FixedMap<(usize, u64, usize), usize>,
    /// `(server pid, request id)` → emission-ordered `lfs` service spans
    /// (non-queue-wait) carrying that id.
    lfs_services: FixedMap<(usize, u64), Vec<usize>>,
    /// `(server pid, request id, client pid)` → `bridge` service span.
    bridge_services: FixedMap<(usize, u64, usize), usize>,
    /// Per-pid `disk` + `client` spans (children for interior painting).
    children: FixedMap<usize, SpanIndex>,
    /// `(from pid, to pid)` → delivery times, sorted.
    recvs: FixedMap<(usize, usize), Vec<u64>>,
    /// `(to pid, delivery time)` → deliveries, as indices into
    /// [`TraceData::flows`] in emission order.
    deliveries: FixedMap<(usize, u64), Vec<usize>>,
    /// Flow id → its (first) send, as an index into [`TraceData::flows`].
    sends: FixedMap<u64, usize>,
    /// `(client pid, request id)` → `retry.resend` times, sorted.
    resends: FixedMap<(usize, u64), Vec<u64>>,
    /// Per-pid non-scheduler spans (critical-path paint).
    app_spans: FixedMap<usize, SpanIndex>,
    /// Per-pid scheduler run intervals.
    runs: FixedMap<usize, RunIndex>,
}

impl<'a> Stitcher<'a> {
    fn build(data: &'a TraceData) -> Self {
        let mut s = Stitcher {
            data,
            queue_waits: FixedMap::default(),
            lfs_services: FixedMap::default(),
            bridge_services: FixedMap::default(),
            children: FixedMap::default(),
            recvs: FixedMap::default(),
            deliveries: FixedMap::default(),
            sends: FixedMap::default(),
            resends: FixedMap::default(),
            app_spans: FixedMap::default(),
            runs: FixedMap::default(),
        };
        let mut children: FixedMap<usize, Vec<usize>> = FixedMap::default();
        let mut app_spans: FixedMap<usize, Vec<usize>> = FixedMap::default();
        let mut runs: FixedMap<usize, Vec<(u64, u64)>> = FixedMap::default();
        for (idx, span) in data.spans.iter().enumerate() {
            match span.cat {
                "lfs" if span.name == "lfs.queue_wait" => {
                    if let (Some(id), Some(client)) = (span.arg("id"), span.arg("client")) {
                        s.queue_waits
                            .entry((span.pid, id, client as usize))
                            .or_insert(idx);
                    }
                }
                "lfs" => {
                    if let Some(id) = span.arg("id") {
                        s.lfs_services.entry((span.pid, id)).or_default().push(idx);
                    }
                }
                "bridge" => {
                    if let (Some(id), Some(client)) = (span.arg("id"), span.arg("client")) {
                        s.bridge_services
                            .entry((span.pid, id, client as usize))
                            .or_insert(idx);
                    }
                }
                _ => {}
            }
            match span.cat {
                "disk" | "client" => children.entry(span.pid).or_default().push(idx),
                _ => {}
            }
            if span.cat == "sched" && span.name == "run" {
                runs.entry(span.pid)
                    .or_default()
                    .push((span.start.as_nanos(), span.end.as_nanos()));
            } else {
                app_spans.entry(span.pid).or_default().push(idx);
            }
        }
        for (idx, f) in data.flows.iter().enumerate() {
            if f.send {
                s.sends.entry(f.id).or_insert(idx);
            } else {
                s.recvs
                    .entry((f.from, f.to))
                    .or_default()
                    .push(f.at.as_nanos());
                s.deliveries
                    .entry((f.to, f.at.as_nanos()))
                    .or_default()
                    .push(idx);
            }
        }
        for i in &data.instants {
            if i.name == "retry.resend" {
                if let Some(id) = i.arg("id") {
                    s.resends
                        .entry((i.pid, id))
                        .or_default()
                        .push(i.at.as_nanos());
                }
            }
        }
        for times in s.recvs.values_mut() {
            times.sort_unstable();
        }
        for times in s.resends.values_mut() {
            times.sort_unstable();
        }
        let index = |lists: FixedMap<usize, Vec<usize>>| {
            lists
                .into_iter()
                .map(|(pid, list)| (pid, SpanIndex::build(list, &data.spans)))
                .collect()
        };
        s.children = index(children);
        s.app_spans = index(app_spans);
        s.runs = runs
            .into_iter()
            .map(|(pid, list)| (pid, RunIndex::build(list)))
            .collect();
        s
    }

    /// The service span answering client span `op_idx`, if the stitch
    /// closes: the `lfs.queue_wait` span keyed by `(server, id, client)`
    /// pairs with the next `lfs` service span the server emitted for that
    /// id, and `bridge` spans carry the key directly.
    fn service_of(&self, op_idx: usize) -> Option<ServiceRef> {
        let span = &self.data.spans[op_idx];
        let id = span.arg("id")?;
        let server = span.arg("server")? as usize;
        if let Some(&qw) = self.queue_waits.get(&(server, id, span.pid)) {
            // The queue-wait span is emitted at service start, the service
            // span at service end: the request's service span is the first
            // service span emitted after its queue-wait with a matching id.
            let svc = self
                .lfs_services
                .get(&(server, id))
                .and_then(|list| list.get(list.partition_point(|&i| i <= qw)).copied());
            return Some(ServiceRef::Lfs { qw, svc });
        }
        if let Some(&svc) = self.bridge_services.get(&(server, id, span.pid)) {
            return Some(ServiceRef::Bridge { svc });
        }
        None
    }

    /// Earliest delivery from `from` to `to` within `[lo, hi]`.
    fn recv_between(&self, from: usize, to: usize, lo: u64, hi: u64) -> Option<u64> {
        let times = self.recvs.get(&(from, to))?;
        let at = times.partition_point(|&t| t < lo);
        times.get(at).copied().filter(|&t| t <= hi)
    }

    /// Last `retry.resend` of `(client, id)` within `[lo, hi]`, if any.
    fn last_resend(&self, client: usize, id: u64, lo: u64, hi: u64) -> Option<u64> {
        let times = self.resends.get(&(client, id))?;
        times.iter().rev().copied().find(|&t| t >= lo && t <= hi)
    }

    /// Partitions client span `op_idx`'s interval into category segments.
    /// The segments are contiguous and cover `[start, end]` exactly.
    fn op_timeline(&self, op_idx: usize, depth: usize, out: &mut Vec<Seg>) {
        let span = &self.data.spans[op_idx];
        let (s, e) = (span.start.as_nanos(), span.end.as_nanos());
        if depth >= MAX_NEST {
            push_seg(out, s, e, Category::ClientRpc);
            return;
        }
        let id = span.arg("id").unwrap_or(0);
        // Time until the last resend went out is backoff (waiting out
        // timeouts and re-posting); zero when the first attempt answered.
        let last_send = self
            .last_resend(span.pid, id, s, e)
            .unwrap_or(s)
            .clamp(s, e);
        push_seg(out, s, last_send, Category::RetryBackoff);
        match self.service_of(op_idx) {
            Some(ServiceRef::Lfs { qw, svc }) => {
                let qw_span = &self.data.spans[qw];
                // The queue-wait span starts at the request's delivery
                // time: everything before it is wire flight.
                let arrival = qw_span.start.as_nanos().clamp(last_send, e);
                push_seg(out, last_send, arrival, Category::Interconnect);
                match svc {
                    Some(svc) => {
                        let svc_span = &self.data.spans[svc];
                        let svc_s = svc_span.start.as_nanos().clamp(arrival, e);
                        let svc_e = svc_span.end.as_nanos().clamp(svc_s, e);
                        push_seg(out, arrival, svc_s, Category::LfsQueueWait);
                        self.paint_interior(svc, svc_s, svc_e, Category::LfsServe, depth, out);
                        push_seg(out, svc_e, e, Category::Interconnect);
                    }
                    None => {
                        let qw_e = qw_span.end.as_nanos().clamp(arrival, e);
                        push_seg(out, arrival, qw_e, Category::LfsQueueWait);
                        push_seg(out, qw_e, e, Category::Untraced);
                    }
                }
            }
            Some(ServiceRef::Bridge { svc }) => {
                let svc_span = &self.data.spans[svc];
                let svc_s = svc_span.start.as_nanos().clamp(last_send, e);
                let svc_e = svc_span.end.as_nanos().clamp(svc_s, e);
                // The bridge span opens only after the per-request CPU
                // charge; the request's wire arrival comes from its flow.
                let arrival = self
                    .recv_between(span.pid, svc_span.pid, s, svc_s)
                    .unwrap_or(svc_s)
                    .clamp(last_send, svc_s);
                push_seg(out, last_send, arrival, Category::Interconnect);
                push_seg(out, arrival, svc_s, Category::Bridge);
                self.paint_interior(svc, svc_s, svc_e, Category::Bridge, depth, out);
                push_seg(out, svc_e, e, Category::Interconnect);
            }
            None => {
                push_seg(out, last_send, e, Category::Untraced);
            }
        }
    }

    /// Paints `[a, b]` of service span `parent`'s interior: disk
    /// children split into positioning and transfer, nested RPC children
    /// recurse, and uncovered gaps get `default` (the server's own
    /// execution). Overlapping children (pipelined nested RPCs) resolve
    /// innermost-wins, so the output still partitions `[a, b]` exactly.
    fn paint_interior(
        &self,
        parent: usize,
        a: u64,
        b: u64,
        default: Category,
        depth: usize,
        out: &mut Vec<Seg>,
    ) {
        if a >= b {
            return;
        }
        let pid = self.data.spans[parent].pid;
        // Children: disk and client spans on the server pid fully inside
        // the window (the parent span itself is excluded by category). One
        // that ends by `b` also starts by `b`.
        let kids: Vec<usize> = self
            .children
            .get(&pid)
            .map(|index| {
                index
                    .starting_within(a, b)
                    .iter()
                    .copied()
                    .filter(|&i| i != parent && self.data.spans[i].end.as_nanos() <= b)
                    .collect()
            })
            .unwrap_or_default();
        if kids.is_empty() {
            push_seg(out, a, b, default);
            return;
        }
        // Each child's own exact timeline, computed first so elementary
        // segments can be labelled by lookup.
        let timelines: Vec<Vec<Seg>> = kids
            .iter()
            .map(|&i| {
                let child = &self.data.spans[i];
                let mut tl = Vec::new();
                if child.cat == "disk" {
                    disk_timeline(child, &mut tl);
                } else {
                    self.op_timeline(i, depth + 1, &mut tl);
                }
                tl
            })
            .collect();
        let mut cuts: Vec<u64> = vec![a, b];
        for tl in &timelines {
            for &(x, y, _) in tl {
                cuts.push(x);
                cuts.push(y);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        for w in cuts.windows(2) {
            let (x, y) = (w[0], w[1]);
            // Innermost covering child wins: latest start, then latest
            // emission order.
            let cover = kids
                .iter()
                .enumerate()
                .filter(|&(_, &i)| {
                    self.data.spans[i].start.as_nanos() <= x
                        && self.data.spans[i].end.as_nanos() >= y
                })
                .max_by_key(|&(_, &i)| (self.data.spans[i].start, i));
            match cover {
                Some((k, _)) => {
                    let cat = timelines[k]
                        .iter()
                        .find(|&&(cx, cy, _)| cx <= x && cy >= y)
                        .map(|&(_, _, c)| c)
                        .unwrap_or(default);
                    push_seg(out, x, y, cat);
                }
                None => push_seg(out, x, y, default),
            }
        }
    }

    /// The default category for uncovered time on `pid`, from its name.
    fn default_category(&self, pid: usize) -> Category {
        let name = self.data.proc_name(pid);
        if name.starts_with("lfs") {
            Category::LfsServe
        } else if name.starts_with("bridge") || name.starts_with("agent") {
            Category::Bridge
        } else {
            Category::ToolCompute
        }
    }

    /// Paints `[a, b]` of `pid`'s timeline into `bd` by the innermost
    /// application span covering each elementary piece; uncovered time
    /// gets the process's default category.
    fn paint_pid_interval(&self, pid: usize, a: u64, b: u64, bd: &mut Breakdown) {
        if a >= b {
            return;
        }
        let default = self.default_category(pid);
        let Some(spans) = self.app_spans.get(&pid) else {
            bd.add(default, b - a);
            return;
        };
        let live = spans.overlapping(a, b);
        if live.is_empty() {
            bd.add(default, b - a);
            return;
        }
        let mut cuts: Vec<u64> = vec![a, b];
        for &i in &live {
            let span = &self.data.spans[i];
            cuts.push(span.start.as_nanos().clamp(a, b));
            cuts.push(span.end.as_nanos().clamp(a, b));
            if span.cat == "disk" {
                // Disk spans paint in two colours; cut at the seam.
                let seam = span.start.as_nanos() + position_nanos(span);
                cuts.push(seam.clamp(a, b));
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        for w in cuts.windows(2) {
            let (x, y) = (w[0], w[1]);
            let cover = live
                .iter()
                .copied()
                .filter(|&i| {
                    self.data.spans[i].start.as_nanos() <= x
                        && self.data.spans[i].end.as_nanos() >= y
                })
                .max_by_key(|&i| (self.data.spans[i].start, i));
            let cat = match cover {
                Some(i) => span_category(&self.data.spans[i], x, default),
                None => default,
            };
            bd.add(cat, y - x);
        }
    }

    /// The run interval on `pid` covering `t`, preferring the one that
    /// *ends* at `t` when two touch there (a send or block at `t` belongs
    /// to the interval that led up to it).
    fn run_covering(&self, pid: usize, t: u64) -> Option<(u64, u64)> {
        self.runs.get(&pid)?.covering(t)
    }

    /// The end of the latest run interval on `pid` ending at or before
    /// `t`, excluding the one starting exactly at `t`.
    fn run_end_before(&self, pid: usize, t: u64) -> Option<u64> {
        self.runs.get(&pid)?.end_before(t)
    }

    /// The message (or spawn) whose delivery to `pid` at `t` the walk has
    /// not crossed yet: `(flow id, sender, send time)`.
    fn waking_flow(
        &self,
        pid: usize,
        t: u64,
        visited: &FixedSet<u64>,
    ) -> Option<(u64, usize, u64)> {
        self.deliveries.get(&(pid, t))?.iter().find_map(|&d| {
            let id = self.data.flows[d].id;
            if visited.contains(&id) {
                return None;
            }
            let send = &self.data.flows[*self.sends.get(&id)?];
            (send.at.as_nanos() <= t).then_some((id, send.from, send.at.as_nanos()))
        })
    }
}

/// How a client span's service half was located.
enum ServiceRef {
    /// An LFS request: its queue-wait span, and (normally) the service
    /// span that followed it.
    Lfs { qw: usize, svc: Option<usize> },
    /// A Bridge Server request: the dispatch span.
    Bridge { svc: usize },
}

/// `position` arg clamped to the span's wall time (deferred writes can
/// have busy > wall; attribution never exceeds what elapsed).
fn position_nanos(span: &SpanEvent) -> u64 {
    span.arg("position").unwrap_or(0).min(span.dur_nanos())
}

/// A disk span's exact two-part timeline: positioning then transfer.
fn disk_timeline(span: &SpanEvent, out: &mut Vec<Seg>) {
    let (s, e) = (span.start.as_nanos(), span.end.as_nanos());
    let seam = s + position_nanos(span);
    push_seg(out, s, seam, Category::DiskPosition);
    push_seg(out, seam, e, Category::DiskTransfer);
}

/// The category a span paints at time `x` (disk spans switch colour at
/// their positioning seam).
fn span_category(span: &SpanEvent, x: u64, default: Category) -> Category {
    match span.cat {
        "client" => Category::ClientRpc,
        "bridge" => Category::Bridge,
        "lfs" if span.name == "lfs.queue_wait" => Category::LfsQueueWait,
        "lfs" => Category::LfsServe,
        "disk" => {
            if x < span.start.as_nanos() + position_nanos(span) {
                Category::DiskPosition
            } else {
                Category::DiskTransfer
            }
        }
        "tool" => Category::ToolCompute,
        _ => default,
    }
}

fn push_seg(out: &mut Vec<Seg>, a: u64, b: u64, cat: Category) {
    if b > a {
        out.push((a, b, cat));
    }
}

/// Computes the full profile: one [`OpProfile`] per *top-level* client
/// span (RPCs issued by server processes while serving are folded into
/// their parent op, not double-counted) plus the whole-run critical path.
pub fn profile(data: &TraceData) -> Profile {
    let stitcher = Stitcher::build(data);
    // Server pids: anything that emitted service spans. Client spans on
    // those pids are nested RPCs, already attributed inside their parent.
    let server_pids: FixedSet<usize> = data
        .spans
        .iter()
        .filter(|s| s.cat == "bridge" || s.cat == "lfs")
        .map(|s| s.pid)
        .collect();
    let mut ops = Vec::new();
    let mut segs = Vec::new();
    for (idx, span) in data.spans.iter().enumerate() {
        if span.cat != "client" || server_pids.contains(&span.pid) {
            continue;
        }
        segs.clear();
        stitcher.op_timeline(idx, 0, &mut segs);
        let mut breakdown = Breakdown::default();
        for &(x, y, cat) in &segs {
            breakdown.add(cat, y - x);
        }
        debug_assert_eq!(
            breakdown.total(),
            span.dur_nanos(),
            "op timeline must partition the span"
        );
        ops.push(OpProfile {
            client: span.pid,
            server: span.arg("server").unwrap_or(0) as usize,
            id: span.arg("id").unwrap_or(0),
            name: span.name.clone(),
            start_nanos: span.start.as_nanos(),
            end_nanos: span.end.as_nanos(),
            ok: span.arg("ok") == Some(1),
            breakdown,
        });
    }
    Profile {
        critical_path: critical_path(&stitcher),
        ops,
    }
}

/// Backward walk from the last run interval: paint the current process's
/// run time, then follow the flow that woke it (interconnect), or fall
/// back to the gap since its previous run (timeout backoff). Whatever the
/// walk cannot reach is reported untraced, so the total is always exactly
/// the makespan.
fn critical_path(stitcher: &Stitcher<'_>) -> CriticalPath {
    // The run that ends last; the lowest pid when several end together.
    let end = stitcher
        .runs
        .iter()
        .filter_map(|(&pid, runs)| Some((runs.by_end.last()?.0, std::cmp::Reverse(pid))))
        .max();
    let Some((mut t, std::cmp::Reverse(mut pid))) = end else {
        return CriticalPath::default();
    };
    let makespan = t;
    let mut bd = Breakdown::default();
    let mut hops = 0usize;
    let mut visited_flows: FixedSet<u64> = FixedSet::default();
    // Zero-latency message cycles at one timestamp cannot loop forever:
    // each flow edge is crossed at most once, and every other step moves
    // strictly backward. The cap is belt and braces.
    let cap = stitcher.data.flows.len() + stitcher.data.spans.len() + 1024;
    for _ in 0..cap {
        if t == 0 {
            break;
        }
        let Some((rs, _)) = stitcher.run_covering(pid, t) else {
            // A gap (e.g. the walk landed between runs): skip back to the
            // previous run, charging the unexplained gap.
            match stitcher.run_end_before(pid, t) {
                Some(prev_end) => {
                    bd.add(Category::Untraced, t - prev_end);
                    t = prev_end;
                    continue;
                }
                None => break,
            }
        };
        stitcher.paint_pid_interval(pid, rs, t, &mut bd);
        t = rs;
        if t == 0 {
            break;
        }
        // Why did this run start? A message (or spawn) delivered exactly
        // at its start is the cause; follow it back to the sender.
        match stitcher.waking_flow(pid, t, &visited_flows) {
            Some((flow, from, sent)) => {
                visited_flows.insert(flow);
                bd.add(Category::Interconnect, t - sent);
                hops += 1;
                pid = from;
                t = sent;
            }
            None => match stitcher.run_end_before(pid, t) {
                // No flow: the process woke itself (a retry timeout or a
                // delay that outlived its run interval).
                Some(prev_end) => {
                    bd.add(Category::RetryBackoff, t - prev_end);
                    t = prev_end;
                }
                None => break,
            },
        }
    }
    // The stretch before the walk's horizon (host-spawned process start,
    // or the safety cap) is unexplained by construction.
    bd.add(Category::Untraced, t);
    debug_assert_eq!(bd.total(), makespan, "walk must partition the makespan");
    CriticalPath {
        makespan_nanos: makespan,
        breakdown: bd,
        hops,
    }
}

/// Audits the causality DAG: every successful client op must stitch to a
/// service span, reach it through a request-leg flow, and return through
/// a reply-leg flow.
///
/// # Errors
///
/// A description of every broken op (capped at ten), or `Ok` when the
/// DAG closes.
pub fn validate_causality(data: &TraceData) -> Result<(), String> {
    let stitcher = Stitcher::build(data);
    let mut errors = Vec::new();
    for (idx, span) in data.spans.iter().enumerate() {
        if span.cat != "client" || span.arg("ok") != Some(1) {
            continue;
        }
        if errors.len() >= 10 {
            break;
        }
        let id = span.arg("id").unwrap_or(0);
        let server = span.arg("server").unwrap_or(0) as usize;
        let (s, e) = (span.start.as_nanos(), span.end.as_nanos());
        let (svc_s, svc_e) = match stitcher.service_of(idx) {
            Some(ServiceRef::Lfs { svc: Some(svc), .. }) | Some(ServiceRef::Bridge { svc }) => {
                let svc = &data.spans[svc];
                (svc.start.as_nanos(), svc.end.as_nanos())
            }
            Some(ServiceRef::Lfs { svc: None, .. }) => {
                errors.push(format!(
                    "{} id {id} (pid {}): queue-wait span has no service span",
                    span.name, span.pid
                ));
                continue;
            }
            None => {
                errors.push(format!(
                    "{} id {id} (pid {}): no service span on server pid {server}",
                    span.name, span.pid
                ));
                continue;
            }
        };
        if stitcher.recv_between(span.pid, server, s, svc_s).is_none() {
            errors.push(format!(
                "{} id {id} (pid {}): no request flow reaches server pid {server}",
                span.name, span.pid
            ));
            continue;
        }
        if stitcher.recv_between(server, span.pid, svc_e, e).is_none() {
            errors.push(format!(
                "{} id {id} (pid {}): no reply flow returns from server pid {server}",
                span.name, span.pid
            ));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

/// Serialises a breakdown as a JSON object keyed by category label.
pub(crate) fn breakdown_json(out: &mut String, bd: &Breakdown) {
    out.push('{');
    let mut first = true;
    for (cat, nanos) in bd.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        write_str(out, cat.label());
        let _ = write!(out, ":{nanos}");
    }
    out.push('}');
}

/// Renders a breakdown as an aligned two-column ASCII table with percent
/// of `total` (rows with zero nanos are skipped).
pub(crate) fn breakdown_table(out: &mut String, bd: &Breakdown, total: u64) {
    for (cat, nanos) in bd.iter() {
        if nanos == 0 {
            continue;
        }
        let pct = if total == 0 {
            0.0
        } else {
            nanos as f64 * 100.0 / total as f64
        };
        let _ = writeln!(out, "  {:<16} {:>16} ns  {:>6.2}%", cat.label(), nanos, pct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::TraceCollector;
    use parsim::{SimConfig, SimDuration, Simulation};

    fn traced_echo_run() -> TraceData {
        let collector = TraceCollector::install();
        let mut sim = Simulation::new(SimConfig {
            tracer: Some(collector.as_tracer()),
            ..SimConfig::default()
        });
        let node = sim.add_node("n0");
        let echo = sim.spawn(node, "echo", |ctx| loop {
            let (from, n) = ctx.recv_as::<u64>();
            ctx.delay(SimDuration::from_micros(5));
            ctx.send(from, n + 1);
        });
        sim.block_on(node, "main", move |ctx| {
            for i in 0..3u64 {
                ctx.send(echo, i);
                let (_, _reply) = ctx.recv_as::<u64>();
            }
        });
        collector.take()
    }

    #[test]
    fn critical_path_partitions_the_makespan() {
        let data = traced_echo_run();
        let p = profile(&data);
        assert_eq!(
            p.critical_path.breakdown.total(),
            p.critical_path.makespan_nanos
        );
        assert!(p.critical_path.makespan_nanos > 0);
        assert!(p.critical_path.hops > 0, "echo round trips cross flows");
        // Interconnect + compute explain the path; nothing big untraced.
        assert!(
            p.critical_path.breakdown.get(Category::Untraced) == 0,
            "fully message-driven run leaves no untraced path time"
        );
    }

    #[test]
    fn spawn_flows_reach_spawned_processes() {
        let collector = TraceCollector::install();
        let mut sim = Simulation::new(SimConfig {
            tracer: Some(collector.as_tracer()),
            ..SimConfig::default()
        });
        let node = sim.add_node("n0");
        sim.block_on(node, "parent", |ctx| {
            let child = ctx.spawn(ctx.node(), "child", |cctx| {
                let (from, n) = cctx.recv_as::<u64>();
                cctx.send(from, n);
            });
            ctx.send(child, 7u64);
            let (_, _r) = ctx.recv_as::<u64>();
        });
        let data = collector.take();
        // One spawn flow: zero bytes, send and recv sides both present.
        let spawn_sends: Vec<_> = data
            .flows
            .iter()
            .filter(|f| f.send && f.bytes == 0)
            .collect();
        assert!(!spawn_sends.is_empty(), "spawn emits a zero-byte flow");
        for send in spawn_sends {
            assert!(
                data.flows.iter().any(|f| !f.send && f.id == send.id),
                "spawn flow {} has a recv side",
                send.id
            );
        }
    }

    #[test]
    fn breakdown_sums_are_exact() {
        let mut bd = Breakdown::default();
        bd.add(Category::DiskPosition, 30);
        bd.add(Category::DiskTransfer, 70);
        assert_eq!(bd.total(), 100);
        assert_eq!(bd.get(Category::DiskPosition), 30);
        let mut other = Breakdown::default();
        other.add(Category::Untraced, 1);
        bd.merge(&other);
        assert_eq!(bd.total(), 101);
    }

    #[test]
    fn validate_causality_accepts_the_empty_trace() {
        assert!(validate_causality(&TraceData::default()).is_ok());
    }
}
