//! A request in the queue: per-client lanes, the schedulable prefix the
//! disk policy may reorder, and the track estimate it orders by.

use super::protocol::{LfsOp, LfsRequest};
use crate::fs::Efs;
use crate::layout::LfsFileId;
use parsim::{FixedMap, ProcId, SimTime};
use simdisk::{BlockDevice, RequestQueue, SchedConfig};
use std::collections::VecDeque;

/// One admitted request parked in the scheduler.
pub(super) struct Queued {
    pub(super) req: LfsRequest,
    pub(super) from: ProcId,
    pub(super) delivered_at: SimTime,
    /// Already handed to the policy queue.
    offered: bool,
}

/// Pending-request bookkeeping for a scheduled LFS server.
///
/// Requests are admitted into per-client *lanes* (arrival order) and only
/// a lane's schedulable prefix is exposed to the policy queue: at most one
/// op per (client, file) chain, and nothing past a file-less barrier op
/// (Sync, DiskStats). Reordering is therefore invisible to any single
/// client — its operations on one file, and around barriers, complete in
/// the order it issued them.
pub(super) struct SchedState {
    sched: RequestQueue<u64>,
    /// Every admitted, not-yet-serviced request, indexed by
    /// `seq - window_base`; `None` once served. Sequence numbers are dense
    /// and requests leave in roughly arrival order, so the window stays as
    /// short as the queue is deep.
    window: VecDeque<Option<Queued>>,
    window_base: u64,
    /// Live entries in `window`.
    pub(super) pending: usize,
    /// Per-client arrival order: (seq, target file; `None` = barrier). A
    /// drained lane keeps its (empty) queue for the client's next request.
    lanes: FixedMap<ProcId, VecDeque<(u64, Option<LfsFileId>)>>,
    /// Scratch for per-op service times within one batch, flushed to the
    /// telemetry registry at batch end (kept here so the armed hot path
    /// never allocates).
    pub(super) served_scratch: Vec<u64>,
}

impl SchedState {
    pub(super) fn new(config: SchedConfig) -> Self {
        SchedState {
            sched: RequestQueue::new(config),
            window: VecDeque::new(),
            window_base: 0,
            pending: 0,
            lanes: FixedMap::default(),
            served_scratch: Vec::new(),
        }
    }

    pub(super) fn has_work(&self) -> bool {
        self.pending > 0
    }

    /// Admits one request and refreshes its client's schedulable prefix.
    pub(super) fn admit<D: BlockDevice>(
        &mut self,
        efs: &Efs<D>,
        req: LfsRequest,
        from: ProcId,
        at: SimTime,
    ) {
        let seq = self.window_base + self.window.len() as u64;
        let key = req.cmd.file();
        self.window.push_back(Some(Queued {
            req,
            from,
            delivered_at: at,
            offered: false,
        }));
        self.pending += 1;
        self.lanes.entry(from).or_default().push_back((seq, key));
        self.offer_lane(efs, from);
    }

    /// Pushes a lane's newly schedulable requests into the policy queue:
    /// the head of each (client, file) chain, up to the first barrier.
    pub(super) fn offer_lane<D: BlockDevice>(&mut self, efs: &Efs<D>, client: ProcId) {
        let Some(lane) = self.lanes.get(&client) else {
            return;
        };
        for (i, &(seq, key)) in lane.iter().enumerate() {
            let schedulable = match key {
                // A barrier is schedulable only once it is the oldest
                // pending op of its client, and blocks everything behind
                // it.
                None => i == 0,
                // Lanes are a few entries long: looking back beats keeping
                // a set of the files seen.
                Some(file) => !lane.iter().take(i).any(|&(_, k)| k == Some(file)),
            };
            if schedulable {
                let q = self.window[(seq - self.window_base) as usize]
                    .as_mut()
                    .expect("lane entries are queued");
                if !q.offered {
                    q.offered = true;
                    self.sched.push(track_hint(efs, &q.req.cmd), seq);
                }
            }
            if key.is_none() {
                break;
            }
        }
    }

    /// Removes and returns the request the policy serves next.
    pub(super) fn take_next<D: BlockDevice>(&mut self, efs: &Efs<D>) -> Option<Queued> {
        let (_, seq) = self.sched.pop(efs.disk().head_track())?;
        let q = self.window[(seq - self.window_base) as usize]
            .take()
            .expect("scheduled request queued");
        self.pending -= 1;
        while let Some(None) = self.window.front() {
            self.window.pop_front();
            self.window_base += 1;
        }
        let lane = self.lanes.get_mut(&q.from).expect("lane exists");
        let pos = lane
            .iter()
            .position(|&(s, _)| s == seq)
            .expect("request in its lane");
        lane.remove(pos);
        Some(q)
    }

    /// Drains every pending request in arrival order (fail-stop flush).
    pub(super) fn drain_all(&mut self) -> Vec<Queued> {
        self.window_base += self.window.len() as u64;
        self.pending = 0;
        self.lanes.clear();
        while self.sched.pop(0).is_some() {}
        self.window.drain(..).flatten().collect()
    }
}

/// Estimates the disk track a request will touch, for scheduling. Costs
/// nothing: uses only the client's address hint, the in-memory link
/// cache, and the current head position — never the media.
fn track_hint<D: BlockDevice>(efs: &Efs<D>, op: &LfsOp) -> u32 {
    let geometry = efs.disk().geometry();
    let addr = match op {
        LfsOp::Read { file, block, hint }
        | LfsOp::Write {
            file, block, hint, ..
        } => hint
            .or_else(|| efs.link_addr(*file, *block))
            .or_else(|| efs.link_addr(*file, block.saturating_sub(1))),
        LfsOp::ReadRun {
            file, first, hint, ..
        }
        | LfsOp::WriteRun {
            file, first, hint, ..
        } => hint
            .or_else(|| efs.link_addr(*file, *first))
            .or_else(|| efs.link_addr(*file, first.saturating_sub(1))),
        // Metadata ops work against the directory and bitmap at the front
        // of the disk.
        LfsOp::Create { .. }
        | LfsOp::Delete { .. }
        | LfsOp::Stat { .. }
        | LfsOp::Sync
        | LfsOp::Fsck { .. }
        | LfsOp::Prepare { .. }
        | LfsOp::Decide { .. } => {
            return 0;
        }
        // A pure control query touches no media: wherever the head is.
        LfsOp::DiskStats | LfsOp::ListFiles | LfsOp::GetTelemetry => {
            return efs.disk().head_track()
        }
    };
    match addr {
        Some(a) => geometry.track_of(a),
        None => efs.disk().head_track(),
    }
}
