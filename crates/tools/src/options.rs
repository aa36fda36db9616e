//! Options shared by all tools: how workers are started and joined, and
//! how their column streams batch.
//!
//! The copy tool runs in O(n/p) "plus O(log(p)) for startup and
//! completion" — achieved by fanning worker creation out through a tree
//! instead of having one process start every worker itself (the
//! improvement the paper also suggests for Create's sequential
//! initiation). The fan-out is one routine with an arity
//! ([`ToolOptions::start_arity`]); the ablation benchmark
//! `ablate_tree_start` sweeps it.

use bridge_core::BatchPolicy;
use parsim::SimDuration;

/// Tool tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToolOptions {
    /// CPU cost of creating one remote worker process (a late-1980s
    /// operating system starting a process on another node).
    pub spawn_cost: SimDuration,
    /// The k of the k-nomial tree ([`fan_groups`](bridge_core::fan_groups),
    /// Create's shape) each worker splits the workers it must start by:
    /// each group's first worker starts the rest of its group the same
    /// way before running its own body, a group of two is started as two
    /// leaves, and completions aggregate back up the same tree. The
    /// default, 2, is the binomial tree, largest subtree first (O(log p)
    /// startup); [`SERIAL_ARITY`](bridge_core::SERIAL_ARITY) has the first
    /// worker start every other one itself (O(p)).
    pub start_arity: u32,
    /// Run batching for the column streams: with [`BatchPolicy::Runs`]
    /// every reader prefetches and every writer flushes runs of up to
    /// `depth` consecutive local blocks in one LFS round trip, cutting the
    /// per-block message traffic. [`BatchPolicy::Off`] (the default)
    /// reproduces the paper's block-at-a-time protocol exactly.
    pub batch: BatchPolicy,
}

impl Default for ToolOptions {
    fn default() -> Self {
        ToolOptions {
            spawn_cost: SimDuration::from_millis(3),
            start_arity: 2,
            batch: BatchPolicy::Off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SortOptions;

    #[test]
    fn defaults_use_tree_fanout() {
        let opts = ToolOptions::default();
        assert_eq!(opts.start_arity, 2, "the paper's binary tree");
        assert!(!opts.spawn_cost.is_zero());
        assert_eq!(opts.batch, BatchPolicy::Off);
        assert_eq!(opts.batch.depth(), 1);
        let sort = SortOptions::default();
        assert_eq!(sort.local_merge_arity, 2, "the prototype's 2-way merge");
        assert_eq!(sort.tool, opts);
    }
}
