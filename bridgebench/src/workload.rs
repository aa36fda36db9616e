//! The five workloads: names, reasons, sizes and generated inputs. No
//! repository API is named here — `layers` turns a [`Kind`] into a
//! machine and drives it.

use crate::gen::{self, ChurnOp, SplitMix64};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Copy tool, 32 nodes, runs of 8.
    CopyP32,
    /// Sort tool, 8 nodes.
    SortP8,
    /// One naive client through the server, 32 nodes.
    NaiveP32,
    /// Four closed-loop clients on a 2PC + parity machine, 8 nodes.
    ChurnP8,
    /// Copy tool, 1024 nodes.
    CopyP1024,
}

impl Kind {
    /// Every workload, in the order a full pass runs them.
    pub const ALL: [Kind; 5] = [
        Kind::CopyP32,
        Kind::SortP8,
        Kind::NaiveP32,
        Kind::ChurnP8,
        Kind::CopyP1024,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CopyP32 => "copy_p32",
            Kind::SortP8 => "sort_p8",
            Kind::NaiveP32 => "naive_p32",
            Kind::ChurnP8 => "churn_p8",
            Kind::CopyP1024 => "copy_p1024",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Machine breadth (the paper's p).
    pub fn breadth(self) -> u32 {
        match self {
            Kind::CopyP32 | Kind::NaiveP32 => 32,
            Kind::SortP8 | Kind::ChurnP8 => 8,
            Kind::CopyP1024 => 1024,
        }
    }

    /// Full-scale input size: blocks (or records) in the file, or ops per
    /// client for the churn mix.
    pub fn base_size(self) -> u64 {
        match self {
            Kind::CopyP32 | Kind::SortP8 | Kind::NaiveP32 => 10_240,
            Kind::ChurnP8 => 1_500,
            Kind::CopyP1024 => 8_192,
        }
    }
}

/// Closed-loop clients in the churn mix.
pub const CHURN_CLIENTS: usize = 4;

/// What a workload feeds the system: everything `--seed` decides.
#[derive(Debug)]
pub struct Inputs {
    /// The file's records in write order (keyed for the sort).
    pub records: Vec<Vec<u8>>,
    /// One script per churn client.
    pub scripts: Vec<Vec<ChurnOp>>,
}

impl Inputs {
    /// The inputs of `kind` for `seed`, with sizes divided by `shrink`
    /// (1 = full scale; the traced pass and `--smoke` use smaller ones).
    pub fn generate(kind: Kind, seed: u64, shrink: u64) -> Inputs {
        // Each workload draws from its own stream, so adding a workload
        // never changes another's inputs.
        let mut rng = SplitMix64::new(seed ^ gen::stream_id(kind.name()));
        let base = (kind.base_size() / shrink.max(1)).max(16);
        match kind {
            Kind::CopyP32 | Kind::NaiveP32 | Kind::CopyP1024 => {
                let n = gen::jittered_size(base, &mut rng);
                Inputs {
                    records: gen::records(n, &mut rng),
                    scripts: Vec::new(),
                }
            }
            Kind::SortP8 => {
                let n = gen::jittered_size(base, &mut rng);
                Inputs {
                    records: gen::keyed_records(n, &mut rng),
                    scripts: Vec::new(),
                }
            }
            Kind::ChurnP8 => {
                // One draw for all clients: scripts of unequal length
                // would end the iteration on a tail with clients idle,
                // and the rate would follow the draw, not the system.
                let ops = gen::jittered_size(base, &mut rng) as usize;
                Inputs {
                    records: Vec::new(),
                    scripts: (0..CHURN_CLIENTS)
                        .map(|_| gen::churn_script(ops, &mut rng.fork()))
                        .collect(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn inputs_follow_the_seed_and_the_scale() {
        let a = Inputs::generate(Kind::SortP8, 1, 16);
        let b = Inputs::generate(Kind::SortP8, 1, 16);
        let c = Inputs::generate(Kind::SortP8, 2, 16);
        assert_eq!(a.records, b.records);
        assert_ne!(a.records, c.records);
        assert!(a.records.len() <= 640 && a.records.len() >= 640 - 64);
        let churn = Inputs::generate(Kind::ChurnP8, 1, 16);
        assert_eq!(churn.scripts.len(), CHURN_CLIENTS);
        // Streams are per workload: same seed, different records.
        let copy = Inputs::generate(Kind::CopyP32, 1, 16);
        let naive = Inputs::generate(Kind::NaiveP32, 1, 16);
        assert_ne!(copy.records, naive.records);
    }
}
