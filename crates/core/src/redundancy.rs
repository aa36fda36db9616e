//! Redundancy for interleaved files.
//!
//! Section 6 of the paper: "interleaved files (like striped files and
//! storage arrays) are inherently intolerant of faults. A failure anywhere
//! in the system is fatal; it ruins every file. Replication helps, but
//! only at very high cost. Storage capacity must be doubled … One might
//! hope to reduce the amount of space required by using an
//! error-correcting scheme like that of the Connection Machine, but we see
//! no obvious way to do so in a MIMD environment with block-level
//! interleaving."
//!
//! This module implements both options the authors weighed:
//!
//! * [`Redundancy::Mirror`] — every block is written twice, on adjacent
//!   LFS positions (the 2× capacity cost the paper notes);
//! * [`Redundancy::Parity`] — the scheme the paper thought obstructed:
//!   blocks are grouped into stripes, each stripe's XOR parity stored on
//!   a rotating parity position ([`ParityLayout`]), for a capacity
//!   overhead of `g/(g−1)` and single-failure tolerance per group. (RAID
//!   level 5 was published the same year as Bridge; this is its
//!   block-interleaved MIMD realization.)

use crate::header::GlobalPtr;
use crate::ids::LfsIndex;

/// Redundancy mode of a Bridge file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Redundancy {
    /// No redundancy: any node failure ruins the file (the prototype's
    /// behaviour the paper worries about).
    #[default]
    None,
    /// Every block mirrored on the next LFS position: survives one
    /// failure at 2× capacity.
    Mirror,
    /// Rotating XOR parity over stripes of `group − 1` data blocks:
    /// survives one failure *per group* at `group/(group−1)` capacity.
    /// `group == 0` means "the file's whole breadth" (one machine-wide
    /// group); otherwise `group` must divide the breadth, partitioning
    /// the positions into `breadth / group` independent parity groups.
    Parity {
        /// Positions per parity group (data + parity); `0` = breadth.
        group: u32,
    },
}

impl Redundancy {
    /// Machine-wide rotating parity: one group spanning the file's whole
    /// breadth (`Parity { group: 0 }`).
    pub fn parity() -> Redundancy {
        Redundancy::Parity { group: 0 }
    }

    /// A small stable discriminant (0 = none, 1 = mirror, 2 = parity) —
    /// what tests and tools stamp into record payloads.
    pub fn tag(&self) -> u32 {
        match self {
            Redundancy::None => 0,
            Redundancy::Mirror => 1,
            Redundancy::Parity { .. } => 2,
        }
    }
}

/// The rotating-parity layout for breadth `p` positions partitioned into
/// `p / g` independent groups of `g` positions each (positions, not
/// machine indexes). Stripes are `g − 1` consecutive data blocks;
/// stripe `s` lands in group `s mod (p/g)`, its row within that group is
/// `r = s div (p/g)`, and its parity block sits on the row's rotating
/// hole position `r mod g`. Every position holds exactly one block (data
/// or parity) per row of its group, so all local files grow in lock
/// step. `g == p` (one group) is the classic machine-wide RAID-5
/// rotation.
///
/// A file's layout is then turned by its round-robin start
/// ([`ParityLayout::starting_at`]): every position above moves `start`
/// places along the breadth, so successive small files put their first
/// stripe's parity on successive positions instead of all on position 0.
/// Local block numbers are counted in the unturned layout, which keeps
/// them dense and every group's rows in lock step. Start 0 is the
/// unturned layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityLayout {
    breadth: u32,
    group: u32,
    start: u32,
}

impl ParityLayout {
    /// Creates the machine-wide layout: one parity group spanning all
    /// `breadth` positions.
    ///
    /// # Panics
    ///
    /// Panics if `breadth < 2` (parity needs somewhere else to stand).
    pub fn new(breadth: u32) -> Self {
        ParityLayout::grouped(breadth, breadth)
    }

    /// Creates the layout with `group`-position parity groups
    /// (`group == 0` means `breadth`).
    ///
    /// # Panics
    ///
    /// Panics if `group < 2` (after 0 → breadth normalization) or if
    /// `group` does not divide `breadth`.
    pub fn grouped(breadth: u32, group: u32) -> Self {
        let group = if group == 0 { breadth } else { group };
        assert!(group >= 2, "parity needs at least two LFS positions");
        assert!(
            breadth.is_multiple_of(group),
            "parity group ({group}) must divide the breadth ({breadth})"
        );
        ParityLayout {
            breadth,
            group,
            start: 0,
        }
    }

    /// The same layout turned by a file's round-robin `start` (taken
    /// modulo the breadth): every data and parity position moves `start`
    /// places along the breadth.
    pub fn starting_at(self, start: u32) -> Self {
        ParityLayout {
            start: start % self.breadth,
            ..self
        }
    }

    /// Positions per parity group.
    pub fn group(&self) -> u32 {
        self.group
    }

    /// Number of parity groups.
    fn group_count(&self) -> u64 {
        u64::from(self.breadth / self.group)
    }

    /// Data blocks per stripe.
    pub fn stripe_width(&self) -> u64 {
        u64::from(self.group) - 1
    }

    /// The stripe containing data block `block`.
    pub fn stripe_of(&self, block: u64) -> u64 {
        block / self.stripe_width()
    }

    /// Stripe `s`'s group ordinal and row within that group.
    fn group_row(&self, stripe: u64) -> (u64, u64) {
        (stripe % self.group_count(), stripe / self.group_count())
    }

    /// Turns an unturned position by the layout's start.
    fn turned(&self, position: u32) -> u32 {
        ((u64::from(position) + u64::from(self.start)) % u64::from(self.breadth)) as u32
    }

    /// Stripe `s`'s parity position before the turn.
    fn unturned_parity(&self, stripe: u64) -> u32 {
        let (gi, r) = self.group_row(stripe);
        (gi * u64::from(self.group) + r % u64::from(self.group)) as u32
    }

    /// Data block `block`'s position before the turn.
    fn unturned_data(&self, block: u64) -> u32 {
        let s = self.stripe_of(block);
        let (gi, r) = self.group_row(s);
        let j = (block % self.stripe_width()) as u32;
        let hole = (r % u64::from(self.group)) as u32;
        let in_group = if j < hole { j } else { j + 1 };
        (gi * u64::from(self.group)) as u32 + in_group
    }

    /// The position holding stripe `s`'s parity block.
    pub fn parity_position(&self, stripe: u64) -> u32 {
        self.turned(self.unturned_parity(stripe))
    }

    /// The position holding data block `block`.
    pub fn data_position(&self, block: u64) -> u32 {
        self.turned(self.unturned_data(block))
    }

    /// How many rows in `[0, row)` of a group put their parity on the
    /// group's position `q`.
    fn parity_count_before(&self, q: u32, row: u64) -> u64 {
        let g = u64::from(self.group);
        let n = u64::from(q);
        if row > n {
            (row - n - 1) / g + 1
        } else {
            0
        }
    }

    /// The local block index of data block `block` within its position's
    /// *data* LFS file (dense: parity blocks live in a separate file).
    pub fn data_local(&self, block: u64) -> u32 {
        let s = self.stripe_of(block);
        let (_, r) = self.group_row(s);
        let q = self.unturned_data(block) % self.group;
        (r - self.parity_count_before(q, r)) as u32
    }

    /// The full location of data block `block`, as (position, data-local).
    pub fn locate(&self, block: u64) -> GlobalPtr {
        GlobalPtr {
            lfs: LfsIndex(self.data_position(block)),
            local: self.data_local(block),
        }
    }

    /// The local index of stripe `s`'s parity block within the parity
    /// LFS file of its position.
    pub fn parity_local(&self, stripe: u64) -> u32 {
        let (_, r) = self.group_row(stripe);
        let q = self.unturned_parity(stripe) % self.group;
        self.parity_count_before(q, r) as u32
    }

    /// The data blocks of `block`'s stripe other than `block` itself,
    /// clipped to a file of `size` blocks — the peers XORed together with
    /// the parity block to reconstruct `block`.
    pub fn stripe_peers(&self, block: u64, size: u64) -> Vec<u64> {
        let s = self.stripe_of(block);
        let start = s * self.stripe_width();
        let end = ((s + 1) * self.stripe_width()).min(size);
        (start..end).filter(|&b| b != block).collect()
    }
}

/// XORs `src` into `acc` in place, growing `acc` if needed.
pub fn xor_into(acc: &mut Vec<u8>, src: &[u8]) {
    if acc.len() < src.len() {
        acc.resize(src.len(), 0);
    }
    for (a, &b) in acc.iter_mut().zip(src) {
        *a ^= b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn every_stripe_stays_inside_one_group() {
        for (p, g) in [(4u32, 2u32), (6, 3), (8, 4), (8, 2)] {
            let layout = ParityLayout::grouped(p, g);
            for s in 0..60u64 {
                let (gi, _) = layout.group_row(s);
                let lo = (gi * u64::from(g)) as u32;
                let hi = lo + g;
                let pp = layout.parity_position(s);
                assert!((lo..hi).contains(&pp), "p={p} g={g} stripe {s}");
                let mut positions: HashSet<u32> = HashSet::new();
                positions.insert(pp);
                for j in 0..layout.stripe_width() {
                    let b = s * layout.stripe_width() + j;
                    assert_eq!(layout.stripe_of(b), s);
                    let dp = layout.data_position(b);
                    assert!((lo..hi).contains(&dp), "p={p} g={g} stripe {s}");
                    positions.insert(dp);
                }
                assert_eq!(positions.len(), g as usize, "p={p} g={g} stripe {s}");
            }
        }
    }

    #[test]
    fn every_stripe_touches_every_position_once() {
        for p in [2u32, 3, 5, 8] {
            let layout = ParityLayout::new(p);
            for s in 0..40u64 {
                let mut positions: HashSet<u32> = HashSet::new();
                positions.insert(layout.parity_position(s));
                for j in 0..layout.stripe_width() {
                    let b = s * layout.stripe_width() + j;
                    assert_eq!(layout.stripe_of(b), s);
                    positions.insert(layout.data_position(b));
                }
                assert_eq!(positions.len(), p as usize, "p={p} stripe {s}");
            }
        }
    }

    #[test]
    fn data_locals_are_dense_per_position() {
        for (p, g) in [(2u32, 2u32), (4, 4), (7, 7), (6, 3), (8, 2)] {
            let layout = ParityLayout::grouped(p, g);
            let mut per_pos: HashMap<u32, Vec<u32>> = HashMap::new();
            for b in 0..(200 * layout.stripe_width()) {
                per_pos
                    .entry(layout.data_position(b))
                    .or_default()
                    .push(layout.data_local(b));
            }
            for (pos, locals) in per_pos {
                for (i, l) in locals.iter().enumerate() {
                    assert_eq!(*l as usize, i, "p={p} g={g} position {pos}");
                }
            }
        }
    }

    #[test]
    fn parity_locals_are_dense_per_position() {
        for (p, g) in [(5u32, 5u32), (6, 3), (8, 4)] {
            let layout = ParityLayout::grouped(p, g);
            let mut per_pos: HashMap<u32, Vec<u32>> = HashMap::new();
            for s in 0..100u64 {
                per_pos
                    .entry(layout.parity_position(s))
                    .or_default()
                    .push(layout.parity_local(s));
            }
            for (pos, locals) in per_pos {
                for (i, l) in locals.iter().enumerate() {
                    assert_eq!(*l as usize, i, "p={p} g={g} position {pos}");
                }
            }
        }
    }

    #[test]
    fn data_never_shares_a_position_with_its_parity() {
        for (p, g) in [(6u32, 6u32), (6, 3), (8, 2)] {
            let layout = ParityLayout::grouped(p, g);
            for b in 0..600u64 {
                let s = layout.stripe_of(b);
                assert_ne!(layout.data_position(b), layout.parity_position(s));
            }
        }
    }

    #[test]
    fn grouped_rows_fill_every_position_in_lock_step() {
        // After any whole number of rows, every position of every group
        // holds the same number of blocks (data + parity combined).
        let layout = ParityLayout::grouped(6, 3);
        let rows = 30u64;
        let stripes = rows * layout.group_count();
        let mut per_pos: HashMap<u32, u64> = HashMap::new();
        for s in 0..stripes {
            *per_pos.entry(layout.parity_position(s)).or_default() += 1;
            for j in 0..layout.stripe_width() {
                let b = s * layout.stripe_width() + j;
                *per_pos.entry(layout.data_position(b)).or_default() += 1;
            }
        }
        assert_eq!(per_pos.len(), 6);
        assert!(per_pos.values().all(|&n| n == rows));
    }

    #[test]
    fn stripe_peers_clip_at_eof() {
        let layout = ParityLayout::new(4); // stripe width 3
        assert_eq!(layout.stripe_peers(0, 10), vec![1, 2]);
        assert_eq!(layout.stripe_peers(4, 10), vec![3, 5]);
        // Last stripe of a 10-block file holds blocks 9 only.
        assert_eq!(layout.stripe_peers(9, 10), Vec::<u64>::new());
        assert_eq!(layout.stripe_peers(7, 8), vec![6]);
    }

    #[test]
    fn xor_reconstruction_identity() {
        // parity = b0 ^ b1 ^ b2  ⇒  b1 = parity ^ b0 ^ b2.
        let b0 = vec![1u8, 2, 3, 4];
        let b1 = vec![9u8, 8, 7, 6];
        let b2 = vec![0xa5u8; 4];
        let mut parity = Vec::new();
        xor_into(&mut parity, &b0);
        xor_into(&mut parity, &b1);
        xor_into(&mut parity, &b2);
        let mut rec = parity.clone();
        xor_into(&mut rec, &b0);
        xor_into(&mut rec, &b2);
        assert_eq!(rec, b1);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn parity_needs_two_positions() {
        let _ = ParityLayout::new(1);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn parity_group_must_divide_breadth() {
        let _ = ParityLayout::grouped(6, 4);
    }
}
