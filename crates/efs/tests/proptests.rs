//! Property-based tests: EFS behaves like a simple in-memory model under
//! arbitrary operation sequences, and its on-disk structure stays
//! consistent (fsck-clean) at every quiescent point.

use bridge_efs::{CorruptionKind, Efs, EfsConfig, EfsError, LfsFileId, EFS_PAYLOAD};
use parsim::{Ctx, SimConfig, Simulation};
use proptest::prelude::*;
use simdisk::{DiskGeometry, DiskProfile, SimDisk};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Create(u32),
    Delete(u32),
    /// Write block `existing_fraction * size` (overwrite) or append.
    Write {
        file: u32,
        append: bool,
        at: u32,
        byte: u8,
    },
    Read {
        file: u32,
        at: u32,
    },
    Stat(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Small id space so ops collide often.
    let file = 0u32..6;
    prop_oneof![
        file.clone().prop_map(Op::Create),
        file.clone().prop_map(Op::Delete),
        (file.clone(), any::<bool>(), 0u32..40, any::<u8>()).prop_map(
            |(file, append, at, byte)| Op::Write {
                file,
                append,
                at,
                byte
            }
        ),
        (file.clone(), 0u32..40).prop_map(|(file, at)| Op::Read { file, at }),
        file.prop_map(Op::Stat),
    ]
}

/// The reference model: a map from file id to its blocks' payloads.
#[derive(Default)]
struct Model {
    files: HashMap<u32, Vec<Vec<u8>>>,
}

fn payload(byte: u8) -> Vec<u8> {
    vec![byte; 100]
}

/// Runs `ops` against a fresh instance and the model side by side, then
/// hands both to `check`.
fn run_ops(ops: Vec<Op>, check: impl FnOnce(&mut Ctx, &mut Efs, &Model) + Send + 'static) {
    let mut sim = Simulation::new(SimConfig::default());
    let node = sim.add_node("n");
    sim.block_on(node, "driver", move |ctx: &mut Ctx| {
        let geometry = DiskGeometry {
            block_size: 1024,
            blocks_per_track: 8,
            tracks: 256,
        };
        let mut efs = Efs::format(
            SimDisk::new(geometry, DiskProfile::instant()),
            EfsConfig::default(),
        );
        let mut model = Model::default();

        for op in ops {
            match op {
                Op::Create(f) => {
                    let real = efs.create(ctx, LfsFileId(f));
                    match model.files.entry(f) {
                        Entry::Occupied(_) => {
                            assert!(matches!(real, Err(EfsError::FileExists(_))));
                        }
                        Entry::Vacant(slot) => {
                            real.unwrap();
                            slot.insert(Vec::new());
                        }
                    }
                }
                Op::Delete(f) => {
                    let real = efs.delete(ctx, LfsFileId(f));
                    match model.files.remove(&f) {
                        Some(blocks) => assert_eq!(real.unwrap(), blocks.len() as u32),
                        None => assert!(matches!(real, Err(EfsError::UnknownFile(_)))),
                    }
                }
                Op::Write {
                    file,
                    append,
                    at,
                    byte,
                } => {
                    let size = model.files.get(&file).map(|b| b.len() as u32);
                    let block = match (size, append) {
                        (Some(s), true) => s,
                        (Some(s), false) if s > 0 => at % s,
                        (Some(_), false) => 0, // empty file: this is an append
                        (None, _) => at,
                    };
                    let real = efs.write(ctx, LfsFileId(file), block, &payload(byte), None);
                    match model.files.get_mut(&file) {
                        Some(blocks) => {
                            let addr = real.unwrap();
                            let mut stored = payload(byte);
                            stored.resize(EFS_PAYLOAD, 0);
                            if (block as usize) < blocks.len() {
                                blocks[block as usize] = stored;
                            } else {
                                blocks.push(stored);
                            }
                            let _ = addr;
                        }
                        None => assert!(matches!(real, Err(EfsError::UnknownFile(_)))),
                    }
                }
                Op::Read { file, at } => {
                    let real = efs.read(ctx, LfsFileId(file), at, None);
                    match model.files.get(&file) {
                        Some(blocks) if (at as usize) < blocks.len() => {
                            let (data, _) = real.unwrap();
                            assert_eq!(data, blocks[at as usize]);
                        }
                        Some(_) => {
                            assert!(matches!(real, Err(EfsError::BlockOutOfRange { .. })))
                        }
                        None => assert!(matches!(real, Err(EfsError::UnknownFile(_)))),
                    }
                }
                Op::Stat(f) => {
                    let real = efs.stat(ctx, LfsFileId(f));
                    match model.files.get(&f) {
                        Some(blocks) => {
                            assert_eq!(real.unwrap().size, blocks.len() as u32)
                        }
                        None => assert!(matches!(real, Err(EfsError::UnknownFile(_)))),
                    }
                }
            }
        }

        check(ctx, &mut efs, &model);
    });
}

/// Final full cross-check and structural fsck.
fn check_against_model(ctx: &mut Ctx, efs: &mut Efs, model: &Model) {
    let expected_files = model.files.len() as u32;
    let expected_blocks: u32 = model.files.values().map(|b| b.len() as u32).sum();
    for (&f, blocks) in &model.files {
        for (i, want) in blocks.iter().enumerate() {
            let (got, _) = efs.read(ctx, LfsFileId(f), i as u32, None).unwrap();
            assert_eq!(&got, want, "file {f} block {i}");
        }
    }
    let report = efs.fsck();
    assert_eq!(report.files, expected_files);
    assert_eq!(report.blocks, expected_blocks);
    assert!(report.errors.is_empty(), "fsck errors: {:?}", report.errors);
}

/// The offline and the online check read chains through one walker, from
/// opposite sides (raw image, timed reads): on the same instance they
/// must count the same files and blocks and find the same number of
/// problems. The raw check goes first: it also rebuilds the allocator
/// from reachability, which leaves the allocator cross-check — the one
/// pass only the timed check has — nothing to add.
fn checks_agree(ctx: &mut Ctx, efs: &mut Efs, what: &str) -> usize {
    let raw = efs.fsck();
    let timed = efs.fsck_timed(ctx, false);
    assert_eq!(
        (raw.files, raw.blocks, raw.errors.len()),
        (timed.files, timed.blocks, timed.errors.len()),
        "{what}: raw found {:?}, timed found {:?}",
        raw.errors,
        timed.errors
    );
    raw.errors.len()
}

fn checks_agree_through_corruption(ctx: &mut Ctx, efs: &mut Efs, _: &Model) {
    assert_eq!(checks_agree(ctx, efs, "clean"), 0);
    // Planted one on top of the other; an instance may have no target
    // for a kind (a torn tail needs a file of two blocks).
    let mut planted = 0;
    for kind in [
        CorruptionKind::TornTail,
        CorruptionKind::OrphanBlock,
        CorruptionKind::DanglingEntry,
    ] {
        let Some(what) = efs.seed_corruption(kind) else {
            continue;
        };
        planted += usize::from(kind != CorruptionKind::OrphanBlock);
        assert_eq!(checks_agree(ctx, efs, &what), planted, "after {what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn efs_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        run_ops(ops, check_against_model);
    }

    #[test]
    fn fsck_and_fsck_timed_agree(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        run_ops(ops, checks_agree_through_corruption);
    }

    #[test]
    fn block_codec_round_trips(
        file in any::<u32>(),
        block_no in any::<u32>(),
        next in any::<u32>(),
        prev in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..=EFS_PAYLOAD),
    ) {
        use bridge_efs::{decode_block, encode_block, EfsHeader};
        use simdisk::BlockAddr;
        let header = EfsHeader {
            file: LfsFileId(file),
            block_no,
            next: BlockAddr::new(next),
            prev: BlockAddr::new(prev),
        };
        let encoded = encode_block(&header, &payload);
        let (h, p) = decode_block(&encoded.into()).unwrap();
        prop_assert_eq!(h, header);
        prop_assert_eq!(&p[..payload.len()], &payload[..]);
        prop_assert!(p[payload.len()..].iter().all(|&b| b == 0));
    }
}
