//! On-disk block layout.
//!
//! Every data block carries a 24-byte EFS header followed by 1000 payload
//! bytes, matching the paper: "an additional 40 bytes for Bridge-related
//! header information have been taken from the data storage area of each
//! block (leaving 960 bytes for data)" — the Bridge header lives *inside*
//! the EFS payload, so from this crate's point of view a block holds
//! 1000 opaque bytes. "The pointers in the original 24 byte EFS header lead
//! to blocks that are interpreted as adjacent within the local context."

use crate::error::EfsError;
use bytes::{Buf, BufMut, Bytes};
use simdisk::BlockAddr;

/// Bytes in a physical block.
pub const BLOCK_SIZE: usize = 1024;
/// Bytes of EFS header at the front of every data block.
pub const EFS_HEADER_SIZE: usize = 24;
/// Payload bytes available to EFS clients (Bridge) per block.
pub const EFS_PAYLOAD: usize = BLOCK_SIZE - EFS_HEADER_SIZE;

/// Magic tag of a live data block.
pub const BLOCK_MAGIC: u32 = 0xEF5_B10C;

/// The numeric name of a local (EFS) file. "File names are numbers that
/// are used to hash into a directory."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LfsFileId(pub u32);

impl std::fmt::Display for LfsFileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lfs-file{}", self.0)
    }
}

/// The 24-byte header at the front of every EFS data block.
///
/// "In addition to its neighbor pointers, each block also contains its file
/// number and block number."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EfsHeader {
    /// Owning file.
    pub file: LfsFileId,
    /// This block's local block number within the file.
    pub block_no: u32,
    /// Disk address of the next block in the file (circularly).
    pub next: BlockAddr,
    /// Disk address of the previous block in the file (circularly).
    pub prev: BlockAddr,
}

impl EfsHeader {
    fn checksum(&self) -> u32 {
        BLOCK_MAGIC
            ^ self.file.0
            ^ self.block_no.rotate_left(8)
            ^ self.next.index().rotate_left(16)
            ^ self.prev.index().rotate_left(24)
    }
}

/// Encodes a data block: header, checksum, payload (zero-padded to 1000
/// bytes).
///
/// # Panics
///
/// Panics if `payload` exceeds [`EFS_PAYLOAD`] bytes.
pub fn encode_block(header: &EfsHeader, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= EFS_PAYLOAD,
        "payload of {} bytes exceeds {EFS_PAYLOAD}",
        payload.len()
    );
    let mut buf = Vec::with_capacity(BLOCK_SIZE);
    buf.put_u32_le(BLOCK_MAGIC);
    buf.put_u32_le(header.file.0);
    buf.put_u32_le(header.block_no);
    buf.put_u32_le(header.next.index());
    buf.put_u32_le(header.prev.index());
    buf.put_u32_le(header.checksum());
    buf.put_slice(payload);
    buf.resize(BLOCK_SIZE, 0);
    buf
}

/// Decodes and validates a data block's 24-byte header without touching
/// the payload (no allocation).
///
/// # Errors
///
/// Returns [`EfsError::Corrupt`] if the block is not a live data block
/// (wrong magic or bad checksum) or is the wrong length.
pub fn decode_header(bytes: &[u8]) -> Result<EfsHeader, EfsError> {
    if bytes.len() != BLOCK_SIZE {
        return Err(EfsError::Corrupt(format!(
            "block is {} bytes, expected {BLOCK_SIZE}",
            bytes.len()
        )));
    }
    let mut buf = bytes;
    let magic = buf.get_u32_le();
    if magic != BLOCK_MAGIC {
        return Err(EfsError::Corrupt(format!("bad block magic {magic:#x}")));
    }
    let header = EfsHeader {
        file: LfsFileId(buf.get_u32_le()),
        block_no: buf.get_u32_le(),
        next: BlockAddr::new(buf.get_u32_le()),
        prev: BlockAddr::new(buf.get_u32_le()),
    };
    let checksum = buf.get_u32_le();
    if checksum != header.checksum() {
        return Err(EfsError::Corrupt(format!(
            "header checksum mismatch on {} block {}",
            header.file, header.block_no
        )));
    }
    Ok(header)
}

/// Decodes a data block into its header and 1000-byte payload. The payload
/// is an O(1) slice of the block buffer — no copy.
///
/// # Errors
///
/// Returns [`EfsError::Corrupt`] if the block is not a live data block
/// (wrong magic or bad checksum) or is the wrong length.
pub fn decode_block(bytes: &Bytes) -> Result<(EfsHeader, Bytes), EfsError> {
    let header = decode_header(bytes)?;
    Ok((header, bytes.slice(EFS_HEADER_SIZE..BLOCK_SIZE)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> EfsHeader {
        EfsHeader {
            file: LfsFileId(7),
            block_no: 3,
            next: BlockAddr::new(100),
            prev: BlockAddr::new(98),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let header = sample_header();
        let payload: Vec<u8> = (0..EFS_PAYLOAD as u32).map(|i| (i % 251) as u8).collect();
        let block = encode_block(&header, &payload);
        assert_eq!(block.len(), BLOCK_SIZE);
        assert_eq!(decode_header(&block).unwrap(), header);
        let (h, p) = decode_block(&Bytes::from(block)).unwrap();
        assert_eq!(h, header);
        assert_eq!(p, payload);
    }

    #[test]
    fn short_payload_zero_padded() {
        let block = encode_block(&sample_header(), b"hello");
        let (_, p) = decode_block(&Bytes::from(block)).unwrap();
        assert_eq!(&p[..5], b"hello");
        assert!(p[5..].iter().all(|&b| b == 0));
        assert_eq!(p.len(), EFS_PAYLOAD);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_payload_panics() {
        let _ = encode_block(&sample_header(), &vec![0u8; EFS_PAYLOAD + 1]);
    }

    #[test]
    fn corrupt_magic_detected() {
        let mut block = encode_block(&sample_header(), b"x");
        block[0] ^= 0xff;
        assert!(matches!(
            decode_block(&Bytes::from(block)),
            Err(EfsError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_pointer_detected_by_checksum() {
        let mut block = encode_block(&sample_header(), b"x");
        block[12] ^= 0x01; // flip a bit in the `next` pointer
        let err = decode_block(&Bytes::from(block)).unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    /// Nothing has written the freed-block tombstone since the sequential
    /// delete was retired; media that still carries one is simply not a
    /// live block.
    #[test]
    fn retired_tombstone_is_a_bad_magic() {
        let mut tombstone = vec![0u8; BLOCK_SIZE];
        tombstone[..4].copy_from_slice(&0xDEAD_F2EEu32.to_le_bytes());
        let err = decode_block(&Bytes::from(tombstone)).unwrap_err();
        assert!(err.to_string().contains("bad block magic"), "got: {err}");
    }

    #[test]
    fn wrong_length_rejected() {
        assert!(decode_header(&[0u8; 10]).is_err());
        assert!(decode_block(&Bytes::copy_from_slice(&[0u8; 10])).is_err());
    }

    #[test]
    fn decoded_payload_shares_the_block_buffer() {
        let block = Bytes::from(encode_block(&sample_header(), b"zero-copy"));
        let (_, p) = decode_block(&block).unwrap();
        let block_tail: &[u8] = &block[EFS_HEADER_SIZE..];
        assert!(std::ptr::eq(block_tail.as_ptr(), p.as_ptr()), "no copy");
    }
}
