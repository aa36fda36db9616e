//! The one field codec under every log record.
//!
//! Both logs — the per-LFS write-ahead log and the coordinator's
//! decision log — and the frame header they share ([`crate::ring`]) are
//! sequences of little-endian fields. A record states its layout once
//! per direction as a chain of [`Writer`] calls and the matching chain
//! of [`Reader`] calls; every read is checked, so a truncated or
//! garbled record is an [`EfsError::Corrupt`] the scan can drop, never
//! a length the caller had to count by hand in front of a panicking
//! accessor.
//!
//! | field   | bytes                                   |
//! |---------|-----------------------------------------|
//! | `u8`    | 1                                       |
//! | `u32`   | 4, little-endian                        |
//! | `u64`   | 8, little-endian                        |
//! | `bytes` | `u32` length, then that many bytes      |
//! | `list`  | `u32` count, then that many items       |
//! | `raw`   | exactly the bytes given, no length      |

use crate::error::EfsError;

/// Appends fields to a byte vector.
#[derive(Debug)]
pub struct Writer<'a>(&'a mut Vec<u8>);

impl<'a> Writer<'a> {
    /// A writer appending to `buf`.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Writer(buf)
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.0.push(v);
        self
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// A `u32` length, then the bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32).raw(v)
    }

    /// A `u32` count, then each item as `each` writes it.
    pub fn list<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, &T)) -> &mut Self {
        self.u32(items.len() as u32);
        for item in items {
            each(self, item);
        }
        self
    }

    /// Exactly these bytes, with no length in front.
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.0.extend_from_slice(v);
        self
    }
}

/// Consumes fields from the front of a byte slice; running out is
/// [`EfsError::Corrupt`], naming `what` was being read.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`; `what` names the structure in error text.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { buf, what }
    }

    /// [`EfsError::Corrupt`] about the structure being read.
    pub fn corrupt(&self, why: impl std::fmt::Display) -> EfsError {
        EfsError::Corrupt(format!("{}: {why}", self.what))
    }

    /// Exactly `n` bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], EfsError> {
        if self.buf.len() < n {
            return Err(self.corrupt("truncated"));
        }
        let (front, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(front)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], EfsError> {
        let mut out = [0; N];
        out.copy_from_slice(self.raw(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, EfsError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, EfsError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, EfsError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` length, then that many bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], EfsError> {
        let len = self.u32()? as usize;
        self.raw(len)
    }

    /// A `u32` count, then that many items as `each` reads them.
    pub fn list<T>(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<T, EfsError>,
    ) -> Result<Vec<T>, EfsError> {
        let count = self.u32()? as usize;
        // An item is at least a byte: a count the buffer cannot hold is
        // a lie, caught by the first short read, not by the allocator.
        let mut items = Vec::with_capacity(count.min(self.buf.len()));
        for _ in 0..count {
            items.push(each(self)?);
        }
        Ok(items)
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_and_truncation_is_corrupt_at_every_offset() {
        let mut buf = Vec::new();
        Writer::new(&mut buf)
            .u8(7)
            .u32(0xdead_beef)
            .u64(0x0123_4567_89ab_cdef)
            .bytes(b"payload")
            .list(&[3u32, 5, 8], |w, &v| {
                w.u32(v);
            })
            .raw(b"tail");
        let read = |buf: &[u8]| -> Result<(), EfsError> {
            let mut r = Reader::new(buf, "sample");
            assert_eq!(r.u8()?, 7);
            assert_eq!(r.u32()?, 0xdead_beef);
            assert_eq!(r.u64()?, 0x0123_4567_89ab_cdef);
            assert_eq!(r.bytes()?, b"payload");
            assert_eq!(r.list(|r| r.u32())?, [3, 5, 8]);
            assert_eq!(r.raw(4)?, b"tail");
            assert!(r.is_empty());
            Ok(())
        };
        read(&buf).unwrap();
        for cut in 0..buf.len() {
            let err = read(&buf[..cut]).unwrap_err();
            assert_eq!(err, EfsError::Corrupt("sample: truncated".into()), "{cut}");
        }
    }

    #[test]
    fn an_absurd_count_is_corrupt_not_an_allocation() {
        let mut buf = Vec::new();
        Writer::new(&mut buf).u32(u32::MAX).u32(1);
        let mut r = Reader::new(&buf, "list");
        assert!(matches!(r.list(|r| r.u64()), Err(EfsError::Corrupt(_))));
    }
}
