//! The one field codec under every log record.
//!
//! Both logs' records and the frame header they share ([`crate::ring`])
//! are sequences of little-endian fields. A type states its layout once,
//! as a [`Wire`] impl (or a row of the crate's `wire_enum!` table),
//! and every read is checked: a truncated or garbled record is an
//! [`EfsError::Corrupt`] the scan can drop, never a length counted by
//! hand in front of a panicking accessor.
//!
//! | type            | bytes                                  |
//! |-----------------|----------------------------------------|
//! | `u8` `u32` `u64`| 1, 4, 8, little-endian                 |
//! | `bool`          | one byte, zero or not                  |
//! | `Bytes`         | `u32` length, then that many bytes     |
//! | `Vec<T>`        | `u32` count, then that many `T`        |

use crate::error::EfsError;
use bytes::Bytes;

/// A value with one wire layout, written and read by the same impl.
pub trait Wire: Sized {
    /// Appends the value.
    fn put(&self, w: &mut Writer<'_>);
    /// Consumes the value.
    ///
    /// # Errors
    ///
    /// [`EfsError::Corrupt`] when the bytes run out or make no sense.
    fn get(r: &mut Reader<'_>) -> Result<Self, EfsError>;
}

/// Appends fields to a byte vector — or, with no vector, only counts
/// them, so a size is read off the layout instead of restated beside it.
#[derive(Debug)]
pub struct Writer<'a> {
    buf: Option<&'a mut Vec<u8>>,
    len: usize,
}

impl<'a> Writer<'a> {
    /// A writer appending to `buf`.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Writer {
            buf: Some(buf),
            len: 0,
        }
    }

    /// The bytes `fill` would write, without writing (or copying) them.
    pub fn measure(fill: impl FnOnce(&mut Writer<'_>)) -> usize {
        let mut w = Writer { buf: None, len: 0 };
        fill(&mut w);
        w.len
    }

    /// What `fill` writes, in a vector allocated once at that size.
    pub fn encode(fill: impl Fn(&mut Writer<'_>)) -> Vec<u8> {
        let mut buf = Vec::with_capacity(Writer::measure(&fill));
        fill(&mut Writer::new(&mut buf));
        buf
    }

    /// One value in its wire layout.
    pub fn put(&mut self, v: &impl Wire) -> &mut Self {
        v.put(self);
        self
    }

    /// A `u32` count, then each item ([`Vec`]'s layout, from a slice).
    pub fn list(&mut self, items: &[impl Wire]) -> &mut Self {
        self.put(&(items.len() as u32));
        items.iter().fold(self, |w, item| w.put(item))
    }

    /// Exactly these bytes, with no length in front.
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.len += v.len();
        if let Some(buf) = &mut self.buf {
            buf.extend_from_slice(v);
        }
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

    /// One value in its wire layout.
    pub fn get<T: Wire>(&mut self) -> Result<T, EfsError> {
        T::get(self)
    }

    /// Whether every byte has been read: a layout that ends in a run of
    /// entries reads until this holds.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
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
}

macro_rules! wire_int {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            fn put(&self, w: &mut Writer<'_>) {
                w.raw(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, EfsError> {
                let mut bytes = [0; size_of::<$int>()];
                bytes.copy_from_slice(r.raw(size_of::<$int>())?);
                Ok(<$int>::from_le_bytes(bytes))
            }
        }
    )*};
}
wire_int!(u8, u32, u64);

impl Wire for bool {
    fn put(&self, w: &mut Writer<'_>) {
        w.put(&u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, EfsError> {
        Ok(r.get::<u8>()? != 0)
    }
}

impl Wire for Bytes {
    fn put(&self, w: &mut Writer<'_>) {
        w.put(&(self.len() as u32)).raw(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, EfsError> {
        let len = r.get::<u32>()? as usize;
        r.raw(len).map(Bytes::copy_from_slice)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer<'_>) {
        w.list(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, EfsError> {
        let count = r.get::<u32>()? as usize;
        // An item is at least a byte: a count the buffer cannot hold is
        // a lie, caught by the first short read, not by the allocator.
        let mut items = Vec::with_capacity(count.min(r.buf.len()));
        for _ in 0..count {
            items.push(r.get()?);
        }
        Ok(items)
    }
}

/// States an enum's wire layout once for both directions: per variant,
/// its tag byte and its fields in wire order.
macro_rules! wire_enum {
    ($ty:ident { $($tag:literal => $variant:ident { $($field:ident),* }),+ $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn put(&self, w: &mut $crate::codec::Writer<'_>) {
                match self {$(
                    $ty::$variant { $($field),* } => {
                        w.put(&($tag as u8))$(.put($field))*;
                    }
                )+}
            }
            fn get(r: &mut $crate::codec::Reader<'_>) -> Result<Self, $crate::EfsError> {
                match r.get::<u8>()? {
                    $($tag => Ok($ty::$variant { $($field: r.get()?),* }),)+
                    tag => Err(r.corrupt(format_args!("unknown tag {tag}"))),
                }
            }
        }
    };
}
pub(crate) use wire_enum;
