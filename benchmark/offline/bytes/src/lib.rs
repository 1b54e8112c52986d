//! Offline stand-in for `bytes` 1.x — see `../README.md`.
//!
//! `Bytes` is a reference-counted immutable buffer (clone is a pointer
//! copy, like the published crate — the DFS clones every blob it serves);
//! `BytesMut` is a growable buffer; `Buf`/`BufMut` carry the little-endian
//! cursor helpers the repository's codecs call.

use std::ops::Deref;
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// A cheaply cloneable immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    /// Read cursor: `Buf::advance` on an owned `Bytes` moves it forward.
    start: usize,
}

impl Bytes {
    /// The empty buffer.
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Wraps a static slice without copying.
    pub const fn from_static(b: &'static [u8]) -> Self {
        Bytes {
            repr: Repr::Static(b),
            start: 0,
        }
    }

    /// Copies `b` into a fresh buffer.
    pub fn copy_from_slice(b: &[u8]) -> Self {
        Bytes::from(b.to_vec())
    }

    fn as_slice(&self) -> &[u8] {
        let all: &[u8] = match &self.repr {
            Repr::Static(b) => b,
            Repr::Shared(v) => v,
        };
        &all[self.start..]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            repr: Repr::Shared(Arc::new(v)),
            start: 0,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Self {
        Bytes::from_static(b)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// A growable byte buffer.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Converts into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Appends `b`.
    pub fn extend_from_slice(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({} bytes)", self.buf.len())
    }
}

macro_rules! buf_get {
    ($($name:ident -> $t:ty),*) => {$(
        /// Reads one little-endian value and advances.
        ///
        /// # Panics
        /// Panics if fewer bytes remain than the value needs.
        fn $name(&mut self) -> $t {
            const N: usize = std::mem::size_of::<$t>();
            let mut raw = [0u8; N];
            raw.copy_from_slice(&self.chunk()[..N]);
            self.advance(N);
            <$t>::from_le_bytes(raw)
        }
    )*};
}

/// A read cursor over contiguous bytes.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skips `n` bytes.
    fn advance(&mut self, n: usize);

    /// True while unread bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte and advances.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    buf_get!(get_u16_le -> u16, get_u32_le -> u32, get_u64_le -> u64, get_i64_le -> i64,
             get_f32_le -> f32, get_f64_le -> f64);

    /// Fills `dst` from the cursor and advances.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end");
        self.start += n;
    }
}

macro_rules! buf_put {
    ($($name:ident <- $t:ty),*) => {$(
        /// Appends one little-endian value.
        fn $name(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

/// An append cursor.
pub trait BufMut {
    /// Appends `b`.
    fn put_slice(&mut self, b: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    buf_put!(put_u16_le <- u16, put_u32_le <- u32, put_u64_le <- u64, put_i64_le <- i64,
             put_f32_le <- f32, put_f64_le <- f64);
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_little_endian_values() {
        let mut b = BytesMut::with_capacity(32);
        b.put_slice(b"SG");
        b.put_u8(7);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u64_le(u64::MAX - 1);
        b.put_f32_le(1.5);
        let frozen = b.freeze();
        let copy = frozen.clone();
        assert_eq!(frozen, copy);
        let mut r: &[u8] = &frozen;
        assert_eq!(&r[..2], b"SG");
        r.advance(2);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert_eq!(r.get_f32_le(), 1.5);
        assert!(!r.has_remaining());
    }

    #[test]
    fn owned_bytes_cursor_advances() {
        let mut b = Bytes::from(vec![1, 0, 0, 0, 9]);
        assert_eq!(b.get_u32_le(), 1);
        assert_eq!(b.remaining(), 1);
        assert_eq!(&b[..], &[9]);
        assert!(Bytes::from_static(b"x").starts_with(b"x"));
    }
}
