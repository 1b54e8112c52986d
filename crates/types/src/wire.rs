//! The one checked little-endian reader/writer behind every blob format.
//!
//! Everything a task needs moves through the shared filesystem as bytes —
//! event logs, catalogs, models, recommendation tables, the day journal —
//! and every one of those formats is written with [`Writer`] and parsed with
//! [`Reader`] (DESIGN.md §16 lists them). Two properties hold here once, by
//! construction, instead of per format by review:
//!
//! * **Reading never panics and never parses partially.** Every primitive is
//!   bounds-checked and fails with [`SigmundError::Corrupt`]`("<ctx>:
//!   <what>")`; [`Reader::bool`] rejects tags ≥ 2; [`Reader::finish`]
//!   rejects trailing bytes; lengths are bounded by the bytes actually
//!   present before anything is allocated for them.
//! * **A sealed frame rejects any truncation or bit flip.**
//!   [`Writer::seal`] appends the [`fnv1a64`] of everything before it and
//!   [`Reader::open_sealed`] verifies magic and trailer before the first
//!   field is read. The absorb step is a bijection per byte (see
//!   [`crate::hash`]), so single-byte substitutions are detected with
//!   certainty, not probability.
//!
//! Lengths are `u32` on the wire. [`Writer::len`] is the single overflow
//! policy: it saturates at `u32::MAX`, writes no more than it announced and
//! latches [`Writer::overflow`]. The one fallible writer (the day journal)
//! turns the latch into an error; the infallible ones produce a short but
//! well-formed frame, never one whose length field wrapped.

use crate::{fnv1a64, Result, SigmundError};

/// Append-only little-endian frame builder.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
    overflow: Option<usize>,
}

/// The fixed-width numbers, written bit-exactly (NaN payloads survive).
macro_rules! put_le {
    ($($name:ident)*) => {$(
        #[doc = concat!("Appends a little-endian `", stringify!($name), "`.")]
        #[inline]
        pub fn $name(&mut self, v: $name) {
            self.raw(&v.to_le_bytes());
        }
    )*};
}

impl Writer {
    /// Starts a frame with `magic` (empty for the untagged formats).
    #[must_use]
    pub fn new(magic: &[u8]) -> Self {
        Self::with_capacity(magic, 0)
    }

    /// [`Writer::new`] with room for `capacity` bytes in total.
    #[must_use]
    pub fn with_capacity(magic: &[u8], capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(capacity.max(magic.len()));
        buf.extend_from_slice(magic);
        Self {
            buf,
            overflow: None,
        }
    }

    put_le! { u8 u32 u64 f32 f64 }

    /// Appends a flag as one byte, 0 or 1.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a collection length as a `u32` and returns how many elements
    /// the caller may now write: `n`, or `u32::MAX` if `n` did not fit (in
    /// which case [`Writer::overflow`] latches).
    #[inline]
    pub fn len(&mut self, n: usize) -> usize {
        let wire = u32::try_from(n).unwrap_or_else(|_| {
            self.overflow.get_or_insert(n);
            u32::MAX
        });
        self.u32(wire);
        n.min(wire as usize)
    }

    /// Appends length-prefixed bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        let n = self.len(b.len());
        self.raw(&b[..n]);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends a length-prefixed list: the count, then `put` for each item —
    /// for no more items than [`Writer::len`] announced.
    #[inline]
    pub fn list<I>(&mut self, items: I, mut put: impl FnMut(&mut Self, I::Item))
    where
        I: ExactSizeIterator,
    {
        let n = self.len(items.len());
        for item in items.take(n) {
            put(self, item);
        }
    }

    /// Appends bytes with no length prefix (a fixed-width field, or a
    /// payload that runs to the end of the frame).
    #[inline]
    pub fn raw(&mut self, b: &[u8]) {
        // `extend_from_slice` even for one byte: `push` has its own grow
        // path, which costs an encode loop a third of its throughput.
        self.buf.extend_from_slice(b);
    }

    /// Appends a run of `f32`s with no length prefix.
    pub fn f32s(&mut self, vs: &[f32]) {
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.f32(v);
        }
    }

    /// The first length passed to [`Writer::len`] that did not fit `u32`.
    #[must_use]
    pub fn overflow(&self) -> Option<usize> {
        self.overflow
    }

    /// The finished unsealed frame.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The finished frame with its [`fnv1a64`] trailer appended.
    #[must_use]
    pub fn seal(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.u64(sum);
        self.buf
    }
}

/// Borrowed, bounds-checked little-endian cursor over untrusted bytes.
///
/// Every read takes `what`, the name of the field, and fails with
/// [`SigmundError::Corrupt`]`("<ctx>: <what>")` — never a panic — when the
/// bytes it needs are not there.
#[derive(Debug)]
pub struct Reader<'a> {
    ctx: &'static str,
    b: &'a [u8],
}

/// The fixed-width numbers, read bit-exactly.
macro_rules! get_le {
    ($($name:ident)*) => {$(
        #[doc = concat!("A little-endian `", stringify!($name), "`.")]
        #[inline]
        pub fn $name(&mut self, what: &str) -> Result<$name> {
            let Some((head, rest)) = self.b.split_first_chunk() else {
                return Err(self.corrupt(what));
            };
            self.b = rest;
            Ok($name::from_le_bytes(*head))
        }
    )*};
}

impl<'a> Reader<'a> {
    /// Opens an unsealed frame, consuming its `magic`; any other start is
    /// corrupt.
    pub fn open(ctx: &'static str, magic: &[u8], bytes: &'a [u8]) -> Result<Self> {
        let mut r = Reader { ctx, b: bytes };
        if r.raw(magic.len(), "missing magic")? != magic {
            return Err(r.corrupt("bad magic"));
        }
        Ok(r)
    }

    /// Opens a sealed frame: checks the magic and the [`fnv1a64`] trailer
    /// over everything before it, then reads the payload between them. A
    /// short frame, a wrong magic or a checksum mismatch is corrupt — before
    /// any field is parsed.
    pub fn open_sealed(ctx: &'static str, magic: &[u8], bytes: &'a [u8]) -> Result<Self> {
        let whole = Reader { ctx, b: bytes };
        let Some((payload, trailer)) = bytes.split_last_chunk() else {
            return Err(whole.corrupt("truncated checksum"));
        };
        let r = Reader::open(ctx, magic, payload)?;
        if fnv1a64(payload) != u64::from_le_bytes(*trailer) {
            return Err(whole.corrupt("checksum mismatch"));
        }
        Ok(r)
    }

    /// A [`SigmundError::Corrupt`] in this frame's context, for the
    /// caller's own semantic checks (unknown tag, index out of range, …).
    #[cold]
    pub fn corrupt(&self, what: impl std::fmt::Display) -> SigmundError {
        SigmundError::Corrupt(format!("{}: {what}", self.ctx))
    }

    /// Bytes not yet read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.b.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn raw(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let Some((head, rest)) = self.b.split_at_checked(n) else {
            return Err(self.corrupt(what));
        };
        self.b = rest;
        Ok(head)
    }

    get_le! { u8 u32 u64 f32 f64 }

    /// A flag byte; any tag other than 0 or 1 is corrupt.
    pub fn bool(&mut self, what: &str) -> Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.corrupt(what)),
        }
    }

    /// A `u32` collection length whose elements take at least `elem_bytes`
    /// each on the wire. A count the remaining bytes cannot back is corrupt,
    /// so callers may allocate for the returned length.
    #[inline]
    pub fn len(&mut self, elem_bytes: usize, what: &str) -> Result<usize> {
        // Widening: `usize` is at least 32 bits on every supported target.
        let n = self.u32(what)? as usize;
        match n.checked_mul(elem_bytes) {
            Some(bytes) if bytes <= self.b.len() => Ok(n),
            _ => Err(self.corrupt(what)),
        }
    }

    /// A length-prefixed list: the count (bounded as in [`Reader::len`]),
    /// then that many `item`s.
    #[inline]
    pub fn list<T>(
        &mut self,
        elem_bytes: usize,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.len(elem_bytes, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8]> {
        let n = self.len(1, what)?;
        self.raw(n, what)
    }

    /// A length-prefixed string; invalid UTF-8 is corrupt.
    pub fn str(&mut self, what: &str) -> Result<String> {
        let s = self.bytes(what)?;
        String::from_utf8(s.to_vec()).map_err(|_| self.corrupt(what))
    }

    /// A run of `n` `f32`s (no length prefix): one bounds check for the
    /// whole run, so nothing is allocated for a count the bytes cannot back.
    pub fn f32s(&mut self, n: usize, what: &str) -> Result<Vec<f32>> {
        let bytes = n.checked_mul(4).ok_or_else(|| self.corrupt(what))?;
        Ok(self
            .raw(bytes, what)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Succeeds only if every byte was consumed: trailing bytes are corrupt.
    pub fn finish(self) -> Result<()> {
        if self.b.is_empty() {
            Ok(())
        } else {
            Err(self.corrupt("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitmix64;

    const MAGIC: &[u8; 4] = b"SGTT";

    /// A small frame touching every writer primitive.
    fn frame() -> Writer {
        let mut w = Writer::new(MAGIC);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f32(-0.0);
        w.f64(f64::from_bits(0x7FF8_0000_0000_0001));
        w.bool(true);
        w.str("päth");
        w.bytes(&[1, 2, 3]);
        w.raw(&[9, 9]);
        assert_eq!(w.len(2), 2);
        w.f32s(&[1.5, f32::INFINITY]);
        assert_eq!(w.overflow(), None);
        w
    }

    /// Reads [`frame`] back in full, checking every value.
    fn read(mut r: Reader) -> Result<()> {
        assert_eq!(r.u8("u8")?, 7);
        assert_eq!(r.u32("u32")?, 0xDEAD_BEEF);
        assert_eq!(r.u64("u64")?, u64::MAX - 1);
        assert_eq!(r.f32("f32")?.to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64("f64")?.to_bits(), 0x7FF8_0000_0000_0001);
        assert!(r.bool("bool")?);
        assert_eq!(r.str("str")?, "päth");
        assert_eq!(r.bytes("bytes")?, &[1, 2, 3]);
        assert_eq!(r.raw(2, "raw")?, &[9, 9]);
        let n = r.len(4, "len")?;
        assert_eq!(r.f32s(n, "f32s")?, vec![1.5, f32::INFINITY]);
        r.finish()
    }

    fn is_corrupt<T>(r: Result<T>) -> bool {
        matches!(r, Err(SigmundError::Corrupt(_)))
    }

    #[test]
    fn frames_reject_every_prefix_trailing_byte_and_sealed_bit_flip() {
        let plain = frame().finish();
        let sealed = frame().seal();
        assert_eq!(sealed[..plain.len()], plain[..]);
        assert_eq!(sealed[plain.len()..], fnv1a64(&plain).to_le_bytes());
        let open_plain = |b: &[u8]| Reader::open("test", MAGIC, b).and_then(read);
        let open_sealed = |b: &[u8]| Reader::open_sealed("test", MAGIC, b).and_then(read);
        for (bytes, open) in [
            (&plain, &open_plain as &dyn Fn(&[u8]) -> Result<()>),
            (&sealed, &open_sealed),
        ] {
            open(bytes).unwrap();
            for cut in 0..bytes.len() {
                assert!(is_corrupt(open(&bytes[..cut])), "prefix {cut} accepted");
            }
            let mut bad = bytes.clone();
            bad[0] ^= 1;
            assert!(is_corrupt(open(&bad)), "bad magic accepted");
            bad[0] ^= 1;
            bad.push(0);
            assert!(is_corrupt(open(&bad)), "trailing byte accepted");
        }
        // The trailer covers every bit of a sealed frame.
        let mut bad = sealed.clone();
        for i in 0..bad.len() {
            for bit in 0..8 {
                bad[i] ^= 1 << bit;
                assert!(is_corrupt(open_sealed(&bad)), "byte {i} bit {bit} accepted");
                bad[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn errors_name_context_and_field_and_bad_tags_are_refused() {
        let err = Reader::open("ctx", b"", &[1, 2]).unwrap().u32("day");
        assert_eq!(err, Err(SigmundError::Corrupt("ctx: day".into())));
        let mut r = Reader::open("ctx", b"", &[2, 1, 0, 0, 0, 0xFF]).unwrap();
        assert!(is_corrupt(r.bool("flag")), "tags >= 2 are refused");
        assert!(is_corrupt(r.str("not utf-8")));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn lengths_the_bytes_cannot_back_are_refused_before_allocation() {
        // Announces u32::MAX elements with four bytes behind it.
        let mut w = Writer::new(b"");
        w.u32(u32::MAX);
        w.u32(0);
        let bytes = w.finish();
        let open = || Reader::open("test", b"", &bytes).unwrap();
        assert!(is_corrupt(open().len(1, "len")));
        assert!(is_corrupt(open().bytes("bytes")));
        assert!(is_corrupt(open().len(usize::MAX, "overflowing")));
        assert!(is_corrupt(open().f32s(3, "f32s")));
        assert!(is_corrupt(open().f32s(usize::MAX, "overflowing")));
        assert_eq!(open().f32s(2, "f32s").map(|v| v.len()), Ok(2));
    }

    #[test]
    fn writer_len_saturates_and_latches_instead_of_wrapping() {
        let mut w = Writer::new(b"");
        assert_eq!(w.len(5), 5);
        assert_eq!(w.overflow(), None);
        let Ok(huge) = usize::try_from(u64::from(u32::MAX) + 5) else {
            return; // a 32-bit `usize` cannot overflow the wire field
        };
        assert_eq!(w.len(huge), u32::MAX as usize);
        w.len(huge + 1);
        assert_eq!(w.overflow(), Some(huge), "the first overflow is kept");
        assert_eq!(w.finish()[4..8], u32::MAX.to_le_bytes());
    }

    #[test]
    fn reader_primitives_never_panic_on_any_input() {
        // Seeded garbage through every primitive, from every starting
        // point in the cycle: only termination without a panic is asserted.
        for seed in 0..64u64 {
            let len = (splitmix64(seed) % 48) as usize;
            let bytes: Vec<u8> = (0..len as u64)
                .map(|i| splitmix64(seed << 8 | i).to_le_bytes()[0])
                .collect();
            drop(Reader::open_sealed("fuzz", &bytes[..len.min(2)], &bytes));
            for start in 0..11 {
                let mut r = Reader::open("fuzz", b"", &bytes).unwrap();
                for step in start..start + 24 {
                    match step % 11 {
                        0 => drop(r.u8("x")),
                        1 => drop(r.u32("x")),
                        2 => drop(r.u64("x")),
                        3 => drop(r.f32("x")),
                        4 => drop(r.f64("x")),
                        5 => drop(r.bool("x")),
                        6 => drop(r.len(3, "x")),
                        7 => drop(r.str("x")),
                        8 => drop(r.bytes("x")),
                        9 => drop(r.raw(step, "x")),
                        _ => drop(r.f32s(step, "x")),
                    }
                }
                drop(r.finish());
            }
        }
    }
}
