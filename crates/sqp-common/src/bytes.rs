//! Little-endian byte buffers for the wire codecs.
//!
//! A minimal, dependency-free stand-in for the `bytes` crate: [`BytesMut`] is
//! an append-only writer, [`Bytes`] a cheaply cloneable read cursor over
//! shared immutable storage. Only the little-endian accessors the log and
//! model codecs use are provided. Readers never panic on short input — every
//! accessor is paired with [`Bytes::remaining`] checks at the call sites, and
//! misuse panics loudly rather than reading garbage.
//!
//! The network wire protocol (`sqp-net`, see `WIRE.md`) additionally codes
//! small integers as LEB128 varints over plain `Vec<u8>` / `&[u8]` buffers —
//! plain slices rather than [`Bytes`], because a per-connection codec reuses
//! one buffer for its whole lifetime and must never reallocate on the steady
//! state path. [`put_uvarint`] / [`get_uvarint`] are those helpers.

use std::sync::Arc;

/// Shared immutable byte storage with a read cursor. Built from a
/// `Vec<u8>` without copying it.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Unread bytes left.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.end - self.start
    }

    /// True when fully consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The unread bytes as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// A sub-view of the unread bytes (shares storage).
    ///
    /// # Panics
    /// Panics when the range exceeds [`Bytes::remaining`].
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.remaining());
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Borrow the next `n` bytes and advance past them.
    ///
    /// # Panics
    /// Panics when `n` exceeds [`Bytes::remaining`].
    #[inline]
    pub fn get_slice(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.remaining(), "read past end of buffer");
        let s = &self.data[self.start..self.start + n];
        self.start += n;
        s
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.get_slice(4).try_into().unwrap())
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.get_slice(8).try_into().unwrap())
    }

    /// Read a little-endian `f64`.
    #[inline]
    pub fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.get_slice(8).try_into().unwrap())
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.remaining())
    }
}

/// Append-only byte writer.
#[derive(Default)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Writer with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append a little-endian `u32`.
    #[inline]
    pub fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    #[inline]
    pub fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f64`.
    #[inline]
    pub fn put_f64_le(&mut self, v: f64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes.
    #[inline]
    pub fn put_slice(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Make room for at least `additional` more bytes, so a writer that
    /// knows its size grows the buffer once.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// The bytes written so far (e.g. to checksum a partially built
    /// buffer before appending the checksum itself).
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// The bytes written so far, to patch in place — a length field, say,
    /// written before the payload it measures.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Finish writing, producing shareable storage (no copy).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Finish writing, taking the backing vector without copying.
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }
}

/// Append `v` as an unsigned LEB128 varint: 7 value bits per byte, low
/// group first, high bit set on every byte except the last. Values below
/// 128 cost one byte, which is what makes varints the right coding for the
/// wire protocol's counts and string lengths (see `WIRE.md`).
#[inline]
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Decode an unsigned LEB128 varint from `bytes` starting at `*at`,
/// advancing `*at` past it. Returns `None` on truncated input or on an
/// encoding longer than 10 bytes / overflowing 64 bits —
/// malformed network input must surface as a typed decode error, never a
/// panic or a silently wrapped value.
#[inline]
pub fn get_uvarint(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    loop {
        let &byte = bytes.get(*at)?;
        *at += 1;
        let group = u64::from(byte & 0x7f);
        // The 10th byte may only carry the single remaining bit (64 = 9*7 + 1).
        if shift == 63 && group > 1 {
            return None;
        }
        value |= group << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Encoded length of `v` as an unsigned LEB128 varint, in bytes.
#[inline]
pub fn uvarint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u32_le(7);
        w.put_u64_le(u64::MAX - 1);
        w.put_f64_le(0.25);
        w.put_slice(b"abc");
        let mut r = w.freeze();
        assert_eq!(r.remaining(), 4 + 8 + 8 + 3);
        assert_eq!(r.get_u32_le(), 7);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert_eq!(r.get_f64_le(), 0.25);
        assert_eq!(r.get_slice(3), b"abc");
        assert!(r.is_empty());
    }

    #[test]
    fn slicing_shares_storage() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(s.as_slice(), &[2, 3, 4]);
        assert_eq!(b.remaining(), 5); // original untouched
    }

    #[test]
    fn equality_ignores_cursor_origin() {
        let a = Bytes::from(vec![0, 1, 2]);
        let b = Bytes::from(vec![9, 0, 1, 2]).slice(1..4);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn overread_panics() {
        let mut b = Bytes::from(vec![1, 2]);
        let _ = b.get_u32_le();
    }

    #[test]
    fn uvarint_known_encodings() {
        // The WIRE.md reference table: these exact bytes are normative.
        for (value, bytes) in [
            (0u64, &[0x00][..]),
            (1, &[0x01]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (300, &[0xac, 0x02]),
            (16_384, &[0x80, 0x80, 0x01]),
            (
                u64::MAX,
                &[0xff; 9].iter().copied().chain([0x01]).collect::<Vec<_>>()[..],
            ),
        ] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, value);
            assert_eq!(buf, bytes, "encoding of {value}");
            assert_eq!(uvarint_len(value), bytes.len(), "length of {value}");
            let mut at = 0;
            assert_eq!(get_uvarint(&buf, &mut at), Some(value));
            assert_eq!(at, buf.len());
        }
    }

    #[test]
    fn uvarint_roundtrips_across_magnitudes() {
        let mut buf = Vec::new();
        let values: Vec<u64> = (0..64).map(|s| (1u64 << s).wrapping_sub(1)).collect();
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut at = 0;
        for &v in &values {
            assert_eq!(get_uvarint(&buf, &mut at), Some(v));
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn uvarint_rejects_truncation_and_overflow() {
        // Truncated: continuation bit set, then nothing.
        let mut at = 0;
        assert_eq!(get_uvarint(&[0x80], &mut at), None);
        // Empty input.
        let mut at = 0;
        assert_eq!(get_uvarint(&[], &mut at), None);
        // 11 bytes of continuation: longer than any legal u64 encoding.
        let mut at = 0;
        assert_eq!(get_uvarint(&[0x80; 11], &mut at), None);
        // 10th byte carries more than the one remaining bit (2^64 exactly).
        let overflow = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut at = 0;
        assert_eq!(get_uvarint(&overflow, &mut at), None);
    }
}
