//! Versioned binary snapshot codec.
//!
//! Snapshots serialize full run state — architectural registers, sparse
//! memory, and per-model timing state — so a run can pause at cycle *c*
//! and resume byte-identically. The format is deliberately dumb:
//!
//! * little-endian fixed-width integers, no varints;
//! * length-prefixed byte strings (`u64` length);
//! * four-byte ASCII section tags ahead of every structure, so a
//!   truncated or corrupt snapshot fails with a *structured* error
//!   naming the section, never a panic;
//! * a single format version checked up front
//!   ([`SNAPSHOT_VERSION`]).
//!
//! Everything that serializes state does so through [`SnapWriter`] /
//! [`SnapReader`] in its *own* module (private fields stay private);
//! this module only owns the byte-level encoding and the error type.

use std::fmt;

/// Current snapshot format version. Bumped on any layout change (3: the
/// deferred queue's held-slot count); a snapshot of another version is
/// rejected up front — `System::resume` reports [`SnapError::Mismatch`] —
/// never misparsed.
pub const SNAPSHOT_VERSION: u32 = 3;

/// A structured snapshot decode/restore failure.
///
/// Restoring from bytes must never panic: malformed input surfaces as
/// one of these variants instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before a read completed.
    Truncated,
    /// A value or section marker failed validation; the string names
    /// what was expected.
    Corrupt(String),
    /// The snapshot was written by an incompatible format version.
    BadVersion {
        /// Version found in the snapshot header.
        found: u32,
        /// Version this build understands.
        supported: u32,
    },
    /// The component does not support snapshotting.
    Unsupported(&'static str),
    /// The snapshot is well-formed but describes a different run
    /// (wrong model, workload, or configuration).
    Mismatch(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapError::BadVersion { found, supported } => {
                write!(f, "snapshot version {found} not supported (this build reads {supported})")
            }
            SnapError::Unsupported(what) => write!(f, "{what} does not support snapshots"),
            SnapError::Mismatch(what) => write!(f, "snapshot mismatch: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Appends snapshot fields to a growing byte buffer.
#[derive(Clone, Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The serialized bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a four-byte ASCII section tag.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not exactly four bytes (a writer-side bug, not
    /// an input condition).
    pub fn tag(&mut self, t: &str) {
        assert_eq!(t.len(), 4, "section tags are exactly four bytes");
        self.buf.extend_from_slice(t.as_bytes());
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a boolean as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes `Some(v)`/`None` as a boolean followed by the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.put_bool(true);
                self.put_u64(v);
            }
            None => self.put_bool(false),
        }
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Writes raw bytes with no length prefix (fixed-size payloads).
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Reads snapshot fields back out of a byte buffer.
///
/// Every read returns a [`SnapError`] on malformed input; nothing here
/// panics on bad bytes.
#[derive(Clone, Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consumes a four-byte section tag, failing with a structured
    /// error if it does not match `t`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] or [`SnapError::Corrupt`] naming the
    /// expected section.
    pub fn tag(&mut self, t: &str) -> Result<(), SnapError> {
        assert_eq!(t.len(), 4, "section tags are exactly four bytes");
        let got = self.take(4)?;
        if got != t.as_bytes() {
            return Err(SnapError::Corrupt(format!(
                "expected section {t:?}, found {:?}",
                String::from_utf8_lossy(got)
            )));
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of buffer.
    pub fn take_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of buffer.
    pub fn take_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("four bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of buffer.
    pub fn take_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("eight bytes")))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of buffer.
    pub fn take_i64(&mut self) -> Result<i64, SnapError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("eight bytes")))
    }

    /// Reads a `u64` and converts it to `usize`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`], or [`SnapError::Corrupt`] if the value
    /// does not fit a `usize`.
    pub fn take_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("count {v} overflows usize")))
    }

    /// Reads a boolean; any byte other than 0 or 1 is corruption.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] or [`SnapError::Corrupt`].
    pub fn take_bool(&mut self) -> Result<bool, SnapError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("boolean byte {b:#04x}"))),
        }
    }

    /// Reads an optional `u64` written by [`SnapWriter::put_opt_u64`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] or [`SnapError::Corrupt`].
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        if self.take_bool()? {
            Ok(Some(self.take_u64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed byte string. The declared length is
    /// validated against the remaining buffer before any allocation, so
    /// a corrupt length cannot trigger a huge reservation.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] or [`SnapError::Corrupt`].
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.take_usize()?;
        if n > self.remaining() {
            return Err(SnapError::Truncated);
        }
        self.take(n)
    }

    /// Reads `n` raw bytes (fixed-size payloads written by
    /// [`SnapWriter::put_raw`]).
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of buffer.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] or [`SnapError::Corrupt`] on invalid
    /// UTF-8.
    pub fn take_str(&mut self) -> Result<String, SnapError> {
        let b = self.take_bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| SnapError::Corrupt("string is not UTF-8".to_string()))
    }

    /// Asserts the whole buffer was consumed; trailing garbage is
    /// corruption.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if bytes remain.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::Corrupt(format!(
                "{} trailing bytes after the last section",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = SnapWriter::new();
        w.tag("TEST");
        w.put_u8(0xab);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-12345);
        w.put_bool(true);
        w.put_bool(false);
        w.put_opt_u64(Some(7));
        w.put_opt_u64(None);
        w.put_bytes(b"hello");
        w.put_str("world");
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        r.tag("TEST").unwrap();
        assert_eq!(r.take_u8().unwrap(), 0xab);
        assert_eq!(r.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_i64().unwrap(), -12345);
        assert!(r.take_bool().unwrap());
        assert!(!r.take_bool().unwrap());
        assert_eq!(r.take_opt_u64().unwrap(), Some(7));
        assert_eq!(r.take_opt_u64().unwrap(), None);
        assert_eq!(r.take_bytes().unwrap(), b"hello");
        assert_eq!(r.take_str().unwrap(), "world");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_structured() {
        let mut w = SnapWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert_eq!(r.take_u64(), Err(SnapError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn bad_tag_names_section() {
        let mut w = SnapWriter::new();
        w.tag("AAAA");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let e = r.tag("BBBB").unwrap_err();
        match e {
            SnapError::Corrupt(s) => assert!(s.contains("BBBB") && s.contains("AAAA"), "{s}"),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn bogus_length_is_truncation_not_allocation() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // absurd length prefix
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            r.take_bytes(),
            Err(SnapError::Truncated) | Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn bad_bool_byte_is_corrupt() {
        let mut r = SnapReader::new(&[7u8]);
        assert!(matches!(r.take_bool(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = SnapWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.take_u8().unwrap();
        assert!(matches!(r.finish(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn errors_display() {
        let v = SnapError::BadVersion { found: 9, supported: 1 };
        assert!(v.to_string().contains('9'));
        assert!(SnapError::Truncated.to_string().contains("truncated"));
        assert!(SnapError::Unsupported("x").to_string().contains("x"));
        assert!(SnapError::Mismatch("m".into()).to_string().contains("m"));
    }
}
