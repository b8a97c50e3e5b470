//! Versioned binary snapshot codec.
//!
//! Snapshots serialize full run state — architectural registers, sparse
//! memory, and per-model timing state — so a run can pause at cycle *c*
//! and resume byte-identically. The format is deliberately dumb:
//!
//! * little-endian fixed-width integers, no varints;
//! * length-prefixed sequences and byte strings (`u64` length);
//! * four-byte ASCII section tags ahead of every structure, so a
//!   truncated or corrupt snapshot fails with a *structured* error
//!   naming the section, never a panic;
//! * a single format version checked up front
//!   ([`SNAPSHOT_VERSION`]).
//!
//! Every record is listed once. [`Snap`] is the codec of a value: `put`
//! writes it and `take` reads it back, implemented here for scalars,
//! `Option`, fixed arrays, tuples, registers, instructions and
//! length-prefixed sequences. [`snap_record!`](crate::snap_record) derives
//! both directions of a record from a single field list, in the record's
//! own module (private fields stay private). A component built from a
//! configuration — a cache, a queue, a core — is restored in place through
//! [`SnapState`], from a field list of the same macro; what a field list
//! cannot say — a table's configured size, a queue's capacity, structure
//! rebuilt from the saved entries — is the one piece of code per direction
//! that remains, in the `then` check the restore runs last. Encode and
//! decode therefore cannot drift: there is no second list to reorder.

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

use crate::{decode, encode, Inst, Reg};

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
            SnapError::Mismatch(what) => write!(f, "snapshot mismatch: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

impl SnapError {
    /// `Ok` when a restored sequence of `n` items fits `max`; corruption
    /// naming `what` otherwise.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when `n > max`.
    pub fn check_bound(what: &str, n: usize, max: usize) -> Result<(), SnapError> {
        if n > max {
            return Err(SnapError::Corrupt(format!("{what} {n} exceeds {max}")));
        }
        Ok(())
    }

    /// `Ok` when a restored table has the `want` entries its configuration
    /// gives it; a mismatch naming `what` otherwise.
    ///
    /// # Errors
    ///
    /// [`SnapError::Mismatch`] when `n != want`.
    pub fn check_size(what: &str, n: usize, want: usize) -> Result<(), SnapError> {
        if n != want {
            return Err(SnapError::Mismatch(format!("{what} {n} != configured {want}")));
        }
        Ok(())
    }
}

/// A value with one snapshot encoding: [`Snap::put`] writes it and
/// [`Snap::take`] reads it back.
pub trait Snap: Sized {
    /// Appends the value to `w`.
    fn put(&self, w: &mut SnapWriter);

    /// Reads a value written by [`Snap::put`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated or corrupt input; never a panic.
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// A component restored in place, over the configuration it was built
/// with (see [`snap_record!`](crate::snap_record)'s `state` form). Every
/// [`Snap`] value is one too: restoring it replaces it.
pub trait SnapState {
    /// Appends the component's state to `w`.
    fn put_state(&self, w: &mut SnapWriter);

    /// Restores state written by [`SnapState::put_state`] on a component
    /// built with the same configuration.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated, corrupt or configuration-mismatched
    /// input; the component must not be used after a failed restore.
    fn take_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

impl<T: Snap> SnapState for T {
    fn put_state(&self, w: &mut SnapWriter) {
        self.put(w);
    }

    fn take_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = T::take(r)?;
        Ok(())
    }
}

/// Derives both directions of a snapshot encoding from one field list.
///
/// `snap_record!(Checkpoint "CKPT" { image, pc, start_seq, taken_at })`
/// implements [`Snap`] for a plain record: an optional section tag, then
/// every field in list order. A field written in another type names it
/// with `as`: `phase_cycles as [u64; 5]` puts `<[u64; 5]>::from(field)` and
/// takes it back with `into()`.
///
/// `snap_record!(state Dram "DRAM" { accesses, banks } then Dram::restored)`
/// implements [`SnapState`] for a component restored in place: every field
/// is a [`SnapState`] (a nested component or a value), `as` works as above,
/// and a part that spans several fields is a pair of methods,
/// `(Self::put_part, Self::take_part)`, taking `(&self, &mut SnapWriter)`
/// and `(&mut self, &mut SnapReader)`. The optional `then` method —
/// `fn(&mut Self) -> Result<(), SnapError>` — runs last, to check what the
/// list cannot (configured sizes, capacities) and rebuild derived state.
#[macro_export]
macro_rules! snap_record {
    (state $ty:ident $($tag:literal)? { $($items:tt)* } $(then $check:path)?) => {
        impl $crate::SnapState for $ty {
            fn put_state(&self, w: &mut $crate::SnapWriter) {
                $(w.tag($tag);)?
                $crate::snap_record!(@put self w; $($items)*);
            }

            fn take_state(
                &mut self,
                r: &mut $crate::SnapReader<'_>,
            ) -> Result<(), $crate::SnapError> {
                $(r.tag($tag)?;)?
                $crate::snap_record!(@take self r; $($items)*);
                $($check(self)?;)?
                Ok(())
            }
        }
    };
    (@put $s:ident $w:ident; $(,)?) => {};
    (@put $s:ident $w:ident; ($put:path, $take:path) $(, $($rest:tt)*)?) => {
        $put($s, $w);
        $crate::snap_record!(@put $s $w; $($($rest)*)?);
    };
    (@put $s:ident $w:ident; $f:ident as $wire:ty $(, $($rest:tt)*)?) => {
        $crate::Snap::put(&<$wire>::from($s.$f.clone()), $w);
        $crate::snap_record!(@put $s $w; $($($rest)*)?);
    };
    (@put $s:ident $w:ident; $f:ident $(, $($rest:tt)*)?) => {
        $crate::SnapState::put_state(&$s.$f, $w);
        $crate::snap_record!(@put $s $w; $($($rest)*)?);
    };
    (@take $s:ident $r:ident; $(,)?) => {};
    (@take $s:ident $r:ident; ($put:path, $take:path) $(, $($rest:tt)*)?) => {
        $take($s, $r)?;
        $crate::snap_record!(@take $s $r; $($($rest)*)?);
    };
    (@take $s:ident $r:ident; $f:ident as $wire:ty $(, $($rest:tt)*)?) => {
        $s.$f = <$wire as $crate::Snap>::take($r)?.into();
        $crate::snap_record!(@take $s $r; $($($rest)*)?);
    };
    (@take $s:ident $r:ident; $f:ident $(, $($rest:tt)*)?) => {
        $crate::SnapState::take_state(&mut $s.$f, $r)?;
        $crate::snap_record!(@take $s $r; $($($rest)*)?);
    };
    (@value $r:ident) => { $crate::Snap::take($r)? };
    (@value $r:ident as $wire:ty) => { <$wire as $crate::Snap>::take($r)?.into() };
    ($ty:ident $($tag:literal)? { $($f:ident $(as $wire:ty)?),* $(,)? }) => {
        impl $crate::Snap for $ty {
            fn put(&self, w: &mut $crate::SnapWriter) {
                $(w.tag($tag);)?
                $crate::snap_record!(@put self w; $($f $(as $wire)?),*);
            }

            fn take(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                $(r.tag($tag)?;)?
                Ok($ty {
                    $($f: $crate::snap_record!(@value r $(as $wire)?),)*
                })
            }
        }
    };
}

macro_rules! snap_scalars {
    ($($t:ty: $put:ident, $take:ident;)*) => {
        $(impl Snap for $t {
            #[inline]
            fn put(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }

            #[inline]
            fn take(r: &mut SnapReader<'_>) -> Result<$t, SnapError> {
                r.$take()
            }
        })*
    };
}

snap_scalars! {
    u8: put_u8, take_u8;
    u32: put_u32, take_u32;
    u64: put_u64, take_u64;
    i64: put_i64, take_i64;
    usize: put_usize, take_usize;
    bool: put_bool, take_bool;
}

/// A boolean presence flag, then the value.
impl<T: Snap> Snap for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }

    fn take(r: &mut SnapReader<'_>) -> Result<Option<T>, SnapError> {
        Ok(if r.take_bool()? { Some(T::take(r)?) } else { None })
    }
}

/// The elements in order, no length: the length is the type's.
impl<T: Snap + Copy + Default, const N: usize> Snap for [T; N] {
    fn put(&self, w: &mut SnapWriter) {
        for v in self {
            v.put(w);
        }
    }

    fn take(r: &mut SnapReader<'_>) -> Result<[T; N], SnapError> {
        let mut out = [T::default(); N];
        for v in out.iter_mut() {
            *v = T::take(r)?;
        }
        Ok(out)
    }
}

macro_rules! snap_tuples {
    ($(($($t:ident $i:tt),*))*) => {
        $(impl<$($t: Snap),*> Snap for ($($t,)*) {
            fn put(&self, w: &mut SnapWriter) {
                $(self.$i.put(w);)*
            }

            fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($($t::take(r)?,)*))
            }
        })*
    };
}

snap_tuples! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
}

/// A `u64` length, then the elements. The length is bounded by the bytes
/// left before anything is read (every element takes at least one), and
/// nothing is reserved from it: a corrupt length cannot allocate.
fn take_seq<T: Snap, C: FromIterator<T>>(r: &mut SnapReader<'_>) -> Result<C, SnapError> {
    let n = r.take_usize()?;
    if n > r.remaining() {
        return Err(SnapError::Truncated);
    }
    (0..n).map(|_| T::take(r)).collect()
}

fn put_seq<'a, T: Snap + 'a>(w: &mut SnapWriter, items: impl ExactSizeIterator<Item = &'a T>) {
    w.put_usize(items.len());
    for v in items {
        v.put(w);
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        put_seq(w, self.iter());
    }

    fn take(r: &mut SnapReader<'_>) -> Result<Vec<T>, SnapError> {
        take_seq(r)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn put(&self, w: &mut SnapWriter) {
        put_seq(w, self.iter());
    }

    fn take(r: &mut SnapReader<'_>) -> Result<VecDeque<T>, SnapError> {
        take_seq(r)
    }
}

/// Written in ascending order, so equal sets serialize byte-identically
/// whatever their hash iteration order.
impl<T: Snap + Ord + Hash + Copy, S: BuildHasher + Default> Snap for HashSet<T, S> {
    fn put(&self, w: &mut SnapWriter) {
        let mut sorted: Vec<T> = self.iter().copied().collect();
        sorted.sort_unstable();
        sorted.put(w);
    }

    fn take(r: &mut SnapReader<'_>) -> Result<HashSet<T, S>, SnapError> {
        take_seq(r)
    }
}

/// A `u64` byte length, then the UTF-8 bytes.
impl Snap for String {
    fn put(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }

    fn take(r: &mut SnapReader<'_>) -> Result<String, SnapError> {
        r.take_str()
    }
}

/// The register's index, one byte.
impl Snap for Reg {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u8(self.index() as u8);
    }

    fn take(r: &mut SnapReader<'_>) -> Result<Reg, SnapError> {
        let i = r.take_u8()?;
        Reg::from_index(i)
            .ok_or_else(|| SnapError::Corrupt(format!("register index {i} out of range")))
    }
}

/// The instruction's encoding, a `u32`.
impl Snap for Inst {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u32(encode(*self).expect("a decoded instruction re-encodes"));
    }

    fn take(r: &mut SnapReader<'_>) -> Result<Inst, SnapError> {
        let word = r.take_u32()?;
        decode(word)
            .map_err(|_| SnapError::Corrupt(format!("undecodable instruction {word:#010x}")))
    }
}

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

    #[derive(Debug, PartialEq)]
    struct Rec {
        a: u64,
        b: Option<(Reg, u64)>,
        c: Vec<bool>,
        d: [u8; 2],
    }

    crate::snap_record!(Rec "RECD" { a, c, b, d });

    #[test]
    fn a_record_round_trips_in_list_order() {
        let rec = Rec {
            a: 7,
            b: Some((Reg::LINK, 9)),
            c: vec![true, false],
            d: [1, 2],
        };
        let mut w = SnapWriter::new();
        rec.put(&mut w);
        // The list, not the declaration, orders the bytes: `c` follows `a`.
        assert_eq!(w.as_bytes()[..20], *b"RECD\x07\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0");
        let mut r = SnapReader::new(w.as_bytes());
        assert_eq!(Rec::take(&mut r), Ok(rec));
        r.finish().unwrap();
    }

    #[test]
    fn a_sequence_longer_than_the_bytes_left_is_truncation() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX >> 1);
        w.put_u64(1);
        let r = Vec::<u64>::take(&mut SnapReader::new(w.as_bytes()));
        assert_eq!(r, Err(SnapError::Truncated));
    }

    #[test]
    fn bad_register_and_instruction_words_are_corrupt() {
        assert!(matches!(Reg::take(&mut SnapReader::new(&[200])), Err(SnapError::Corrupt(_))));
        let r = Inst::take(&mut SnapReader::new(&[0xff; 4]));
        assert!(matches!(r, Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn errors_display() {
        let v = SnapError::BadVersion { found: 9, supported: 1 };
        assert!(v.to_string().contains('9'));
        assert!(SnapError::Truncated.to_string().contains("truncated"));
        assert!(SnapError::Mismatch("m".into()).to_string().contains("m"));
    }
}
