//! Versioned run snapshots.
//!
//! A [`Snapshot`] is a self-contained byte image of a paused
//! [`System`](crate::System) run: a header naming the format version,
//! model, and workload, followed by the run accumulators, the
//! co-simulation checker (reference interpreter + memory image), the
//! core's complete timing state, and the memory hierarchy. The format is
//! the workspace's hand-rolled little-endian codec (`sst_isa::snap`) —
//! no external serialization dependency — and restoring is strictly
//! validating: truncated or corrupt bytes produce a structured
//! [`SnapError`](sst_isa::SnapError), never a panic; no allocation is
//! sized from a length in the bytes, and shapes are checked against the
//! rebuilt configuration.
//!
//! Determinism contract: serializing the same paused state twice yields
//! identical bytes (unordered containers are written in sorted key
//! order), so snapshot → resume → snapshot round-trips byte-identically.

use sst_isa::{SnapError, SnapReader};

/// Leading 4-byte tag of every run snapshot.
pub(crate) const SNAPSHOT_MAGIC: &str = "RSNP";

/// Identification fields parsed from a snapshot's fixed header, without
/// touching the (much larger) state payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version (`sst_isa::SNAPSHOT_VERSION` at capture time).
    pub version: u32,
    /// Core-model label the run was captured under.
    pub model: String,
    /// Workload name the run was captured under.
    pub workload: String,
    /// Total instructions committed at the pause point.
    pub insts: u64,
}

/// A paused run, as opaque bytes. Produced by
/// [`System::snapshot`](crate::System::snapshot), consumed by
/// [`System::resume`](crate::System::resume); the bytes are stable to
/// write to disk and reload in a later process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Wraps raw snapshot bytes (e.g. read back from disk). No
    /// validation happens here; [`Snapshot::header`] and
    /// [`System::resume`](crate::System::resume) validate on use.
    pub fn from_bytes(bytes: Vec<u8>) -> Snapshot {
        Snapshot { bytes }
    }

    /// The serialized image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Serialized size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` for a zero-length image (never produced by `snapshot`).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Parses just the identification header.
    ///
    /// # Errors
    ///
    /// [`SnapError`] when the bytes do not start with a valid snapshot
    /// header.
    pub fn header(&self) -> Result<SnapshotHeader, SnapError> {
        let mut r = SnapReader::new(&self.bytes);
        r.tag(SNAPSHOT_MAGIC)?;
        let version = r.take_u32()?;
        let model = r.take_str()?;
        let workload = r.take_str()?;
        let _skip_insts = r.take_u64()?;
        let insts = r.take_u64()?;
        Ok(SnapshotHeader {
            version,
            model,
            workload,
            insts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn garbage_header_is_an_error_not_a_panic() {
        assert!(Snapshot::from_bytes(vec![]).header().is_err());
        assert!(Snapshot::from_bytes(vec![0xff; 16]).header().is_err());
        assert!(Snapshot::from_bytes(b"RSNP".to_vec()).header().is_err());
    }
}
