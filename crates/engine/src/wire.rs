//! Versioned wire serialisation for [`EngineSnapshot`]s.
//!
//! A snapshot on the wire is a self-describing little-endian byte string:
//!
//! ```text
//! magic   b"SSRSNP"                    6 bytes
//! version u16                          format version (currently 1)
//! schema  u64                          InteractionSchema::schema_hash()
//! popul.  u64                          population size n
//! states  u32                          number of states
//! flags   u8                           bit0: agent vector present
//!                                      bit1: count-control present
//! counts  states × u32                 occupancy counts
//! agents  popul. × u32                 only when flags bit0
//! clock   u128                         interaction clock (full width)
//! prod.   u64                          productive-interaction clock
//! rng     4 × u64                      xoshiro256++ state words
//! ctl     u64 u64 u64 u32 u32          only when flags bit1
//! check   u64                          FNV-1a over all preceding bytes
//! ```
//!
//! Decoding validates, in order: length, magic, version, checksum, schema
//! hash against the expected [`SnapshotShape`], then shape fields — every
//! failure is a typed [`SnapshotDecodeError`], never a panic. The schema
//! hash makes a checkpoint refuse to restore into a *different* protocol
//! (or a recompiled one whose declared classes changed), which is the
//! safety property the service checkpoint store relies on.

use crate::engine::{CountControl, EngineSnapshot};
use crate::protocol::InteractionSchema;
use crate::rng::Xoshiro256;
use std::fmt;

/// Current snapshot wire-format version. Bump on any layout change.
pub const SNAPSHOT_WIRE_VERSION: u16 = 1;

const MAGIC: &[u8; 6] = b"SSRSNP";

/// The protocol identity a wire snapshot is validated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotShape {
    /// Stable hash of the protocol's declared interaction schema.
    pub schema_hash: u64,
    /// Number of states (length of the counts vector).
    pub num_states: u32,
    /// Population size.
    pub population: u64,
}

impl SnapshotShape {
    /// Capture the shape of a protocol for encode/decode validation.
    pub fn of<P: InteractionSchema + ?Sized>(protocol: &P) -> Self {
        SnapshotShape {
            schema_hash: protocol.schema_hash(),
            num_states: protocol.num_states() as u32,
            population: protocol.population_size() as u64,
        }
    }
}

/// Typed failure modes of [`EngineSnapshot::from_wire`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotDecodeError {
    /// The byte string ends before the structure it declares.
    Truncated {
        /// Bytes required by the declared structure.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The leading magic bytes are not `b"SSRSNP"`.
    BadMagic,
    /// The format version is not one this build can decode.
    UnsupportedVersion {
        /// Version found on the wire.
        got: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The snapshot was taken under a different interaction schema.
    SchemaHashMismatch {
        /// Expected hash (the restoring protocol's).
        expected: u64,
        /// Hash recorded in the snapshot.
        got: u64,
    },
    /// A shape field disagrees with the restoring protocol.
    ShapeMismatch {
        /// Which field disagrees (`"num_states"`, `"population"`, or
        /// `"counts_sum"`).
        field: &'static str,
        /// Value the restoring protocol requires.
        expected: u64,
        /// Value recorded in the snapshot.
        got: u64,
    },
    /// The trailing checksum does not match the body.
    ChecksumMismatch,
}

impl fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotDecodeError::Truncated { needed, got } => {
                write!(f, "snapshot truncated: needed {needed} bytes, got {got}")
            }
            SnapshotDecodeError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapshotDecodeError::UnsupportedVersion { got, supported } => write!(
                f,
                "unsupported snapshot version {got} (this build reads version {supported})"
            ),
            SnapshotDecodeError::SchemaHashMismatch { expected, got } => write!(
                f,
                "snapshot schema hash {got:#018x} does not match protocol {expected:#018x}"
            ),
            SnapshotDecodeError::ShapeMismatch {
                field,
                expected,
                got,
            } => write!(
                f,
                "snapshot {field} is {got}, protocol requires {expected}"
            ),
            SnapshotDecodeError::ChecksumMismatch => {
                write!(f, "snapshot checksum mismatch (corrupt or tampered)")
            }
        }
    }
}

impl std::error::Error for SnapshotDecodeError {}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Little-endian byte reader with typed truncation errors.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], SnapshotDecodeError> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or(SnapshotDecodeError::Truncated {
                needed: usize::MAX,
                got: self.bytes.len(),
            })?;
        if end > self.bytes.len() {
            return Err(SnapshotDecodeError::Truncated {
                needed: end,
                got: self.bytes.len(),
            });
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotDecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, SnapshotDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128, SnapshotDecodeError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
}

impl EngineSnapshot {
    /// Serialise for durable storage. `shape` stamps the snapshot with the
    /// protocol identity so a later [`from_wire`](Self::to_wire) can refuse
    /// cross-protocol restores.
    pub fn to_wire(&self, shape: SnapshotShape) -> Vec<u8> {
        let mut flags = 0u8;
        if self.agents.is_some() {
            flags |= 1;
        }
        if self.count_ctl.is_some() {
            flags |= 2;
        }
        let mut out = Vec::with_capacity(
            MAGIC.len()
                + 2
                + 8
                + 8
                + 4
                + 1
                + 4 * self.counts.len()
                + self.agents.as_ref().map_or(0, |a| 4 * a.len())
                + 16
                + 8
                + 32
                + if self.count_ctl.is_some() { 32 } else { 0 }
                + 8,
        );
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&SNAPSHOT_WIRE_VERSION.to_le_bytes());
        out.extend_from_slice(&shape.schema_hash.to_le_bytes());
        out.extend_from_slice(&shape.population.to_le_bytes());
        out.extend_from_slice(&shape.num_states.to_le_bytes());
        out.push(flags);
        for &c in &self.counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        if let Some(agents) = &self.agents {
            for &a in agents {
                out.extend_from_slice(&a.to_le_bytes());
            }
        }
        out.extend_from_slice(&self.interactions.to_le_bytes());
        out.extend_from_slice(&self.productive.to_le_bytes());
        for word in self.rng.state() {
            out.extend_from_slice(&word.to_le_bytes());
        }
        if let Some(ctl) = self.count_ctl {
            out.extend_from_slice(&ctl.max_eq_count.to_le_bytes());
            out.extend_from_slice(&ctl.max_sparse_partner.to_le_bytes());
            out.extend_from_slice(&ctl.max_sparse_pair_scale.to_le_bytes());
            out.extend_from_slice(&ctl.batches_since_refresh.to_le_bytes());
            out.extend_from_slice(&ctl.exact_steps_until_recheck.to_le_bytes());
        }
        let check = fnv1a(&out);
        out.extend_from_slice(&check.to_le_bytes());
        out
    }

    /// Decode a wire snapshot, validating it against the restoring
    /// protocol's [`SnapshotShape`]. Every failure is a typed
    /// [`SnapshotDecodeError`] — this function never panics on bad input.
    pub fn from_wire(
        bytes: &[u8],
        expected: SnapshotShape,
    ) -> Result<EngineSnapshot, SnapshotDecodeError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(SnapshotDecodeError::BadMagic);
        }
        let version = r.u16()?;
        if version != SNAPSHOT_WIRE_VERSION {
            return Err(SnapshotDecodeError::UnsupportedVersion {
                got: version,
                supported: SNAPSHOT_WIRE_VERSION,
            });
        }
        // Verify the checksum before trusting any length-bearing field:
        // the trailing 8 bytes cover everything that precedes them.
        if bytes.len() < 8 {
            return Err(SnapshotDecodeError::Truncated {
                needed: 8,
                got: bytes.len(),
            });
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        if fnv1a(body) != stored {
            return Err(SnapshotDecodeError::ChecksumMismatch);
        }
        let schema_hash = r.u64()?;
        if schema_hash != expected.schema_hash {
            return Err(SnapshotDecodeError::SchemaHashMismatch {
                expected: expected.schema_hash,
                got: schema_hash,
            });
        }
        let population = r.u64()?;
        if population != expected.population {
            return Err(SnapshotDecodeError::ShapeMismatch {
                field: "population",
                expected: expected.population,
                got: population,
            });
        }
        let num_states = r.u32()?;
        if num_states != expected.num_states {
            return Err(SnapshotDecodeError::ShapeMismatch {
                field: "num_states",
                expected: expected.num_states as u64,
                got: num_states as u64,
            });
        }
        let flags = r.u8()?;
        let mut counts = Vec::with_capacity(num_states as usize);
        let mut counts_sum = 0u64;
        for _ in 0..num_states {
            let c = r.u32()?;
            counts_sum += c as u64;
            counts.push(c);
        }
        if counts_sum != population {
            return Err(SnapshotDecodeError::ShapeMismatch {
                field: "counts_sum",
                expected: population,
                got: counts_sum,
            });
        }
        let agents = if flags & 1 != 0 {
            let mut agents = Vec::with_capacity(population as usize);
            for _ in 0..population {
                agents.push(r.u32()?);
            }
            Some(agents)
        } else {
            None
        };
        let interactions = r.u128()?;
        let productive = r.u64()?;
        let rng = Xoshiro256::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
        let count_ctl = if flags & 2 != 0 {
            Some(CountControl {
                max_eq_count: r.u64()?,
                max_sparse_partner: r.u64()?,
                max_sparse_pair_scale: r.u64()?,
                batches_since_refresh: r.u32()?,
                exact_steps_until_recheck: r.u32()?,
            })
        } else {
            None
        };
        // The remaining 8 bytes are the (already verified) checksum.
        let trailing = bytes.len() - r.pos;
        if trailing != 8 {
            return Err(SnapshotDecodeError::Truncated {
                needed: r.pos + 8,
                got: bytes.len(),
            });
        }
        Ok(EngineSnapshot {
            agents,
            counts,
            interactions,
            productive,
            rng,
            count_ctl,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{make_engine, EngineKind};
    use crate::protocol::{ClassSpec, Protocol, State};

    struct Ag {
        n: usize,
    }
    impl Protocol for Ag {
        fn name(&self) -> &str {
            "A_G"
        }
        fn population_size(&self) -> usize {
            self.n
        }
        fn num_states(&self) -> usize {
            self.n
        }
        fn num_rank_states(&self) -> usize {
            self.n
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            (i == r).then(|| (i, (r + 1) % self.n as State))
        }
    }
    impl InteractionSchema for Ag {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![ClassSpec::equal_rank()]
        }
    }

    fn mid_run_snapshot(kind: EngineKind, n: usize, steps: usize) -> (EngineSnapshot, Ag) {
        let p = Ag { n };
        let snap = {
            let mut eng = make_engine(kind, &p, vec![0; n], 42, 1).unwrap();
            for _ in 0..steps {
                eng.advance();
            }
            eng.snapshot()
        };
        (snap, p)
    }

    fn finish(kind: EngineKind, p: &Ag, snap: EngineSnapshot) -> (u128, u64) {
        let mut eng = make_engine(kind, p, vec![0; p.n], 42, 1).unwrap();
        eng.restore(&snap);
        eng.run_until_silent(u64::MAX).unwrap();
        (eng.interactions_wide(), eng.productive_interactions())
    }

    /// Older `jump` checkpoints carry no count-control block. Exact mode
    /// never reads it, so such a snapshot must decode and finish exactly
    /// like the full one.
    #[test]
    fn roundtrip_jump_snapshot_without_control_continues_identically() {
        let (snap, p) = mid_run_snapshot(EngineKind::Jump, 64, 10);
        let shape = SnapshotShape::of(&p);
        let legacy = EngineSnapshot {
            count_ctl: None,
            ..snap.clone()
        };
        let decoded = EngineSnapshot::from_wire(&legacy.to_wire(shape), shape).unwrap();
        assert!(decoded.count_ctl.is_none());
        assert_eq!(finish(EngineKind::Jump, &p, snap), finish(EngineKind::Jump, &p, decoded));
    }

    #[test]
    fn roundtrip_count_snapshot_preserves_control_state() {
        let (snap, p) = mid_run_snapshot(EngineKind::Count, 8192, 5);
        assert!(snap.count_ctl.is_some(), "count snapshot should carry ctl");
        let shape = SnapshotShape::of(&p);
        let wire = snap.clone().to_wire(shape);
        let decoded = EngineSnapshot::from_wire(&wire, shape).unwrap();
        assert!(decoded.count_ctl.is_some());
        assert_eq!(
            finish(EngineKind::Count, &p, snap),
            finish(EngineKind::Count, &p, decoded)
        );
    }

    #[test]
    fn roundtrip_naive_snapshot_carries_agents() {
        let (snap, p) = mid_run_snapshot(EngineKind::Naive, 64, 10);
        assert!(snap.agents.is_some());
        let shape = SnapshotShape::of(&p);
        let wire = snap.clone().to_wire(shape);
        let decoded = EngineSnapshot::from_wire(&wire, shape).unwrap();
        assert_eq!(snap.agents, decoded.agents);
        assert_eq!(
            finish(EngineKind::Naive, &p, snap),
            finish(EngineKind::Naive, &p, decoded)
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let (snap, p) = mid_run_snapshot(EngineKind::Jump, 64, 3);
        let shape = SnapshotShape::of(&p);
        let mut wire = snap.to_wire(shape);
        wire[0] ^= 0xFF;
        assert_eq!(
            EngineSnapshot::from_wire(&wire, shape).unwrap_err(),
            SnapshotDecodeError::BadMagic
        );
    }

    #[test]
    fn rejects_unsupported_version() {
        let (snap, p) = mid_run_snapshot(EngineKind::Jump, 64, 3);
        let shape = SnapshotShape::of(&p);
        let mut wire = snap.to_wire(shape);
        wire[6..8].copy_from_slice(&99u16.to_le_bytes());
        assert_eq!(
            EngineSnapshot::from_wire(&wire, shape).unwrap_err(),
            SnapshotDecodeError::UnsupportedVersion {
                got: 99,
                supported: SNAPSHOT_WIRE_VERSION
            }
        );
    }

    #[test]
    fn rejects_schema_hash_mismatch() {
        let (snap, p) = mid_run_snapshot(EngineKind::Jump, 64, 3);
        let wire = snap.to_wire(SnapshotShape::of(&p));
        let other = Ag { n: 65 };
        let err = EngineSnapshot::from_wire(&wire, SnapshotShape::of(&other)).unwrap_err();
        assert!(matches!(err, SnapshotDecodeError::SchemaHashMismatch { .. }));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let (snap, p) = mid_run_snapshot(EngineKind::Jump, 64, 3);
        let mut wrong = SnapshotShape::of(&p);
        wrong.population += 1;
        let wire = snap.to_wire(SnapshotShape::of(&p));
        let err = EngineSnapshot::from_wire(&wire, wrong).unwrap_err();
        // Schema hash catches it first (same protocol type, different n ⇒
        // different hash is possible but not guaranteed) — accept either
        // typed mismatch, never a panic.
        assert!(matches!(
            err,
            SnapshotDecodeError::SchemaHashMismatch { .. }
                | SnapshotDecodeError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn rejects_corrupted_body() {
        let (snap, p) = mid_run_snapshot(EngineKind::Jump, 64, 3);
        let shape = SnapshotShape::of(&p);
        let mut wire = snap.to_wire(shape);
        let mid = wire.len() / 2;
        wire[mid] ^= 0x01;
        assert_eq!(
            EngineSnapshot::from_wire(&wire, shape).unwrap_err(),
            SnapshotDecodeError::ChecksumMismatch
        );
    }

    #[test]
    fn rejects_truncation() {
        let (snap, p) = mid_run_snapshot(EngineKind::Jump, 64, 3);
        let shape = SnapshotShape::of(&p);
        let wire = snap.to_wire(shape);
        for cut in [0, 4, 7, wire.len() - 9] {
            let err = EngineSnapshot::from_wire(&wire[..cut], shape).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotDecodeError::Truncated { .. } | SnapshotDecodeError::ChecksumMismatch
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn rejects_counts_not_summing_to_population() {
        let (mut snap, p) = mid_run_snapshot(EngineKind::Jump, 64, 3);
        snap.counts[0] += 1;
        let shape = SnapshotShape::of(&p);
        let wire = snap.to_wire(shape);
        let err = EngineSnapshot::from_wire(&wire, shape).unwrap_err();
        assert!(matches!(
            err,
            SnapshotDecodeError::ShapeMismatch {
                field: "counts_sum",
                ..
            }
        ));
    }
}
