//! Versioned wire serialisation for [`EngineSnapshot`]s.
//!
//! A snapshot on the wire is a self-describing little-endian byte string:
//!
//! ```text
//! magic   b"SSRSNP"                    6 bytes
//! version u16                          format version (2; 1 still decodes)
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
//! check   u64                          checksum over all preceding bytes
//! ```
//!
//! Versions 1 and 2 share this layout and differ only in `check`:
//!
//! * **v2** (written by this build): the body is read as little-endian
//!   `u64` words, the last one zero-padded, dealt round-robin to four
//!   lanes. Each lane starts from its own seed and absorbs a word `w` as
//!   `h ← rotl((h ⊕ w) · K, 29)` with `K` odd. The check is the body
//!   length followed by the four lanes, absorbed by the same step into
//!   one word. Every step is a bijection in both `h` and `w`, so a
//!   change to any single word — in particular any single-bit flip —
//!   changes the check. The lanes are independent multiply chains, so
//!   the checksum runs at memory speed.
//! * **v1** (older daemons): FNV-1a, one byte at a time.
//!
//! Decoding validates, in order: length, magic, version, checksum (the
//! function the version names), schema hash against the expected
//! [`SnapshotShape`], then shape fields — every failure is a typed
//! [`SnapshotDecodeError`], never a panic. The schema hash makes a
//! checkpoint refuse to restore into a *different* protocol (or a
//! recompiled one whose declared classes changed), which is the safety
//! property the service checkpoint store relies on.

use crate::engine::{CountControl, EngineSnapshot};
use crate::protocol::InteractionSchema;
use crate::rng::Xoshiro256;
use std::fmt;

/// Snapshot wire-format version this build writes. Bump on any layout or
/// checksum change.
pub const SNAPSHOT_WIRE_VERSION: u16 = 2;

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
        /// Newest version this build reads (it reads every version from
        /// 1 up to this one).
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
                "unsupported snapshot version {got} (this build reads versions 1 to {supported})"
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

impl SnapshotDecodeError {
    /// Whether the blob is intact but stamped with another protocol's
    /// identity (schema hash or shape), as opposed to damaged (truncated,
    /// bad magic, unknown version, checksum mismatch).
    pub fn is_identity_mismatch(&self) -> bool {
        matches!(
            self,
            SnapshotDecodeError::SchemaHashMismatch { .. }
                | SnapshotDecodeError::ShapeMismatch { .. }
        )
    }
}

impl std::error::Error for SnapshotDecodeError {}

/// The v1 checksum: FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One absorb step of the v2 checksum: a bijection in `h` for fixed `w`
/// and in `w` for fixed `h` (xor, multiply by an odd constant, rotate).
#[inline(always)]
fn absorb(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

/// The v2 checksum: four independent lanes of little-endian words (see
/// the module docs).
fn lanes4(bytes: &[u8]) -> u64 {
    let mut lanes: [u64; 4] = [
        0xCBF2_9CE4_8422_2325,
        0x6C62_272E_07BB_0142,
        0x8422_2325_CBF2_9CE4,
        0x07BB_0142_6C62_272E,
    ];
    let (blocks, rest) = bytes.as_chunks::<32>();
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = absorb(*lane, u64::from_le_bytes(*word));
        }
    }
    // The remaining < 4 words, the last one zero-padded.
    for (lane, word) in lanes.iter_mut().zip(rest.chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        *lane = absorb(*lane, u64::from_le_bytes(padded));
    }
    lanes
        .iter()
        .fold(absorb(0, bytes.len() as u64), |h, &lane| absorb(h, lane))
}

/// The checksum function of wire-format `version`, `None` for versions
/// this build cannot decode.
fn checksum_for(version: u16) -> Option<fn(&[u8]) -> u64> {
    match version {
        1 => Some(fnv1a),
        2 => Some(lanes4),
        _ => None,
    }
}

/// Append `values` as little-endian `u32`s in one bulk copy.
fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    let start = out.len();
    out.resize(start + 4 * values.len(), 0);
    let (dst, _) = out[start..].as_chunks_mut::<4>();
    for (d, v) in dst.iter_mut().zip(values) {
        *d = v.to_le_bytes();
    }
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

    /// `len` little-endian `u32`s, decoded in one bulk copy.
    fn u32s(&mut self, len: u64) -> Result<Vec<u32>, SnapshotDecodeError> {
        let bytes = usize::try_from(len)
            .ok()
            .and_then(|len| len.checked_mul(4))
            .ok_or(SnapshotDecodeError::Truncated {
                needed: usize::MAX,
                got: self.bytes.len(),
            })?;
        let (words, _) = self.take(bytes)?.as_chunks::<4>();
        Ok(words.iter().map(|w| u32::from_le_bytes(*w)).collect())
    }
}

impl EngineSnapshot {
    /// Serialise for durable storage. `shape` stamps the snapshot with the
    /// protocol identity so a later [`from_wire`](Self::from_wire) can refuse
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
        put_u32s(&mut out, &self.counts);
        if let Some(agents) = &self.agents {
            put_u32s(&mut out, agents);
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
        let check = lanes4(&out);
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
        let checksum = checksum_for(version).ok_or(SnapshotDecodeError::UnsupportedVersion {
            got: version,
            supported: SNAPSHOT_WIRE_VERSION,
        })?;
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
        if checksum(body) != stored {
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
        let counts = r.u32s(num_states.into())?;
        let counts_sum: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        if counts_sum != population {
            return Err(SnapshotDecodeError::ShapeMismatch {
                field: "counts_sum",
                expected: population,
                got: counts_sum,
            });
        }
        let agents = if flags & 1 != 0 {
            Some(r.u32s(population)?)
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
    use proptest::prelude::*;

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
        assert_eq!(
            finish(EngineKind::Jump, &p, snap),
            finish(EngineKind::Jump, &p, decoded)
        );
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
        assert!(matches!(
            err,
            SnapshotDecodeError::SchemaHashMismatch { .. }
        ));
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

    /// `blob` with its version field set to `version` and re-sealed with
    /// that version's checksum.
    fn reseal(blob: &[u8], version: u16) -> Vec<u8> {
        let mut out = blob[..blob.len() - 8].to_vec();
        out[6..8].copy_from_slice(&version.to_le_bytes());
        let check = checksum_for(version).expect("a decodable version")(&out);
        out.extend_from_slice(&check.to_le_bytes());
        out
    }

    /// Checkpoints written by older daemons (version 1, FNV-1a check)
    /// decode to the same snapshot as the version 2 blob of the same
    /// state; the two differ only in the version field and the check.
    #[test]
    fn version_1_blobs_still_decode() {
        for (kind, n) in [(EngineKind::Count, 8192), (EngineKind::Naive, 64)] {
            let (snap, p) = mid_run_snapshot(kind, n, 5);
            let shape = SnapshotShape::of(&p);
            let v2 = snap.to_wire(shape);
            assert_eq!(v2[6..8], SNAPSHOT_WIRE_VERSION.to_le_bytes());
            let v1 = reseal(&v2, 1);
            assert_eq!(v1.len(), v2.len());
            assert_eq!(v1[8..v1.len() - 8], v2[8..v2.len() - 8]);
            assert_eq!(fnv1a(&v1[..v1.len() - 8]).to_le_bytes(), v1[v1.len() - 8..]);
            for blob in [&v1, &v2] {
                let decoded = EngineSnapshot::from_wire(blob, shape).unwrap();
                assert_eq!(decoded.to_wire(shape), v2, "every field survives");
            }
            // A v2 check under a v1 header (and vice versa) is rejected.
            let mut mixed = v2.clone();
            mixed[6..8].copy_from_slice(&1u16.to_le_bytes());
            assert_eq!(
                EngineSnapshot::from_wire(&mixed, shape).unwrap_err(),
                SnapshotDecodeError::ChecksumMismatch
            );
        }
    }

    /// The v2 checksum is part of the format: pin it.
    #[test]
    fn version_2_checksum_is_pinned() {
        let ramp: Vec<u8> = (0..=255u8).collect();
        assert_eq!(lanes4(&[]), 0x2d28_7506_ba79_19ed);
        assert_eq!(lanes4(&ramp[..7]), 0x4ef1_7972_b2ed_11ea);
        assert_eq!(lanes4(&ramp[..45]), 0xa804_0ca0_ef12_0cd6);
        assert_eq!(lanes4(&ramp), 0x5e79_0360_fb5e_4ab9);
        // Zero padding of the last word does not alias a longer body.
        assert_ne!(
            lanes4(&ramp[..7]),
            lanes4(&[&ramp[..7], &[0u8][..]].concat())
        );
    }

    /// Every single-bit flip of a small v2 blob is a typed error: the
    /// magic, the version, or (everywhere else) the checksum catches it.
    #[test]
    fn every_single_bit_flip_is_rejected() {
        let (snap, p) = mid_run_snapshot(EngineKind::Jump, 8, 3);
        let shape = SnapshotShape::of(&p);
        let wire = snap.to_wire(shape);
        assert!(EngineSnapshot::from_wire(&wire, shape).is_ok());
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut flipped = wire.clone();
                flipped[byte] ^= 1 << bit;
                let err = EngineSnapshot::from_wire(&flipped, shape).unwrap_err();
                assert!(
                    matches!(
                        err,
                        SnapshotDecodeError::BadMagic
                            | SnapshotDecodeError::UnsupportedVersion { .. }
                            | SnapshotDecodeError::ChecksumMismatch
                    ),
                    "flip of bit {bit} in byte {byte} gave {err:?}"
                );
            }
        }
    }

    /// A valid v1 or v2 blob of a naive-engine snapshot (agents and no
    /// control block) at n = 16.
    fn fuzz_seed(version: u16) -> (Vec<u8>, SnapshotShape) {
        let (snap, p) = mid_run_snapshot(EngineKind::Naive, 16, 4);
        let shape = SnapshotShape::of(&p);
        (reseal(&snap.to_wire(shape), version), shape)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes — raw, or behind a valid header and sealed with
        /// a valid check so the field parser sees them — never panic.
        #[test]
        fn from_wire_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..160),
            version in 1u16..3,
            sealed in any::<bool>(),
        ) {
            let shape = fuzz_seed(version).1;
            let blob = if sealed {
                let mut blob = MAGIC.to_vec();
                blob.extend_from_slice(&version.to_le_bytes());
                blob.extend_from_slice(&bytes);
                blob.extend_from_slice(&[0; 8]);
                reseal(&blob, version)
            } else {
                bytes
            };
            let _ = EngineSnapshot::from_wire(&blob, shape);
        }

        /// Byte edits and truncations of valid v1 and v2 blobs, re-sealed
        /// or not, never panic; unsealed edits never decode.
        #[test]
        fn from_wire_never_panics_on_mutated_blobs(
            version in 1u16..3,
            edits in prop::collection::vec((0usize..4096, any::<u8>()), 1..6),
            keep in 0usize..4096,
            sealed in any::<bool>(),
        ) {
            let (valid, shape) = fuzz_seed(version);
            let mut blob = valid.clone();
            for (at, value) in edits {
                let at = at % blob.len();
                blob[at] = value;
            }
            blob.truncate(keep.max(16));
            if sealed && blob.len() >= 16 {
                blob = reseal(&blob, version);
            }
            let decoded = EngineSnapshot::from_wire(&blob, shape);
            if !sealed && blob != valid {
                prop_assert!(decoded.is_err());
            }
        }
    }
}
