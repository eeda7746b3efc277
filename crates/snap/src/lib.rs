//! tta-snap: the versioned, self-describing on-disk form of a
//! [`StateBag`] — and with it, deterministic snapshot/restore for the
//! whole stack (simulator, serving engine, fleet cluster).
//!
//! Every stateful component already exports its dynamic state into a
//! [`StateBag`] ([`gpu_sim::Gpu::export_state`],
//! `serve::ServeSession::export_state`, `fleet::FleetSession::export_state`,
//! [`workloads::RunSession::export_state`]). This crate adds the byte
//! layer under those bags:
//!
//! * [`encode_snapshot`] / [`decode_snapshot`] — a recursive wire format
//!   (`TTASNAP\0` magic, [`SNAP_SCHEMA_VERSION`], payload length, FNV-1a
//!   checksum) whose decoder returns structured [`SnapError`]s — it never
//!   panics on truncated, bit-flipped, or wrong-version input;
//! * [`write_snapshot`] / [`read_snapshot`] — the same, against files;
//! * [`SnapshotStore`] — a directory of snapshots keyed by the exporting
//!   session's configuration key (`harness::run_or_resume` builds its
//!   sweep warm-reuse on this);
//! * [`schema_fingerprint`] — the hash of a bag's
//!   [`StateBag::descriptor`]; the `tests/format.rs` fixture pins the
//!   fingerprints of the real exported states against
//!   [`SNAP_SCHEMA_VERSION`], so changing any serialized struct without
//!   bumping the version fails CI;
//! * `tta-snap-bisect` (in `src/bin/`) — replays a workload session
//!   chunk-by-chunk with snapshots at every boundary to localize a
//!   shadow-checker/race-sanitizer trip or a restore divergence to one
//!   launch window.
//!
//! The differential contract gating all of this lives in
//! `tests/roundtrip.rs`: for every workload × platform, and for serve and
//! fleet horizon-sharded runs, *snapshot → encode → decode → restore onto
//! a fresh host → run to completion* must produce results byte-identical
//! to the straight-line run.

use std::fmt;
use std::path::{Path, PathBuf};

pub use gpu_sim::snapshot::{fnv1a_64, BagError, SnapValue, StateBag};

/// Version written into every snapshot file. Bump this whenever any
/// exported state's schema changes (an entry added, removed, renamed or
/// re-typed anywhere in the bag tree) — the `schema_fingerprint_is_pinned`
/// test in `tests/format.rs` fails until you do.
pub const SNAP_SCHEMA_VERSION: u32 = 2;

/// Leading magic of every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"TTASNAP\0";

/// File extension used by [`SnapshotStore`].
pub const SNAP_EXTENSION: &str = "ttasnap";

const HEADER_LEN: usize = SNAP_MAGIC.len() + 4 + 8;
const CHECKSUM_LEN: usize = 8;

/// Maximum bag nesting the decoder accepts. Real exports nest a handful of
/// levels; deeper input is corrupt by definition and rejected rather than
/// recursed into.
const MAX_DEPTH: usize = 64;

const TAG_U64: u8 = 0;
const TAG_BYTES: u8 = 1;
const TAG_LIST: u8 = 2;
const TAG_BAG: u8 = 3;

/// Error from decoding or reading a snapshot. Every malformed input maps
/// to a variant here — the decoder never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// Fewer bytes than the header (or the header's payload length)
    /// promises.
    Truncated,
    /// The leading magic is not `TTASNAP\0`.
    BadMagic,
    /// The file's schema version differs from [`SNAP_SCHEMA_VERSION`].
    WrongVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The payload's FNV-1a checksum does not match the trailer.
    Checksum {
        /// Checksum recomputed over the payload.
        found: u64,
        /// Checksum stored in the file.
        expected: u64,
    },
    /// The payload is structurally malformed (bad tag, bad UTF-8 name,
    /// overrun, excessive nesting, trailing garbage).
    Corrupt(String),
    /// A filesystem error, carried as a message so the error stays
    /// comparable in tests.
    Io(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot is truncated"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::WrongVersion { found, expected } => {
                write!(f, "snapshot schema v{found}, this build reads v{expected}")
            }
            SnapError::Checksum { found, expected } => write!(
                f,
                "snapshot checksum mismatch (computed {found:#018x}, stored {expected:#018x})"
            ),
            SnapError::Corrupt(m) => write!(f, "snapshot payload is corrupt: {m}"),
            SnapError::Io(m) => write!(f, "snapshot i/o error: {m}"),
        }
    }
}

impl std::error::Error for SnapError {}

// ------------------------------------------------------------- encoding

fn encode_value(out: &mut Vec<u8>, value: &SnapValue) {
    match value {
        SnapValue::U64(v) => {
            out.push(TAG_U64);
            out.extend_from_slice(&v.to_le_bytes());
        }
        SnapValue::Bytes(b) => {
            out.push(TAG_BYTES);
            out.extend_from_slice(&(b.len() as u64).to_le_bytes());
            out.extend_from_slice(b);
        }
        SnapValue::List(items) => {
            out.push(TAG_LIST);
            out.extend_from_slice(&(items.len() as u64).to_le_bytes());
            for item in items {
                encode_value(out, item);
            }
        }
        SnapValue::Bag(bag) => {
            out.push(TAG_BAG);
            encode_bag(out, bag);
        }
    }
}

fn encode_bag(out: &mut Vec<u8>, bag: &StateBag) {
    let entries = bag.entries();
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (name, value) in entries {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        encode_value(out, value);
    }
}

/// Serializes a bag into the full snapshot byte stream: magic, schema
/// version, payload length, recursively encoded payload, FNV-1a-64
/// checksum of the payload.
pub fn encode_snapshot(bag: &StateBag) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_bag(&mut payload, bag);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&SNAP_SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let checksum = fnv1a_64(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

// ------------------------------------------------------------- decoding

/// Bounds-checked cursor over the payload; every read that would overrun
/// returns [`SnapError::Corrupt`] (the outer length/checksum checks have
/// already run, so an overrun here is a malformed payload, not a short
/// file).
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| SnapError::Corrupt(format!("{what} overruns the payload")))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, SnapError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, SnapError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SnapError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Converts a declared element count into a `usize`, rejecting counts
    /// that could not possibly fit in the remaining bytes (each element
    /// costs at least `min_bytes`) — this bounds allocations on corrupt
    /// input instead of trusting the declared count.
    fn count(&self, declared: u64, min_bytes: usize, what: &str) -> Result<usize, SnapError> {
        let n = usize::try_from(declared)
            .map_err(|_| SnapError::Corrupt(format!("{what} count overflows usize")))?;
        if n.checked_mul(min_bytes.max(1))
            .is_none_or(|b| b > self.remaining())
        {
            return Err(SnapError::Corrupt(format!(
                "{what} declares {n} elements, more than the payload can hold"
            )));
        }
        Ok(n)
    }
}

fn decode_value(r: &mut Reader<'_>, depth: usize) -> Result<SnapValue, SnapError> {
    if depth > MAX_DEPTH {
        return Err(SnapError::Corrupt(format!(
            "nesting deeper than {MAX_DEPTH} levels"
        )));
    }
    match r.u8("value tag")? {
        TAG_U64 => Ok(SnapValue::U64(r.u64("u64 value")?)),
        TAG_BYTES => {
            let declared = r.u64("bytes length")?;
            let n = r.count(declared, 1, "bytes")?;
            Ok(SnapValue::Bytes(r.take(n, "bytes value")?.to_vec()))
        }
        TAG_LIST => {
            let declared = r.u64("list length")?;
            let n = r.count(declared, 1, "list")?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(r, depth + 1)?);
            }
            Ok(SnapValue::List(items))
        }
        TAG_BAG => Ok(SnapValue::Bag(decode_bag(r, depth + 1)?)),
        tag => Err(SnapError::Corrupt(format!("unknown value tag {tag}"))),
    }
}

fn decode_bag(r: &mut Reader<'_>, depth: usize) -> Result<StateBag, SnapError> {
    if depth > MAX_DEPTH {
        return Err(SnapError::Corrupt(format!(
            "nesting deeper than {MAX_DEPTH} levels"
        )));
    }
    let declared = r.u64("entry count")?;
    // An entry is at least a 4-byte name length + 1-byte tag.
    let n = r.count(declared, 5, "bag")?;
    let mut bag = StateBag::new();
    for _ in 0..n {
        let name_len = r.u32("name length")? as usize;
        if name_len > r.remaining() {
            return Err(SnapError::Corrupt(
                "entry name overruns the payload".to_owned(),
            ));
        }
        let name = std::str::from_utf8(r.take(name_len, "entry name")?)
            .map_err(|_| SnapError::Corrupt("entry name is not UTF-8".to_owned()))?
            .to_owned();
        if bag.get(&name).is_some() {
            return Err(SnapError::Corrupt(format!("duplicate entry `{name}`")));
        }
        let value = decode_value(r, depth + 1)?;
        bag.put(&name, value);
    }
    Ok(bag)
}

/// Decodes a full snapshot byte stream back into its bag.
///
/// # Errors
///
/// The full [`SnapError`] range: [`SnapError::Truncated`] for short input,
/// [`SnapError::BadMagic`] / [`SnapError::WrongVersion`] for foreign or
/// stale files, [`SnapError::Checksum`] for bit rot, and
/// [`SnapError::Corrupt`] for structural damage. Never panics.
pub fn decode_snapshot(bytes: &[u8]) -> Result<StateBag, SnapError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(SnapError::Truncated);
    }
    if bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SNAP_SCHEMA_VERSION {
        return Err(SnapError::WrongVersion {
            found: version,
            expected: SNAP_SCHEMA_VERSION,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let payload_len = usize::try_from(payload_len).map_err(|_| SnapError::Truncated)?;
    let Some(total) = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|t| t.checked_add(CHECKSUM_LEN))
    else {
        return Err(SnapError::Truncated);
    };
    if bytes.len() < total {
        return Err(SnapError::Truncated);
    }
    if bytes.len() > total {
        return Err(SnapError::Corrupt(format!(
            "{} trailing bytes after the checksum",
            bytes.len() - total
        )));
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
    let stored = u64::from_le_bytes(
        bytes[HEADER_LEN + payload_len..]
            .try_into()
            .expect("8 bytes"),
    );
    let computed = fnv1a_64(payload);
    if computed != stored {
        return Err(SnapError::Checksum {
            found: computed,
            expected: stored,
        });
    }
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let bag = decode_bag(&mut r, 0)?;
    if r.remaining() != 0 {
        return Err(SnapError::Corrupt(format!(
            "{} undecoded bytes after the root bag",
            r.remaining()
        )));
    }
    Ok(bag)
}

// ---------------------------------------------------------------- files

/// Writes `bag` to `path` in snapshot format.
///
/// # Errors
///
/// [`SnapError::Io`] when the write fails.
pub fn write_snapshot(path: impl AsRef<Path>, bag: &StateBag) -> Result<(), SnapError> {
    let path = path.as_ref();
    std::fs::write(path, encode_snapshot(bag))
        .map_err(|e| SnapError::Io(format!("writing {}: {e}", path.display())))
}

/// Reads and decodes the snapshot at `path`.
///
/// # Errors
///
/// [`SnapError::Io`] when the read fails, otherwise whatever
/// [`decode_snapshot`] reports about the bytes.
pub fn read_snapshot(path: impl AsRef<Path>) -> Result<StateBag, SnapError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)
        .map_err(|e| SnapError::Io(format!("reading {}: {e}", path.display())))?;
    decode_snapshot(&bytes)
}

/// Hash of a bag's [`StateBag::descriptor`] — a value that changes exactly
/// when the exported schema (entry names/kinds, recursively) changes, and
/// never when only the values do. `tests/format.rs` pins the fingerprints
/// of the real exported states against [`SNAP_SCHEMA_VERSION`].
pub fn schema_fingerprint(bag: &StateBag) -> u64 {
    fnv1a_64(bag.descriptor().as_bytes())
}

// ---------------------------------------------------------------- store

/// A directory of snapshots keyed by arbitrary strings (session
/// configuration keys). File names are a sanitized prefix of the key plus
/// its FNV-1a hash, so distinct keys never collide and the files stay
/// human-browsable.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SnapError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| SnapError::Io(format!("creating {}: {e}", dir.display())))?;
        Ok(SnapshotStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path a key maps to (whether or not it exists yet).
    pub fn path_for(&self, key: &str) -> PathBuf {
        let mut stem: String = key
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '-'
                }
            })
            .take(48)
            .collect();
        if stem.is_empty() {
            stem.push('x');
        }
        self.dir.join(format!(
            "{stem}-{:016x}.{SNAP_EXTENSION}",
            fnv1a_64(key.as_bytes())
        ))
    }

    /// Whether a snapshot for `key` exists.
    pub fn contains(&self, key: &str) -> bool {
        self.path_for(key).is_file()
    }

    /// Writes `bag` under `key`, returning the file path.
    ///
    /// # Errors
    ///
    /// [`SnapError::Io`] when the write fails.
    pub fn save(&self, key: &str, bag: &StateBag) -> Result<PathBuf, SnapError> {
        let path = self.path_for(key);
        write_snapshot(&path, bag)?;
        Ok(path)
    }

    /// Reads the snapshot stored under `key`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Io`] when no snapshot exists (or the read fails),
    /// otherwise whatever [`decode_snapshot`] reports.
    pub fn load(&self, key: &str) -> Result<StateBag, SnapError> {
        read_snapshot(self.path_for(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bag() -> StateBag {
        let mut inner = StateBag::new();
        inner.put("clock", SnapValue::U64(1234));
        inner.put("image", SnapValue::Bytes(vec![0xde, 0xad, 0xbe, 0xef]));
        let mut bag = StateBag::new();
        bag.put("answer", SnapValue::U64(42));
        bag.put("ratio", SnapValue::U64((-1.5f64).to_bits()));
        bag.put("blob", SnapValue::Bytes((0..=255).collect()));
        bag.put(
            "stamps",
            SnapValue::List([0, 1, u64::MAX].map(SnapValue::U64).to_vec()),
        );
        bag.put(
            "mixed",
            SnapValue::List(vec![
                SnapValue::U64(7),
                SnapValue::Bytes(vec![]),
                SnapValue::List(vec![SnapValue::U64(8)]),
                SnapValue::Bag(inner.clone()),
            ]),
        );
        bag.put("gpu", SnapValue::Bag(inner));
        bag
    }

    #[test]
    fn encode_decode_roundtrips_every_kind() {
        let bag = sample_bag();
        let bytes = encode_snapshot(&bag);
        assert_eq!(decode_snapshot(&bytes), Ok(bag));
    }

    #[test]
    fn empty_bag_roundtrips() {
        let bytes = encode_snapshot(&StateBag::new());
        assert_eq!(bytes.len(), HEADER_LEN + 8 + CHECKSUM_LEN);
        assert_eq!(decode_snapshot(&bytes), Ok(StateBag::new()));
    }

    #[test]
    fn every_truncation_errors_never_panics() {
        let bytes = encode_snapshot(&sample_bag());
        for len in 0..bytes.len() {
            let got = decode_snapshot(&bytes[..len]);
            assert!(got.is_err(), "prefix of {len} bytes decoded successfully");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode_snapshot(&sample_bag());
        let original = decode_snapshot(&bytes).unwrap();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                match decode_snapshot(&bad) {
                    Err(_) => {}
                    // A flip in the payload-length field can still parse
                    // iff it also survives the structural checks — it
                    // must at least not silently change the contents.
                    Ok(bag) => assert_eq!(
                        bag, original,
                        "flip of bit {bit} in byte {i} silently changed the decoded state"
                    ),
                }
            }
        }
    }

    #[test]
    fn header_errors_are_structured() {
        let good = encode_snapshot(&sample_bag());

        let mut magic = good.clone();
        magic[0] = b'X';
        assert_eq!(decode_snapshot(&magic), Err(SnapError::BadMagic));

        let mut version = good.clone();
        version[8..12].copy_from_slice(&(SNAP_SCHEMA_VERSION + 7).to_le_bytes());
        assert_eq!(
            decode_snapshot(&version),
            Err(SnapError::WrongVersion {
                found: SNAP_SCHEMA_VERSION + 7,
                expected: SNAP_SCHEMA_VERSION
            })
        );

        let mut flipped = good.clone();
        let p = HEADER_LEN + 3;
        flipped[p] ^= 0x40;
        assert!(matches!(
            decode_snapshot(&flipped),
            Err(SnapError::Checksum { .. })
        ));

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            decode_snapshot(&trailing),
            Err(SnapError::Corrupt(_))
        ));

        assert_eq!(decode_snapshot(&good[..10]), Err(SnapError::Truncated));
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A payload declaring 2^60 list elements must be rejected by the
        // remaining-bytes bound, not attempted.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes()); // one entry
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(b'l');
        payload.push(TAG_LIST);
        payload.extend_from_slice(&(1u64 << 60).to_le_bytes());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAP_MAGIC);
        bytes.extend_from_slice(&SNAP_SCHEMA_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a_64(&payload).to_le_bytes());
        bytes.splice(HEADER_LEN..HEADER_LEN, payload);
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn store_roundtrips_and_sanitizes_keys() {
        let dir = std::env::temp_dir().join(format!("tta-snap-store-{}", std::process::id()));
        let store = SnapshotStore::open(&dir).unwrap();
        let key = "B-Tree 64k keys TTA+|warp=32/chunks=3";
        assert!(!store.contains(key));
        let bag = sample_bag();
        let path = store.save(key, &bag).unwrap();
        assert!(path.starts_with(&dir));
        let name = path.file_name().unwrap().to_str().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')),
            "unsanitized store file name {name}"
        );
        assert!(store.contains(key));
        assert_eq!(store.load(key), Ok(bag));
        // Distinct keys with the same sanitized prefix stay distinct.
        assert_ne!(store.path_for("a|b"), store.path_for("a/b"));
        assert!(matches!(store.load("absent"), Err(SnapError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_fingerprint_tracks_names_not_values() {
        let a = schema_fingerprint(&sample_bag());
        let mut other = sample_bag();
        assert_eq!(a, schema_fingerprint(&other));
        other.put("extra", SnapValue::U64(1));
        assert_ne!(a, schema_fingerprint(&other));
    }
}
