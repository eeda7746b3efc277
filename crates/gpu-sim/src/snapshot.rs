//! Deterministic state capture: the [`StateBag`] container every simulator
//! component exports its dynamic state into (and restores it from).
//!
//! A bag is an *ordered* list of named values — order is part of the
//! contract, so exporting the same state twice yields the same bag and the
//! same serialized bytes. The bag is deliberately self-describing (names +
//! value kinds, recursively), which gives the `tta-snap` crate two things
//! for free: a versioned wire format that can report structured errors
//! instead of panicking on corrupt input, and a schema fingerprint
//! ([`StateBag::descriptor`]) that a dedicated test pins so that changing
//! any serialized struct without bumping the snapshot schema version fails
//! CI.
//!
//! Only *dynamic* state goes into a bag. Configuration (cache geometry,
//! unit latencies, μop programs, semantics closures, trait objects) is
//! reconstructed from the experiment definition on restore, and the bag is
//! overlaid onto that identically-configured host. Containers with
//! nondeterministic iteration order (`HashMap`, `BinaryHeap`) are exported
//! in sorted order so equal states export equal bags.
//!
//! No component writes its layout twice. [`snap_fields!`](crate::snap_fields) takes a struct's
//! snapshotted fields once, in bag order, and generates both
//! `export_state` and `import_state`; [`Snap`] maps each field to and from
//! one [`SnapValue`]. The leaf shapes: integers and `f64` (via `to_bits`)
//! as `u64`, `Option<u64>`/`Option<usize>` as `0` for `None` and `v + 1`
//! for `Some(v)`, strings as bytes, pair containers as flattened
//! `[k, v, …]` lists, fixed-arity counter rows ([`snap_row!`](crate::snap_row)) and nested
//! components ([`snap_state!`](crate::snap_state)). A plain `Vec` is a dynamic list whose
//! contents the snapshot replaces; a `#[host]` list is shaped by the host
//! (per-SM L1s, L2 sets, unit pools, engines) and a length mismatch is a
//! [`BagError::Mismatch`]. The few irregular layouts (the zero-tail-elided
//! memory image, the ray-tracing surfel blob, the TTA+ unit pools) are
//! hand-written from the same leaves.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

/// Error from reading a [`StateBag`] (missing entry, kind mismatch, or a
/// value inconsistent with the host the bag is being restored onto).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BagError {
    /// No entry with the requested name.
    Missing(String),
    /// The entry exists but holds a different value kind.
    WrongKind(String),
    /// The value is inconsistent with the restore host (e.g. a per-SM list
    /// whose length disagrees with the configured SM count).
    Mismatch(String),
}

impl fmt::Display for BagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BagError::Missing(n) => write!(f, "snapshot entry `{n}` is missing"),
            BagError::WrongKind(n) => write!(f, "snapshot entry `{n}` has the wrong kind"),
            BagError::Mismatch(m) => write!(f, "snapshot does not fit this host: {m}"),
        }
    }
}

impl std::error::Error for BagError {}

/// One exported value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapValue {
    /// An unsigned 64-bit integer (also carries `f64` via `to_bits`).
    U64(u64),
    /// Raw bytes (e.g. the global-memory image).
    Bytes(Vec<u8>),
    /// A homogeneous-by-convention sequence.
    List(Vec<SnapValue>),
    /// A nested bag.
    Bag(StateBag),
}

impl SnapValue {
    /// One-character kind tag used by [`StateBag::descriptor`].
    fn kind(&self) -> char {
        match self {
            SnapValue::U64(_) => 'u',
            SnapValue::Bytes(_) => 'b',
            SnapValue::List(_) => 'l',
            SnapValue::Bag(_) => 'g',
        }
    }

    /// The `u64` this value holds.
    ///
    /// # Errors
    ///
    /// [`BagError::WrongKind`] (naming entry `name`) for any other kind.
    pub fn as_u64(&self, name: &str) -> Result<u64, BagError> {
        match self {
            SnapValue::U64(v) => Ok(*v),
            _ => Err(BagError::WrongKind(name.to_owned())),
        }
    }

    /// The bytes this value holds.
    ///
    /// # Errors
    ///
    /// [`BagError::WrongKind`] (naming entry `name`) for any other kind.
    pub fn as_bytes(&self, name: &str) -> Result<&[u8], BagError> {
        match self {
            SnapValue::Bytes(v) => Ok(v),
            _ => Err(BagError::WrongKind(name.to_owned())),
        }
    }

    /// The list this value holds.
    ///
    /// # Errors
    ///
    /// [`BagError::WrongKind`] (naming entry `name`) for any other kind.
    pub fn as_list(&self, name: &str) -> Result<&[SnapValue], BagError> {
        match self {
            SnapValue::List(v) => Ok(v),
            _ => Err(BagError::WrongKind(name.to_owned())),
        }
    }

    /// The nested bag this value holds.
    ///
    /// # Errors
    ///
    /// [`BagError::WrongKind`] (naming entry `name`) for any other kind.
    pub fn as_bag(&self, name: &str) -> Result<&StateBag, BagError> {
        match self {
            SnapValue::Bag(v) => Ok(v),
            _ => Err(BagError::WrongKind(name.to_owned())),
        }
    }
}

/// An ordered collection of named [`SnapValue`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateBag {
    entries: Vec<(String, SnapValue)>,
}

impl StateBag {
    /// An empty bag.
    pub fn new() -> Self {
        StateBag::default()
    }

    /// Appends `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name — each exporter owns its namespace and a
    /// duplicate is a bug, not input.
    pub fn put(&mut self, name: &str, value: SnapValue) {
        assert!(
            self.get(name).is_none(),
            "duplicate snapshot entry `{name}`"
        );
        self.entries.push((name.to_owned(), value));
    }

    /// Looks up an entry by name.
    pub fn get(&self, name: &str) -> Option<&SnapValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Looks up an entry that must exist.
    ///
    /// # Errors
    ///
    /// [`BagError::Missing`] when no entry is named `name`.
    pub fn entry(&self, name: &str) -> Result<&SnapValue, BagError> {
        self.get(name)
            .ok_or_else(|| BagError::Missing(name.to_owned()))
    }

    /// The entries, in export order.
    pub fn entries(&self) -> &[(String, SnapValue)] {
        &self.entries
    }

    /// The bag's schema descriptor: entry names and value kinds,
    /// recursively, with value *contents* elided. Two states exported by
    /// the same code produce the same descriptor; a code change that adds,
    /// removes, renames or re-types an entry changes it. The `tta-snap`
    /// schema-fingerprint test pins this string's hash against
    /// `SNAP_SCHEMA_VERSION`.
    pub fn descriptor(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(name);
            out.push(':');
            match value {
                SnapValue::Bag(b) => out.push_str(&b.descriptor()),
                SnapValue::List(items) => {
                    out.push('[');
                    // A list's schema is its first element's (lists are
                    // homogeneous by convention; an empty list elides it).
                    if let Some(first) = items.first() {
                        match first {
                            SnapValue::Bag(b) => out.push_str(&b.descriptor()),
                            other => out.push(other.kind()),
                        }
                    }
                    out.push(']');
                }
                other => out.push(other.kind()),
            }
        }
        out.push('}');
        out
    }
}

/// FNV-1a 64-bit hash — the snapshot subsystem's checksum/fingerprint
/// primitive (`tta-snap` file checksums, schema fingerprints, and the
/// session-identity guards that reject resuming onto the wrong stream).
/// Chosen for being dependency-free and byte-order independent, not for
/// collision resistance: a mismatch is a *diagnostic*, corruption beyond
/// it shows up as a downstream [`BagError`].
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ------------------------------------------------------------ state codec

/// Maps a value to and from one [`SnapValue`]: the leaf shapes of the
/// state codec. [`snap_fields!`](crate::snap_fields) builds a component's
/// `export_state`/`import_state` pair from these, one entry per field.
///
/// `load` overwrites in place, so a value whose shape comes from the host
/// (a nested component, a fixed-arity row) keeps that shape and rejects a
/// snapshot that does not fit it, while a plain value is replaced.
pub trait Snap {
    /// The value's snapshot form.
    fn save(&self) -> SnapValue;

    /// Overwrites `self` with what `v` holds; `name` labels errors.
    ///
    /// # Errors
    ///
    /// [`BagError::WrongKind`] when `v` has another shape,
    /// [`BagError::Mismatch`] when it does not fit this value.
    fn load(&mut self, v: &SnapValue, name: &str) -> Result<(), BagError>;
}

impl Snap for u64 {
    fn save(&self) -> SnapValue {
        SnapValue::U64(*self)
    }

    fn load(&mut self, v: &SnapValue, name: &str) -> Result<(), BagError> {
        *self = v.as_u64(name)?;
        Ok(())
    }
}

/// Narrower integers travel as `u64` and are range-checked on load.
macro_rules! snap_narrow {
    ($($t:ty),+) => {$(
        impl Snap for $t {
            fn save(&self) -> SnapValue {
                SnapValue::U64(*self as u64)
            }

            fn load(&mut self, v: &SnapValue, name: &str) -> Result<(), BagError> {
                *self = <$t>::try_from(v.as_u64(name)?)
                    .map_err(|_| BagError::Mismatch(format!("`{name}` is out of range")))?;
                Ok(())
            }
        }
    )+};
}

snap_narrow!(u32, usize);

/// `None` is stored as `0`, `Some(v)` as `v + 1`.
macro_rules! snap_option {
    ($($t:ty),+) => {$(
        impl Snap for Option<$t> {
            fn save(&self) -> SnapValue {
                SnapValue::U64(self.map_or(0, |v| v as u64 + 1))
            }

            fn load(&mut self, v: &SnapValue, name: &str) -> Result<(), BagError> {
                *self = match v.as_u64(name)?.checked_sub(1) {
                    None => None,
                    Some(raw) => {
                        let mut x: $t = 0;
                        x.load(&SnapValue::U64(raw), name)?;
                        Some(x)
                    }
                };
                Ok(())
            }
        }
    )+};
}

snap_option!(u64, usize);

impl Snap for bool {
    fn save(&self) -> SnapValue {
        SnapValue::U64(u64::from(*self))
    }

    fn load(&mut self, v: &SnapValue, name: &str) -> Result<(), BagError> {
        *self = v.as_u64(name)? != 0;
        Ok(())
    }
}

/// Bit-exact, via `to_bits`.
impl Snap for f64 {
    fn save(&self) -> SnapValue {
        SnapValue::U64(self.to_bits())
    }

    fn load(&mut self, v: &SnapValue, name: &str) -> Result<(), BagError> {
        *self = f64::from_bits(v.as_u64(name)?);
        Ok(())
    }
}

/// UTF-8 bytes.
impl Snap for String {
    fn save(&self) -> SnapValue {
        SnapValue::Bytes(self.as_bytes().to_vec())
    }

    fn load(&mut self, v: &SnapValue, name: &str) -> Result<(), BagError> {
        *self = String::from_utf8(v.as_bytes(name)?.to_vec())
            .map_err(|_| BagError::Mismatch(format!("`{name}` is not UTF-8")))?;
        Ok(())
    }
}

/// A dynamic list: the snapshot's elements replace the host's.
impl<T: Snap + Default> Snap for Vec<T> {
    fn save(&self) -> SnapValue {
        save_each(self)
    }

    fn load(&mut self, v: &SnapValue, name: &str) -> Result<(), BagError> {
        self.clear();
        self.resize_with(v.as_list(name)?.len(), T::default);
        load_each(self.iter_mut(), v, name)
    }
}

/// A fixed-arity row: the length is the host's.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self) -> SnapValue {
        save_each(self)
    }

    fn load(&mut self, v: &SnapValue, name: &str) -> Result<(), BagError> {
        load_each(self.iter_mut(), v, name)
    }
}

/// Pair containers are flattened to `[k, v, k, v, …]`; the snapshot's
/// pairs replace the host's.
macro_rules! snap_pairs {
    ($($t:ty => |$c:ident| $pairs:expr;)+) => {$(
        impl Snap for $t {
            fn save(&self) -> SnapValue {
                let $c = self;
                SnapValue::List(
                    $pairs
                        .flat_map(|(a, b): (u64, u64)| [SnapValue::U64(a), SnapValue::U64(b)])
                        .collect(),
                )
            }

            fn load(&mut self, v: &SnapValue, name: &str) -> Result<(), BagError> {
                let flat = v.as_list(name)?;
                if !flat.len().is_multiple_of(2) {
                    return Err(BagError::Mismatch(format!("odd pair list `{name}`")));
                }
                *self = flat
                    .chunks_exact(2)
                    .map(|p| Ok((p[0].as_u64(name)?, p[1].as_u64(name)?)))
                    .collect::<Result<_, BagError>>()?;
                Ok(())
            }
        }
    )+};
}

snap_pairs! {
    Vec<(u64, u64)> => |c| c.iter().copied();
    VecDeque<(u64, u64)> => |c| c.iter().copied();
    BTreeMap<u64, u64> => |c| c.iter().map(|(&k, &v)| (k, v));
    // Sorted by key, so equal maps export equal lists.
    HashMap<u64, u64> => |c| {
        let mut pairs: Vec<(u64, u64)> = c.iter().map(|(&k, &v)| (k, v)).collect();
        pairs.sort_unstable();
        pairs.into_iter()
    };
}

/// Saves a sequence as a list, one element each.
pub fn save_each<'a, T: Snap + ?Sized + 'a>(items: impl IntoIterator<Item = &'a T>) -> SnapValue {
    SnapValue::List(items.into_iter().map(Snap::save).collect())
}

/// Loads a list element by element onto a host-shaped sequence.
///
/// # Errors
///
/// [`BagError::Mismatch`] when the list length differs from the host's,
/// or any element error.
pub fn load_each<'a, T: Snap + ?Sized + 'a>(
    items: impl ExactSizeIterator<Item = &'a mut T>,
    v: &SnapValue,
    name: &str,
) -> Result<(), BagError> {
    let list = v.as_list(name)?;
    if list.len() != items.len() {
        return Err(BagError::Mismatch(format!(
            "snapshot `{name}` has {} entries, host has {}",
            list.len(),
            items.len()
        )));
    }
    items.zip(list).try_for_each(|(x, v)| x.load(v, name))
}

/// Checks that entry `name` equals the host's own value for it.
///
/// # Errors
///
/// [`BagError::Mismatch`] when they differ.
pub fn check_equal(host: &SnapValue, v: &SnapValue, name: &str) -> Result<(), BagError> {
    if host == v {
        Ok(())
    } else {
        Err(BagError::Mismatch(format!(
            "snapshot `{name}` differs from this host's"
        )))
    }
}

/// Generates a component's `export_state`/`import_state` pair from one
/// field list, in bag order:
///
/// ```ignore
/// gpu_sim::snap_fields! {
///     pub fn export_state / import_state, before export assert_quiet, after import check_fit;
///     stamp,                              // self.stamp via `Snap`
///     invocations: stats.invocations,     // entry name, then a path
///     #[host] units,                      // host-shaped list: lengths must match
///     #[check] key,                       // must equal the host's own value
///     #[host] done: queries[..].completion, // one column of a host-shaped list
///     ids: queue[..].0,                   // a column that sizes a dynamic list
/// }
/// ```
///
/// Attributes before the header (e.g. a `# Panics` doc section) go on
/// the export. A path may end in a call (`arrivals.len()`) for
/// `#[check]` entries. The optional hooks name methods: `before export`
/// runs first on export (a quiescence assertion), `after import` runs
/// last on import and returns `Result<(), BagError>` (cross-field
/// checks, derived state).
/// Import stops at the first error and may leave the value partly
/// overwritten; callers discard it.
#[macro_export]
macro_rules! snap_fields {
    (
        $(#[$export_doc:meta])*
        $vis:vis fn $export:ident / $import:ident
        $(, before export $guard:ident)?
        $(, after import $check:ident)?;
        $( $(#[$mode:ident])? $name:ident
           $(: $($path:ident).+ $([..] $(.$col:tt)+)? $(($($arg:tt)*))?)? ),+ $(,)?
    ) => {
        /// Exports this component's dynamic state, one entry per field of
        /// its snapshot field list.
        $(#[$export_doc])*
        $vis fn $export(&self) -> $crate::snapshot::StateBag {
            $(self.$guard();)?
            let mut bag = $crate::snapshot::StateBag::new();
            $( $crate::snap_fields!(@save self bag [$($mode)?] $name
                [$( $($path).+ $( ($($arg)*) )? )?] [$( $( $(.$col)+ )? )?]); )+
            bag
        }

        /// Restores state exported by the matching export onto a host
        /// built from the same configuration.
        ///
        /// # Errors
        ///
        /// `BagError` when an entry is missing, has the wrong kind, or
        /// does not fit this host.
        $vis fn $import(
            &mut self,
            bag: &$crate::snapshot::StateBag,
        ) -> Result<(), $crate::snapshot::BagError> {
            $( $crate::snap_fields!(@load self bag [$($mode)?] $name
                [$( $($path).+ $( ($($arg)*) )? )?] [$( $( $(.$col)+ )? )?]); )+
            $(self.$check()?;)?
            Ok(())
        }
    };

    (@place $s:ident $name:ident []) => { $s.$name };
    (@place $s:ident $name:ident [$($p:tt)+]) => { $s.$($p)+ };

    (@save $s:ident $b:ident [host] $name:ident $p:tt []) => {
        $b.put(
            stringify!($name),
            $crate::snapshot::save_each(&$crate::snap_fields!(@place $s $name $p)),
        )
    };
    (@save $s:ident $b:ident [$($m:ident)?] $name:ident $p:tt []) => {
        $b.put(
            stringify!($name),
            $crate::snapshot::Snap::save(&$crate::snap_fields!(@place $s $name $p)),
        )
    };
    (@save $s:ident $b:ident [$($m:ident)?] $name:ident $p:tt [$($c:tt)+]) => {
        $b.put(
            stringify!($name),
            $crate::snapshot::save_each(
                $crate::snap_fields!(@place $s $name $p).iter().map(|e| &e $($c)+),
            ),
        )
    };

    (@load $s:ident $b:ident [] $name:ident $p:tt []) => {
        $crate::snapshot::Snap::load(
            &mut $crate::snap_fields!(@place $s $name $p),
            $b.entry(stringify!($name))?,
            stringify!($name),
        )?
    };
    (@load $s:ident $b:ident [host] $name:ident $p:tt []) => {
        $crate::snapshot::load_each(
            $crate::snap_fields!(@place $s $name $p).iter_mut(),
            $b.entry(stringify!($name))?,
            stringify!($name),
        )?
    };
    (@load $s:ident $b:ident [check] $name:ident $p:tt []) => {
        $crate::snapshot::check_equal(
            &$crate::snapshot::Snap::save(&$crate::snap_fields!(@place $s $name $p)),
            $b.entry(stringify!($name))?,
            stringify!($name),
        )?
    };
    (@load $s:ident $b:ident [host] $name:ident $p:tt [$($c:tt)+]) => {
        $crate::snapshot::load_each(
            $crate::snap_fields!(@place $s $name $p).iter_mut().map(|e| &mut e $($c)+),
            $b.entry(stringify!($name))?,
            stringify!($name),
        )?
    };
    (@load $s:ident $b:ident [] $name:ident $p:tt [$($c:tt)+]) => {{
        let v = $b.entry(stringify!($name))?;
        let place = &mut $crate::snap_fields!(@place $s $name $p);
        place.resize(v.as_list(stringify!($name))?.len(), Default::default());
        $crate::snapshot::load_each(
            place.iter_mut().map(|e| &mut e $($c)+),
            v,
            stringify!($name),
        )?
    }};
}

/// Implements [`Snap`] for fixed-arity rows of leaf fields, stored as a
/// list in field order: `snap_row!(CacheStats { hits, misses, mshr_merges });`.
#[macro_export]
macro_rules! snap_row {
    ($($t:ty { $($f:ident),+ $(,)? });+ $(;)?) => {$(
        impl $crate::snapshot::Snap for $t {
            fn save(&self) -> $crate::snapshot::SnapValue {
                $crate::snapshot::SnapValue::List(vec![$($crate::snapshot::Snap::save(&self.$f)),+])
            }

            fn load(
                &mut self,
                v: &$crate::snapshot::SnapValue,
                name: &str,
            ) -> Result<(), $crate::snapshot::BagError> {
                $crate::snapshot::load_each(
                    [$(&mut self.$f as &mut dyn $crate::snapshot::Snap),+].into_iter(),
                    v,
                    name,
                )
            }
        }
    )+};
}

/// Implements [`Snap`] as a nested bag for components that have an
/// `export_state`/`import_state` pair (usually from
/// [`snap_fields!`](crate::snap_fields)).
#[macro_export]
macro_rules! snap_state {
    ($($t:ty),+ $(,)?) => {$(
        impl $crate::snapshot::Snap for $t {
            fn save(&self) -> $crate::snapshot::SnapValue {
                $crate::snapshot::SnapValue::Bag(self.export_state())
            }

            fn load(
                &mut self,
                v: &$crate::snapshot::SnapValue,
                name: &str,
            ) -> Result<(), $crate::snapshot::BagError> {
                self.import_state(v.as_bag(name)?)
            }
        }
    )+};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    /// A component exercising every entry form of `snap_fields!`.
    #[derive(Debug, Default, PartialEq)]
    struct Probe {
        clock: u64,
        ratio: f64,
        done: Option<usize>,
        key: String,
        pairs: HashMap<u64, u64>,
        slots: [u32; 2],
        queue: VecDeque<(usize, u64)>,
        outcomes: Vec<(u64, bool)>,
        inner: Inner,
    }

    #[derive(Debug, Default, PartialEq)]
    struct Inner {
        depth: u64,
    }

    impl Probe {
        crate::snap_fields! {
            fn export_state / import_state, after import check_clock;
            clock,
            ratio,
            done,
            #[check] key,
            pairs,
            #[host] slots,
            ids: queue[..].0,
            #[host] arrivals: queue[..].1,
            #[host] flags: outcomes[..].1,
            depth: inner.depth,
        }

        fn check_clock(&self) -> Result<(), BagError> {
            if self.clock == u64::MAX {
                return Err(BagError::Mismatch("clock".into()));
            }
            Ok(())
        }
    }

    fn probe() -> Probe {
        Probe {
            clock: 42,
            ratio: -1.5,
            done: Some(0),
            key: "k".into(),
            pairs: [(9, 1), (3, 4)].into_iter().collect(),
            slots: [7, 8],
            queue: [(5, 50), (6, 60)].into_iter().collect(),
            outcomes: vec![(0, true), (0, false)],
            inner: Inner { depth: 2 },
        }
    }

    fn host() -> Probe {
        Probe {
            key: "k".into(),
            outcomes: vec![(0, false); 2],
            ..Probe::default()
        }
    }

    #[test]
    fn field_list_roundtrips_every_entry_form() {
        let bag = probe().export_state();
        let names: Vec<&str> = bag.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "clock", "ratio", "done", "key", "pairs", "slots", "ids", "arrivals", "flags",
                "depth"
            ]
        );
        assert_eq!(bag.get("ratio"), Some(&SnapValue::U64((-1.5f64).to_bits())));
        assert_eq!(bag.get("done"), Some(&SnapValue::U64(1)));
        // Hash maps export sorted and flattened.
        assert_eq!(bag.get("pairs"), Some(&save_each(&[3u64, 4, 9, 1])));
        let mut restored = host();
        restored.import_state(&bag).expect("fits the host");
        assert_eq!(restored, probe());
    }

    #[test]
    fn host_shapes_and_checks_are_typed_errors() {
        let bag = probe().export_state();
        let mut other_key = Probe {
            key: "other".into(),
            ..host()
        };
        assert!(matches!(
            other_key.import_state(&bag),
            Err(BagError::Mismatch(_))
        ));
        // One outcome fewer than the snapshot: a host-shaped column.
        let mut short = Probe {
            outcomes: vec![(0, false)],
            ..host()
        };
        assert!(matches!(
            short.import_state(&bag),
            Err(BagError::Mismatch(_))
        ));
        let mut p = probe();
        p.clock = u64::MAX;
        assert_eq!(
            host().import_state(&p.export_state()),
            Err(BagError::Mismatch("clock".into()))
        );
        let mut empty = host();
        assert_eq!(
            empty.import_state(&StateBag::new()),
            Err(BagError::Missing("clock".into()))
        );
    }

    #[test]
    fn leaves_reject_malformed_values() {
        let mut x = 0u32;
        assert!(matches!(
            x.load(&SnapValue::U64(u64::MAX), "x"),
            Err(BagError::Mismatch(_))
        ));
        assert_eq!(
            x.load(&SnapValue::Bytes(vec![]), "x"),
            Err(BagError::WrongKind("x".into()))
        );
        let mut row = [0u64; 3];
        assert!(matches!(
            row.load(&save_each(&[1u64, 2]), "row"),
            Err(BagError::Mismatch(_))
        ));
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        assert!(matches!(
            pairs.load(&save_each(&[1u64, 2, 3]), "pairs"),
            Err(BagError::Mismatch(_))
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot entry")]
    fn duplicate_names_are_bugs() {
        let mut bag = StateBag::new();
        bag.put("a", SnapValue::U64(1));
        bag.put("a", SnapValue::U64(2));
    }

    #[test]
    fn descriptor_reflects_names_and_kinds_not_values() {
        let build = |v: u64| {
            let mut b = StateBag::new();
            b.put("clock", v.save());
            b.put("stamps", [v, v + 1].save());
            b
        };
        assert_eq!(build(1).descriptor(), build(999).descriptor());
        assert_eq!(build(1).descriptor(), "{clock:u,stamps:[u]}");
        let mut renamed = StateBag::new();
        renamed.put("cycle", 1u64.save());
        renamed.put("stamps", [1u64, 2].save());
        assert_ne!(build(1).descriptor(), renamed.descriptor());
    }
}
