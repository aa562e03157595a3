//! Versioned, dependency-free binary snapshot encoding.
//!
//! Crash-safe simulation needs a way to freeze a mid-run cluster —
//! event queue, RNG cursors, engine state, fault counters — and revive
//! it in a fresh process such that the continued run is bit-identical
//! to one that never stopped. The encoding here is deliberately dumb:
//! little-endian fixed-width primitives behind a magic/version
//! envelope, with named section tags so a reader that drifts out of
//! sync fails loudly at the next section boundary instead of silently
//! misinterpreting bytes.
//!
//! Every stateful type implements [`Snap`]: `save` appends its dynamic
//! state to a [`SnapWriter`] and `load` overwrites that state in place
//! from a [`SnapReader`]. Configuration (geometry, topology, installed
//! programs) is not encoded: a restoring process rebuilds the value
//! from the same configuration and then loads the dynamic state on top.
//!
//! Structs and enums declare their codec with
//! [`snap_fields!`](crate::snap_fields) and [`snap_enum!`](crate::snap_enum):
//! one list names every field in wire order, and both directions are
//! generated from it. The expansion destructures `Self` exhaustively, so
//! a field missing from the list (dynamic, or marked `static` for
//! rebuilt configuration) is a compile error, and the writer and reader
//! cannot disagree on order because there is only one order.
//! Hand-written impls remain for the leaves (integers, time, containers)
//! and for the few codecs that validate what they decode or are not a
//! field list. No lint rule has to police the convention.
//!
//! # Example
//!
//! ```
//! use asan_sim::snap::{SnapReader, SnapWriter};
//!
//! let mut w = SnapWriter::new();
//! w.section("demo");
//! w.u64(42);
//! w.str("hello");
//! let bytes = w.into_bytes();
//!
//! let mut r = SnapReader::new(&bytes).unwrap();
//! r.section("demo").unwrap();
//! assert_eq!(r.u64().unwrap(), 42);
//! assert_eq!(r.str().unwrap(), "hello");
//! r.finish().unwrap();
//! ```
//!
//! A declared struct: `grid` is rebuilt from configuration, `hits` and
//! `last` are dynamic state.
//!
//! ```
//! use asan_sim::snap::{Snap, SnapReader, SnapWriter};
//! use asan_sim::{snap_fields, SimTime};
//!
//! #[derive(Default)]
//! struct Probe {
//!     grid: u32,
//!     hits: u64,
//!     last: Option<SimTime>,
//! }
//! snap_fields! { Probe { "probe", hits, last, static grid } }
//!
//! let p = Probe { grid: 8, hits: 3, last: Some(SimTime::from_ns(2)) };
//! let mut w = SnapWriter::new();
//! p.save(&mut w);
//! let bytes = w.into_bytes();
//!
//! let mut q = Probe { grid: 8, ..Probe::default() };
//! let mut r = SnapReader::new(&bytes).unwrap();
//! q.load(&mut r).unwrap();
//! r.finish().unwrap();
//! assert_eq!((q.hits, q.last), (3, Some(SimTime::from_ns(2))));
//! ```
//!
//! Leaving a field out of the declaration does not compile:
//!
//! ```compile_fail
//! use asan_sim::snap_fields;
//!
//! struct Probe {
//!     hits: u64,
//!     misses: u64,
//! }
//! snap_fields! { Probe { hits } }
//! ```

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::rc::Rc;

use crate::time::{SimDuration, SimTime};

/// Magic bytes opening every snapshot (`ASNP` — Active SAN snapshot).
const MAGIC: [u8; 4] = *b"ASNP";

/// Current encoding version. Bump on any incompatible layout change;
/// readers reject snapshots from other versions rather than guessing.
pub const SNAP_VERSION: u16 = 1;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the requested value.
    Truncated {
        /// Bytes needed beyond the end of the buffer.
        needed: usize,
    },
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an incompatible encoder version.
    BadVersion {
        /// The version found in the envelope.
        found: u16,
    },
    /// A section tag did not match the expected name.
    BadSection {
        /// The section the reader expected.
        expected: String,
        /// The section actually present.
        found: String,
    },
    /// A value decoded but is semantically impossible.
    Malformed(&'static str),
    /// Trailing bytes remained after [`SnapReader::finish`].
    TrailingBytes {
        /// Number of undecoded bytes left.
        left: usize,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { needed } => {
                write!(f, "snapshot truncated ({needed} more bytes needed)")
            }
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::BadVersion { found } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (want {SNAP_VERSION})"
                )
            }
            SnapError::BadSection { expected, found } => {
                write!(
                    f,
                    "snapshot section mismatch: expected `{expected}`, found `{found}`"
                )
            }
            SnapError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapError::TrailingBytes { left } => {
                write!(f, "snapshot has {left} trailing bytes")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Serializes primitives into a versioned snapshot buffer.
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl Default for SnapWriter {
    fn default() -> Self {
        SnapWriter::new()
    }
}

impl SnapWriter {
    /// Creates a writer with the magic/version envelope already
    /// emitted.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        SnapWriter { buf }
    }

    /// Emits a named section tag. Readers that call
    /// [`SnapReader::section`] with the same name verify the stream is
    /// still in sync.
    pub fn section(&mut self, name: &str) {
        self.str(name);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes an `f64` by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a [`SimTime`] (raw picoseconds).
    pub fn time(&mut self, t: SimTime) {
        self.u64(t.as_ps());
    }

    /// Writes a [`SimDuration`] (raw picoseconds).
    pub fn dur(&mut self, d: SimDuration) {
        self.u64(d.as_ps());
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes `Some(v)`/`None` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        self.bool(v.is_some());
        self.u64(v.unwrap_or(0));
    }

    /// Finishes the snapshot, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Decodes a snapshot buffer produced by [`SnapWriter`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Opens a snapshot, validating the magic/version envelope.
    pub fn new(buf: &'a [u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader { buf, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = r.u16()?;
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion { found: version });
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SnapError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated {
                needed: end - self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a collection length and rejects one longer than the bytes
    /// left (every element takes at least one byte), so a corrupt
    /// length fails as [`SnapError::Truncated`] before anything is
    /// allocated for it.
    pub fn len_prefix(&mut self) -> Result<usize, SnapError> {
        let n = self.usize()?;
        let left = self.buf.len() - self.pos;
        if n > left {
            return Err(SnapError::Truncated { needed: n - left });
        }
        Ok(n)
    }

    /// Verifies the next section tag is `name`.
    pub fn section(&mut self, name: &str) -> Result<(), SnapError> {
        let found = self.str()?;
        if found != name {
            return Err(SnapError::BadSection {
                expected: name.to_owned(),
                found,
            });
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        let b = self.take(16)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    /// Reads a `usize` (stored as `u64`).
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Malformed("usize out of range"))
    }

    /// Reads a `u32` index widened to `usize`.
    pub fn usize_from_u32(&mut self) -> Result<usize, SnapError> {
        let v = self.u32()?;
        usize::try_from(v).map_err(|_| SnapError::Malformed("u32 index out of range"))
    }

    /// Reads a boolean.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Malformed("bool byte not 0/1")),
        }
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a [`SimTime`].
    pub fn time(&mut self) -> Result<SimTime, SnapError> {
        Ok(SimTime::from_ps(self.u64()?))
    }

    /// Reads a [`SimDuration`].
    pub fn dur(&mut self) -> Result<SimDuration, SnapError> {
        Ok(SimDuration::from_ps(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.len_prefix()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|_| SnapError::Malformed("invalid UTF-8 string"))
    }

    /// Reads an optional `u64`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        let present = self.bool()?;
        let v = self.u64()?;
        Ok(present.then_some(v))
    }

    /// Asserts the whole buffer has been consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        let left = self.buf.len() - self.pos;
        if left != 0 {
            return Err(SnapError::TrailingBytes { left });
        }
        Ok(())
    }
}

/// A value whose dynamic state can be snapshotted and restored in
/// place.
///
/// `load` overwrites exactly what `save` wrote, leaving configuration
/// (anything the declaration marks `static`) as rebuilt. Declare struct
/// and enum codecs with [`snap_fields!`](crate::snap_fields) /
/// [`snap_enum!`](crate::snap_enum); implement the trait by hand only for
/// leaves and validating codecs.
pub trait Snap {
    /// Appends this value's dynamic state.
    fn save(&self, w: &mut SnapWriter);

    /// Overwrites this value's dynamic state from the stream.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the stream is truncated, malformed,
    /// or describes a value of a different shape.
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Decodes a fresh `T` from the stream (for collection elements and
/// enum fields, which have no rebuilt value to load into).
///
/// # Errors
///
/// Propagates the element's [`Snap::load`] error.
pub fn read<T: Snap + Default>(r: &mut SnapReader<'_>) -> Result<T, SnapError> {
    let mut v = T::default();
    v.load(r)?;
    Ok(v)
}

/// How `Option<Self>` is encoded: a presence byte, then the value.
///
/// The provided methods cover the three shapes in use. With the
/// defaults, presence is fixed by construction (an optional cache
/// level, an installed program) and a stream that disagrees is
/// malformed. A type with a [`SnapOpt::blank`] value is decoded into
/// it when absent, so presence may change during a run; a `DENSE` type
/// also writes a zero value slot when absent.
pub trait SnapOpt: Snap + Sized {
    /// Write a value slot (`blank()`) even when absent.
    const DENSE: bool = false;

    /// A value to decode into when the option is currently `None`, or
    /// `None` when only configuration can build one.
    fn blank() -> Option<Self> {
        None
    }

    /// Writes `v` (presence byte plus value).
    fn save_opt(v: &Option<Self>, w: &mut SnapWriter) {
        w.bool(v.is_some());
        match v {
            Some(x) => x.save(w),
            None if Self::DENSE => Self::blank().expect("dense options have a blank").save(w),
            None => {}
        }
    }

    /// Overwrites `v` from the stream.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] when a fixed presence differs from the
    /// stream; otherwise the value's own error.
    fn load_opt(v: &mut Option<Self>, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let present = r.bool()?;
        if present != v.is_some() {
            let blank = Self::blank()
                .ok_or(SnapError::Malformed("optional component presence mismatch"))?;
            *v = present.then_some(blank);
        }
        match v {
            Some(x) => x.load(r),
            None if Self::DENSE => Self::blank().expect("dense options have a blank").load(r),
            None => Ok(()),
        }
    }
}

impl<T: SnapOpt> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        T::save_opt(self, w);
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        T::load_opt(self, r)
    }
}

/// A collection whose shape — length, keys — is fixed by the
/// configuration it was rebuilt from (one link per fabric edge, one
/// engine per node). The shape is written, and a stream of a different
/// shape is malformed; elements load in place. Selected in a
/// declaration with the `fixed` marker.
pub trait SnapFixed {
    /// Writes the shape and every element.
    fn save_fixed(&self, w: &mut SnapWriter);

    /// Checks the shape and loads every element in place.
    ///
    /// # Errors
    ///
    /// `SnapError::Malformed(mismatch)` when the stream's shape differs.
    fn load_fixed(
        &mut self,
        r: &mut SnapReader<'_>,
        mismatch: &'static str,
    ) -> Result<(), SnapError>;
}

impl<T: Snap> SnapFixed for Vec<T> {
    fn save_fixed(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        self.iter().for_each(|x| x.save(w));
    }
    fn load_fixed(
        &mut self,
        r: &mut SnapReader<'_>,
        mismatch: &'static str,
    ) -> Result<(), SnapError> {
        if r.usize()? != self.len() {
            return Err(SnapError::Malformed(mismatch));
        }
        self.iter_mut().try_for_each(|x| x.load(r))
    }
}

impl<K: Snap + Default + PartialEq, V: Snap> SnapFixed for BTreeMap<K, V> {
    fn save_fixed(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load_fixed(
        &mut self,
        r: &mut SnapReader<'_>,
        mismatch: &'static str,
    ) -> Result<(), SnapError> {
        if r.usize()? != self.len() {
            return Err(SnapError::Malformed(mismatch));
        }
        for (k, v) in self.iter_mut() {
            if read::<K>(r)? != *k {
                return Err(SnapError::Malformed(mismatch));
            }
            v.load(r)?;
        }
        Ok(())
    }
}

/// Checks that the stream holds `v`'s rebuilt value (the `check`
/// marker: identity fields written for verification, never restored).
///
/// # Errors
///
/// `SnapError::Malformed(mismatch)` when the values differ.
pub fn load_check<T: Snap + Default + PartialEq>(
    v: &T,
    r: &mut SnapReader<'_>,
    mismatch: &'static str,
) -> Result<(), SnapError> {
    if read::<T>(r)? != *v {
        return Err(SnapError::Malformed(mismatch));
    }
    Ok(())
}

/// Leaf impls over a writer/reader primitive pair.
macro_rules! leaf {
    ($($t:ty => $put:ident / $get:ident),* $(,)?) => {$(
        impl Snap for $t {
            fn save(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                *self = r.$get()?;
                Ok(())
            }
        }
    )*};
}

leaf! {
    u8 => u8 / u8,
    u16 => u16 / u16,
    u32 => u32 / u32,
    u64 => u64 / u64,
    u128 => u128 / u128,
    usize => usize / usize,
    bool => bool / bool,
    f64 => f64 / f64,
    SimTime => time / time,
    SimDuration => dur / dur,
}

impl SnapOpt for u64 {
    const DENSE: bool = true;
    fn blank() -> Option<Self> {
        Some(0)
    }
}

impl SnapOpt for SimTime {
    const DENSE: bool = true;
    fn blank() -> Option<Self> {
        Some(SimTime::ZERO)
    }
}

/// Growable collections: the length, then each element; loading
/// rebuilds the collection from fresh elements.
macro_rules! seq {
    ($($c:ident::$push:ident $(+ $ord:ident)?),*) => {$(
        impl<T: Snap + Default $(+ $ord)?> Snap for $c<T> {
            fn save(&self, w: &mut SnapWriter) {
                w.usize(self.len());
                self.iter().for_each(|x| x.save(w));
            }
            fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                let n = r.len_prefix()?;
                self.clear();
                for _ in 0..n {
                    self.$push(read(r)?);
                }
                Ok(())
            }
        }
    )*};
}

seq!(Vec::push, VecDeque::push_back, BTreeSet::insert + Ord);

impl<T: Snap + Default> SnapOpt for Vec<T> {
    fn blank() -> Option<Self> {
        Some(Vec::new())
    }
}

/// A fixed-size array: the length is written and must match.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(N);
        self.iter().for_each(|x| x.save(w));
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.usize()? != N {
            return Err(SnapError::Malformed("array length mismatch"));
        }
        self.iter_mut().try_for_each(|x| x.load(r))
    }
}

impl<T: Snap + Default, const N: usize> SnapOpt for [T; N]
where
    [T; N]: Default,
{
    fn blank() -> Option<Self> {
        Some(Self::default())
    }
}

impl<K: Snap + Default + Ord, V: Snap + Default> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.len_prefix()?;
        self.clear();
        for _ in 0..n {
            let k = read(r)?;
            self.insert(k, read(r)?);
        }
        Ok(())
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.load(r)?;
        self.1.load(r)
    }
}

impl<T: Snap + ?Sized> Snap for Box<T> {
    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        (**self).load(r)
    }
}

/// A boxed value (an installed program or handler) is built from
/// configuration, so its presence is fixed.
impl<T: Snap + ?Sized> SnapOpt for Box<T> {}

impl<T: Snap + ?Sized> Snap for Rc<RefCell<T>> {
    fn save(&self, w: &mut SnapWriter) {
        self.borrow().save(w);
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.borrow_mut().load(r)
    }
}

/// Declares a struct's [`Snap`] codec from one field list.
///
/// Items are listed in wire order, comma-separated:
///
/// - `name` — dynamic state, written and loaded via [`Snap`];
/// - `fixed name` — a collection whose shape is checked ([`SnapFixed`]);
/// - `each name` — a collection of fixed length written element by
///   element with no length (loaded in place);
/// - `check name` — written, and on load compared against the rebuilt
///   value instead of restored;
/// - `static name` — configuration rebuilt before `load`; not encoded;
/// - `"tag"` — a section tag ([`SnapWriter::section`]).
///
/// Every field of the struct must appear exactly once: the expansion
/// destructures `Self` without `..`. An optional trailing `after path`
/// names a `fn(&mut Self) -> Result<(), SnapError>` (or `&Self`) run
/// after a load: it checks invariants between fields, or re-derives
/// configuration that depends on restored state. Generic structs put their
/// impl generics first in brackets:
/// `snap_fields! { [E: Snap + Default] Scheduler<E> { ... } }`. Tuple
/// structs name their fields positionally: `snap_fields!(Counter(n));`.
#[macro_export]
macro_rules! snap_fields {
    ($([$($gen:tt)*])? $name:ident $(<$($p:ident),*>)? ($($f:ident),* $(,)?)) => {
        impl<$($($gen)*)?> $crate::snap::Snap for $name $(<$($p),*>)? {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                let Self($($f),*) = self;
                $($crate::snap::Snap::save($f, w);)*
            }
            fn load(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<(), $crate::snap::SnapError> {
                let Self($($f),*) = self;
                $($crate::snap::Snap::load($f, r)?;)*
                Ok(())
            }
        }
    };
    ([$($gen:tt)*] $ty:ty { $($items:tt)* } $(after $check:path)?) => {
        $crate::__snap_parse! { [$($gen)*] $ty; [$($check)?]; []; []; $($items)* }
    };
    ($ty:ty { $($items:tt)* } $(after $check:path)?) => {
        $crate::snap_fields! { [] $ty { $($items)* } $(after $check)? }
    };
}

/// Field-list muncher behind [`snap_fields!`](crate::snap_fields).
#[doc(hidden)]
#[macro_export]
macro_rules! __snap_parse {
    ($g:tt $ty:ty; $c:tt; [$($pat:tt)*]; [$($op:tt)*]; static $f:ident $(, $($rest:tt)*)?) => {
        $crate::__snap_parse! { $g $ty; $c; [$($pat)* $f: _,]; [$($op)*]; $($($rest)*)? }
    };
    ($g:tt $ty:ty; $c:tt; [$($pat:tt)*]; [$($op:tt)*]; fixed $f:ident $(, $($rest:tt)*)?) => {
        $crate::__snap_parse! { $g $ty; $c; [$($pat)* $f,]; [$($op)* (fixed $f)]; $($($rest)*)? }
    };
    ($g:tt $ty:ty; $c:tt; [$($pat:tt)*]; [$($op:tt)*]; each $f:ident $(, $($rest:tt)*)?) => {
        $crate::__snap_parse! { $g $ty; $c; [$($pat)* $f,]; [$($op)* (each $f)]; $($($rest)*)? }
    };
    ($g:tt $ty:ty; $c:tt; [$($pat:tt)*]; [$($op:tt)*]; check $f:ident $(, $($rest:tt)*)?) => {
        $crate::__snap_parse! { $g $ty; $c; [$($pat)* $f,]; [$($op)* (check $f)]; $($($rest)*)? }
    };
    ($g:tt $ty:ty; $c:tt; [$($pat:tt)*]; [$($op:tt)*]; $s:literal $(, $($rest:tt)*)?) => {
        $crate::__snap_parse! { $g $ty; $c; [$($pat)*]; [$($op)* (section $s)]; $($($rest)*)? }
    };
    ($g:tt $ty:ty; $c:tt; [$($pat:tt)*]; [$($op:tt)*]; $f:ident $(, $($rest:tt)*)?) => {
        $crate::__snap_parse! { $g $ty; $c; [$($pat)* $f,]; [$($op)* (plain $f)]; $($($rest)*)? }
    };
    ([$($gen:tt)*] $ty:ty; [$($check:path)?]; [$($pat:tt)*]; [$($op:tt)*];) => {
        impl<$($gen)*> $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                let Self { $($pat)* } = self;
                $($crate::__snap_op!(save w $op);)*
            }
            fn load(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<(), $crate::snap::SnapError> {
                let Self { $($pat)* } = self;
                $($crate::__snap_op!(load r $op);)*
                $($check(self)?;)?
                Ok(())
            }
        }
    };
}

/// One field's save or load step, for [`snap_fields!`](crate::snap_fields).
#[doc(hidden)]
#[macro_export]
macro_rules! __snap_op {
    (save $w:ident (plain $f:ident)) => {
        $crate::snap::Snap::save($f, $w)
    };
    (load $r:ident (plain $f:ident)) => {
        $crate::snap::Snap::load($f, $r)?
    };
    (save $w:ident (check $f:ident)) => {
        $crate::snap::Snap::save($f, $w)
    };
    (load $r:ident (check $f:ident)) => {
        $crate::snap::load_check(
            $f,
            $r,
            concat!("`", stringify!($f), "` differs from the rebuilt value"),
        )?
    };
    (save $w:ident (fixed $f:ident)) => {
        $crate::snap::SnapFixed::save_fixed($f, $w)
    };
    (load $r:ident (fixed $f:ident)) => {
        $crate::snap::SnapFixed::load_fixed(
            $f,
            $r,
            concat!("`", stringify!($f), "` shape differs from the rebuilt one"),
        )?
    };
    (save $w:ident (each $f:ident)) => {
        for x in $f.iter() {
            $crate::snap::Snap::save(x, $w);
        }
    };
    (load $r:ident (each $f:ident)) => {
        for x in $f.iter_mut() {
            $crate::snap::Snap::load(x, $r)?;
        }
    };
    (save $w:ident (section $s:literal)) => {
        $w.section($s)
    };
    (load $r:ident (section $s:literal)) => {
        $r.section($s)?
    };
}

/// Declares an enum's tagged [`Snap`] codec: a tag byte, then the
/// variant's fields in the order listed.
///
/// ```text
/// snap_enum!(Event, "event tag" {
///     0 => Start(node),
///     1 => Done { host, req },
///     2 => Idle,
/// });
/// ```
///
/// Saving matches every variant without `..`, so a variant or field
/// missing from the list is a compile error. Loading replaces the value
/// with the decoded variant (its fields must be `Default`); an unknown
/// tag is `SnapError::Malformed` with the given message.
#[macro_export]
macro_rules! snap_enum {
    ($ty:ty, $bad:literal {
        $($tag:literal => $v:ident $(($($t:ident),* $(,)?))? $({$($f:ident),* $(,)?})?),* $(,)?
    }) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $(Self::$v $(($($t),*))? $({$($f),*})? => {
                        w.u8($tag);
                        $($($crate::snap::Snap::save($t, w);)*)?
                        $($($crate::snap::Snap::save($f, w);)*)?
                    })*
                }
            }
            fn load(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<(), $crate::snap::SnapError> {
                *self = match r.u8()? {
                    $($tag => {
                        $($(let $t = $crate::snap::read(r)?;)*)?
                        $($(let $f = $crate::snap::read(r)?;)*)?
                        Self::$v $(($($t),*))? $({$($f),*})?
                    })*
                    _ => return Err($crate::snap::SnapError::Malformed($bad)),
                };
                Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u16(513);
        w.u32(70_000);
        w.u64(u64::MAX - 1);
        w.u128(u128::MAX - 2);
        w.usize(usize::MAX);
        w.bool(true);
        w.bool(false);
        w.f64(0.015_625);
        w.time(SimTime::from_ns(9));
        w.dur(SimDuration::from_us(3));
        w.bytes(&[1, 2, 3]);
        w.str("héllo");
        w.opt_u64(Some(5));
        w.opt_u64(None);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u128().unwrap(), u128::MAX - 2);
        assert_eq!(r.usize().unwrap(), usize::MAX);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.f64().unwrap(), 0.015_625);
        assert_eq!(r.time().unwrap(), SimTime::from_ns(9));
        assert_eq!(r.dur().unwrap(), SimDuration::from_us(3));
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt_u64().unwrap(), Some(5));
        assert_eq!(r.opt_u64().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn envelope_rejects_garbage() {
        assert_eq!(SnapReader::new(b"nope").err(), Some(SnapError::BadMagic));
        assert!(matches!(
            SnapReader::new(b"xx"),
            Err(SnapError::Truncated { .. })
        ));
        // Right magic, wrong version.
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&999u16.to_le_bytes());
        assert_eq!(
            SnapReader::new(&buf).err(),
            Some(SnapError::BadVersion { found: 999 })
        );
    }

    #[test]
    fn section_tags_catch_desync() {
        let mut w = SnapWriter::new();
        w.section("alpha");
        w.u64(1);
        w.section("beta");
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes).unwrap();
        r.section("alpha").unwrap();
        assert_eq!(r.u64().unwrap(), 1);
        let err = r.section("gamma").unwrap_err();
        assert!(matches!(err, SnapError::BadSection { .. }));
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = SnapWriter::new();
        w.u64(12345);
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 3);
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(r.u64(), Err(SnapError::Truncated { needed: 3 })));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut w = SnapWriter::new();
        w.u8(1);
        let bytes = w.into_bytes();
        let r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.finish().err(), Some(SnapError::TrailingBytes { left: 1 }));
    }

    #[test]
    fn bad_bool_is_malformed() {
        let mut w = SnapWriter::new();
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(r.bool(), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn collection_lengths_are_bounded_by_the_buffer() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        let mut v: Vec<u64> = Vec::new();
        assert!(matches!(v.load(&mut r), Err(SnapError::Truncated { .. })));
    }

    #[test]
    fn option_shapes() {
        let mut w = SnapWriter::new();
        None::<u64>.save(&mut w); // dense: presence byte + zero slot
        None::<Vec<u8>>.save(&mut w); // sparse: presence byte only
        Some(Box::new(7u64)).save(&mut w); // fixed: presence must match
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 6 + 9 + 1 + 9);

        let mut r = SnapReader::new(&bytes).unwrap();
        let mut dense = Some(3u64);
        dense.load(&mut r).unwrap();
        assert_eq!(dense, None);
        let mut sparse = Some(vec![1u8]);
        sparse.load(&mut r).unwrap();
        assert_eq!(sparse, None);
        let mut fixed: Option<Box<u64>> = None;
        assert!(matches!(fixed.load(&mut r), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn fixed_shapes_must_match() {
        let mut w = SnapWriter::new();
        vec![1u64, 2].save_fixed(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        let mut three = vec![0u64; 3];
        let got = three.load_fixed(&mut r, "count");
        assert_eq!(got, Err(SnapError::Malformed("count")));
    }

    #[test]
    fn errors_display() {
        let msgs = [
            SnapError::Truncated { needed: 4 }.to_string(),
            SnapError::BadMagic.to_string(),
            SnapError::BadVersion { found: 3 }.to_string(),
            SnapError::BadSection {
                expected: "a".into(),
                found: "b".into(),
            }
            .to_string(),
            SnapError::Malformed("x").to_string(),
            SnapError::TrailingBytes { left: 2 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
