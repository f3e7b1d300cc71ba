//! Process-wide string interning for sample-path identity strings.
//!
//! The monitoring pipeline repeats the same small set of identity
//! strings billions of times: device instance names (`"cpu0"`,
//! `"mlx4_0/1"`, `"scratch"`), hostnames, process comms, and
//! time-series tag values. Carrying them as `String` means every
//! sample re-allocates and re-hashes text that the process has already
//! seen. This module provides the shared compact representation the
//! whole sample path keys on instead:
//!
//! * [`SymbolTable`] — the per-process intern table. Each distinct
//!   string is stored exactly once (leaked, so it lives for the process
//!   lifetime) and assigned a dense `u32` id.
//! * [`Sym`] — a `Copy` handle to an interned string. Equality and
//!   hashing are by id (an integer compare), while ordering resolves
//!   the underlying strings so `BTreeMap<Sym, _>` iterates in the same
//!   order a `BTreeMap<String, _>` would. The two are consistent:
//!   interning is bijective, so equal strings always mean equal ids.
//!
//! # Lifetime and threading rules
//!
//! Interned strings are **never freed**: `Sym::as_str` hands out
//! `&'static str`. This is the right trade for a monitoring daemon —
//! the identity vocabulary of a node (devices, filesystems, comms) is
//! small and stable, so the table reaches a fixed point within a few
//! samples. Do **not** intern unbounded attacker- or workload-
//! controlled text (e.g. full command lines); intern identities.
//!
//! The table is a process-wide singleton behind a `RwLock`: interning
//! from any thread is safe, `Sym`s may cross threads freely
//! (`Sym: Send + Sync + Copy`), and a `Sym` created on one thread
//! resolves to the same string on every other. Lookups of
//! already-interned strings take only the read lock.

use parking_lot::{RwLock, RwLockReadGuard};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// The per-process intern table mapping strings to dense [`Sym`] ids.
///
/// There is exactly one table per process, obtained via
/// [`SymbolTable::global`]; all `Sym`s are minted by and resolved
/// against it. Keeping the table global is what makes `Sym` a plain
/// `Copy` integer rather than a handle that must drag a table
/// reference around.
pub struct SymbolTable {
    inner: RwLock<TableInner>,
}

#[derive(Default)]
struct TableInner {
    /// id → string, dense. Strings are leaked once at intern time.
    strings: Vec<&'static str>,
    /// id → FNV-1a hash of the string's bytes, computed once at
    /// intern time. Unlike the id (assigned in first-sight order),
    /// this depends only on the text, so consumers that need a hash
    /// stable *across process restarts* (durable-store shard routing)
    /// read it here instead of hashing ids.
    str_hashes: Vec<u64>,
    /// string → id, for O(1) re-interning.
    ids: HashMap<&'static str, u32>,
}

/// FNV-1a offset basis: the state [`fnv1a_bytes`] starts from.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Fold `bytes` into the 64-bit FNV-1a state `h` (start from
/// [`FNV_BASIS`]). The one FNV-1a of the workspace: interned-string
/// hashes, fault-plan draws, spool jitter seeds and portal cache keys
/// all go through it, and each must stay stable across runs.
#[inline]
pub fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

impl SymbolTable {
    /// The process-wide table. Initialised on first use.
    pub fn global() -> &'static SymbolTable {
        static GLOBAL: OnceLock<SymbolTable> = OnceLock::new();
        GLOBAL.get_or_init(|| SymbolTable {
            inner: RwLock::new(TableInner::default()),
        })
    }

    /// Intern `s`, returning its symbol. The first intern of a distinct
    /// string allocates (and leaks) one copy; every subsequent intern of
    /// the same text is a hash lookup under the read lock.
    pub fn intern(&self, s: &str) -> Sym {
        if let Some(&id) = self.inner.read().ids.get(s) {
            return Sym(id);
        }
        let mut inner = self.inner.write();
        // Racing interners may have inserted between the locks.
        if let Some(&id) = inner.ids.get(s) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        // A node's identity vocabulary is tiny; 2^32 distinct strings
        // would exhaust memory long before the id space. Saturate
        // rather than wrap if that invariant is ever violated.
        let id = u32::try_from(inner.strings.len()).unwrap_or(u32::MAX);
        inner.strings.push(leaked);
        inner
            .str_hashes
            .push(fnv1a_bytes(FNV_BASIS, leaked.as_bytes()));
        inner.ids.insert(leaked, id);
        Sym(id)
    }

    /// The symbol of `s` if it has been interned already. Read lock
    /// only and never inserts, so probing for text that may not be an
    /// identity at all (a misspelt event name, a bogus counter file)
    /// cannot grow the table.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.inner.read().ids.get(s).copied().map(Sym)
    }

    /// Combine four symbols into one routing hash that depends only on
    /// the underlying *strings* (not on intern order), so it is stable
    /// across process restarts — the property the durable store's
    /// shard-slot assignment relies on. One read-lock acquisition; the
    /// per-string hashes were precomputed at intern time.
    pub fn route4(&self, a: Sym, b: Sym, c: Sym, d: Sym) -> u64 {
        let inner = self.inner.read();
        let mut h = FNV_BASIS;
        for sym in [a, b, c, d] {
            let sh = inner.str_hashes.get(sym.0 as usize).copied().unwrap_or(0);
            h = fnv1a_bytes(h, &sh.to_le_bytes());
        }
        h
    }

    /// Resolve a symbol back to its string. `Sym`s can only be minted
    /// by [`SymbolTable::intern`], so the lookup always succeeds; the
    /// empty-string fallback exists only to keep this path panic-free.
    pub fn resolve(&self, sym: Sym) -> &'static str {
        self.reader().resolve(sym)
    }

    /// A read view of the table, for resolving many symbols under one
    /// lock acquisition (a rendered message resolves some seventy).
    /// Interning a *new* string waits for every reader, so do not
    /// intern on the thread that holds one.
    pub fn reader(&self) -> SymReader<'_> {
        SymReader(self.inner.read())
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().strings.len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The table's read lock, held: see [`SymbolTable::reader`].
pub struct SymReader<'t>(RwLockReadGuard<'t, TableInner>);

impl SymReader<'_> {
    /// [`SymbolTable::resolve`] without taking the lock again.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &'static str {
        self.0.strings.get(sym.0 as usize).copied().unwrap_or("")
    }
}

/// A `Copy` handle to a string interned in the process-wide
/// [`SymbolTable`].
///
/// * `Eq`/`Hash` compare the `u32` id — constant time, no text.
/// * `Ord` compares the resolved strings, so ordered containers keyed
///   by `Sym` iterate in the same order as their `String`-keyed
///   predecessors.
/// * `Display`/`Debug` and comparisons against `str`/`String` resolve
///   the text, so call sites and tests read exactly as before.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// Intern `s` in the process-wide table.
    pub fn new(s: &str) -> Sym {
        SymbolTable::global().intern(s)
    }

    /// The interned text. Lives for the process lifetime.
    pub fn as_str(self) -> &'static str {
        SymbolTable::global().resolve(self)
    }

    /// The dense table id (stable for the process lifetime).
    pub fn id(self) -> u32 {
        self.0
    }
}

/// The empty string's symbol, interned at the first call and kept: a
/// placeholder must not cost a table lookup every time it is made.
impl Default for Sym {
    fn default() -> Sym {
        static EMPTY: OnceLock<Sym> = OnceLock::new();
        *EMPTY.get_or_init(|| Sym::new(""))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::new(s)
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Sym {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Sym> for str {
    fn eq(&self, other: &Sym) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Sym> for String {
    fn eq(&self, other: &Sym) -> bool {
        self.as_str() == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::new("scratch");
        let b = Sym::new("scratch");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "scratch");
    }

    #[test]
    fn get_finds_interned_text_and_never_inserts() {
        let t = SymbolTable::global();
        assert_eq!(t.get("get-probe-never-interned"), None);
        assert_eq!(t.get("get-probe-never-interned"), None, "probe leaked");
        let s = Sym::new("get-probe-interned");
        assert_eq!(t.get("get-probe-interned"), Some(s));
    }

    #[test]
    fn distinct_strings_get_distinct_syms() {
        let a = Sym::new("eth0");
        let b = Sym::new("eth1");
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn ordering_matches_string_ordering() {
        // Intern deliberately out of lexicographic order so id order
        // and string order disagree.
        let names = ["mlx4_0/1", "cpu0", "scratch", "a", "zz"];
        let syms: BTreeSet<Sym> = names.iter().map(|n| Sym::new(n)).collect();
        let via_sym: Vec<&str> = syms.iter().map(|s| s.as_str()).collect();
        let mut via_string: Vec<&str> = names.to_vec();
        via_string.sort_unstable();
        assert_eq!(via_sym, via_string);
    }

    #[test]
    fn btreemap_iteration_order_is_stringwise() {
        let mut m: BTreeMap<Sym, u32> = BTreeMap::new();
        for (i, n) in ["z", "m", "a"].iter().enumerate() {
            m.insert(Sym::new(n), i as u32);
        }
        let keys: Vec<&str> = m.keys().map(|s| s.as_str()).collect();
        assert_eq!(keys, vec!["a", "m", "z"]);
    }

    #[test]
    #[allow(clippy::cmp_owned)] // the String comparison IS the point
    fn compares_against_str_and_string() {
        let s = Sym::new("wrf.exe");
        assert!(s == "wrf.exe");
        assert!(s == *"wrf.exe");
        assert!("wrf.exe" == s);
        assert!(s == "wrf.exe".to_string());
        assert!(s != "other");
    }

    #[test]
    fn display_and_debug_resolve_text() {
        let s = Sym::new("mic0");
        assert_eq!(format!("{s}"), "mic0");
        assert_eq!(format!("{s:?}"), "\"mic0\"");
    }

    #[test]
    fn default_is_empty_string() {
        assert_eq!(Sym::default().as_str(), "");
        assert_eq!(Sym::default(), Sym::new(""));
        assert_eq!(Sym::default().id(), Sym::new("").id());
    }

    #[test]
    fn reader_resolves_like_as_str() {
        let syms = [Sym::new("reader-a"), Sym::new("reader-b"), Sym::default()];
        // Resolved before the reader exists: this thread must not ask
        // for the lock again while it holds it.
        let want = syms.map(Sym::as_str);
        let reader = SymbolTable::global().reader();
        assert_eq!(syms.map(|s| reader.resolve(s)), want);
    }

    #[test]
    fn non_ascii_and_whitespace_adjacent_text_survives() {
        for raw in ["héllo", "名前", "x\u{200b}y", "a-b_c.d"] {
            assert_eq!(Sym::new(raw).as_str(), raw);
        }
    }

    #[test]
    fn route4_depends_on_strings_not_intern_order() {
        // Interning more strings (shifting ids) must not change the
        // route hash of an existing tuple, and re-interning the same
        // text must map to the same hash — the cross-restart stability
        // the durable store's shard routing relies on.
        let t = SymbolTable::global();
        let a = [
            Sym::new("r4-h"),
            Sym::new("r4-dt"),
            Sym::new("r4-d"),
            Sym::new("r4-e"),
        ];
        let before = t.route4(a[0], a[1], a[2], a[3]);
        for i in 0..32 {
            Sym::new(&format!("r4-noise-{i}"));
        }
        let again = [
            Sym::new("r4-h"),
            Sym::new("r4-dt"),
            Sym::new("r4-d"),
            Sym::new("r4-e"),
        ];
        assert_eq!(t.route4(again[0], again[1], again[2], again[3]), before);
        // Order of the tuple matters (host/event swapped → new route).
        assert_ne!(t.route4(a[3], a[1], a[2], a[0]), before);
    }

    #[test]
    fn concurrent_interning_converges() {
        let syms: Vec<Vec<Sym>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| (0..64).map(|i| Sym::new(&format!("dev{i}"))).collect()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for per_thread in &syms[1..] {
            assert_eq!(per_thread, &syms[0]);
        }
    }
}
