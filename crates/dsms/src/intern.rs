//! Deterministic per-engine string interning.
//!
//! The paper's workloads are dominated by a small population of
//! identifier strings — EPCs, tag ids, reader ids, locations — that are
//! compared, grouped, deduplicated and routed on every tuple. A
//! [`StrInterner`] maps each distinct string to a dense [`Sym`] (a
//! `u32`), assigned in first-sighting order, so operator state can key on
//! 4-byte symbol ids instead of hashing string bytes per probe (see
//! [`crate::key`]).
//!
//! Determinism is the load-bearing property: symbols are handed out in
//! admission order by a single-threaded engine, so the same feed always
//! produces the same dictionary, a checkpointed dictionary restores to
//! the same symbol assignment, and `restore + journal replay` re-interns
//! the replayed suffix onto exactly the ids the uncrashed run used.
//! Interners are **per-engine**: shard routing never exchanges symbol
//! ids between engines (it routes on the string content itself, cached —
//! see `shard.rs`).

use crate::error::{DsmsError, Result};
use crate::hash::FnvBuildHasher;
use crate::value::Value;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A dense string symbol: index into one engine's dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(pub u32);

/// Which row representation an engine runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Representation {
    /// String columns are canonicalized at admission and state keys
    /// encode them as 4-byte symbol ids (the default).
    #[default]
    Interned,
    /// The pre-interning representation: state keys carry raw string
    /// bytes. Kept as a knob so the bench harness can measure the
    /// interned representation against the seed one on identical code.
    Seed,
}

#[derive(Default)]
struct Inner {
    /// Content lookup: string -> symbol.
    by_str: HashMap<Arc<str>, u32, FnvBuildHasher>,
    /// Pointer fast path: canonical `Arc<str>` data pointer -> symbol.
    /// Only canonical pointers are recorded, so the map is bounded by
    /// the dictionary size (never by how many transient `Arc`s probed).
    by_ptr: HashMap<usize, u32, FnvBuildHasher>,
    /// Symbol -> canonical string, in assignment order.
    strings: Vec<Arc<str>>,
    /// Total bytes of interned string content.
    bytes: usize,
}

impl Inner {
    fn insert_new(&mut self, s: Arc<str>) -> u32 {
        let sym = self.strings.len() as u32;
        self.bytes += s.len();
        self.by_ptr.insert(arc_addr(&s), sym);
        self.by_str.insert(s.clone(), sym);
        self.strings.push(s);
        sym
    }

    fn sym_of(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&sym) = self.by_ptr.get(&arc_addr(s)) {
            return sym;
        }
        if let Some(&sym) = self.by_str.get(&**s) {
            return sym;
        }
        self.insert_new(s.clone())
    }
}

fn arc_addr(s: &Arc<str>) -> usize {
    Arc::as_ptr(s) as *const u8 as usize
}

/// Deterministic string interner: `Sym(u32)` ↔ `Arc<str>`, symbols
/// assigned in first-sighting order.
///
/// The inner maps sit behind a mutex only so handles can be shared
/// (`Arc<StrInterner>`) between the engine and its operators; the engine
/// itself is single-threaded, so the lock is never contended on the hot
/// path.
#[derive(Default)]
pub struct StrInterner {
    inner: Mutex<Inner>,
}

/// Shared handle to one engine's interner.
pub type InternerRef = Arc<StrInterner>;

impl StrInterner {
    /// Fresh, empty interner.
    pub fn new() -> StrInterner {
        StrInterner::default()
    }

    /// Intern a string value in place: replaces the `Arc` with the
    /// canonical one for its content (assigning a fresh symbol on first
    /// sight). After canonicalization, later [`StrInterner::sym_of`]
    /// calls on the same value hit the pointer fast path.
    pub fn canonicalize(&self, v: &mut Value) {
        if let Value::Str(s) = v {
            let mut inner = self.inner.lock();
            if inner.by_ptr.contains_key(&arc_addr(s)) {
                return;
            }
            if let Some(&sym) = inner.by_str.get(&**s) {
                *s = inner.strings[sym as usize].clone();
            } else {
                inner.insert_new(s.clone());
            }
        }
    }

    /// Symbol of a string, interning it on first sight. Canonical
    /// `Arc`s (from [`StrInterner::canonicalize`] or
    /// [`StrInterner::resolve`]) resolve by pointer without touching the
    /// string bytes.
    pub fn sym_of(&self, s: &Arc<str>) -> Sym {
        Sym(self.inner.lock().sym_of(s))
    }

    /// Symbol of a string if it is already interned — never inserts.
    /// A `None` from a probe-side lookup means no interned key can
    /// match (table probes use this to answer misses without growing
    /// the dictionary).
    pub fn lookup_sym(&self, s: &str) -> Option<Sym> {
        self.inner.lock().by_str.get(s).copied().map(Sym)
    }

    /// The canonical string for a symbol.
    pub fn resolve(&self, sym: Sym) -> Result<Arc<str>> {
        self.inner
            .lock()
            .strings
            .get(sym.0 as usize)
            .cloned()
            .ok_or_else(|| DsmsError::ckpt(format!("symbol {} not in dictionary", sym.0)))
    }

    /// Number of distinct interned strings.
    pub fn entries(&self) -> usize {
        self.inner.lock().strings.len()
    }

    /// Total bytes of interned string content.
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// The dictionary in symbol order, for checkpointing.
    pub fn dictionary(&self) -> Vec<String> {
        self.inner
            .lock()
            .strings
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    /// Replace the dictionary with a checkpointed one (same symbol
    /// order). Called before operator state restores so re-encoded keys
    /// land on the symbols the capturing engine used; journal replay
    /// then re-interns the replayed suffix onto the ids that follow.
    pub fn restore_dictionary(&self, dict: &[String]) -> Result<()> {
        let mut inner = self.inner.lock();
        *inner = Inner::default();
        for s in dict {
            let arc: Arc<str> = Arc::from(s.as_str());
            if inner.by_str.contains_key(&*arc) {
                return Err(DsmsError::ckpt(format!(
                    "checkpoint dictionary repeats `{s}`"
                )));
            }
            inner.insert_new(arc);
        }
        Ok(())
    }
}

impl std::fmt::Debug for StrInterner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        write!(
            f,
            "StrInterner(entries={}, bytes={})",
            inner.strings.len(),
            inner.bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_assigned_in_first_sighting_order() {
        let i = StrInterner::new();
        let a: Arc<str> = Arc::from("tag1");
        let b: Arc<str> = Arc::from("tag2");
        assert_eq!(i.sym_of(&a), Sym(0));
        assert_eq!(i.sym_of(&b), Sym(1));
        // Same content, different Arc: same symbol.
        let a2: Arc<str> = Arc::from("tag1");
        assert_eq!(i.sym_of(&a2), Sym(0));
        assert_eq!(i.entries(), 2);
        assert_eq!(i.bytes(), 8);
    }

    #[test]
    fn canonicalize_rewrites_to_shared_arc() {
        let i = StrInterner::new();
        let mut v1 = Value::str("reader1");
        let mut v2 = Value::str("reader1");
        i.canonicalize(&mut v1);
        i.canonicalize(&mut v2);
        match (&v1, &v2) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
        // Canonical values resolve by pointer (still one dictionary entry).
        assert_eq!(i.entries(), 1);
        i.canonicalize(&mut v1);
        assert_eq!(i.entries(), 1);
    }

    #[test]
    fn lookup_never_inserts() {
        let i = StrInterner::new();
        assert_eq!(i.lookup_sym("ghost"), None);
        assert_eq!(i.entries(), 0);
        i.sym_of(&Arc::from("real"));
        assert_eq!(i.lookup_sym("real"), Some(Sym(0)));
    }

    #[test]
    fn dictionary_round_trips() {
        let i = StrInterner::new();
        for s in ["a", "bb", "ccc"] {
            i.sym_of(&Arc::from(s));
        }
        let dict = i.dictionary();
        let j = StrInterner::new();
        j.sym_of(&Arc::from("stale"));
        j.restore_dictionary(&dict).unwrap();
        assert_eq!(j.entries(), 3);
        assert_eq!(j.resolve(Sym(1)).unwrap().as_ref(), "bb");
        // Re-interning continues past the restored dictionary.
        assert_eq!(j.sym_of(&Arc::from("new")), Sym(3));
        assert!(j.resolve(Sym(9)).is_err());
    }

    #[test]
    fn duplicate_dictionary_rejected() {
        let i = StrInterner::new();
        assert!(i
            .restore_dictionary(&["x".to_string(), "x".to_string()])
            .is_err());
    }
}
