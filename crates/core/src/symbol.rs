//! Interned identifiers.
//!
//! Every predicate name, activity name, event name, and constant in the
//! library is interned into a global table and referred to by a compact
//! [`Symbol`]. Interning makes atom comparison — the inner loop of the
//! `Apply` transformation (paper, Definition 5.1) — a single integer
//! compare, and keeps the recursive goal terms small.
//!
//! The table is **append-only**, which lets resolution be lock-free:
//! [`Symbol::as_str`] sits on every journal append, snapshot line, and
//! `eligible()` materialization in the runtime, so it must not serialize
//! concurrent readers behind the intern mutex. Names are published into a
//! chunked store whose slots are [`OnceLock`]s — a resolve is two atomic
//! acquire loads (chunk pointer, slot) and never blocks.
//!
//! The other direction is not lock-free: [`Symbol::intern`] **and**
//! [`Symbol::try_get`] take the [`Mutex`] guarding the name→id map
//! *before* they look, hit or miss, and SipHash the name under it. They
//! belong to parsing, deployment, recovery and the rare timer verbs. The
//! fire path does not call them: an event a client names is resolved by
//! the deployed program's own name index (`Scheduler::fire_named` in
//! `ctr-engine`), which never reaches this table.
//!
//! ## Poisoning
//!
//! The intern mutex recovers from poisoning (`PoisonError::into_inner`)
//! instead of propagating the panic, matching the runtime's lock
//! discipline. This is sound because interner state is valid after a
//! panic at any point: entries are appended in a fixed order — the name
//! slot is published (idempotently, via `get_or_init`) *before* the map
//! entry, and the map itself allocates the next id from its own length —
//! so an interrupted append is either invisible (no map entry: the next
//! `intern` of that name redoes it, reusing the already-published slot)
//! or complete. No operation ever leaves a map entry pointing at an
//! unpublished slot.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

/// An interned string.
///
/// Symbols are cheap to copy and compare. Two symbols are equal if and only
/// if they were interned from the same string. The ordering of symbols is
/// the order of first interning (stable within a process), which gives
/// deterministic iteration orders in the data structures built on top.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// Capacity of chunk 0; chunk `i` holds `CHUNK0 << i` slots. 26 chunks
/// reach id `64·(2²⁶−1)`, 64 ids short of `u32::MAX`, so a 27th absorbs
/// the tail and every `u32` id has a slot while a resolve stays two
/// pointer hops. (Chunks allocate on demand; the tail chunk only
/// materializes past ~4.3e9 interned names.)
const CHUNK0: u32 = 64;
const NUM_CHUNKS: usize = 27;

type Chunk = Box<[OnceLock<&'static str>]>;

/// The lock-free name store: id → name. Chunks are allocated on demand by
/// writers (who hold the intern mutex) and published through the outer
/// `OnceLock`; slots are published through the inner one. Readers only
/// ever perform acquire loads.
struct Names {
    chunks: [OnceLock<Chunk>; NUM_CHUNKS],
}

/// Decomposes an id into (chunk index, offset within chunk). Chunk `i`
/// spans ids `[CHUNK0·(2^i − 1), CHUNK0·(2^{i+1} − 1))`.
fn slot_of(index: u32) -> (usize, usize) {
    let v = index / CHUNK0 + 1;
    let chunk = (u32::BITS - 1 - v.leading_zeros()) as usize;
    let start = CHUNK0 * ((1u32 << chunk) - 1);
    (chunk, (index - start) as usize)
}

impl Names {
    fn new() -> Names {
        Names {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Lock-free resolve. Panics on an id that was never interned (which
    /// cannot be produced by the public API).
    fn resolve(&self, index: u32) -> &'static str {
        let (chunk, offset) = slot_of(index);
        self.chunks[chunk]
            .get()
            .and_then(|c| c[offset].get())
            .copied()
            .expect("symbol id was never interned")
    }

    /// Publishes `name` under `index`. Called with the intern mutex held;
    /// idempotent so a previously interrupted append is simply redone.
    fn publish(&self, index: u32, name: &'static str) -> &'static str {
        let (chunk, offset) = slot_of(index);
        let chunk = self.chunks[chunk].get_or_init(|| {
            let capacity = (CHUNK0 as usize) << chunk;
            (0..capacity).map(|_| OnceLock::new()).collect()
        });
        chunk[offset].get_or_init(|| name)
    }
}

struct Interner {
    names: Names,
    /// name → id. `map.len()` doubles as the next fresh id, so ids are
    /// only advanced by a completed append.
    map: Mutex<HashMap<&'static str, u32>>,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        names: Names::new(),
        map: Mutex::new(HashMap::new()),
    })
}

impl Symbol {
    /// Interns `name` and returns its symbol. Takes the intern mutex,
    /// whether or not the name is already there; the hot resolution path
    /// ([`Symbol::as_str`]) does not.
    pub fn intern(name: &str) -> Symbol {
        let interner = interner();
        // See the module docs: recovery is safe because appends publish
        // the name slot before the map entry.
        let mut map = interner.map.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = map.get(name) {
            return Symbol(id);
        }
        // Interned names live for the lifetime of the process. The leak is
        // bounded by the number of distinct identifiers in the program,
        // which is the usual trade-off for a global interner.
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = u32::try_from(map.len()).expect("symbol table exhausted the u32 id space");
        let published = interner.names.publish(id, leaked);
        map.insert(published, id);
        Symbol(id)
    }

    /// Looks `name` up **without interning it**: returns its symbol if
    /// some prior [`Symbol::intern`] created one, `None` otherwise.
    ///
    /// The table is append-only and process-global, so any path that
    /// interns externally-supplied strings (e.g. event names arriving
    /// over a service boundary) grows memory permanently — hostile or
    /// merely buggy clients can pump the table forever. Validation
    /// paths should use `try_get`: a name that was never interned
    /// cannot refer to anything in the system, so it can be rejected
    /// without allocating. Takes the intern mutex, like
    /// [`Symbol::intern`]: not for per-event paths.
    pub fn try_get(name: &str) -> Option<Symbol> {
        let interner = interner();
        let map = interner.map.lock().unwrap_or_else(PoisonError::into_inner);
        map.get(name).map(|&id| Symbol(id))
    }

    /// Number of names interned so far, process-wide. Intended for
    /// tests asserting that an operation did not grow the table.
    pub fn interned_count() -> usize {
        interner()
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Returns the string this symbol was interned from.
    ///
    /// Lock-free: two atomic acquire loads into the append-only name
    /// store, never contending with concurrent interns or other readers.
    pub fn as_str(self) -> &'static str {
        interner().names.resolve(self.0)
    }

    /// The raw interner index. Useful as a dense array key.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(name: &str) -> Symbol {
        Symbol::intern(name)
    }
}

impl From<String> for Symbol {
    fn from(name: String) -> Symbol {
        Symbol::intern(&name)
    }
}

/// Interns a symbol; shorthand used pervasively in tests and examples.
pub fn sym(name: &str) -> Symbol {
    Symbol::intern(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a1 = Symbol::intern("alpha");
        let a2 = Symbol::intern("alpha");
        assert_eq!(a1, a2);
        assert_eq!(a1.as_str(), "alpha");
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let a = Symbol::intern("left");
        let b = Symbol::intern("right");
        assert_ne!(a, b);
        assert_ne!(a.index(), b.index());
    }

    #[test]
    fn display_round_trips() {
        let s = sym("trip_planning");
        assert_eq!(format!("{s}"), "trip_planning");
        assert_eq!(format!("{s:?}"), "trip_planning");
    }

    #[test]
    fn try_get_finds_interned_names_without_interning_new_ones() {
        let s = Symbol::intern("try_get_known");
        assert_eq!(Symbol::try_get("try_get_known"), Some(s));
        // An unknown name is rejected without growing the table. Other
        // tests intern concurrently, so retry the count comparison a few
        // times rather than demanding a quiescent table.
        for attempt in 0.. {
            let before = Symbol::interned_count();
            let miss = Symbol::try_get("try_get_never_interned_name");
            let after = Symbol::interned_count();
            assert_eq!(miss, None);
            if before == after {
                break;
            }
            assert!(attempt < 5, "interner table would not settle");
        }
        assert_eq!(Symbol::try_get("try_get_never_interned_name"), None);
    }

    #[test]
    fn from_string_matches_intern() {
        let owned: Symbol = String::from("owned").into();
        assert_eq!(owned, sym("owned"));
    }

    #[test]
    fn slot_decomposition_is_contiguous() {
        // Every id maps into a valid chunk, offsets are in range, and the
        // mapping is a bijection over chunk boundaries.
        let mut last = (0usize, 0usize);
        for id in 1..10_000u32 {
            let (chunk, offset) = slot_of(id);
            assert!(chunk < NUM_CHUNKS);
            assert!(offset < (CHUNK0 as usize) << chunk);
            if chunk == last.0 {
                assert_eq!(offset, last.1 + 1, "offsets advance within a chunk");
            } else {
                assert_eq!((chunk, offset), (last.0 + 1, 0), "chunks are adjacent");
            }
            last = (chunk, offset);
        }
        // Chunk boundaries land where the capacity formula says.
        assert_eq!(slot_of(0), (0, 0));
        assert_eq!(slot_of(63), (0, 63));
        assert_eq!(slot_of(64), (1, 0));
        assert_eq!(slot_of(191), (1, 127));
        assert_eq!(slot_of(192), (2, 0));
        // The very top of the u32 id space lands in the tail chunk, in
        // range — no id can index past NUM_CHUNKS.
        assert_eq!(slot_of(CHUNK0 * ((1 << 26) - 1) - 1), (25, (1 << 31) - 1));
        assert_eq!(slot_of(CHUNK0 * ((1 << 26) - 1)), (26, 0));
        assert_eq!(slot_of(u32::MAX), (26, 63));
        const _: () = assert!(26 < NUM_CHUNKS);
    }
}
