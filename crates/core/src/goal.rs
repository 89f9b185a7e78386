//! Concurrent-Horn goals — the executable fragment of CTR.
//!
//! A concurrent-Horn goal (paper, §2) is built from atomic formulas with
//! serial conjunction `⊗`, concurrent conjunction `|`, disjunction `∨`, the
//! isolation operator `⊙`, and the possibility operator `◇`. Control flow
//! graphs translate directly into this fragment — equation (1) in the paper
//! is the translation of Figure 1.
//!
//! Two special goals complete the algebra:
//!
//! * [`Goal::Empty`] — the unit of `⊗` and `|`; true exactly on paths of
//!   length 1 (the proposition the paper calls `state`). It is what remains
//!   when a branch of the workflow has nothing left to do.
//! * [`Goal::NoPath`] — the unexecutable transaction `¬path`, CTR's analog
//!   of classical `false`. The `Apply` transformation produces it for
//!   executions ruled out by a constraint, and the simplification
//!   tautologies of §5 — implemented here by the smart constructors — make
//!   it absorb `⊗`/`|` contexts and vanish from `∨` contexts.
//!
//! `send(ξ)`/`receive(ξ)` are the synchronization primitives used by the
//! `sync` rewriting of Definition 5.3; they are first-class goal forms so
//! the scheduler can give them their channel semantics.
//!
//! # Representation
//!
//! Recursive payloads are structurally shared: the n-ary connectives hold
//! an `Arc<GoalList>` and the unary modalities an `Arc<Goal>`, so cloning
//! a goal is a reference-count bump and a rewrite that leaves a subtree
//! untouched can return the *same* allocation (observable through
//! [`std::sync::Arc::ptr_eq`]). [`GoalList`] additionally caches, per
//! node, the subtree size, whether a `send`/`receive` occurs below and
//! whether the node is in canonical form (two bits of the size word, so
//! the struct stays 48 bytes), a bloom fingerprint of the event symbols
//! occurring below (see [`Goal::may_mention`]), and a structural hash —
//! all computed once at construction — which makes [`Goal::size`],
//! event-pruning tests, `∨`-idempotence checks, the channel-free skip of
//! `Excise` and [`Goal::channels`], and [`Goal::simplify`] of a goal the
//! smart constructors built O(1) instead of O(subtree).

use crate::symbol::Symbol;
use crate::term::Atom;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A synchronization channel `ξ`, created fresh by each order-constraint
/// compilation (Definition 5.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Channel(pub u32);

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xi{}", self.0)
    }
}

/// An immutable, shareable list of child goals with cached aggregates.
///
/// Dereferences to `[Goal]`, so existing slice-style consumers
/// (`gs.iter()`, `gs.len()`, indexing) work unchanged. Construction is
/// the only place the aggregates are computed; the children are never
/// mutated afterwards.
pub struct GoalList {
    children: Vec<Goal>,
    /// Nodes in this subtree including the connective node itself, in the
    /// low bits; [`HAS_CHANNELS`] and [`CANONICAL`] on top of them. Packed
    /// so the struct stays 48 bytes and its `Arc` in the 64-byte allocator
    /// bin.
    size: usize,
    /// Bloom fingerprint (2 bits per symbol in a 64-bit word) of every
    /// event symbol occurring anywhere below, including under `◇`/`⊙`.
    events_fp: u64,
    /// Structural hash of the children sequence. Equal lists always have
    /// equal hashes, so it can stand in for the list in hash-based dedup.
    hash: u64,
}

/// Top bit of [`GoalList`]'s `size` word: a `send`/`receive` occurs
/// somewhere below, under `◇` included.
const HAS_CHANNELS: usize = 1 << (usize::BITS - 1);

/// Next bit of [`GoalList`]'s `size` word: the node is in the canonical
/// form [`Goal::simplify`] produces, so it is its own simplification.
/// Only [`seq`], [`conc`] and [`or`] set it, and only when every child is
/// canonical and is neither a unit their tautologies drop nor the same
/// connective; the `raw_*` constructors never do.
const CANONICAL: usize = 1 << (usize::BITS - 2);

/// The flag bits of the `size` word.
const FLAGS: usize = HAS_CHANNELS | CANONICAL;

/// An n-ary connective, for the per-child tests of canonical form.
#[derive(Clone, Copy)]
enum Connective {
    Seq,
    Conc,
    Or,
}

impl Connective {
    /// True when the connective's smart constructor would not keep
    /// `child` as it is: a unit its tautologies drop or absorb into, or
    /// the same connective, which it flattens.
    fn absorbs(self, child: &Goal) -> bool {
        match self {
            Connective::Seq => matches!(child, Goal::Seq(_) | Goal::Empty | Goal::NoPath),
            Connective::Conc => matches!(child, Goal::Conc(_) | Goal::Empty | Goal::NoPath),
            Connective::Or => matches!(child, Goal::Or(_) | Goal::NoPath),
        }
    }
}

impl GoalList {
    /// Builds a list, computing the cached size/fingerprint/hash.
    pub fn new(children: Vec<Goal>) -> GoalList {
        GoalList::build(children, None)
    }

    /// [`GoalList::new`], and for a smart constructor (`built_by`) the
    /// canonical flag, in the same pass over the children. The caller
    /// vouches for what the children cannot show: at least two of them,
    /// and for `∨` no two equal.
    fn build(children: Vec<Goal>, built_by: Option<Connective>) -> GoalList {
        let mut size = 1usize;
        let mut has_channels = false;
        let mut canonical = built_by.is_some();
        let mut events_fp = 0u64;
        let mut hash = 0xA076_1D64_78BD_642Fu64; // arbitrary non-zero init
        for child in &children {
            size += child.size();
            has_channels |= child.has_channels();
            canonical =
                canonical && built_by.is_some_and(|c| !c.absorbs(child) && child.is_canonical());
            events_fp |= child.events_fingerprint();
            hash = mix64(hash ^ child.structural_hash());
        }
        // A size that reached the flag bits could only set them
        // spuriously: a channel flag costs a walk that finds nothing, a
        // canonical one would skip a needed rebuild.
        debug_assert!(size < CANONICAL, "goal size overflows its word");
        let mut flags = if has_channels { HAS_CHANNELS } else { 0 };
        if canonical {
            flags |= CANONICAL;
        }
        GoalList {
            children,
            size: size | flags,
            events_fp,
            hash,
        }
    }

    /// The children as an owned vector (clones are Arc bumps).
    pub fn to_vec(&self) -> Vec<Goal> {
        self.children.clone()
    }
}

impl std::ops::Deref for GoalList {
    type Target = [Goal];
    fn deref(&self) -> &[Goal] {
        &self.children
    }
}

impl fmt::Debug for GoalList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.children.fmt(f)
    }
}

impl PartialEq for GoalList {
    fn eq(&self, other: &GoalList) -> bool {
        self.hash == other.hash && self.children == other.children
    }
}

impl Eq for GoalList {}

/// SplitMix64 finalizer — the mixer behind both the structural hash and
/// the event fingerprint.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two-bit bloom mask for one event symbol: the bits it sets in the
/// [`Goal::events_fingerprint`] of every goal that mentions it.
pub fn event_fp_bits(event: Symbol) -> u64 {
    let h = mix64(event.index() as u64 ^ 0xD6E8_FEB8_6659_FD93);
    (1u64 << (h & 63)) | (1u64 << ((h >> 6) & 63))
}

/// FxHash-style hasher for in-memory tables: the first-order `Atom` case
/// of [`Goal::structural_hash`], the maps of [`crate::memo`], whose keys
/// are already-mixed structural hashes, dense node ids and interned
/// symbols, and the engine's index of a program's event names.
///
/// None of these hashes is persisted and none of the keys is chosen by a
/// peer, so a keyed SipHash pass per probe is pure overhead: one
/// rotate-xor-multiply round per written word spreads interned symbol ids
/// and small term payloads well enough for bucketing.
#[derive(Default)]
pub struct FxHasher(u64);

/// [`FxHasher`] as a `HashMap` parameter.
pub(crate) type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Eight bytes a round: the engine's name index hashes whole event
    /// names.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }
}

/// A concurrent-Horn goal.
///
/// `Seq`, `Conc`, and `Or` are n-ary: `Goal::raw_seq(vec![a, b, c])` is
/// `a ⊗ b ⊗ c`. The smart constructors [`seq`], [`conc`], and [`or`]
/// flatten nested applications, drop units, and apply the `¬path`
/// absorption tautologies of §5, so goals built through them are always in
/// a canonical simplified form. Pattern-matching code may rely on the
/// invariants documented on each constructor.
#[derive(Clone)]
pub enum Goal {
    /// An atomic formula: an activity, significant event, elementary
    /// update, query, or rule-defined sub-workflow call.
    Atom(Atom),
    /// Serial conjunction `g₁ ⊗ … ⊗ gₙ` (n ≥ 2): execute left to right.
    Seq(Arc<GoalList>),
    /// Concurrent conjunction `g₁ | … | gₙ` (n ≥ 2): execute interleaved.
    Conc(Arc<GoalList>),
    /// Disjunction `g₁ ∨ … ∨ gₙ` (n ≥ 2): execute one, chosen
    /// nondeterministically.
    Or(Arc<GoalList>),
    /// Isolated execution `⊙g`: no interleaving with concurrent siblings.
    Isolated(Arc<Goal>),
    /// Executional possibility `◇g`: succeed on a 1-path if `g` is
    /// executable at the current state.
    Possible(Arc<Goal>),
    /// `send(ξ)` — always executable; enables the matching `receive`.
    Send(Channel),
    /// `receive(ξ)` — executable only after `send(ξ)` has executed.
    Receive(Channel),
    /// The empty goal — unit of `⊗` and `|`.
    Empty,
    /// `¬path` — the unexecutable goal.
    NoPath,
}

impl Default for Goal {
    /// The empty goal — the unit of `⊗` and `|`.
    fn default() -> Goal {
        Goal::Empty
    }
}

impl Goal {
    /// Propositional atom goal, the common case for workflow activities.
    pub fn atom(name: impl Into<Symbol>) -> Goal {
        Goal::Atom(Atom::prop(name))
    }

    /// Raw n-ary `⊗` node — no flattening or simplification. For code
    /// (tests, ablations, renamers) that deliberately builds
    /// non-canonical shapes; everything else should use [`seq`].
    pub fn raw_seq(children: Vec<Goal>) -> Goal {
        Goal::Seq(Arc::new(GoalList::new(children)))
    }

    /// Raw n-ary `|` node — see [`Goal::raw_seq`].
    pub fn raw_conc(children: Vec<Goal>) -> Goal {
        Goal::Conc(Arc::new(GoalList::new(children)))
    }

    /// Raw n-ary `∨` node — see [`Goal::raw_seq`].
    pub fn raw_or(children: Vec<Goal>) -> Goal {
        Goal::Or(Arc::new(GoalList::new(children)))
    }

    /// Raw `⊙` node — see [`Goal::raw_seq`].
    pub fn raw_isolated(inner: Goal) -> Goal {
        Goal::Isolated(Arc::new(inner))
    }

    /// Raw `◇` node — see [`Goal::raw_seq`].
    pub fn raw_possible(inner: Goal) -> Goal {
        Goal::Possible(Arc::new(inner))
    }

    /// Number of nodes in the goal tree — the size measure `|G|` of
    /// Theorem 5.11. O(1) for the n-ary connectives (cached at
    /// construction).
    pub fn size(&self) -> usize {
        match self {
            Goal::Atom(_) | Goal::Send(_) | Goal::Receive(_) | Goal::Empty | Goal::NoPath => 1,
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => gs.size & !FLAGS,
            Goal::Isolated(g) | Goal::Possible(g) => 1 + g.size(),
        }
    }

    /// True if a `send`/`receive` occurs anywhere in the goal, under `◇`
    /// included. O(1) for the n-ary connectives (cached at construction):
    /// what lets `Excise`, [`Goal::channels`] and
    /// [`ChannelAlloc::fresh_for`](crate::apply::ChannelAlloc::fresh_for)
    /// pass over the channel-free bulk of a goal without walking it.
    pub(crate) fn has_channels(&self) -> bool {
        match self {
            Goal::Send(_) | Goal::Receive(_) => true,
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => gs.size & HAS_CHANNELS != 0,
            Goal::Isolated(g) | Goal::Possible(g) => g.has_channels(),
            Goal::Atom(_) | Goal::Empty | Goal::NoPath => false,
        }
    }

    /// True when the goal is in the canonical form [`Goal::simplify`]
    /// produces, as its flag records: every leaf is, and every goal
    /// [`seq`], [`conc`], [`or`], [`isolated`] and [`possible`] build from
    /// canonical parts. A `raw_*` node answers `false` whatever its shape,
    /// so `simplify` walks it. O(1) but for a chain of `⊙`/`◇` above the
    /// first connective.
    pub fn is_canonical(&self) -> bool {
        match self {
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => gs.size & CANONICAL != 0,
            Goal::Isolated(g) | Goal::Possible(g) => {
                !matches!(**g, Goal::Empty | Goal::NoPath) && g.is_canonical()
            }
            Goal::Atom(_) | Goal::Send(_) | Goal::Receive(_) | Goal::Empty | Goal::NoPath => true,
        }
    }

    /// Bloom fingerprint of the event symbols occurring in this subtree.
    /// A zero intersection with an event's mask proves absence; a nonzero
    /// one is only a maybe (see [`Goal::may_mention`]).
    pub fn events_fingerprint(&self) -> u64 {
        match self {
            Goal::Atom(a) => a.as_event().map_or(0, event_fp_bits),
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => gs.events_fp,
            Goal::Isolated(g) | Goal::Possible(g) => g.events_fingerprint(),
            Goal::Send(_) | Goal::Receive(_) | Goal::Empty | Goal::NoPath => 0,
        }
    }

    /// Conservative event-occurrence test: `false` proves
    /// `!self.mentions_event(event)`; `true` means the event *may* occur
    /// (bloom false-positives are possible but rare). The Apply and sync
    /// rewrites use this to skip subtrees that provably cannot contain
    /// the constrained event.
    pub fn may_mention(&self, event: Symbol) -> bool {
        let mask = event_fp_bits(event);
        self.events_fingerprint() & mask == mask
    }

    /// True when the two goals share their backing allocation (`Arc::ptr_eq`
    /// on the payload) or are equal leaves. Implies structural equality; the
    /// rewrites use it to detect that a recursion returned its input
    /// unchanged, so the parent node can be reused instead of rebuilt.
    pub fn ptr_eq(&self, other: &Goal) -> bool {
        match (self, other) {
            (Goal::Seq(a), Goal::Seq(b))
            | (Goal::Conc(a), Goal::Conc(b))
            | (Goal::Or(a), Goal::Or(b)) => Arc::ptr_eq(a, b),
            (Goal::Isolated(a), Goal::Isolated(b)) | (Goal::Possible(a), Goal::Possible(b)) => {
                Arc::ptr_eq(a, b)
            }
            (Goal::Atom(a), Goal::Atom(b)) => a == b,
            (Goal::Send(a), Goal::Send(b)) | (Goal::Receive(a), Goal::Receive(b)) => a == b,
            (Goal::Empty, Goal::Empty) | (Goal::NoPath, Goal::NoPath) => true,
            _ => false,
        }
    }

    /// Structural hash, cached for the n-ary connectives. Structurally
    /// equal goals always hash equal.
    pub fn structural_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        match self {
            Goal::Atom(a) => match a.as_event() {
                // The workflow fragment is propositional: an activity is
                // its interned id, one mixer round away from a hash. The
                // tag keeps it clear of the channel leaves' inputs.
                Some(event) => mix64(0x0100_0000_0000_0000 | u64::from(event.index())),
                None => {
                    let mut hasher = FxHasher::default();
                    a.hash(&mut hasher);
                    mix64(hasher.finish() ^ 0x01)
                }
            },
            Goal::Seq(gs) => mix64(gs.hash ^ 0x02),
            Goal::Conc(gs) => mix64(gs.hash ^ 0x03),
            Goal::Or(gs) => mix64(gs.hash ^ 0x04),
            Goal::Isolated(g) => mix64(g.structural_hash() ^ 0x05),
            Goal::Possible(g) => mix64(g.structural_hash() ^ 0x06),
            Goal::Send(c) => mix64(0x9100 | c.0 as u64),
            Goal::Receive(c) => mix64(0xA200_0000 | c.0 as u64),
            Goal::Empty => 0x07,
            Goal::NoPath => 0x08,
        }
    }

    /// True if the goal is exactly `¬path`.
    pub fn is_nopath(&self) -> bool {
        matches!(self, Goal::NoPath)
    }

    /// True if the goal is the empty goal.
    pub fn is_empty_goal(&self) -> bool {
        matches!(self, Goal::Empty)
    }

    /// True if `event` occurs syntactically anywhere in the goal.
    pub fn mentions_event(&self, event: Symbol) -> bool {
        // The fingerprint answers definite absence without walking.
        if !self.may_mention(event) {
            return false;
        }
        match self {
            Goal::Atom(a) => a.as_event() == Some(event),
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => {
                gs.iter().any(|g| g.mentions_event(event))
            }
            Goal::Isolated(g) | Goal::Possible(g) => g.mentions_event(event),
            Goal::Send(_) | Goal::Receive(_) | Goal::Empty | Goal::NoPath => false,
        }
    }

    /// Collects every propositional atom symbol occurring in the goal.
    pub fn events(&self) -> BTreeSet<Symbol> {
        let mut set = BTreeSet::new();
        self.collect_events(&mut set);
        set
    }

    fn collect_events(&self, set: &mut BTreeSet<Symbol>) {
        match self {
            Goal::Atom(a) => {
                if let Some(e) = a.as_event() {
                    set.insert(e);
                }
            }
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => {
                for g in gs.iter() {
                    g.collect_events(set);
                }
            }
            Goal::Isolated(g) | Goal::Possible(g) => g.collect_events(set),
            Goal::Send(_) | Goal::Receive(_) | Goal::Empty | Goal::NoPath => {}
        }
    }

    /// Collects every channel occurring in the goal.
    pub fn channels(&self) -> BTreeSet<Channel> {
        let mut set = BTreeSet::new();
        self.collect_channels(&mut set);
        set
    }

    fn collect_channels(&self, set: &mut BTreeSet<Channel>) {
        if !self.has_channels() {
            return;
        }
        match self {
            Goal::Send(c) | Goal::Receive(c) => {
                set.insert(*c);
            }
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => {
                for g in gs.iter() {
                    g.collect_channels(set);
                }
            }
            Goal::Isolated(g) | Goal::Possible(g) => g.collect_channels(set),
            Goal::Atom(_) | Goal::Empty | Goal::NoPath => {}
        }
    }

    /// Visits every atom in the goal, left to right. The shared walker
    /// behind variable-floor scans, predicate collection, and other
    /// atom-level analyses — callers should use this rather than matching
    /// the goal shape themselves.
    pub fn for_each_atom(&self, f: &mut impl FnMut(&Atom)) {
        match self {
            Goal::Atom(a) => f(a),
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => {
                for g in gs.iter() {
                    g.for_each_atom(f);
                }
            }
            Goal::Isolated(g) | Goal::Possible(g) => g.for_each_atom(f),
            Goal::Send(_) | Goal::Receive(_) | Goal::Empty | Goal::NoPath => {}
        }
    }

    /// Rebuilds the goal with `f` applied to every atom, preserving the
    /// exact tree shape (raw constructors, no flattening), so an atom-level
    /// rewrite such as variable renaming cannot disturb the structure.
    pub fn map_atoms(&self, f: &mut impl FnMut(&Atom) -> Atom) -> Goal {
        match self {
            Goal::Atom(a) => Goal::Atom(f(a)),
            Goal::Seq(gs) => Goal::raw_seq(gs.iter().map(|g| g.map_atoms(f)).collect()),
            Goal::Conc(gs) => Goal::raw_conc(gs.iter().map(|g| g.map_atoms(f)).collect()),
            Goal::Or(gs) => Goal::raw_or(gs.iter().map(|g| g.map_atoms(f)).collect()),
            Goal::Isolated(g) => Goal::raw_isolated(g.map_atoms(f)),
            Goal::Possible(g) => Goal::raw_possible(g.map_atoms(f)),
            other => other.clone(),
        }
    }

    /// Replaces each event atom `e` for which `f(e)` returns a goal with
    /// that goal, rebuilding through the smart constructors: the one
    /// atom-for-goal rewrite behind sub-workflow expansion, loop unrolling
    /// and trigger and timer lowering. `mask` holds the
    /// [`event_fp_bits`] of every event `f` may replace; a canonical
    /// subgoal whose fingerprint misses it is returned as it is, since a
    /// rebuild would only reproduce it, and so is one whose children all
    /// come back as they were. Atoms are offered to `f` left to right.
    pub fn substitute(&self, mask: u64, f: &mut impl FnMut(Symbol) -> Option<Goal>) -> Goal {
        let canonical = self.is_canonical();
        if self.events_fingerprint() & mask == 0 && canonical {
            return self.clone();
        }
        match self {
            Goal::Atom(a) => a
                .as_event()
                .and_then(&mut *f)
                .unwrap_or_else(|| self.clone()),
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => {
                let rebuild = |children: Vec<Goal>| match self {
                    Goal::Seq(_) => seq(children),
                    Goal::Conc(_) => conc(children),
                    _ => or(children),
                };
                // No child vector until a child changes.
                let first_change = gs.iter().enumerate().find_map(|(i, child)| {
                    let new = child.substitute(mask, f);
                    (!new.ptr_eq(child)).then_some((i, new))
                });
                match first_change {
                    Some((i, new)) => rebuild(
                        (gs[..i].iter().cloned())
                            .chain(std::iter::once(new))
                            .chain(gs[i + 1..].iter().map(|g| g.substitute(mask, f)))
                            .collect(),
                    ),
                    None if canonical => self.clone(),
                    None => rebuild(gs.to_vec()),
                }
            }
            Goal::Isolated(g) | Goal::Possible(g) => {
                let new = g.substitute(mask, f);
                match self {
                    _ if canonical && new.ptr_eq(g) => self.clone(),
                    Goal::Isolated(_) => isolated(new),
                    _ => possible(new),
                }
            }
            Goal::Send(_) | Goal::Receive(_) | Goal::Empty | Goal::NoPath => self.clone(),
        }
    }

    /// Rebuilds the goal through the smart constructors, enforcing the
    /// canonical simplified form (flattened connectives, units dropped,
    /// `¬path` absorbed per the tautologies of §5). Goals produced by this
    /// crate's own transformations are already canonical; this is for goals
    /// assembled by hand or by a parser.
    pub fn simplify(&self) -> Goal {
        match self.simplify_shared() {
            Some(changed) => changed,
            None => self.clone(),
        }
    }

    /// Sharing-aware worker for [`Goal::simplify`]: returns `None` when the
    /// subtree is already in canonical form, so callers reuse the existing
    /// `Arc` instead of rebuilding. A node the smart constructors built
    /// answers from its flag, without a walk; only `raw_*` nodes are
    /// checked child by child.
    fn simplify_shared(&self) -> Option<Goal> {
        if self.is_canonical() {
            return None;
        }
        match self {
            Goal::Seq(gs) => match Self::simplify_children(gs) {
                Some(kids) => Some(seq(kids)),
                None if Self::breaks_form(gs, Connective::Seq) => Some(seq(gs.to_vec())),
                None => None,
            },
            Goal::Conc(gs) => match Self::simplify_children(gs) {
                Some(kids) => Some(conc(kids)),
                None if Self::breaks_form(gs, Connective::Conc) => Some(conc(gs.to_vec())),
                None => None,
            },
            Goal::Or(gs) => match Self::simplify_children(gs) {
                Some(kids) => Some(or(kids)),
                None if Self::breaks_form(gs, Connective::Or) || Self::has_duplicates(gs) => {
                    Some(or(gs.to_vec()))
                }
                None => None,
            },
            Goal::Isolated(g) => match g.simplify_shared() {
                Some(new) => Some(isolated(new)),
                None if matches!(**g, Goal::Empty | Goal::NoPath) => Some(isolated((**g).clone())),
                None => None,
            },
            Goal::Possible(g) => match g.simplify_shared() {
                Some(new) => Some(possible(new)),
                None if matches!(**g, Goal::Empty | Goal::NoPath) => Some(possible((**g).clone())),
                None => None,
            },
            Goal::Atom(_) | Goal::Send(_) | Goal::Receive(_) | Goal::Empty | Goal::NoPath => None,
        }
    }

    /// Simplifies each child of an n-ary node. Returns `None` when every
    /// child was already canonical (nothing to rebuild); otherwise the new
    /// child vector, reusing the untouched children's `Arc`s.
    fn simplify_children(gs: &GoalList) -> Option<Vec<Goal>> {
        let mut out: Option<Vec<Goal>> = None;
        for (i, child) in gs.iter().enumerate() {
            match child.simplify_shared() {
                Some(new) => out.get_or_insert_with(|| gs[..i].to_vec()).push(new),
                None => {
                    if let Some(v) = out.as_mut() {
                        v.push(child.clone());
                    }
                }
            }
        }
        out
    }

    /// True when the list, under `connective`, is not what its smart
    /// constructor would build from it: fewer than two children, or one
    /// the constructor drops or flattens.
    fn breaks_form(gs: &GoalList, connective: Connective) -> bool {
        gs.len() < 2 || gs.iter().any(|g| connective.absorbs(g))
    }

    /// True when two children are structurally equal — what forces the
    /// `∨`-idempotence rebuild.
    fn has_duplicates(gs: &GoalList) -> bool {
        !duplicate_positions(gs).is_empty()
    }

    /// Number of `∨`-alternatives if fully distributed — an upper bound on
    /// the number of structurally distinct execution variants. Saturates at
    /// `u64::MAX`.
    pub fn variant_count(&self) -> u64 {
        match self {
            Goal::Or(gs) => gs
                .iter()
                .map(Goal::variant_count)
                .fold(0u64, u64::saturating_add),
            Goal::Seq(gs) | Goal::Conc(gs) => gs
                .iter()
                .map(Goal::variant_count)
                .fold(1u64, u64::saturating_mul),
            Goal::Isolated(g) | Goal::Possible(g) => g.variant_count(),
            Goal::NoPath => 0,
            _ => 1,
        }
    }

    /// Discriminant rank used by the manual `Ord` (mirrors the order the
    /// variants are declared in, which the old `derive(Ord)` used).
    fn rank(&self) -> u8 {
        match self {
            Goal::Atom(_) => 0,
            Goal::Seq(_) => 1,
            Goal::Conc(_) => 2,
            Goal::Or(_) => 3,
            Goal::Isolated(_) => 4,
            Goal::Possible(_) => 5,
            Goal::Send(_) => 6,
            Goal::Receive(_) => 7,
            Goal::Empty => 8,
            Goal::NoPath => 9,
        }
    }
}

impl PartialEq for Goal {
    fn eq(&self, other: &Goal) -> bool {
        match (self, other) {
            (Goal::Atom(a), Goal::Atom(b)) => a == b,
            (Goal::Seq(a), Goal::Seq(b))
            | (Goal::Conc(a), Goal::Conc(b))
            | (Goal::Or(a), Goal::Or(b)) => Arc::ptr_eq(a, b) || a == b,
            (Goal::Isolated(a), Goal::Isolated(b)) | (Goal::Possible(a), Goal::Possible(b)) => {
                Arc::ptr_eq(a, b) || a == b
            }
            (Goal::Send(a), Goal::Send(b)) | (Goal::Receive(a), Goal::Receive(b)) => a == b,
            (Goal::Empty, Goal::Empty) | (Goal::NoPath, Goal::NoPath) => true,
            _ => false,
        }
    }
}

impl Eq for Goal {}

impl std::hash::Hash for Goal {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // The cached structural hash is a function of structure alone, so
        // this stays consistent with the structural `Eq`.
        state.write_u64(self.structural_hash());
    }
}

impl PartialOrd for Goal {
    fn partial_cmp(&self, other: &Goal) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Goal {
    fn cmp(&self, other: &Goal) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (Goal::Atom(a), Goal::Atom(b)) => a.cmp(b),
            (Goal::Seq(a), Goal::Seq(b))
            | (Goal::Conc(a), Goal::Conc(b))
            | (Goal::Or(a), Goal::Or(b)) => {
                if Arc::ptr_eq(a, b) {
                    Ordering::Equal
                } else {
                    a.children.cmp(&b.children)
                }
            }
            (Goal::Isolated(a), Goal::Isolated(b)) | (Goal::Possible(a), Goal::Possible(b)) => {
                if Arc::ptr_eq(a, b) {
                    Ordering::Equal
                } else {
                    (**a).cmp(b)
                }
            }
            (Goal::Send(a), Goal::Send(b)) | (Goal::Receive(a), Goal::Receive(b)) => a.cmp(b),
            (Goal::Empty, Goal::Empty) | (Goal::NoPath, Goal::NoPath) => Ordering::Equal,
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

/// Appends the children of a nested list: moved out when this is the only
/// reference, cloned (`Arc` bumps) otherwise.
fn extend_from_list(out: &mut Vec<Goal>, list: Arc<GoalList>) {
    match Arc::try_unwrap(list) {
        Ok(owned) => out.extend(owned.children),
        Err(shared) => out.extend_from_slice(&shared),
    }
}

/// `⊗` (`serial`) or `|` of the given goals — the one body behind [`seq`]
/// and [`conc`]. When no child is a unit or the same connective, the
/// caller's vector becomes the node's child list as it is.
fn conjunction(serial: bool, goals: Vec<Goal>) -> Goal {
    if goals.iter().any(Goal::is_nopath) {
        return Goal::NoPath;
    }
    // What a child contributes to the flattened list when it is the same
    // connective as the one being built.
    let nested = |g: &Goal| match g {
        Goal::Seq(inner) if serial => Some(inner.len()),
        Goal::Conc(inner) if !serial => Some(inner.len()),
        _ => None,
    };
    let mut out = if goals
        .iter()
        .any(|g| g.is_empty_goal() || nested(g).is_some())
    {
        let mut flat = Vec::with_capacity(goals.iter().map(|g| nested(g).unwrap_or(1)).sum());
        for g in goals {
            match g {
                Goal::Empty => {}
                Goal::Seq(inner) if serial => extend_from_list(&mut flat, inner),
                Goal::Conc(inner) if !serial => extend_from_list(&mut flat, inner),
                other => flat.push(other),
            }
        }
        flat
    } else {
        goals
    };
    match out.len() {
        0 => Goal::Empty,
        1 => out.pop().expect("len checked"),
        _ if serial => Goal::Seq(Arc::new(GoalList::build(out, Some(Connective::Seq)))),
        _ => Goal::Conc(Arc::new(GoalList::build(out, Some(Connective::Conc)))),
    }
}

/// Serial conjunction `⊗` of the given goals.
///
/// Invariants established: nested `Seq`s are flattened, `Empty` children
/// are dropped, any `NoPath` child absorbs the whole conjunction
/// (`¬path ⊗ φ ≡ φ ⊗ ¬path ≡ ¬path`), a zero-length conjunction is
/// `Empty`, and a singleton unwraps.
pub fn seq(goals: Vec<Goal>) -> Goal {
    conjunction(true, goals)
}

/// Concurrent conjunction `|` of the given goals.
///
/// Same invariants as [`seq`] with the `|` absorption tautology
/// (`¬path | φ ≡ ¬path`).
pub fn conc(goals: Vec<Goal>) -> Goal {
    conjunction(false, goals)
}

/// Alternative lists up to this length are deduplicated by a quadratic
/// scan over their hashes; longer ones through an index table.
const INLINE_DEDUP: usize = 16;

/// [`later_duplicates`] under the goals' own cached structural hashes,
/// gathered on the stack for short lists.
fn duplicate_positions(goals: &[Goal]) -> Vec<usize> {
    if goals.len() <= INLINE_DEDUP {
        let mut hashes = [0u64; INLINE_DEDUP];
        for (h, g) in hashes.iter_mut().zip(goals) {
            *h = g.structural_hash();
        }
        later_duplicates(goals, &hashes[..goals.len()])
    } else {
        let hashes: Vec<u64> = goals.iter().map(Goal::structural_hash).collect();
        later_duplicates(goals, &hashes)
    }
}

/// The positions, ascending, of every goal structurally equal to an
/// earlier one — the one "distinct by cached hash" test behind [`or`]'s
/// idempotence step and [`Goal::simplify`]'s canonicity check. Empty (and
/// unallocated) when all goals are distinct.
///
/// `hashes[i]` stands in for `goals[i]` and must agree on equal goals.
/// Equal hashes only nominate a candidate: it is confirmed by real
/// equality (which starts with a pointer comparison, so re-encountering a
/// shared subtree is cheap). The hashes are a parameter so a test can
/// force distinct goals to collide.
fn later_duplicates(goals: &[Goal], hashes: &[u64]) -> Vec<usize> {
    debug_assert_eq!(goals.len(), hashes.len());
    let same = |i: usize, j: usize| hashes[i] == hashes[j] && goals[i] == goals[j];
    let mut duplicates = Vec::new();
    if goals.len() <= INLINE_DEDUP {
        for i in 1..goals.len() {
            if (0..i).any(|j| same(i, j)) {
                duplicates.push(i);
            }
        }
        return duplicates;
    }
    // Open addressing over positions, linear probing at load ≤ 1/2. The
    // hashes come out of `mix64`, so their low bits index the table.
    const VACANT: u32 = u32::MAX;
    let mask = (goals.len() * 2).next_power_of_two() - 1;
    let mut table = vec![VACANT; mask + 1];
    for (i, &hash) in hashes.iter().enumerate() {
        let mut slot = hash as usize & mask;
        loop {
            match table[slot] {
                VACANT => {
                    table[slot] = u32::try_from(i).expect("fewer than 2^32 alternatives");
                    break;
                }
                j if same(i, j as usize) => {
                    duplicates.push(i);
                    break;
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }
    duplicates
}

/// Disjunction `∨` of the given goals.
///
/// Nested `Or`s are flattened, `NoPath` alternatives are dropped
/// (`¬path ∨ φ ≡ φ`), and structurally identical alternatives are merged
/// (idempotence, `φ ∨ φ ≡ φ` — keeping the first occurrence, so branch
/// order is stable). An empty disjunction is `¬path` and a singleton
/// unwraps.
///
/// The idempotence step is what keeps repeated constraint compilation from
/// exceeding the genuine `d^N` bound of Theorem 5.11: sequential `Apply`
/// passes frequently regenerate identical pruned variants. It compares the
/// cached structural hashes, so each candidate costs O(1) rather than a
/// full-tree walk, and allocates nothing for up to sixteen alternatives
/// (two flat arrays above that). When there is nothing to flatten, the
/// caller's vector becomes the node's child list.
pub fn or(goals: Vec<Goal>) -> Goal {
    let mut out = if goals.iter().any(|g| matches!(g, Goal::Or(_))) {
        let flat_len = goals.iter().map(|g| match g {
            Goal::Or(inner) => inner.len(),
            _ => 1,
        });
        let mut flat = Vec::with_capacity(flat_len.sum());
        for g in goals {
            match g {
                Goal::NoPath => {}
                Goal::Or(inner) => extend_from_list(&mut flat, inner),
                other => flat.push(other),
            }
        }
        flat
    } else {
        let mut kept = goals;
        kept.retain(|g| !g.is_nopath());
        kept
    };
    let duplicates = duplicate_positions(&out);
    if !duplicates.is_empty() {
        let mut position = 0;
        let mut dropped = duplicates.into_iter().peekable();
        out.retain(|_| {
            let keep = dropped.next_if_eq(&position).is_none();
            position += 1;
            keep
        });
    }
    match out.len() {
        0 => Goal::NoPath,
        1 => out.pop().expect("len checked"),
        _ => Goal::Or(Arc::new(GoalList::build(out, Some(Connective::Or)))),
    }
}

/// Isolation `⊙g`. `⊙` of the empty goal or `¬path` is itself.
pub fn isolated(g: Goal) -> Goal {
    match g {
        Goal::Empty => Goal::Empty,
        Goal::NoPath => Goal::NoPath,
        other => Goal::raw_isolated(other),
    }
}

/// Possibility `◇g`. `◇¬path` can never succeed, so it is `¬path`;
/// `◇Empty` always succeeds on a 1-path, so it is `Empty`.
pub fn possible(g: Goal) -> Goal {
    match g {
        Goal::Empty => Goal::Empty,
        Goal::NoPath => Goal::NoPath,
        other => Goal::raw_possible(other),
    }
}

/// Binary serial conjunction convenience.
pub fn then(a: Goal, b: Goal) -> Goal {
    seq(vec![a, b])
}

impl fmt::Display for Goal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Precedence: ∨ (loosest) < | < ⊗ < unary (tightest). Children are
        // parenthesized when their connective binds no tighter than the
        // parent's.
        fn prec(g: &Goal) -> u8 {
            match g {
                Goal::Or(_) => 0,
                Goal::Conc(_) => 1,
                Goal::Seq(_) => 2,
                _ => 3,
            }
        }
        fn write(g: &Goal, parent: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let p = prec(g);
            // Same-connective nesting never occurs (smart constructors
            // flatten it), so strictly-looser children are the only ones
            // that need parentheses.
            let parens = p < 3 && p < parent;
            if parens {
                write!(f, "(")?;
            }
            match g {
                Goal::Atom(a) => write!(f, "{a}")?,
                Goal::Seq(gs) => {
                    for (i, child) in gs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " * ")?;
                        }
                        write(child, p, f)?;
                    }
                }
                Goal::Conc(gs) => {
                    for (i, child) in gs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " # ")?;
                        }
                        write(child, p, f)?;
                    }
                }
                Goal::Or(gs) => {
                    for (i, child) in gs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " + ")?;
                        }
                        write(child, p, f)?;
                    }
                }
                Goal::Isolated(inner) => {
                    write!(f, "iso(")?;
                    write(inner, 0, f)?;
                    write!(f, ")")?;
                }
                Goal::Possible(inner) => {
                    write!(f, "poss(")?;
                    write(inner, 0, f)?;
                    write!(f, ")")?;
                }
                Goal::Send(c) => write!(f, "send({c})")?,
                Goal::Receive(c) => write!(f, "receive({c})")?,
                Goal::Empty => write!(f, "empty")?,
                Goal::NoPath => write!(f, "nopath")?,
            }
            if parens {
                write!(f, ")")?;
            }
            Ok(())
        }
        write(self, 0, f)
    }
}

impl fmt::Debug for Goal {
    // Goals are best read in their concrete syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    fn a() -> Goal {
        Goal::atom("a")
    }
    fn b() -> Goal {
        Goal::atom("b")
    }
    fn c() -> Goal {
        Goal::atom("c")
    }

    #[test]
    fn seq_flattens_and_drops_units() {
        let g = seq(vec![a(), Goal::Empty, seq(vec![b(), c()])]);
        assert_eq!(g, Goal::raw_seq(vec![a(), b(), c()]));
    }

    #[test]
    fn seq_absorbs_nopath() {
        assert_eq!(seq(vec![a(), Goal::NoPath, b()]), Goal::NoPath);
    }

    #[test]
    fn conc_absorbs_nopath() {
        assert_eq!(conc(vec![a(), Goal::NoPath]), Goal::NoPath);
    }

    #[test]
    fn or_drops_nopath_branches() {
        assert_eq!(or(vec![Goal::NoPath, a(), Goal::NoPath]), a());
        assert_eq!(or(vec![Goal::NoPath, Goal::NoPath]), Goal::NoPath);
    }

    #[test]
    fn singletons_unwrap() {
        assert_eq!(seq(vec![a()]), a());
        assert_eq!(conc(vec![b()]), b());
        assert_eq!(or(vec![c()]), c());
    }

    #[test]
    fn empty_conjunctions_are_unit() {
        assert_eq!(seq(vec![]), Goal::Empty);
        assert_eq!(conc(vec![]), Goal::Empty);
        assert_eq!(or(vec![]), Goal::NoPath);
    }

    #[test]
    fn isolated_of_trivial_goals_simplifies() {
        assert_eq!(isolated(Goal::Empty), Goal::Empty);
        assert_eq!(isolated(Goal::NoPath), Goal::NoPath);
        assert!(matches!(isolated(a()), Goal::Isolated(_)));
    }

    #[test]
    fn possible_of_trivial_goals_simplifies() {
        assert_eq!(possible(Goal::Empty), Goal::Empty);
        assert_eq!(possible(Goal::NoPath), Goal::NoPath);
    }

    #[test]
    fn size_counts_nodes() {
        let g = seq(vec![a(), conc(vec![b(), c()])]);
        // Seq node + a + Conc node + b + c
        assert_eq!(g.size(), 5);
    }

    #[test]
    fn channel_flag_rides_in_the_size_word() {
        // 48 bytes: with the two counters of its `Arc`, the 64-byte bin.
        assert_eq!(std::mem::size_of::<GoalList>(), 48);
        let free = seq(vec![a(), conc(vec![b(), c()])]);
        assert!(!free.has_channels());
        let sends = seq(vec![a(), conc(vec![b(), Goal::Send(Channel(3))])]);
        assert!(sends.has_channels());
        assert_eq!(sends.size(), free.size());
        // Through the unary modalities, ◇ included: `channels` reports them.
        let hidden = or(vec![a(), isolated(possible(Goal::Receive(Channel(3))))]);
        assert!(hidden.has_channels());
        assert_eq!(hidden.channels().len(), 1);
        assert_eq!(hidden.size(), 5);
        assert!(free.channels().is_empty());
    }

    #[test]
    fn clone_shares_subtrees() {
        let g = seq(vec![a(), conc(vec![b(), c()])]);
        let h = g.clone();
        let (Goal::Seq(gl), Goal::Seq(hl)) = (&g, &h) else {
            panic!("expected Seq");
        };
        assert!(Arc::ptr_eq(gl, hl));
    }

    #[test]
    fn may_mention_has_no_false_negatives() {
        let g = isolated(seq(vec![a(), possible(b())]));
        assert!(g.may_mention(sym("a")));
        assert!(g.may_mention(sym("b")));
        // A symbol that is definitely absent: the fingerprint must clear
        // at least most such probes; this specific one is checked not to
        // collide so the pruning path is actually exercised in tests.
        assert!(!g.mentions_event(sym("definitely_absent_event")));
    }

    #[test]
    fn structural_hash_matches_equality() {
        let g1 = seq(vec![a(), or(vec![b(), c()])]);
        let g2 = seq(vec![a(), or(vec![b(), c()])]);
        assert_eq!(g1, g2);
        assert_eq!(g1.structural_hash(), g2.structural_hash());
        let g3 = seq(vec![a(), or(vec![c(), b()])]);
        assert_ne!(g1, g3);
    }

    #[test]
    fn events_collects_prop_atoms_only() {
        let g = seq(vec![a(), Goal::Send(Channel(0)), or(vec![b(), c()])]);
        let evs = g.events();
        assert!(evs.contains(&sym("a")));
        assert!(evs.contains(&sym("b")));
        assert!(evs.contains(&sym("c")));
        assert_eq!(evs.len(), 3);
    }

    #[test]
    fn mentions_event_sees_through_modalities() {
        let g = isolated(seq(vec![a(), possible(b())]));
        assert!(g.mentions_event(sym("a")));
        assert!(g.mentions_event(sym("b")));
        assert!(!g.mentions_event(sym("zzz")));
    }

    #[test]
    fn channels_are_collected() {
        let g = conc(vec![
            seq(vec![a(), Goal::Send(Channel(7))]),
            seq(vec![Goal::Receive(Channel(7)), b()]),
        ]);
        assert_eq!(
            g.channels().into_iter().collect::<Vec<_>>(),
            vec![Channel(7)]
        );
    }

    #[test]
    fn display_uses_paper_precedence() {
        let g = seq(vec![a(), or(vec![b(), c()])]);
        assert_eq!(g.to_string(), "a * (b + c)");
        let h = or(vec![seq(vec![a(), b()]), c()]);
        assert_eq!(h.to_string(), "a * b + c");
        let k = conc(vec![seq(vec![a(), b()]), c()]);
        assert_eq!(k.to_string(), "a * b # c");
    }

    #[test]
    fn variant_count_multiplies_and_sums() {
        let g = seq(vec![or(vec![a(), b()]), or(vec![a(), b(), c()])]);
        assert_eq!(g.variant_count(), 6);
        assert_eq!(Goal::NoPath.variant_count(), 0);
        assert_eq!(a().variant_count(), 1);
    }

    /// `or` as the tautologies define it: one level of flattening, `¬path`
    /// dropped, the first of equal alternatives kept.
    fn or_reference(goals: &[Goal]) -> Goal {
        let mut out: Vec<Goal> = Vec::new();
        for g in goals {
            let alternatives = match g {
                Goal::NoPath => &[][..],
                Goal::Or(inner) => &inner[..],
                other => std::slice::from_ref(other),
            };
            for alternative in alternatives {
                if !out.contains(alternative) {
                    out.push(alternative.clone());
                }
            }
        }
        match out.len() {
            0 => Goal::NoPath,
            1 => out.pop().expect("len checked"),
            _ => Goal::raw_or(out),
        }
    }

    /// Every subgoal of `goal`, the goal itself included.
    fn subgoals(goal: &Goal, out: &mut Vec<Goal>) {
        out.push(goal.clone());
        match goal {
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => {
                gs.iter().for_each(|g| subgoals(g, out));
            }
            Goal::Isolated(g) | Goal::Possible(g) => subgoals(g, out),
            _ => {}
        }
    }

    proptest::proptest! {
        /// `or` and its dedup helper against the `Vec::contains`
        /// reference, on lists drawn with repetition from the subgoals of
        /// a generated goal: lengths on both sides of the inline-scan
        /// limit, nested `∨`s and `¬path` among the alternatives, and
        /// hashes forced to collide.
        #[test]
        fn or_matches_the_contains_reference(
            seed in 0u64..2000,
            picks in proptest::collection::vec(0usize..1000, 0..48),
        ) {
            let (goal, _) = crate::gen::random_goal(seed, crate::gen::GoalShape::default(), "o");
            let mut pool = vec![Goal::NoPath];
            subgoals(&goal, &mut pool);
            let list: Vec<Goal> = picks.iter().map(|&p| pool[p % pool.len()].clone()).collect();

            let got = or(list.clone());
            let want = or_reference(&list);
            proptest::prop_assert_eq!(&got, &want, "or({:?})", list);

            let repeats: Vec<usize> = (0..list.len())
                .filter(|&i| list[..i].contains(&list[i]))
                .collect();
            let real: Vec<u64> = list.iter().map(Goal::structural_hash).collect();
            let one_bucket = vec![0xDEAD_BEEF; list.len()];
            let few_buckets: Vec<u64> = real.iter().map(|h| h % 3).collect();
            for hashes in [&real, &one_bucket, &few_buckets] {
                proptest::prop_assert_eq!(&later_duplicates(&list, hashes), &repeats);
            }
        }
    }

    #[test]
    fn or_keeps_first_occurrences_past_the_inline_limit() {
        let alternatives: Vec<Goal> = (0..40)
            .map(|i| Goal::atom(format!("alt{}", i % 25)))
            .collect();
        let Goal::Or(kept) = or(alternatives.clone()) else {
            panic!("expected a disjunction");
        };
        assert_eq!(kept.to_vec(), alternatives[..25].to_vec());
    }

    #[test]
    fn constructors_keep_the_callers_vector_when_nothing_flattens() {
        for build in [seq, conc, or] {
            let children = vec![a(), b(), c()];
            let buffer = children.as_ptr();
            let (Goal::Seq(list) | Goal::Conc(list) | Goal::Or(list)) = build(children) else {
                panic!("expected an n-ary node");
            };
            assert_eq!(list.as_ptr(), buffer, "children were copied");
        }
    }

    #[test]
    fn simplify_is_idempotent_on_canonical_goals() {
        let g = seq(vec![a(), conc(vec![b(), c()])]);
        assert_eq!(g.simplify(), g);
    }

    /// [`Goal::simplify_shared`] as it was before the canonical flag: a
    /// check walk of every node, rebuilding where a child changed or the
    /// node breaks the form.
    fn reference_shared(goal: &Goal) -> Option<Goal> {
        fn kids(gs: &GoalList) -> Option<Vec<Goal>> {
            let mut out: Option<Vec<Goal>> = None;
            for (i, child) in gs.iter().enumerate() {
                match reference_shared(child) {
                    Some(new) => out.get_or_insert_with(|| gs[..i].to_vec()).push(new),
                    None => {
                        if let Some(v) = out.as_mut() {
                            v.push(child.clone());
                        }
                    }
                }
            }
            out
        }
        let breaks = |gs: &GoalList, bad: fn(&Goal) -> bool| gs.len() < 2 || gs.iter().any(bad);
        match goal {
            Goal::Seq(gs) => match kids(gs) {
                Some(k) => Some(seq(k)),
                None if breaks(gs, |g| {
                    matches!(g, Goal::Seq(_) | Goal::Empty | Goal::NoPath)
                }) =>
                {
                    Some(seq(gs.to_vec()))
                }
                None => None,
            },
            Goal::Conc(gs) => match kids(gs) {
                Some(k) => Some(conc(k)),
                None if breaks(gs, |g| {
                    matches!(g, Goal::Conc(_) | Goal::Empty | Goal::NoPath)
                }) =>
                {
                    Some(conc(gs.to_vec()))
                }
                None => None,
            },
            Goal::Or(gs) => match kids(gs) {
                Some(k) => Some(or(k)),
                None if breaks(gs, |g| matches!(g, Goal::Or(_) | Goal::NoPath))
                    || !duplicate_positions(gs).is_empty() =>
                {
                    Some(or(gs.to_vec()))
                }
                None => None,
            },
            Goal::Isolated(g) => match reference_shared(g) {
                Some(new) => Some(isolated(new)),
                None if matches!(**g, Goal::Empty | Goal::NoPath) => Some(isolated((**g).clone())),
                None => None,
            },
            Goal::Possible(g) => match reference_shared(g) {
                Some(new) => Some(possible(new)),
                None if matches!(**g, Goal::Empty | Goal::NoPath) => Some(possible((**g).clone())),
                None => None,
            },
            _ => None,
        }
    }

    /// A random goal in no particular form: units, channels, repeated
    /// atoms from a pool of three, lists of 0–4 children under raw or
    /// smart connectives (so singletons, nested same connectives and
    /// equal `∨` alternatives all occur, raw under smart and smart under
    /// raw), `⊙`/`◇` raw or smart.
    fn unruly(rng: &mut rand::rngs::StdRng, depth: usize) -> Goal {
        use rand::Rng;
        if depth == 0 || rng.gen_bool(0.25) {
            return match rng.gen_range(0..8) {
                0 => Goal::Empty,
                1 => Goal::NoPath,
                2 => Goal::Send(Channel(rng.gen_range(0..2))),
                _ => Goal::atom(["a", "b", "c"][rng.gen_range(0..3usize)]),
            };
        }
        let pick = rng.gen_range(0..10);
        if pick >= 6 {
            let inner = unruly(rng, depth - 1);
            return match pick {
                6 => Goal::raw_isolated(inner),
                7 => Goal::raw_possible(inner),
                8 => isolated(inner),
                _ => possible(inner),
            };
        }
        let width = rng.gen_range(0..=4);
        let kids: Vec<Goal> = (0..width).map(|_| unruly(rng, depth - 1)).collect();
        match pick {
            0 => Goal::raw_seq(kids),
            1 => Goal::raw_conc(kids),
            2 => Goal::raw_or(kids),
            3 => seq(kids),
            4 => conc(kids),
            _ => or(kids),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(2048))]

        /// The canonical flag is sound: `simplify` with it is the check
        /// walk without it, and every flagged subgoal is a fixed point of
        /// that walk.
        #[test]
        fn the_canonical_flag_skips_only_what_the_walk_keeps(seed in 0u64..1_000_000) {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
            let goal = unruly(&mut rng, 4);
            let want = reference_shared(&goal).unwrap_or_else(|| goal.clone());
            proptest::prop_assert_eq!(&goal.simplify(), &want, "{}", goal);
            let mut all = Vec::new();
            subgoals(&goal, &mut all);
            subgoals(&want, &mut all);
            for sub in all.iter().filter(|g| g.is_canonical()) {
                proptest::prop_assert!(reference_shared(sub).is_none(), "flagged {} in {}", sub, goal);
            }
        }
    }

    #[test]
    fn constructors_flag_what_they_build_and_raw_nodes_are_not() {
        let built = or(vec![seq(vec![a(), b()]), conc(vec![isolated(c()), a()])]);
        assert!(built.is_canonical());
        assert!(built.simplify().ptr_eq(&built));
        // Raw, even in canonical shape: walked, and kept as it is.
        let raw = Goal::raw_seq(vec![a(), b()]);
        assert!(!raw.is_canonical());
        assert!(raw.simplify().ptr_eq(&raw));
        // A smart node over a raw child that breaks the form is not
        // flagged, so the child still gets rebuilt.
        let over_raw = conc(vec![c(), Goal::raw_seq(vec![a(), Goal::Empty])]);
        assert!(!over_raw.is_canonical());
        assert_eq!(over_raw.simplify(), conc(vec![c(), a()]));
        assert!(!isolated(Goal::raw_or(vec![a()])).is_canonical());
        assert!(possible(a()).is_canonical());
    }

    #[test]
    fn simplify_normalizes_raw_goals() {
        let raw = Goal::raw_seq(vec![Goal::raw_seq(vec![a()]), Goal::Empty, b()]);
        assert_eq!(raw.simplify(), Goal::raw_seq(vec![a(), b()]));
        let dead = Goal::raw_conc(vec![a(), Goal::raw_or(vec![])]);
        assert_eq!(dead.simplify(), Goal::NoPath);
    }
}
