//! The pro-active scheduler (paper, §4).
//!
//! After `Apply` + `Excise`, the compiled goal `G'` is a "compressed"
//! explicit representation of all allowed executions: the constraints are
//! *compiled into the structure*, so no run-time constraint validation is
//! needed. This module executes that structure: "at each stage in the
//! execution of a workflow, the scheduler knows all events that are
//! eligible to start."
//!
//! [`Program`] is the goal flattened into an arena in DFS pre-order, so a
//! node's id is its pre-order rank and `[id, end)` is its subtree;
//! [`Scheduler`] is a cursor over it. Each [`Scheduler::fire`] commits
//! the `∨`-choices and `⊙`-entries on the fired node's path, appends the
//! event to the trace, and silently drains enabled `send`/`receive`
//! bookkeeping.
//!
//! The scheduler's "knows all events" promise is implemented literally:
//! eligibility is **stateful and incremental**, not recomputed. The
//! cursor maintains a persistent *frontier* — the eligible node ids,
//! sorted, which reproduces the recursive walk's emission order — and
//! every `fire` delta-updates it: only the fired leaf's root-to-leaf path
//! (committed `∨`-branches lose their abandoned siblings, newly reached
//! `⊗`-successors and enabled `receive`s join) changes; the rest of the
//! frontier is untouched. The frontier is the cursor's one record of
//! what is eligible. A `⊙` subtree is an id interval, so
//! [`Scheduler::eligible`] is a slice of it found by binary search,
//! [`Scheduler::fire_event`] is a probe of the program's name index and
//! a scan of that slice, and [`Scheduler::is_complete`] reads the root's
//! done bit. The delta rules and their soundness argument are written up
//! in DESIGN.md §11; the from-scratch recursive walk is retained as
//! [`Scheduler::eligible_reference`] and proptests pin the two
//! observationally identical.
//!
//! A position in the compiled goal is all a running workflow needs, so
//! the cursor is kept small: everything whose size the program fixes —
//! done and sent bits, one `u32` per `⊗` and `∨` — sits in one arena
//! laid out at compile time, and a new cursor is a copy of the program's
//! cached initial one (DESIGN.md §11, "The cursor").

use ctr::goal::{FxHasher, Goal};
use ctr::symbol::Symbol;
use ctr::term::Atom;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hasher;
use std::sync::OnceLock;

/// Index of a node in a [`Program`]: its DFS pre-order rank.
pub type NodeId = usize;

/// The root's id.
const ROOT: NodeId = 0;

/// Sentinel in every `u32` the program and its cursors store: no parent,
/// no dense index, uncommitted `∨`.
const NIL: u32 = u32::MAX;

/// One event of a program as the name index holds it.
#[derive(Clone, Copy, Debug)]
struct Named {
    name: &'static str,
    symbol: Symbol,
}

/// The program's events by name — its one event map. An event that
/// arrives as text costs one hash and one string compare here, never the
/// interner's locked lookup; one that arrives as a symbol is probed with
/// its name and matched by symbol id. Open-addressed with linear probing,
/// a power of two in size and at most half full, so a probe always ends
/// at an empty entry.
///
/// The mixer is not keyed. That is safe here because only the program's
/// own event names are ever *inserted*: a name from outside is looked up
/// and nothing more, so a client cannot lengthen anyone's probe
/// sequence, and whoever deploys a program can already make it
/// arbitrarily expensive.
#[derive(Clone, Debug)]
struct NameIndex {
    entries: Box<[Option<Named>]>,
    /// `64 − log2(entries.len())`: the home entry is the hash's top bits.
    shift: u32,
}

impl NameIndex {
    /// The index of `events`, which are distinct.
    fn build(events: &[Symbol]) -> NameIndex {
        let len = (events.len() * 2).next_power_of_two().max(2);
        let mut index = NameIndex {
            entries: vec![None; len].into_boxed_slice(),
            shift: u64::BITS - len.trailing_zeros(),
        };
        for &symbol in events {
            let name = symbol.as_str();
            let mut at = index.home(name);
            while index.entries[at].is_some() {
                at = (at + 1) & (len - 1);
            }
            index.entries[at] = Some(Named { name, symbol });
        }
        index
    }

    /// Where the probe for `name` starts: the name hashed a word at a
    /// time (length first, the tail zero-padded) through `FxHasher`.
    fn home(&self, name: &str) -> usize {
        let mut hasher = FxHasher::default();
        hasher.write_u64(name.len() as u64);
        hasher.write(name.as_bytes());
        (hasher.finish() >> self.shift) as usize
    }

    /// The first entry from `name`'s home on that `hit` accepts.
    fn probe(&self, name: &str, hit: impl Fn(&Named) -> bool) -> Option<Named> {
        let mut at = self.home(name);
        loop {
            let entry = self.entries[at]?;
            if hit(&entry) {
                return Some(entry);
            }
            at = (at + 1) & (self.entries.len() - 1);
        }
    }

    fn get(&self, name: &str) -> Option<Named> {
        self.probe(name, |entry| entry.name == name)
    }

    fn contains(&self, symbol: Symbol) -> bool {
        self.probe(symbol.as_str(), |entry| entry.symbol == symbol)
            .is_some()
    }
}

/// What a node is. A connective's children are the subtrees that tile
/// `[id + 1, end)`: the first starts at `id + 1`, each next one where the
/// one before ends.
#[derive(Clone, Debug)]
enum NodeKind {
    /// A workflow activity/event (any atom: the scheduler is the
    /// propositional layer; state effects belong to the interpreter).
    Event(Atom),
    Seq,
    Conc,
    Or,
    /// `⊙`; its body is `id + 1`.
    Iso,
    /// `send`/`receive` on a channel. `rank` is the channel's index among
    /// those the goal mentions, ascending by id: what [`Program`]'s
    /// receive table and a cursor's `sent` bits go by, so their size
    /// follows the goal's wherever in `u32` text put the id.
    Send {
        rank: u32,
    },
    Recv {
        rank: u32,
    },
    Empty,
}

#[derive(Clone, Debug)]
struct Node {
    kind: NodeKind,
    /// The parent node; [`NIL`] at the root.
    parent: u32,
    /// One past the last id inside the node's subtree, so `[id, end)` is
    /// the subtree: descendant tests and subtree evictions are O(1) and
    /// O(evicted).
    end: u32,
    /// The node's index among the nodes of its kind that own a `u32` of
    /// cursor state: `⊗` nodes (current child) and `∨` nodes (choice) are
    /// each numbered densely from 0, so a cursor stores one word per
    /// such node instead of one per node. [`NIL`] for every other node.
    dense: u32,
}

/// Errors from compiling a goal into a schedulable program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// The goal is `¬path` — the specification is inconsistent and there
    /// is nothing to schedule.
    Inconsistent,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Inconsistent => {
                write!(
                    f,
                    "goal is ¬path: the workflow specification is inconsistent"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Where each section of a cursor's arena starts, in `u64` words; fixed
/// once per program by [`Program::compile`]. A bitset over nodes
/// (`done`, at word 0), one over channels (`sent`), then two sections
/// of `u32`s packed two to a word: `seq_pos` per `⊗` node and
/// `or_choice` per `∨` node. `seq_pos` starts out at each `⊗`'s first
/// child, `or_choice` all-[`NIL`], the rest all-zero.
#[derive(Clone, Copy, Debug)]
struct Layout {
    sent: usize,
    seq_pos: usize,
    or_choice: usize,
    words: usize,
}

/// A compiled, schedulable workflow program.
#[derive(Clone, Debug)]
pub struct Program {
    /// The goal's nodes in DFS pre-order; the root is 0.
    nodes: Vec<Node>,
    /// `receive` nodes by channel, consulted when a `send` fires to
    /// promote newly enabled receives into the frontier: those of the
    /// channel ranked `r` are `recv_nodes[recv_start[r]..recv_start[r + 1]]`,
    /// in node order.
    recv_start: Vec<u32>,
    recv_nodes: Vec<u32>,
    layout: Layout,
    /// The program's events by name, the one lookup on the `fire_event`
    /// and `fire_named` paths; everything downstream compares symbols.
    names: NameIndex,
    /// The cursor every execution starts from — initial frontier built,
    /// leading silent steps drained. Filled by the first
    /// [`Scheduler::new`]; later ones copy it instead of walking the
    /// tree, and a program that is compiled but never scheduled never
    /// pays for it.
    initial: OnceLock<Cursor>,
}

impl Program {
    /// Compiles a (simplified, knot-free) goal. `◇`-subgoals are resolved
    /// at compile time: in the propositional scheduling layer a simplified
    /// non-`¬path` body is always executable, so they reduce to `Empty`
    /// (state-dependent `◇` belongs to the interpreter).
    ///
    /// The goal is simplified first. On what `Excise` returns, or anything
    /// else the smart constructors built, that is the goal's canonical
    /// flag read once and the same `Arc` back; only hand-built `raw_*`
    /// nodes are walked and rebuilt.
    pub fn compile(goal: &Goal) -> Result<Program, ScheduleError> {
        let simplified = goal.simplify();
        if simplified.is_nopath() {
            return Err(ScheduleError::Inconsistent);
        }
        let mut b = Builder {
            nodes: Vec::with_capacity(simplified.size()),
            ..Builder::default()
        };
        b.build(&simplified, NIL);
        // Rank the channels mentioned, ascending by id, and tell their nodes.
        let mut channels: Vec<u32> = b.channel_ops.iter().map(|&(c, _)| c).collect();
        channels.sort_unstable();
        channels.dedup();
        let mut recv_start = vec![0u32; channels.len() + 1];
        let mut recvs = Vec::new();
        for &(c, node) in &b.channel_ops {
            let at = channels.binary_search(&c).expect("collected above") as u32;
            match &mut b.nodes[node as usize].kind {
                NodeKind::Send { rank, .. } => *rank = at,
                NodeKind::Recv { rank } => {
                    *rank = at;
                    recv_start[at as usize + 1] += 1;
                    recvs.push((at, node));
                }
                _ => unreachable!("only channel nodes are recorded"),
            }
        }
        // Stable, so each channel's receives stay in node order.
        recvs.sort_by_key(|&(rank, _)| rank);
        for r in 0..channels.len() {
            recv_start[r + 1] += recv_start[r];
        }
        b.events.sort_unstable();
        b.events.dedup();
        let sent = b.nodes.len().div_ceil(64);
        let seq_pos = sent + channels.len().div_ceil(64);
        let or_choice = seq_pos + (b.seqs as usize).div_ceil(2);
        Ok(Program {
            nodes: b.nodes,
            recv_start,
            recv_nodes: recvs.iter().map(|&(_, n)| n).collect(),
            layout: Layout {
                sent,
                seq_pos,
                or_choice,
                words: or_choice + (b.ors as usize).div_ceil(2),
            },
            names: NameIndex::build(&b.events),
            initial: OnceLock::new(),
        })
    }

    /// Number of nodes in the program.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the program is a single `Empty` node.
    pub fn is_empty(&self) -> bool {
        matches!(self.nodes[ROOT].kind, NodeKind::Empty)
    }

    /// The event atom of a node, if it is an event node.
    pub fn event(&self, node: NodeId) -> Option<&Atom> {
        match &self.nodes[node].kind {
            NodeKind::Event(a) => Some(a),
            _ => None,
        }
    }

    /// The event symbol of a node, if it is an event node with a name.
    #[inline]
    fn symbol(&self, node: NodeId) -> Option<Symbol> {
        self.event(node)?.as_event()
    }

    /// One past the last id of `node`'s subtree.
    #[inline]
    fn end(&self, node: NodeId) -> NodeId {
        self.nodes[node].end as NodeId
    }

    /// The children of `node`, in order: the subtrees tiling `[node + 1, end)`.
    fn children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let end = self.end(node);
        let first = (node + 1 < end).then_some(node + 1);
        std::iter::successors(first, move |&c| Some(self.end(c)).filter(|&c| c < end))
    }

    /// True if `node` lies in `anc`'s subtree (including `anc` itself).
    #[inline]
    fn in_subtree(&self, anc: NodeId, node: NodeId) -> bool {
        node >= anc && node < self.end(anc)
    }

    /// The `receive` nodes listening on the channel ranked `r`.
    fn recvs_on(&self, r: u32) -> &[u32] {
        let r = r as usize;
        &self.recv_nodes[self.recv_start[r] as usize..self.recv_start[r + 1] as usize]
    }

    /// The cursor every execution of this program starts from.
    fn initial(&self) -> &Cursor {
        self.initial.get_or_init(|| Cursor::build(self))
    }
}

/// State of one [`Program::compile`]: the arena under construction and
/// the counters its single recursive pass keeps — the per-kind dense
/// indices, the events and the channels seen.
#[derive(Default)]
struct Builder {
    nodes: Vec<Node>,
    seqs: u32,
    ors: u32,
    /// The symbol of every event leaf, repeats included.
    events: Vec<Symbol>,
    /// `(channel id, node)` of every `send` and `receive`, in node order;
    /// their ranks are filled in once all of them are known.
    channel_ops: Vec<(u32, u32)>,
}

impl Builder {
    /// Pushes `goal`'s subtree under `parent`, the node itself before its
    /// children, so a node's id is its pre-order rank.
    fn build(&mut self, goal: &Goal, parent: u32) {
        let id = self.nodes.len() as u32;
        let mut dense = NIL;
        let (kind, children): (NodeKind, &[Goal]) = match goal {
            Goal::Atom(a) => {
                self.events.extend(a.as_event());
                (NodeKind::Event(a.clone()), &[])
            }
            Goal::Seq(gs) => {
                dense = self.seqs;
                self.seqs += 1;
                (NodeKind::Seq, gs)
            }
            Goal::Conc(gs) => (NodeKind::Conc, gs),
            Goal::Or(gs) => {
                dense = self.ors;
                self.ors += 1;
                (NodeKind::Or, gs)
            }
            Goal::Isolated(g) => (NodeKind::Iso, std::slice::from_ref(&**g)),
            Goal::Possible(_) | Goal::Empty => (NodeKind::Empty, &[]),
            Goal::Send(c) => {
                self.channel_ops.push((c.0, id));
                (NodeKind::Send { rank: NIL }, &[])
            }
            Goal::Receive(c) => {
                self.channel_ops.push((c.0, id));
                (NodeKind::Recv { rank: NIL }, &[])
            }
            Goal::NoPath => unreachable!("simplified non-¬path goals contain no ¬path"),
        };
        self.nodes.push(Node {
            kind,
            parent,
            end: NIL,
            dense,
        });
        for child in children {
            self.build(child, id);
        }
        self.nodes[id as usize].end = self.nodes.len() as u32;
    }
}

// Bitset and packed-`u32` access into a cursor arena. `base` is a
// section start from the program's `Layout`; `i` indexes within it.

#[inline]
fn bit(words: &[u64], base: usize, i: usize) -> bool {
    words[base + i / 64] >> (i % 64) & 1 != 0
}

/// Sets a bit. No arena bit is ever cleared: `done` and `sent` only
/// grow along a run.
#[inline]
fn set_bit(words: &mut [u64], base: usize, i: usize) {
    words[base + i / 64] |= 1 << (i % 64);
}

#[inline]
fn half(words: &[u64], base: usize, i: usize) -> u32 {
    (words[base + i / 2] >> (i % 2 * 32)) as u32
}

#[inline]
fn set_half(words: &mut [u64], base: usize, i: usize, v: u32) {
    let (word, shift) = (&mut words[base + i / 2], i % 2 * 32);
    *word = *word & !(u64::from(u32::MAX) << shift) | u64::from(v) << shift;
}

/// One schedulable step: an observable event when [`Program::event`]
/// names one, otherwise internal `send`/`receive`/`Empty` bookkeeping
/// that needs a choice commitment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Choice {
    /// The node to fire.
    pub node: NodeId,
}

/// The mutable cursor state, split out of [`Scheduler`] so the frontier
/// machinery can borrow the (generically held) program and the state
/// disjointly.
///
/// Everything whose size the program fixes lives in one allocation, the
/// `arena`, laid out by the program's [`Layout`]: a *marking* in the DCR
/// sense — bits per node, not machine words — plus one `u32` for each
/// node that needs one. What remains are the few lists whose length
/// depends on the run, and nothing is kept that one of them, or the
/// program, already says. Starting an execution is a copy of
/// [`Program::initial`].
#[derive(Clone, Debug, PartialEq)]
struct Cursor {
    /// `done` and `sent` (channels sent on) as bitsets; `seq_pos`
    /// (current child of each `⊗`, its `end` once all are done) and
    /// `or_choice` (committed child of each `∨`, [`NIL`] before).
    arena: Box<[u64]>,
    /// Stack of entered, unfinished `⊙` nodes (innermost last). It is as
    /// deep as the `⊙` nesting, so membership is a scan.
    lock: Vec<u32>,
    /// The event nodes fired so far; [`Program::event`] gives the atoms.
    trace: Vec<u32>,
    /// The eligible set, ignoring `⊙`-scoping, sorted by id (== the
    /// recursive walk's emission order). Invariant: a node is here iff
    /// the walk from the root would emit it. Membership, insertion point
    /// and the `⊙` view are binary searches.
    frontier: Vec<Choice>,
}

impl Cursor {
    /// The initial cursor, from scratch: a blank arena, the root's ready
    /// leaves, leading silent steps drained.
    fn build(p: &Program) -> Cursor {
        let mut cursor = Cursor {
            arena: vec![0u64; p.layout.words].into_boxed_slice(),
            lock: Vec::new(),
            trace: Vec::new(),
            frontier: Vec::new(),
        };
        cursor.arena[p.layout.or_choice..].fill(u64::MAX);
        for (id, n) in p.nodes.iter().enumerate() {
            if let NodeKind::Seq = n.kind {
                cursor.set_seq_pos(p, n, id + 1);
            }
        }
        cursor.add_subtree(p, ROOT);
        cursor.drain_silent(p);
        cursor
    }

    #[inline]
    fn is_done(&self, node: NodeId) -> bool {
        bit(&self.arena, 0, node)
    }

    /// Whether the `⊙` node `node` is entered and unfinished.
    #[inline]
    fn is_locked(&self, node: NodeId) -> bool {
        self.lock.contains(&(node as u32))
    }

    /// Whether the channel ranked `r` has been sent on.
    #[inline]
    fn is_sent(&self, p: &Program, r: u32) -> bool {
        bit(&self.arena, p.layout.sent, r as usize)
    }

    /// The current child of the `⊗` node `n`, or its `end` once every
    /// child is done.
    #[inline]
    fn seq_pos(&self, p: &Program, n: &Node) -> NodeId {
        half(&self.arena, p.layout.seq_pos, n.dense as usize) as NodeId
    }

    /// Moves the `⊗` node `n` on to `child` (its `end`: past the last).
    fn set_seq_pos(&mut self, p: &Program, n: &Node, child: NodeId) {
        set_half(
            &mut self.arena,
            p.layout.seq_pos,
            n.dense as usize,
            child as u32,
        );
    }

    /// The committed child of the `∨` node `n`, or [`NIL`].
    #[inline]
    fn or_choice(&self, p: &Program, n: &Node) -> u32 {
        half(&self.arena, p.layout.or_choice, n.dense as usize)
    }

    /// The index of the first frontier entry whose id is at least `id`.
    #[inline]
    fn at_rank(&self, id: NodeId) -> usize {
        self.frontier.partition_point(|c| c.node < id)
    }

    /// The frontier as the current `⊙`-scoping shows it: the entries
    /// inside the innermost active lock's subtree — the id interval
    /// `[l, end)` — or all of them when no lock is active.
    #[inline]
    fn visible(&self, p: &Program) -> &[Choice] {
        match self.lock.last() {
            Some(&l) => {
                let l = l as NodeId;
                &self.frontier[self.at_rank(l)..self.at_rank(p.end(l))]
            }
            None => &self.frontier,
        }
    }

    /// True if `node` is visible through the current `⊙`-scoping: inside
    /// the innermost active lock's subtree, or unconditionally when no
    /// lock is active.
    #[inline]
    fn scoped_visible(&self, p: &Program, node: NodeId) -> bool {
        match self.lock.last() {
            Some(&l) => p.in_subtree(l as NodeId, node),
            None => true,
        }
    }

    /// Inserts a leaf into the frontier at its position (no-op if
    /// present).
    fn insert_choice(&mut self, node: NodeId) {
        let pos = self.at_rank(node);
        if self.frontier.get(pos).is_none_or(|c| c.node != node) {
            self.frontier.insert(pos, Choice { node });
        }
    }

    /// Removes a node from the frontier (no-op if absent).
    fn remove_choice(&mut self, node: NodeId) {
        let pos = self.at_rank(node);
        if self.frontier.get(pos).is_some_and(|c| c.node == node) {
            self.frontier.remove(pos);
        }
    }

    /// Evicts every frontier entry whose id lies in `[lo, hi)` — the
    /// subtrees abandoned by an `∨`-commit.
    fn evict_range(&mut self, lo: NodeId, hi: NodeId) {
        let (start, stop) = (self.at_rank(lo), self.at_rank(hi));
        self.frontier.drain(start..stop);
    }

    /// Walks a freshly reached subtree, inserting its ready leaves — the
    /// only place the frontier is grown structurally. Cost is bounded by
    /// the reached region, which the delta argument (DESIGN.md §11)
    /// charges to the nodes becoming reachable for the first time.
    fn add_subtree(&mut self, p: &Program, node: NodeId) {
        if self.is_done(node) {
            return;
        }
        let n = &p.nodes[node];
        match &n.kind {
            NodeKind::Event(_) | NodeKind::Send { .. } | NodeKind::Empty => {
                self.insert_choice(node)
            }
            NodeKind::Recv { rank } => {
                // A blocked receive stays out of the frontier; the send
                // that enables it promotes it via `recvs_on`.
                if self.is_sent(p, *rank) {
                    self.insert_choice(node);
                }
            }
            NodeKind::Seq => {
                let cur = self.seq_pos(p, n);
                if cur < n.end as NodeId {
                    self.add_subtree(p, cur);
                }
            }
            NodeKind::Conc => {
                for c in p.children(node) {
                    self.add_subtree(p, c);
                }
            }
            NodeKind::Or => match self.or_choice(p, n) {
                NIL => {
                    for c in p.children(node) {
                        self.add_subtree(p, c);
                    }
                }
                chosen => self.add_subtree(p, chosen as NodeId),
            },
            NodeKind::Iso => self.add_subtree(p, node + 1),
        }
    }

    /// True if the recursive walk from the root currently reaches `node`:
    /// no ancestor is done, every `⊗`-ancestor's position and committed
    /// `∨`-ancestor's choice point toward it. Used only to promote
    /// receives when their channel's send fires.
    fn walk_reachable(&self, p: &Program, node: NodeId) -> bool {
        let mut child = node;
        let mut cur = p.nodes[node].parent;
        while cur != NIL {
            let a = cur as NodeId;
            if self.is_done(a) {
                return false;
            }
            let n = &p.nodes[a];
            match &n.kind {
                NodeKind::Seq if self.seq_pos(p, n) != child => return false,
                NodeKind::Or => {
                    let chosen = self.or_choice(p, n);
                    if chosen != NIL && chosen as NodeId != child {
                        return false;
                    }
                }
                _ => {}
            }
            child = a;
            cur = n.parent;
        }
        true
    }

    /// Commits every unchosen `∨` and un-entered `⊙` on the way to
    /// `node`, evicting the frontier entries of abandoned `∨`-siblings
    /// (the id-interval complement of the committed child inside its
    /// parent). One upward walk, no buffer: nothing a commit writes is
    /// read further up.
    fn commit_path(&mut self, p: &Program, node: NodeId) {
        let entered = self.lock.len();
        let mut child = node;
        let mut cur = p.nodes[node].parent;
        while cur != NIL {
            let a = cur as NodeId;
            let n = &p.nodes[a];
            match &n.kind {
                NodeKind::Or if self.or_choice(p, n) == NIL => {
                    set_half(
                        &mut self.arena,
                        p.layout.or_choice,
                        n.dense as usize,
                        child as u32,
                    );
                    self.evict_range(a, child);
                    self.evict_range(p.end(child), n.end as NodeId);
                }
                NodeKind::Iso if !self.is_locked(a) => self.lock.push(cur),
                _ => {}
            }
            child = a;
            cur = n.parent;
        }
        // The walk met the new isos leaf-to-root; the lock stack holds
        // them root-to-leaf (innermost last).
        self.lock[entered..].reverse();
    }

    /// Records a fired `send` on the channel ranked `c` and promotes any
    /// receive on it that is already walk-reachable into the frontier.
    fn send_effect(&mut self, p: &Program, c: u32) {
        if self.is_sent(p, c) {
            return;
        }
        set_bit(&mut self.arena, p.layout.sent, c as usize);
        for &r in p.recvs_on(c) {
            let r = r as NodeId;
            if !self.is_done(r) && self.walk_reachable(p, r) {
                self.insert_choice(r);
            }
        }
    }

    /// Marks `node` done and propagates completion upward, keeping the
    /// frontier in sync: the completed node leaves it, a `⊗`-parent's
    /// next child enters it, an exiting `⊙` unlocks.
    fn complete(&mut self, p: &Program, node: NodeId) {
        set_bit(&mut self.arena, 0, node);
        self.remove_choice(node);
        let up = p.nodes[node].parent;
        if up == NIL {
            return;
        }
        let parent = up as NodeId;
        let n = &p.nodes[parent];
        match &n.kind {
            NodeKind::Seq => {
                let (mut cur, end) = (self.seq_pos(p, n), n.end as NodeId);
                while cur < end && self.is_done(cur) {
                    cur = p.end(cur);
                }
                self.set_seq_pos(p, n, cur);
                if cur == end {
                    self.complete(p, parent);
                } else {
                    self.add_subtree(p, cur);
                }
            }
            NodeKind::Conc => {
                if p.children(parent).all(|c| self.is_done(c)) {
                    self.complete(p, parent);
                }
            }
            NodeKind::Or => {
                debug_assert_eq!(self.or_choice(p, n), node as u32);
                self.complete(p, parent);
            }
            NodeKind::Iso => {
                if self.lock.last() == Some(&up) {
                    self.lock.pop();
                } else {
                    self.lock.retain(|&l| l != up);
                }
                self.complete(p, parent);
            }
            other => unreachable!("leaf parent must be a connective, got {other:?}"),
        }
    }

    /// True if firing `node` commits no `∨`-choice and enters no `⊙`.
    fn commitment_free(&self, p: &Program, node: NodeId) -> bool {
        let mut cur = p.nodes[node].parent;
        while cur != NIL {
            let a = cur as NodeId;
            let n = &p.nodes[a];
            match &n.kind {
                NodeKind::Or if self.or_choice(p, n) == NIL => return false,
                NodeKind::Iso if !self.is_locked(a) && !self.is_done(a) => return false,
                _ => {}
            }
            cur = n.parent;
        }
        true
    }

    /// Fires one step's effects: path commitment, trace/channel effect,
    /// completion cascade, silent drain.
    fn fire(&mut self, p: &Program, node: NodeId) {
        debug_assert!(
            self.visible(p).iter().any(|c| c.node == node),
            "fired node must be eligible"
        );
        self.commit_path(p, node);
        match &p.nodes[node].kind {
            NodeKind::Event(_) => self.trace.push(node as u32),
            NodeKind::Send { rank, .. } => self.send_effect(p, *rank),
            NodeKind::Recv { .. } | NodeKind::Empty => {}
            other => unreachable!("only leaves fire, got {other:?}"),
        }
        self.complete(p, node);
        self.drain_silent(p);
    }

    /// Fires, to fixpoint, every eligible internal step that commits
    /// nothing: `Empty` nodes, `send`s, and enabled `receive`s whose path
    /// is already fully committed. Candidates are the frontier's silent
    /// entries (scoped to the innermost `⊙`), not a tree walk.
    ///
    /// The frontier is scanned in place while the steps it fires edit
    /// it. Such a step only ever *adds* to what is enabled — it marks
    /// nodes done, sends on channels and leaves `⊙`s, never commits an
    /// `∨` — so the order the steps fire in does not change where the
    /// fixpoint lands, and an entry that shifts past the scan position
    /// is picked up by the next pass.
    fn drain_silent(&mut self, p: &Program) {
        loop {
            let mut fired = false;
            let mut i = 0;
            while let Some(&Choice { node }) = self.frontier.get(i) {
                let enabled = self.scoped_visible(p, node)
                    && match &p.nodes[node].kind {
                        NodeKind::Send { .. } | NodeKind::Empty => true,
                        NodeKind::Recv { rank } => self.is_sent(p, *rank),
                        _ => false,
                    }
                    && self.commitment_free(p, node);
                if !enabled {
                    i += 1;
                    continue;
                }
                if let NodeKind::Send { rank, .. } = &p.nodes[node].kind {
                    self.send_effect(p, *rank);
                }
                // Removes entry `i`; the next candidate slides into it.
                self.complete(p, node);
                fired = true;
            }
            if !fired {
                return;
            }
        }
    }

    /// The first eligible node, in id order, that carries the event
    /// `symbol`.
    fn first_carrying(&self, p: &Program, symbol: Symbol) -> Option<NodeId> {
        let mut eligible = self.visible(p).iter().map(|c| c.node);
        eligible.find(|&n| p.symbol(n) == Some(symbol))
    }

    /// Locates the next step toward an event node carrying `symbol` whose
    /// only blockers are enabled silent leaves on its own path, or earlier
    /// siblings that can finish through such leaves alone: returns the
    /// event node itself when nothing precedes it, otherwise the first
    /// such silent leaf to fire. This is the weak-transition view of
    /// [`Scheduler::fire_event`]: accepting an observable event may
    /// perform the internal (τ) steps that precede it — e.g. a timer
    /// gate's `seq(receive ξ, e)` inside an uncommitted `∨`, or the `ε`
    /// of an optional `x ∨ ε` before it — because choosing `e` is the
    /// decision those steps commit.
    fn step_toward(&self, p: &Program, node: NodeId, symbol: Symbol) -> Option<NodeId> {
        if self.is_done(node) {
            return None;
        }
        let n = &p.nodes[node];
        match &n.kind {
            NodeKind::Event(a) => (a.as_event() == Some(symbol)).then_some(node),
            NodeKind::Send { .. } | NodeKind::Recv { .. } | NodeKind::Empty => None,
            NodeKind::Seq => {
                let (mut cur, end) = (self.seq_pos(p, n), n.end as NodeId);
                let mut via = None;
                while cur < end {
                    if self.is_done(cur) {
                        cur = p.end(cur);
                        continue;
                    }
                    if let Some(step) = self.step_toward(p, cur, symbol) {
                        return Some(via.unwrap_or(step));
                    }
                    // The event may hide behind this child — but only if
                    // the child can finish *now* through enabled silent
                    // leaves.
                    let leaf = self.silent_finish(p, cur)?;
                    via.get_or_insert(leaf);
                    cur = p.end(cur);
                }
                None
            }
            NodeKind::Conc => p
                .children(node)
                .find_map(|c| self.step_toward(p, c, symbol)),
            NodeKind::Or => match self.or_choice(p, n) {
                NIL => p
                    .children(node)
                    .find_map(|c| self.step_toward(p, c, symbol)),
                chosen => self.step_toward(p, chosen as NodeId, symbol),
            },
            NodeKind::Iso => self.step_toward(p, node + 1, symbol),
        }
    }

    /// The first leaf to fire when the unfinished `node` can finish now
    /// through enabled silent leaves alone: an enabled silent leaf itself,
    /// an `∨` with such a branch (`ε` is the common one), a `|` whose
    /// unfinished children all can, a `⊗` at its last child that can.
    /// Never an event, a blocked `receive` or a `⊙`.
    fn silent_finish(&self, p: &Program, node: NodeId) -> Option<NodeId> {
        let n = &p.nodes[node];
        match &n.kind {
            NodeKind::Send { .. } | NodeKind::Empty => Some(node),
            NodeKind::Recv { rank } => self.is_sent(p, *rank).then_some(node),
            NodeKind::Event(_) | NodeKind::Iso => None,
            NodeKind::Seq => {
                let (cur, end) = (self.seq_pos(p, n), n.end as NodeId);
                (cur < end && p.end(cur) == end)
                    .then(|| self.silent_finish(p, cur))
                    .flatten()
            }
            NodeKind::Conc => {
                let mut open = p.children(node).filter(|&c| !self.is_done(c));
                let first = self.silent_finish(p, open.next()?)?;
                open.all(|c| self.silent_finish(p, c).is_some())
                    .then_some(first)
            }
            NodeKind::Or => match self.or_choice(p, n) {
                NIL => p.children(node).find_map(|c| self.silent_finish(p, c)),
                chosen => self.silent_finish(p, chosen as NodeId),
            },
        }
    }

    /// The from-scratch recursive eligibility walk — the original
    /// implementation, retained as the oracle the incremental frontier is
    /// proptested against.
    fn collect_eligible_recursive(&self, p: &Program, node: NodeId, out: &mut Vec<Choice>) {
        if self.is_done(node) {
            return;
        }
        let n = &p.nodes[node];
        match &n.kind {
            // A ready Empty is only still pending when choosing it would
            // commit something (e.g. an ∨-branch that is just the empty
            // goal); taking that branch is a silent scheduling decision.
            NodeKind::Event(_) | NodeKind::Send { .. } | NodeKind::Empty => {
                out.push(Choice { node })
            }
            NodeKind::Recv { rank } => {
                if self.is_sent(p, *rank) {
                    out.push(Choice { node });
                }
            }
            NodeKind::Seq => {
                let cur = self.seq_pos(p, n);
                if cur < n.end as NodeId {
                    self.collect_eligible_recursive(p, cur, out);
                }
            }
            NodeKind::Conc => {
                for c in p.children(node) {
                    self.collect_eligible_recursive(p, c, out);
                }
            }
            NodeKind::Or => match self.or_choice(p, n) {
                NIL => {
                    for c in p.children(node) {
                        self.collect_eligible_recursive(p, c, out);
                    }
                }
                chosen => self.collect_eligible_recursive(p, chosen as NodeId, out),
            },
            NodeKind::Iso => self.collect_eligible_recursive(p, node + 1, out),
        }
    }

    /// Heap bytes this cursor owns, plus its own size.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        std::mem::size_of::<Cursor>()
            + std::mem::size_of_val(&*self.arena)
            + (self.lock.capacity() + self.trace.capacity()) * std::mem::size_of::<u32>()
            + self.frontier.capacity() * std::mem::size_of::<Choice>()
    }
}
/// A cursor executing a [`Program`].
///
/// Generic over how the program is held: `Scheduler<&Program>` borrows
/// (the common transient case — `Scheduler::new(&program)` infers it),
/// while `Scheduler<Arc<Program>>` co-owns the program, letting
/// long-lived cursors (e.g. `ctr-runtime` instances) share one compiled
/// arena across a whole deployment without lifetime plumbing.
#[derive(Clone, Debug)]
pub struct Scheduler<P: std::ops::Deref<Target = Program>> {
    program: P,
    cursor: Cursor,
}

impl<P: std::ops::Deref<Target = Program>> Scheduler<P> {
    /// A fresh cursor at the program's initial state: leading `Empty`
    /// nodes and commitment-free channel operations are already
    /// drained. The first call on a program computes that state; every
    /// call copies it.
    pub fn new(program: P) -> Scheduler<P> {
        let cursor = program.initial().clone();
        Scheduler { program, cursor }
    }

    /// The program this cursor executes.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The events fired so far, in order.
    pub fn trace(&self) -> impl ExactSizeIterator<Item = &Atom> + '_ {
        let p: &Program = &self.program;
        self.cursor.trace.iter().map(move |&n| {
            p.event(n as NodeId)
                .expect("only event nodes enter the trace")
        })
    }

    /// The trace as propositional event names.
    pub fn trace_names(&self) -> Vec<Symbol> {
        self.history_from(0).collect()
    }

    /// How many events have fired — the length of [`Scheduler::trace`].
    pub fn history_len(&self) -> usize {
        self.cursor.trace.len()
    }

    /// The names of the events fired from the `from`-th on, read off the
    /// trace without allocating; empty past the end. Atoms that carry
    /// arguments have no name and are left out — `fire_event` and
    /// `fire_named` never fire one.
    pub fn history_from(&self, from: usize) -> impl Iterator<Item = Symbol> + '_ {
        let fired = self.cursor.trace.get(from..).unwrap_or_default();
        fired
            .iter()
            .filter_map(|&n| self.program.event(n as NodeId)?.as_event())
    }

    /// This cursor as it stood after its first `n` fires: a fresh cursor
    /// over the same holder with the first `n` entries of the history
    /// fired again by event. [`Scheduler::fire_event`] dispatches
    /// deterministically, so a cursor driven only by event comes back
    /// with the state, eligible set and history it had then. `None` if
    /// `n` exceeds the history or the replay leaves the recorded nodes —
    /// [`Scheduler::fire`] can commit silently, which no history records.
    pub fn rewound(&self, n: usize) -> Option<Scheduler<P>>
    where
        P: Clone,
    {
        let mut fresh = Scheduler::new(self.program.clone());
        for &node in self.cursor.trace.get(..n)? {
            let symbol = self.program.symbol(node as NodeId)?;
            if !fresh.fire_symbol(symbol) || fresh.cursor.trace.last() != Some(&node) {
                return None;
            }
        }
        Some(fresh)
    }

    /// True when the whole workflow has completed: the root's done bit.
    pub fn is_complete(&self) -> bool {
        self.cursor.is_done(ROOT)
    }

    /// True when incomplete with nothing eligible — a knot at run time
    /// (cannot happen on `Excise`d programs with `guaranteed_knot_free`).
    /// A bit read and [`Scheduler::eligible`]'s length.
    pub fn is_deadlocked(&self) -> bool {
        !self.is_complete() && self.eligible().is_empty()
    }

    /// All steps eligible to start now: the pro-active scheduler's
    /// knowledge at this stage of the execution. Returns a slice of the
    /// frontier — all of it, or under a `⊙` the part inside its subtree,
    /// found by two binary searches; no walk, no allocation — in the DFS
    /// pre-order the recursive walk would emit.
    pub fn eligible(&self) -> &[Choice] {
        self.cursor.visible(&self.program)
    }

    /// The innermost active `⊙`, or the root: where eligibility starts.
    fn scope_root(&self) -> NodeId {
        self.cursor.lock.last().map_or(ROOT, |&l| l as NodeId)
    }

    /// The eligible set recomputed from scratch by the original recursive
    /// walk. This is the reference implementation the incremental
    /// frontier is verified against (proptests in this crate and at the
    /// workspace root); production callers use [`Scheduler::eligible`].
    #[doc(hidden)]
    pub fn eligible_reference(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        self.cursor
            .collect_eligible_recursive(&self.program, self.scope_root(), &mut out);
        out
    }

    /// Fires the step at `node` (which must currently be eligible):
    /// commits the choices on its path, records the event, and drains
    /// enabled bookkeeping. Delta-updates the frontier; work is bounded
    /// by the fired path and the region that changed, never the whole
    /// program.
    pub fn fire(&mut self, node: NodeId) {
        self.cursor.fire(&self.program, node);
    }

    /// Fires the atom named `event` if an eligible node carries it;
    /// returns false when absent. When several nodes offer the event the
    /// first in frontier order is picked deterministically — the same
    /// node the recursive walk's first match would yield — and every `∨`
    /// on its path commits to it. That is a known limitation, not a free
    /// choice: `Apply` of a disjunctive constraint copies events into
    /// several `∨` alternatives, and committing to the first can shut
    /// out an execution only another alternative allows (ROADMAP item 7;
    /// the reproducer is the ignored
    /// `by_name_firing_admits_every_allowed_execution` in
    /// `tests/runtime_integration.rs`). One probe of the program's name
    /// index and a scan of [`Scheduler::eligible`]; no allocation.
    ///
    /// It accepts events beyond [`Scheduler::eligible`]. When no frontier
    /// node carries the event, a weak-transition fallback looks for it
    /// behind enabled silent leaves on its own path (a sent-enabled
    /// `receive`, a `send`, an `Empty`) — the shape timer gates and
    /// eventual triggers compile to inside an uncommitted `∨` — and past
    /// earlier `⊗`-siblings that can finish through such leaves alone:
    /// an `∨` with such a branch (the `ε` of an optional `x ∨ ε`), a `|`
    /// whose unfinished children all can, a `⊗` at its last child that
    /// can, never an event, a blocked `receive` or a `⊙`. Those τ-steps
    /// fire first, in tree order, then the event itself; choosing the
    /// event *is* the decision they commit, so no unrelated choice is ever
    /// taken on its behalf.
    pub fn fire_event(&mut self, event: Symbol) -> bool {
        self.program.names.contains(event) && self.fire_symbol(event)
    }

    /// [`Scheduler::fire_event`] for an event that arrives as text:
    /// fires it and returns its symbol, or `None` (nothing fired) when
    /// no eligible node carries it. The name is looked up in the
    /// program's own event index — never in the global interner, so a
    /// name the program does not have costs one hash, takes no lock and
    /// interns nothing, whoever else may have interned it.
    pub fn fire_named(&mut self, event: &str) -> Option<Symbol> {
        let named = self.program.names.get(event)?;
        self.fire_symbol(named.symbol).then_some(named.symbol)
    }

    /// Fires the event `symbol`, if eligible.
    fn fire_symbol(&mut self, symbol: Symbol) -> bool {
        loop {
            if let Some(n) = self.cursor.first_carrying(&self.program, symbol) {
                self.fire(n);
                return true;
            }
            let step = self
                .cursor
                .step_toward(&self.program, self.scope_root(), symbol);
            match step {
                // Fire the leading τ-step and retry: each iteration
                // completes a node, so the loop is bounded by |program|.
                Some(n) => {
                    let carries_event = self.program.symbol(n) == Some(symbol);
                    self.fire(n);
                    if carries_event {
                        return true;
                    }
                }
                None => return false,
            }
        }
    }

    /// True if firing `node` commits no `∨`-choice and enters no `⊙` —
    /// i.e. it cannot cancel any other currently-eligible step. Dispatch
    /// layers use this to decide which eligible activities may start
    /// concurrently and which require a branching decision first.
    pub fn is_commitment_free(&self, node: NodeId) -> bool {
        self.cursor.commitment_free(&self.program, node)
    }

    /// Drives the schedule to completion by always firing the first
    /// eligible step — the deterministic linear-time scheduling of §4.
    /// Returns the trace, or `None` on deadlock.
    pub fn run_first(mut self) -> Option<Vec<Atom>> {
        while !self.is_complete() {
            let choice = *self.eligible().first()?;
            self.fire(choice.node);
        }
        Some(self.trace().cloned().collect())
    }

    /// What this cursor may still do — the state identity of the marking
    /// graph: two cursors of one program with equal keys admit the same
    /// continuations. It forgets how the run came here — a finished
    /// subtree is its done flag, a `⊗` its current child, a committed `∨`
    /// its chosen branch, and what those leave behind is not read — so a
    /// program's cursors have as many keys as it has futures, not as it
    /// has histories. Then the channels sent on and the `⊙` stack; a
    /// finished run, whose future is empty, is its done flag alone. It
    /// names nodes by id, so it compares cursors of one program only; the
    /// model checker and the trace-equivalence walk of `ctr-baselines`
    /// key their states by it.
    pub fn residual_key(&self) -> Vec<u8> {
        let (p, c): (&Program, &Cursor) = (&self.program, &self.cursor);
        if c.is_done(ROOT) {
            return vec![1];
        }
        let mut key = Vec::new();
        let mut todo = vec![ROOT];
        while let Some(node) = todo.pop() {
            let n = &p.nodes[node];
            let done = c.is_done(node);
            key.push(done as u8);
            if done {
                continue;
            }
            // The parts below that still matter, pushed last to first.
            match n.kind {
                NodeKind::Seq => {
                    let at = c.seq_pos(p, n);
                    key.extend_from_slice(&(at as u32).to_le_bytes());
                    todo.push(at);
                }
                NodeKind::Or => {
                    let chosen = c.or_choice(p, n);
                    key.extend_from_slice(&chosen.to_le_bytes());
                    if chosen != NIL {
                        todo.push(chosen as NodeId);
                    }
                }
                NodeKind::Conc | NodeKind::Iso => {
                    let first = todo.len();
                    todo.extend(p.children(node));
                    todo[first..].reverse();
                }
                _ => {}
            }
        }
        let channels = p.recv_start.len() - 1;
        key.extend((0..channels as u32).map(|r| c.is_sent(p, r) as u8));
        for &l in &c.lock {
            key.extend_from_slice(&l.to_le_bytes());
        }
        key
    }

    /// Drives the schedule to completion with a deterministic pseudo-random
    /// policy (a splitmix-style generator over `seed`): at each stage one
    /// of the eligible steps is picked uniformly. Returns the trace, or
    /// `None` on deadlock. Useful for randomized testing and for sampling
    /// the execution space without full enumeration.
    pub fn run_random(mut self, seed: u64) -> Option<Vec<Atom>> {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        while !self.is_complete() {
            let eligible = self.eligible();
            if eligible.is_empty() {
                return None;
            }
            let pick = eligible[(next() % eligible.len() as u64) as usize];
            self.fire(pick.node);
        }
        Some(self.trace().cloned().collect())
    }

    /// Enumerates every complete trace (as event-name sequences), up to
    /// `limit` distinct traces. Clone-based DFS over the choice tree —
    /// the enumeration utility of §4 ("enumerate all allowed executions").
    pub fn enumerate_traces(&self, limit: usize) -> BTreeSet<Vec<Symbol>>
    where
        P: Clone,
    {
        let mut out = BTreeSet::new();
        let mut stack = vec![self.clone()];
        while let Some(s) = stack.pop() {
            if out.len() >= limit {
                break;
            }
            if s.is_complete() {
                out.insert(s.trace_names());
                continue;
            }
            for choice in s.eligible() {
                let mut next = s.clone();
                next.fire(choice.node);
                stack.push(next);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctr::goal::{conc, isolated, or, seq, Channel};
    use ctr::symbol::sym;

    fn g(name: &str) -> Goal {
        Goal::atom(name)
    }

    impl Program {
        fn names(&self) -> &NameIndex {
            &self.names
        }
    }

    fn compile(goal: &Goal) -> Program {
        Program::compile(goal).expect("consistent goal")
    }

    #[test]
    fn nopath_is_rejected() {
        assert!(matches!(
            Program::compile(&Goal::NoPath),
            Err(ScheduleError::Inconsistent)
        ));
    }

    #[test]
    fn seq_schedules_in_order() {
        let p = compile(&seq(vec![g("a"), g("b"), g("c")]));
        let trace = Scheduler::new(&p).run_first().unwrap();
        assert_eq!(
            trace.iter().filter_map(Atom::as_event).collect::<Vec<_>>(),
            vec![sym("a"), sym("b"), sym("c")]
        );
    }

    #[test]
    fn eligible_lists_all_concurrent_starts() {
        let p = compile(&conc(vec![g("a"), g("b"), g("c")]));
        let s = Scheduler::new(&p);
        assert_eq!(s.eligible().len(), 3);
        assert!(s.eligible().iter().all(|c| p.event(c.node).is_some()));
    }

    #[test]
    fn firing_commits_or_choice() {
        let p = compile(&or(vec![
            seq(vec![g("a"), g("b")]),
            seq(vec![g("x"), g("y")]),
        ]));
        let mut s = Scheduler::new(&p);
        assert_eq!(s.eligible().len(), 2, "both branch heads eligible");
        assert!(s.fire_event(sym("a")));
        // After committing, only b remains.
        let names: Vec<_> = s
            .eligible()
            .iter()
            .filter_map(|c| p.event(c.node).and_then(Atom::as_event))
            .collect();
        assert_eq!(names, vec![sym("b")]);
    }

    #[test]
    fn fire_event_returns_false_for_ineligible() {
        let p = compile(&seq(vec![g("a"), g("b")]));
        let mut s = Scheduler::new(&p);
        assert!(!s.fire_event(sym("b")), "b is not eligible before a");
        assert!(s.fire_event(sym("a")));
        assert!(s.fire_event(sym("b")));
        assert!(s.is_complete());
    }

    #[test]
    fn channels_gate_eligibility() {
        let xi = Channel(0);
        // Compiled form (4): (a ⊗ send ξ) | (receive ξ ⊗ b).
        let goal = conc(vec![
            seq(vec![g("a"), Goal::Send(xi)]),
            seq(vec![Goal::Receive(xi), g("b")]),
        ]);
        let p = compile(&goal);
        let mut s = Scheduler::new(&p);
        let names: Vec<_> = s
            .eligible()
            .iter()
            .filter_map(|c| p.event(c.node).and_then(Atom::as_event))
            .collect();
        assert_eq!(names, vec![sym("a")], "b is gated by the channel");
        s.fire_event(sym("a"));
        assert!(s.fire_event(sym("b")), "send/receive drained silently");
        assert!(s.is_complete());
    }

    #[test]
    fn fire_event_pulls_through_an_enabled_gate_inside_an_or() {
        let xi = Channel(0);
        // A timer-gated optional step: the gate `receive ξ ⊗ b` sits in
        // an uncommitted ∨, so the receive cannot drain silently even
        // once ξ is sent — choosing it would commit the branch. Firing
        // `b` explicitly IS that choice, so the weak fallback takes the
        // τ-step and then the event.
        let goal = conc(vec![
            seq(vec![g("a"), Goal::Send(xi)]),
            or(vec![Goal::Empty, seq(vec![Goal::Receive(xi), g("b")])]),
        ]);
        let p = compile(&goal);
        let mut s = Scheduler::new(&p);
        assert!(!s.fire_event(sym("b")), "gate not enabled before the send");
        s.fire_event(sym("a"));
        assert!(s.fire_event(sym("b")), "enabled gate is pulled through");
        assert!(s.is_complete());
        assert_eq!(s.trace_names(), vec![sym("a"), sym("b")]);
    }

    #[test]
    fn fire_event_pulls_through_chained_gates() {
        let (xi, nu) = (Channel(0), Channel(1));
        let goal = conc(vec![
            seq(vec![Goal::Send(xi), Goal::Send(nu)]),
            or(vec![
                g("skip"),
                seq(vec![Goal::Receive(xi), Goal::Receive(nu), g("b")]),
            ]),
        ]);
        let p = compile(&goal);
        let mut s = Scheduler::new(&p);
        assert!(s.fire_event(sym("b")), "both τ-steps precede the event");
        assert!(s.is_complete());
        assert_eq!(s.trace_names(), vec![sym("b")]);
    }

    #[test]
    fn fire_event_passes_over_an_optional_branch() {
        // `(x ∨ ε) ⊗ c`: `c` is not eligible until the `∨` commits, but
        // choosing `c` is choosing `ε`.
        let p = compile(&seq(vec![or(vec![g("x"), Goal::Empty]), g("c")]));
        let mut s = Scheduler::new(&p);
        assert!(s.fire_event(sym("c")), "the ε-branch is passed over");
        assert!(s.is_complete());
        assert_eq!(s.trace_names(), vec![sym("c")]);
        // A `|` passes when all its unfinished children can finish
        // silently, a `⊗` when its last child can; an event never does.
        let goal = seq(vec![
            conc(vec![
                seq(vec![g("a"), or(vec![g("z"), Goal::Empty])]),
                or(vec![Goal::Empty, g("y")]),
            ]),
            g("c"),
        ]);
        let p = compile(&goal);
        let mut s = Scheduler::new(&p);
        assert!(!s.fire_event(sym("c")), "`a` stands before `c`");
        assert!(s.fire_event(sym("a")));
        assert!(s.fire_event(sym("c")));
        assert!(s.is_complete());
        assert_eq!(s.trace_names(), vec![sym("a"), sym("c")]);
    }

    #[test]
    fn knotted_program_deadlocks() {
        let xi = Channel(0);
        let goal = seq(vec![Goal::Receive(xi), g("a"), Goal::Send(xi)]);
        let p = compile(&goal);
        let s = Scheduler::new(&p);
        assert!(s.is_deadlocked());
        assert_eq!(s.clone().run_first(), None);
    }

    #[test]
    fn isolation_locks_the_scheduler() {
        let goal = conc(vec![isolated(seq(vec![g("a"), g("b")])), g("c")]);
        let p = compile(&goal);
        let mut s = Scheduler::new(&p);
        s.fire_event(sym("a"));
        let names: Vec<_> = s
            .eligible()
            .iter()
            .filter_map(|c| p.event(c.node).and_then(Atom::as_event))
            .collect();
        assert_eq!(names, vec![sym("b")], "c is locked out while ⊙ is active");
        s.fire_event(sym("b"));
        assert!(s.fire_event(sym("c")));
        assert!(s.is_complete());
    }

    #[test]
    fn enumeration_agrees_with_trace_semantics() {
        let mut checked = 0;
        for seed in 0..15 {
            let (goal, _) = ctr::gen::random_goal(
                seed,
                ctr::gen::GoalShape {
                    depth: 3,
                    width: 3,
                    or_bias: 0.3,
                },
                "s",
            );
            // Skip seeds whose interleaving space exceeds the oracle budget.
            let Ok(semantic) = ctr::semantics::event_traces(&goal, 100_000) else {
                continue;
            };
            let p = compile(&goal);
            let scheduled = Scheduler::new(&p).enumerate_traces(1_000_000);
            assert_eq!(scheduled, semantic, "seed {seed} goal {goal}");
            checked += 1;
        }
        assert!(checked >= 8, "enough seeds fit the budget ({checked})");
    }

    #[test]
    fn enumeration_of_compiled_workflow_respects_constraints() {
        use ctr::analysis::compile as ctr_compile;
        use ctr::constraints::Constraint;
        let goal = conc(vec![g("a"), g("b"), g("c")]);
        let compiled = ctr_compile(&goal, &[Constraint::order("a", "b")]).unwrap();
        let p = compile(&compiled.goal);
        let traces = Scheduler::new(&p).enumerate_traces(1000);
        assert!(!traces.is_empty());
        for t in &traces {
            let pa = t.iter().position(|&x| x == sym("a")).unwrap();
            let pb = t.iter().position(|&x| x == sym("b")).unwrap();
            assert!(pa < pb, "trace {t:?}");
        }
        // c is unconstrained: 3 positions for c relative to a<b.
        assert_eq!(traces.len(), 3);
    }

    #[test]
    fn empty_program_is_immediately_complete() {
        let p = compile(&Goal::Empty);
        assert!(p.is_empty());
        let s = Scheduler::new(&p);
        assert!(s.is_complete());
        assert_eq!(s.trace().len(), 0);
    }

    #[test]
    fn or_with_silent_branch_can_finish_silently() {
        // a ⊗ (send ξ ∨ b): after a, the scheduler may finish by taking
        // the silent branch or by firing b.
        let xi = Channel(3);
        let goal = seq(vec![g("a"), or(vec![Goal::Send(xi), g("b")])]);
        let p = compile(&goal);
        let mut s = Scheduler::new(&p);
        s.fire_event(sym("a"));
        let eligible = s.eligible();
        assert_eq!(eligible.len(), 2);
        assert_eq!(
            eligible
                .iter()
                .filter(|c| p.event(c.node).is_some())
                .count(),
            1
        );
        // Take the silent branch.
        let silent = *eligible.iter().find(|c| p.event(c.node).is_none()).unwrap();
        s.fire(silent.node);
        assert!(s.is_complete());
        assert_eq!(s.trace_names(), vec![sym("a")]);
    }

    #[test]
    fn empty_or_branches_are_choosable() {
        // a ⊗ (ε ∨ b): after a, the schedule may finish silently (taking
        // the empty branch) or fire b — both must be offered.
        let goal = seq(vec![g("a"), or(vec![Goal::Empty, g("b")])]);
        let p = compile(&goal);
        let traces = Scheduler::new(&p).enumerate_traces(100);
        assert_eq!(
            traces,
            [vec![sym("a")], vec![sym("a"), sym("b")]]
                .into_iter()
                .collect()
        );
        // And the semantics oracle agrees.
        assert_eq!(traces, ctr::semantics::event_traces(&goal, 10_000).unwrap());
    }

    #[test]
    fn run_random_respects_constraints_and_varies() {
        use ctr::analysis::compile as ctr_compile;
        use ctr::constraints::Constraint;
        let goal = conc((0..6).map(|i| g(&format!("r{i}"))).collect());
        let compiled = ctr_compile(&goal, &[Constraint::order("r0", "r5")]).unwrap();
        let p = compile(&compiled.goal);
        let mut distinct = std::collections::BTreeSet::new();
        for seed in 0..32u64 {
            let trace = Scheduler::new(&p).run_random(seed).expect("knot-free");
            let names: Vec<_> = trace.iter().filter_map(Atom::as_event).collect();
            let p0 = names.iter().position(|&x| x == sym("r0")).unwrap();
            let p5 = names.iter().position(|&x| x == sym("r5")).unwrap();
            assert!(p0 < p5, "constraint respected in {names:?}");
            distinct.insert(names);
        }
        assert!(distinct.len() > 4, "random policy explores many schedules");
    }

    #[test]
    fn run_first_is_linear_walk() {
        // A long pipeline completes with exactly one eligible step each
        // time.
        let goal = ctr::gen::pipeline_workflow(64);
        let p = compile(&goal);
        let trace = Scheduler::new(&p).run_first().unwrap();
        assert_eq!(trace.len(), 64);
    }

    #[test]
    fn residual_key_forgets_the_history_and_keeps_the_future() {
        // After `a` or after `b` only `c` is left: one future, two
        // histories — the cursors tell the two apart, their keys do not.
        let p = compile(&seq(vec![or(vec![g("a"), g("b")]), g("c")]));
        let after = |event: &str| {
            let mut s = Scheduler::new(&p);
            assert!(s.fire_event(sym(event)));
            s
        };
        let (left, right) = (after("a"), after("b"));
        assert_ne!(left.cursor, right.cursor);
        assert_eq!(left.residual_key(), right.residual_key());
        // Two futures: `c` or `d` is left.
        let p = compile(&or(vec![
            seq(vec![g("a"), g("c")]),
            seq(vec![g("b"), g("d")]),
        ]));
        let mut left = Scheduler::new(&p);
        let mut right = Scheduler::new(&p);
        assert_eq!(left.residual_key(), right.residual_key());
        assert!(left.fire_event(sym("a")) && right.fire_event(sym("b")));
        assert_ne!(left.residual_key(), right.residual_key());
        // Interleavings of a `|` that end alike meet, sends included.
        let xi = Channel(3);
        let p = compile(&conc(vec![
            g("a"),
            seq(vec![g("b"), Goal::Send(xi)]),
            seq(vec![Goal::Receive(xi), g("c")]),
        ]));
        let mut ab = Scheduler::new(&p);
        let mut ba = Scheduler::new(&p);
        assert!(ab.fire_event(sym("a")) && ab.fire_event(sym("b")));
        assert!(ba.fire_event(sym("b")) && ba.fire_event(sym("a")));
        assert_eq!(ab.residual_key(), ba.residual_key());
        assert_ne!(ab.residual_key(), Scheduler::new(&p).residual_key());
    }

    #[test]
    fn a_finished_cursor_has_one_key() {
        // Each branch sends on its own channel. Once the run is over, what
        // it sent says nothing about a future that is empty.
        let p = compile(&or(vec![
            seq(vec![g("a"), Goal::Send(Channel(1))]),
            seq(vec![g("b"), Goal::Send(Channel(2))]),
        ]));
        let after = |event: &str| {
            let mut s = Scheduler::new(&p);
            assert!(s.fire_event(sym(event)) && s.is_complete());
            s
        };
        let (left, right) = (after("a"), after("b"));
        assert_ne!(left.cursor, right.cursor);
        assert_eq!(left.residual_key(), right.residual_key());
    }

    #[test]
    fn equal_residual_keys_have_equal_futures_on_corpus() {
        let mut differing = 0;
        for seed in 0..40u64 {
            for salt in 0..2u64 {
                let script = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                differing += residual_keys_are_sound(seed, script).unwrap_or(0);
            }
        }
        assert!(differing > 20, "{differing} pairs of unequal cursors met");
    }

    #[test]
    fn tables_are_sized_by_the_channels_mentioned_not_by_their_ids() {
        // Ids as text or a snapshot may set them; 70 sparse ones for a
        // `sent` section of two words.
        for ids in [
            vec![u32::MAX],
            vec![300_000_000],
            (0..70).map(|i| u32::MAX - 1_000 * i).collect::<Vec<u32>>(),
        ] {
            let gated = ids
                .iter()
                .flat_map(|&id| [Goal::Send(Channel(id)), Goal::Receive(Channel(id))]);
            let goal = seq([g("a")].into_iter().chain(gated).chain([g("b")]).collect());
            let p = compile(&goal);
            assert_eq!(p.recv_start.len(), ids.len() + 1);
            assert_eq!(p.layout.seq_pos - p.layout.sent, ids.len().div_ceil(64));
            let s = Scheduler::new(&p);
            assert!(s.cursor.bytes() < 1024, "{} bytes", s.cursor.bytes());
            assert_eq!(
                s.enumerate_traces(10),
                ctr::semantics::event_traces(&goal, 10_000).unwrap()
            );
            // Each channel's `sent` bit is found through its rank.
            let sent = |s: &Scheduler<&Program>| -> Vec<bool> {
                (0..ids.len() as u32)
                    .map(|r| s.cursor.is_sent(&p, r))
                    .collect()
            };
            let mut s = Scheduler::new(&p);
            assert_eq!(sent(&s), vec![false; ids.len()]);
            assert!(s.fire_event(sym("a")));
            assert_eq!(sent(&s), vec![true; ids.len()]);
            assert!(s.fire_event(sym("b")) && s.is_complete());
        }
    }

    #[test]
    fn bits_are_set_across_words() {
        let mut words = [0u64; 5];
        for id in [200usize, 3, 64, 0, 127, 65] {
            assert!(!bit(&words, 1, id));
            set_bit(&mut words, 1, id);
            assert!(bit(&words, 1, id));
        }
        assert!(!bit(&words, 1, 63));
        assert_eq!(words[0], 0, "the section before `base` is untouched");
        assert_eq!(words[1..], [0b1001, 0b11 | 1 << 63, 0, 1 << 8]);
    }

    #[test]
    fn packed_halves_do_not_disturb_their_neighbours() {
        let mut words = [u64::MAX; 3];
        set_half(&mut words, 1, 0, 7);
        set_half(&mut words, 1, 3, 9);
        assert_eq!(
            [0, 1, 2, 3].map(|i| half(&words, 1, i)),
            [7, NIL, NIL, 9],
            "low half of word 1, high half of word 2"
        );
        set_half(&mut words, 1, 0, NIL);
        set_half(&mut words, 1, 3, 0);
        assert_eq!(words, [u64::MAX, u64::MAX, u64::from(u32::MAX)]);
    }

    /// Drives random schedules over the `gen` corpus, asserting after
    /// every fire that the incremental frontier equals the retained
    /// recursive walk — set, order, and observability flags.
    #[test]
    fn frontier_matches_recursive_walk_on_corpus() {
        let mut fires_checked = 0usize;
        for seed in 0..60u64 {
            let (goal, _) = ctr::gen::random_goal(
                seed,
                ctr::gen::GoalShape {
                    depth: 4,
                    width: 3,
                    or_bias: 0.35,
                },
                "f",
            );
            let p = compile(&goal);
            for salt in 0..4u64 {
                let mut s = Scheduler::new(&p);
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                loop {
                    assert_eq!(
                        s.eligible(),
                        s.eligible_reference().as_slice(),
                        "seed {seed} salt {salt} goal {goal}"
                    );
                    assert_eq!(
                        s.is_deadlocked(),
                        !s.is_complete() && s.eligible_reference().is_empty()
                    );
                    if s.is_complete() || s.eligible().is_empty() {
                        break;
                    }
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let pick = s.eligible()[(rng >> 33) as usize % s.eligible().len()];
                    s.fire(pick.node);
                    fires_checked += 1;
                }
            }
        }
        assert!(fires_checked > 500, "corpus exercised ({fires_checked})");
    }

    /// Over the same corpus: firing by name is `Symbol::try_get` then
    /// `fire_event`, step for step — the return value, the state and
    /// the trace — for eligible events, refused ones, names interned by
    /// someone else and names nobody interned; and it interns nothing.
    #[test]
    fn fire_named_matches_try_get_then_fire_event_on_corpus() {
        let foreign = sym("fire_named_foreign_to_every_program");
        let (mut fired, mut refused, mut unknown) = (0usize, 0usize, 0usize);
        for seed in 0..60u64 {
            let (goal, _) = ctr::gen::random_goal(
                seed,
                ctr::gen::GoalShape {
                    depth: 4,
                    width: 3,
                    or_bias: 0.35,
                },
                "f",
            );
            let p = compile(&goal);
            let alphabet: Vec<Symbol> = goal.events().into_iter().collect();
            for salt in 0..4u64 {
                let mut by_name = Scheduler::new(&p);
                let mut by_symbol = Scheduler::new(&p);
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                for step in 0..400 {
                    if by_symbol.is_complete() || by_symbol.eligible().is_empty() {
                        break;
                    }
                    let eligible: Vec<Symbol> = by_symbol
                        .eligible()
                        .iter()
                        .filter_map(|c| p.event(c.node).and_then(Atom::as_event))
                        .collect();
                    let never = format!("fire_named_never_interned_{seed}_{salt}_{step}");
                    let name = match lcg(&mut rng) % 8 {
                        0 => foreign.as_str(),
                        1 => never.as_str(),
                        2 | 3 => alphabet[lcg(&mut rng) as usize % alphabet.len()].as_str(),
                        _ if eligible.is_empty() => {
                            // Only silent steps are left: take one on both.
                            let node = by_symbol.eligible()[0].node;
                            by_symbol.fire(node);
                            by_name.fire(node);
                            continue;
                        }
                        _ => eligible[lcg(&mut rng) as usize % eligible.len()].as_str(),
                    };
                    let expected = Symbol::try_get(name).filter(|&s| by_symbol.fire_event(s));
                    assert_eq!(
                        by_name.fire_named(name),
                        expected,
                        "seed {seed} salt {salt} step {step}: `{name}` on {goal}"
                    );
                    assert_eq!(by_name.cursor, by_symbol.cursor);
                    if name == never {
                        assert_eq!(Symbol::try_get(name), None, "`{name}` was interned");
                    }
                    match expected {
                        Some(_) => fired += 1,
                        None if p.names().get(name).is_some() => refused += 1,
                        None => unknown += 1,
                    }
                }
            }
        }
        assert!(
            fired > 500 && refused > 100 && unknown > 100,
            "corpus exercised ({fired} fired, {refused} refused, {unknown} unknown)"
        );
        // Other tests intern concurrently, so retry the count comparison
        // instead of demanding a quiescent table.
        let p = compile(&seq(vec![g("a"), g("b")]));
        for attempt in 0.. {
            let before = Symbol::interned_count();
            let mut s = Scheduler::new(&p);
            for i in 0..64 {
                let name = format!("fire_named_count_probe_{attempt}_{i}");
                assert_eq!(s.fire_named(&name), None);
            }
            assert_eq!(s.fire_named(foreign.as_str()), None);
            assert_eq!(s.fire_named("a"), Some(sym("a")));
            if Symbol::interned_count() == before {
                break;
            }
            assert!(attempt < 5, "interner table would not settle");
        }
    }

    #[test]
    fn name_index_finds_every_event_whatever_the_name_length() {
        // Names of 0–40 bytes: every tail length of the word-at-a-time
        // hash, names that differ only past a word boundary or only in
        // length, and more names than one probe run is long.
        let names: Vec<String> = (0..=40usize)
            .flat_map(|len| ["x", "y"].map(|c| c.repeat(len)))
            .chain((0..8).map(|i| format!("{}{i}", "shared_prefix_of_16".repeat(2))))
            .filter(|name| !name.is_empty())
            .collect();
        let p = compile(&conc(names.iter().map(|name| g(name)).collect()));
        let index = p.names();
        assert!(index.entries.len() >= 2 * names.len());
        for name in &names {
            let found = index.get(name).expect("every event is indexed");
            assert_eq!((found.name, found.symbol), (name.as_str(), sym(name)));
            assert!(index.contains(found.symbol));
            assert!(index.get(&format!("{name}z")).is_none());
        }
        assert!(index.get("").is_none());
        assert!(index.get(&"x".repeat(41)).is_none());
        // A single-event program still has an empty entry to stop at.
        let one = compile(&g("only"));
        assert!(one.names().get("only").is_some());
        assert!(one.names().get("other").is_none());
    }

    // --- The compact cursor against its oracles -------------------------

    use ctr::gen::{self, GoalShape};
    use proptest::prelude::*;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// A cursor built by the tree walk, bypassing the program's cached
    /// initial one.
    fn untemplated(p: &Program) -> Scheduler<&Program> {
        Scheduler {
            program: p,
            cursor: Cursor::build(p),
        }
    }

    /// Wraps some `⊗`/`|` subgoals in `⊙` (nesting wherever the recursion
    /// stacks them) and gates some `|` siblings through a channel, ids
    /// counting up from `*chan`.
    fn decorate(goal: &Goal, rng: &mut u64, chan: &mut u32) -> Goal {
        match goal {
            Goal::Seq(gs) => {
                let g = seq(gs.iter().map(|g| decorate(g, rng, chan)).collect());
                if lcg(rng).is_multiple_of(3) {
                    isolated(g)
                } else {
                    g
                }
            }
            Goal::Conc(gs) => {
                let mut inner: Vec<Goal> = gs.iter().map(|g| decorate(g, rng, chan)).collect();
                if inner.len() >= 2 && lcg(rng).is_multiple_of(2) {
                    let c = Channel(*chan);
                    *chan += 37;
                    let second = inner.remove(1);
                    let first = inner.remove(0);
                    inner.insert(0, seq(vec![first, Goal::Send(c)]));
                    inner.insert(1, seq(vec![Goal::Receive(c), second]));
                }
                let g = conc(inner);
                if lcg(rng).is_multiple_of(4) {
                    isolated(g)
                } else {
                    g
                }
            }
            Goal::Or(gs) => or(gs.iter().map(|g| decorate(g, rng, chan)).collect()),
            other => other.clone(),
        }
    }

    /// `|` of corpus goals over disjoint event pools, grown until the
    /// compiled program passes `min_nodes`.
    fn corpus_goal_over(seed: u64, min_nodes: usize) -> Goal {
        let shape = GoalShape {
            depth: 4,
            width: 3,
            or_bias: 0.35,
        };
        let mut parts = Vec::new();
        loop {
            let prefix = format!("w{}_", parts.len());
            parts.push(gen::random_goal(seed + 7919 * parts.len() as u64, shape, &prefix).0);
            let goal = conc(parts.clone());
            if compile(&goal).len() > min_nodes {
                return goal;
            }
        }
    }

    const FAMILIES: usize = 8;

    /// The goal of one property case; `family` forces the arena shapes
    /// a random corpus goal rarely has.
    fn case_goal(seed: u64, family: usize) -> Goal {
        let mut rng = seed ^ 0x5DEE_CE66;
        // Channel ids are sparse and start past 64: tables go by rank.
        let mut chan = 64 + (seed as u32 % 2) * 70;
        // A corpus goal of at least `min_nodes`, decorated, then gated
        // into a last event so at least one channel is always in play.
        let corpus = |min_nodes: usize, rng: &mut u64, chan: &mut u32| {
            let body = decorate(&corpus_goal_over(seed, min_nodes), rng, chan);
            let gate = Channel(*chan);
            conc(vec![
                seq(vec![body, Goal::Send(gate)]),
                seq(vec![Goal::Receive(gate), g("gated")]),
            ])
        };
        match family {
            // Corpus goals with nested ⊙ and channel ids ≥ 64.
            0 => corpus(0, &mut rng, &mut chan),
            // Two- and three-word node bitsets.
            1 => corpus(64, &mut rng, &mut chan),
            2 => corpus(128, &mut rng, &mut chan),
            // No ⊗ node: an empty `seq_pos` section.
            3 => conc(
                (0..2 + seed % 5)
                    .map(|i| {
                        or(vec![
                            g(&format!("n{i}l")),
                            g(&format!("n{i}r")),
                            Goal::Empty,
                        ])
                    })
                    .collect(),
            ),
            // No ∨ node: an empty `or_choice` section.
            4 => seq((0..2 + seed % 4)
                .map(|i| conc(vec![g(&format!("s{i}a")), g(&format!("s{i}b"))]))
                .collect()),
            // ⊙ inside ⊙ inside ⊙, beside a free event.
            5 => conc(vec![
                isolated(seq(vec![
                    g("i0"),
                    isolated(conc(vec![
                        g("i1"),
                        isolated(seq(vec![g("i2"), or(vec![g("i3"), g("i4")])])),
                    ])),
                    g("i5"),
                ])),
                g("free"),
            ]),
            // Every event in two differently decorated copies, so a fire
            // by event has two carriers to pick from, ⊙ or no ⊙.
            6 => conc(
                [0, 1]
                    .map(|_| decorate(&corpus_goal_over(seed, 0), &mut rng, &mut chan))
                    .into(),
            ),
            // What Apply + Excise emit: the fleet benchmark's program.
            _ => layered16x2_orders(),
        }
    }

    /// `layered_workflow(16, 2)` under an order constraint chaining all
    /// sixteen stages, compiled — the benchmark's resident workflow.
    fn layered16x2_orders() -> Goal {
        // One event per stage, alternating lane and side.
        let stage = |i: usize| {
            let (left, right) = gen::layered_events(i, i % 2);
            if i.is_multiple_of(3) {
                left
            } else {
                right
            }
        };
        let orders: Vec<ctr::constraints::Constraint> = (0..15)
            .map(|i| ctr::constraints::Constraint::order(stage(i), stage(i + 1)))
            .collect();
        ctr::analysis::compile(&gen::layered_workflow(16, 2), &orders)
            .expect("unique-event workflow")
            .goal
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        Node(NodeId),
        Event(Symbol),
    }

    fn apply(s: &mut Scheduler<&Program>, step: Step) {
        match step {
            Step::Node(n) => s.fire(n),
            Step::Event(e) => {
                s.fire_event(e);
            }
        }
    }

    /// Reads the cursor's marking and checks it against the tree: every
    /// `⊗` position, `∨` choice and done flag must be the one its node's
    /// children imply, a channel is sent iff one of its `send`s is done,
    /// and the lock stack is a chain of entered, unfinished `⊙`s. A cursor
    /// whose per-kind indices aliased two nodes, or whose sections
    /// overlapped, cannot pass this.
    fn assert_cursor_is_coherent(s: &Scheduler<&Program>) {
        let (p, c) = (s.program(), &s.cursor);
        let done = |n: NodeId| c.is_done(n);
        for (id, node) in p.nodes.iter().enumerate() {
            let is_done = done(id);
            let cs: Vec<NodeId> = p.children(id).collect();
            match &node.kind {
                NodeKind::Seq => {
                    let at = c.seq_pos(p, node);
                    let pos = cs.iter().position(|&child| child == at);
                    let pos = pos.unwrap_or_else(|| {
                        assert_eq!(at, p.end(id), "⊗ {id} is at a stranger");
                        cs.len()
                    });
                    assert!(cs[..pos].iter().all(|&c| done(c)), "⊗ {id} skipped a child");
                    assert!(cs.get(pos).is_none_or(|&c| !done(c)), "⊗ {id} lags");
                    assert_eq!(is_done, pos == cs.len());
                }
                NodeKind::Or => match c.or_choice(p, node) {
                    NIL => assert!(!is_done && cs.iter().all(|&c| !done(c))),
                    chosen => {
                        assert!(cs.contains(&(chosen as NodeId)), "∨ chose a stranger");
                        assert_eq!(is_done, done(chosen as NodeId));
                    }
                },
                NodeKind::Conc => assert_eq!(is_done, cs.iter().all(|&c| done(c))),
                NodeKind::Iso => {
                    assert_eq!(cs, [id + 1]);
                    assert_eq!(is_done, done(id + 1));
                }
                _ => assert_eq!(cs.len(), 0),
            }
        }
        for &n in &c.trace {
            assert!(done(n as NodeId), "traced node {n} is not done");
        }
        for r in 0..p.recv_start.len() as u32 - 1 {
            let sent_by = (p.nodes.iter().enumerate()).any(|(id, n)| {
                matches!(n.kind, NodeKind::Send { rank, .. } if rank == r) && done(id)
            });
            assert_eq!(c.is_sent(p, r), sent_by, "channel rank {r}");
        }
        for (i, &l) in c.lock.iter().enumerate() {
            let l = l as NodeId;
            assert!(
                matches!(p.nodes[l].kind, NodeKind::Iso) && !done(l),
                "lock {l}"
            );
            assert!(
                i == 0 || p.in_subtree(c.lock[i - 1] as NodeId, l),
                "lock {l} escapes"
            );
        }
    }

    /// Drives two node-level schedules, picked by `script`, over the
    /// program of the corpus goal `seed`, and checks that any two cursors
    /// they reach with equal residual keys may still complete the same
    /// traces. Returns how many such pairs were unequal cursors with a
    /// future, or `None` when the program has more than `TRACE_CAP`
    /// traces to enumerate.
    fn residual_keys_are_sound(seed: u64, script: u64) -> Option<usize> {
        const TRACE_CAP: usize = 512;
        let shape = GoalShape {
            depth: 4,
            width: 3,
            or_bias: 0.35,
        };
        let goal = gen::random_goal(seed, shape, "f").0;
        let p = compile(&goal);
        if Scheduler::new(&p).enumerate_traces(TRACE_CAP + 1).len() > TRACE_CAP {
            return None;
        }
        let mut reached = Vec::new();
        let mut rng = script;
        for _ in 0..2 {
            let mut s = Scheduler::new(&p);
            reached.push(s.clone());
            while !s.is_complete() && !s.eligible().is_empty() {
                s.fire(s.eligible()[lcg(&mut rng) as usize % s.eligible().len()].node);
                reached.push(s.clone());
            }
        }
        // The traces a cursor may still complete: its enumeration, less
        // the history every one of them starts with.
        let futures = |s: &Scheduler<&Program>| -> BTreeSet<Vec<Symbol>> {
            let n = s.history_len();
            (s.enumerate_traces(TRACE_CAP).into_iter())
                .map(|t| t[n..].to_vec())
                .collect()
        };
        let mut differing = 0;
        for (i, a) in reached.iter().enumerate() {
            for b in &reached[i + 1..] {
                if a.residual_key() == b.residual_key() {
                    assert_eq!(
                        futures(a),
                        futures(b),
                        "seed {seed} script {script}: {goal}"
                    );
                    differing += usize::from(a.cursor != b.cursor && !a.is_complete());
                }
            }
        }
        Some(differing)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(56))]

        /// After every step of a random script — fires by node and by
        /// name, refusals included — the cursor agrees with a replay of
        /// the script so far on a cursor built without the template,
        /// with the recursive eligibility walk, and with the tree; and
        /// nothing it did shows in a sibling started from the same
        /// program or in the template itself.
        #[test]
        fn compact_cursor_matches_replay_walk_and_tree(
            seed in 0u64..10_000,
            case in 0usize..10_000,
            script in 0u64..u64::MAX,
        ) {
            let family = case % FAMILIES;
            let goal = case_goal(seed, family);
            let p = compile(&goal);
            match family {
                1 => prop_assert!(p.len() > 64),
                2 => prop_assert!(p.len() > 128),
                3 => prop_assert_eq!(p.layout.seq_pos, p.layout.or_choice, "no ⊗ words"),
                4 => prop_assert_eq!(p.layout.or_choice, p.layout.words, "no ∨ words"),
                _ => {}
            }
            if family <= 2 {
                prop_assert!(goal.channels().iter().all(|c| c.0 >= 64), "sparse ids in play");
            }
            let ranks = p.nodes.iter().filter_map(|n| match n.kind {
                NodeKind::Send { rank, .. } | NodeKind::Recv { rank } => Some(rank as usize + 1),
                _ => None,
            });
            prop_assert_eq!(
                p.layout.seq_pos - p.layout.sent,
                ranks.max().unwrap_or(0).div_ceil(64),
                "one `sent` bit per channel, whatever the ids"
            );
            let events: Vec<Symbol> = goal.events().into_iter().collect();

            let sibling = Scheduler::new(&p);
            let initial = sibling.cursor.clone();
            let mut s = Scheduler::new(&p);
            prop_assert_eq!(&s.cursor, &untemplated(&p).cursor);

            let mut rng = script;
            let mut steps: Vec<Step> = Vec::new();
            while !s.is_complete() && !s.eligible().is_empty() && steps.len() < 48 {
                let step = if lcg(&mut rng).is_multiple_of(3) {
                    Step::Event(events[lcg(&mut rng) as usize % events.len()])
                } else {
                    Step::Node(s.eligible()[lcg(&mut rng) as usize % s.eligible().len()].node)
                };
                // The referee for dispatch by event: the recursive walk's
                // first eligible node carrying the event is the one fired.
                let carrier = match step {
                    Step::Event(e) => s.eligible_reference().into_iter().find(|c| {
                        p.event(c.node).and_then(Atom::as_event) == Some(e)
                    }),
                    Step::Node(_) => None,
                };
                apply(&mut s, step);
                steps.push(step);
                if let Some(c) = carrier {
                    prop_assert_eq!(
                        s.cursor.trace.last(),
                        Some(&(c.node as u32)),
                        "after {:?} on {}", steps, goal
                    );
                }

                let mut replay = untemplated(&p);
                for &step in &steps {
                    apply(&mut replay, step);
                }
                prop_assert_eq!(&s.cursor, &replay.cursor, "after {:?} on {}", steps, goal);
                let reference = s.eligible_reference();
                prop_assert_eq!(s.eligible(), reference.as_slice(), "after {:?} on {}", steps, goal);
                assert_cursor_is_coherent(&s);
            }
            let names: Vec<Symbol> = s.trace().filter_map(Atom::as_event).collect();
            prop_assert_eq!(names, s.trace_names());

            prop_assert_eq!(&sibling.cursor, &initial, "sibling moved");
            prop_assert_eq!(&Scheduler::new(&p).cursor, &initial, "template moved");
        }

        /// A cursor driven by event — eligible picks, gated events
        /// pulled through their τ-steps and refusals alike — rewound to
        /// any length `n` is the cursor that stopped after `n` fires:
        /// same state, same eligible set, same history.
        #[test]
        fn rewound_is_the_cursor_that_stopped_there(
            seed in 0u64..10_000,
            case in 0usize..10_000,
            script in 0u64..u64::MAX,
        ) {
            let goal = case_goal(seed, case % FAMILIES);
            let p = compile(&goal);
            let events: Vec<Symbol> = goal.events().into_iter().collect();
            let mut s = Scheduler::new(&p);
            let mut stops = vec![s.clone()];
            let mut rng = script;
            for _ in 0..96 {
                if s.is_complete() {
                    break;
                }
                let offered: Vec<Symbol> = (s.eligible().iter())
                    .filter_map(|c| p.event(c.node)?.as_event())
                    .collect();
                let event = if offered.is_empty() || lcg(&mut rng).is_multiple_of(3) {
                    events[lcg(&mut rng) as usize % events.len()]
                } else {
                    offered[lcg(&mut rng) as usize % offered.len()]
                };
                if s.fire_event(event) {
                    stops.push(s.clone());
                }
            }
            prop_assert_eq!(s.history_len(), stops.len() - 1);
            for (n, stop) in stops.iter().enumerate() {
                let back = s.rewound(n).expect("an event-driven history retraces");
                prop_assert_eq!(&back.cursor, &stop.cursor, "at {} on {}", n, goal);
                prop_assert_eq!(back.history_len(), n);
                let tail: Vec<Symbol> = s.history_from(n).collect();
                prop_assert_eq!(tail.as_slice(), &s.trace_names()[n..]);
            }
            prop_assert!(s.rewound(stops.len()).is_none(), "past the end");
            prop_assert_eq!(s.history_from(stops.len()).count(), 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Cursors with one residual key have one future, on any two
        /// schedules of any corpus goal.
        #[test]
        fn residual_keys_are_sound_on_random_schedules(
            seed in 0u64..10_000,
            script in 0u64..u64::MAX,
        ) {
            residual_keys_are_sound(seed, script);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On a goal with no constraint every trace the enumeration lists
        /// fires event by event by name, and can still complete as itself.
        #[test]
        fn every_enumerated_trace_fires_by_name(seed in 0u64..3_000) {
            const TRACE_CAP: usize = 512;
            let goal = gen::random_goal(seed, GoalShape::default(), "f").0;
            let p = compile(&goal);
            let traces = Scheduler::new(&p).enumerate_traces(TRACE_CAP + 1);
            if traces.len() <= TRACE_CAP {
                for trace in &traces {
                    let mut s = Scheduler::new(&p);
                    for &event in trace {
                        prop_assert!(s.fire_event(event), "{:?} on {}", trace, goal);
                    }
                    prop_assert!(s.enumerate_traces(TRACE_CAP).contains(trace));
                }
            }
        }
    }

    #[test]
    fn rewound_refuses_a_history_fire_event_would_not_retrace() {
        // Fired by node into the second `a`; by event the first one wins.
        let p = compile(&or(vec![
            seq(vec![g("a"), g("b")]),
            seq(vec![g("a"), g("c")]),
        ]));
        let mut s = Scheduler::new(&p);
        let second = s.eligible()[1].node;
        s.fire(second);
        assert_eq!(s.trace_names(), vec![sym("a")]);
        assert!(s.rewound(0).is_some());
        assert!(s.rewound(1).is_none());
    }

    #[test]
    fn resident_cursor_of_the_fleet_workflow_fits_272_bytes() {
        let p = compile(&layered16x2_orders());
        let fresh = Scheduler::new(&p);
        assert!(p.len() > 64, "multi-word bitsets ({} nodes)", p.len());
        assert!(
            fresh.cursor.bytes() <= 272,
            "{} B for {} nodes",
            fresh.cursor.bytes(),
            p.len()
        );
    }
}
