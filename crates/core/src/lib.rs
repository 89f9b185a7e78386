#![warn(missing_docs)]

//! # ctr — Concurrent Transaction Logic for workflows
//!
//! A faithful implementation of *Logic Based Modeling and Analysis of
//! Workflows* (Davulcu, Kifer, Ramakrishnan & Ramakrishnan, PODS 1998):
//! workflows as concurrent-Horn goals of Concurrent Transaction Logic
//! (CTR), global temporal constraints as the algebra `CONSTR`, and the
//! `Apply`/`Excise` compilation that turns `G ∧ C` into a directly
//! executable, constraint-free specification.
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |--------|--------------|----------|
//! | [`symbol`], [`term`] | §2 | interned names, first-order terms, atoms |
//! | [`goal`] | §2 | concurrent-Horn goals (`⊗`, `\|`, `∨`, `⊙`, `◇`), `send`/`receive`, `¬path` tautologies; `Arc`-shared subtrees with cached size / event fingerprint / structural hash |
//! | [`unique`] | §3 | the unique-event property (Definition 3.1), one pre-order walk |
//! | [`constraints`] | §3 | the algebra `CONSTR`, negation closure (Lemma 3.4), splitting (Prop 3.3), normal form (Cor 3.5) |
//! | [`semantics`] | §2 | reference trace semantics — the oracle for `Apply(σ,T) ≡ T ∧ σ` |
//! | [`apply`](mod@apply) | §5 | the `Apply` rules and `sync` (Defs 5.1/5.3/5.5), each written once over a table strategy and run on the caller's thread; event-index pruning, a channel range set aside per disjunct |
//! | [`excise`](mod@excise) | §5 | knot detection and removal, `G_fail` diagnostics; a root `∨` excises branch by branch, region outcomes go through the same table; knots are found on the one graph type, which the run fragment's tests share |
//! | [`analysis`] | §4 | consistency, verification, redundancy (Thms 5.8–5.10) and a minimal conflicting subset: the [`Analyzer`] session holds each query once; the one-shot referees are the theorems' compiles as written; over a goal whose events occur once, the session decides consistency, holding properties and redundancy without a compile: on the goal's series-parallel order among runs (Prop 4.1), by a search of one disjunct per constraint otherwise |
//! | [`memo`] | §5 | the table that remembers: hash-consed subgoals and recorded rewrite answers ([`Memo`]), which an [`Analyzer`] — the one tabled API — keeps across queries |
//! | [`formula`] | §2 | full CTR formulas (adds `∧`, `¬`) with declarative trace satisfaction |
//! | [`timer`] | — | timer ticks as plain event *names* (`ev@after30000`): the tag scheme shared by the workflow compiler, runtime wheel, and enactor |
//! | [`gen`] | — | workload generators, incl. the 3-SAT reduction of Prop 4.1 |
//!
//! ## Quick example
//!
//! ```
//! use ctr::goal::{conc, seq, Goal};
//! use ctr::constraints::Constraint;
//! use ctr::analysis::{compile, verify, Verification};
//!
//! // book_flight | book_hotel, then pay — but a refundable hotel must be
//! // booked before the flight is committed.
//! let trip = seq(vec![
//!     conc(vec![Goal::atom("book_flight"), Goal::atom("book_hotel")]),
//!     Goal::atom("pay"),
//! ]);
//! let policy = [Constraint::order("book_hotel", "book_flight")];
//!
//! let compiled = compile(&trip, &policy).unwrap();
//! assert!(compiled.is_consistent());
//!
//! // And the policy now provably holds on every schedule:
//! let check = verify(&trip, &policy, &Constraint::klein_order("book_hotel", "book_flight"));
//! assert_eq!(check.unwrap(), Verification::Holds);
//! ```

pub mod analysis;
pub mod apply;
pub mod constraints;
pub mod excise;
pub mod formula;
pub mod gen;
pub mod goal;
mod graph;
pub mod memo;
mod redundancy;
pub mod semantics;
pub mod symbol;
pub mod term;
pub mod timer;
pub mod unique;

pub use analysis::{
    activity_report, compile, conflict, is_consistent, is_redundant, minimize_constraints,
    ordering, verify, ActivityStatus, Compiled, Verification,
};
pub use apply::{apply, ChannelAlloc};
pub use constraints::{Basic, Conjunct, Constraint, NormalForm};
pub use excise::{excise, excise_with_diagnostics, ExciseResult, KnotReport};
pub use formula::Formula;
pub use goal::{conc, isolated, or, possible, seq, Channel, Goal};
pub use memo::{Analyzer, Memo, MemoStats};
pub use semantics::equivalent;
pub use symbol::{sym, Symbol};
pub use term::{Atom, Term, Var};
pub use unique::{check_unique_events, is_unique_event};
