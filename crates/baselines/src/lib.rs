#![warn(missing_docs)]

//! # ctr-baselines — the related-work systems the paper compares against
//!
//! Re-implementations of the passive/standard approaches that the PODS'98
//! paper positions itself against, built to exhibit the complexity
//! profiles reported in §4 and §6:
//!
//! * [`singh`] — passive event-sequence validation and run-time
//!   reordering after Singh \[26, 27\]: `O(n²)` per sequence, no
//!   consistency checking.
//! * [`attie`] — dependency automata and their explicit product after
//!   Attie et al. \[3\]: exponential in the number of constraints.
//! * [`modelcheck`] — explicit-state exploration of the workflow marking
//!   graph ("standard model checking \[9\]"): exponential in the
//!   control-flow graph's concurrent width (the state-explosion problem).
//!
//! These are honest baselines: each follows its published algorithmic
//! description, and their unit tests verify agreement with the reference
//! `ctr::semantics` on the traces both sides can decide.

pub mod attie;
pub mod equivalence;
pub mod modelcheck;
pub mod singh;

pub use attie::{AutoState, ConstraintAutomaton, ProductScheduler};
pub use equivalence::{equivalent, Equivalence};
pub use modelcheck::{check, explore, Exploration};
pub use singh::{Admission, PassiveValidator, ReorderingScheduler};
