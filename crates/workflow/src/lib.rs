#![warn(missing_docs)]

//! # ctr-workflow — the workflow specification front-end
//!
//! The three specification frameworks of the paper's Figure 1, unified
//! over CTR:
//!
//! * [`cfg`](mod@cfg) — control flow graphs with AND/OR splits and transition
//!   conditions, translated to concurrent-Horn goals by series-parallel
//!   reduction (equation (1));
//! * [`triggers`] — event-condition-action rules with immediate and
//!   eventual semantics, compiled into the graph;
//! * [`compensation`] — §7 failure semantics: saga-style compensation and
//!   `◇`-guarded pre-flight sequences;
//! * [`loops`] — §7 iteration: bounded unrolling with occurrence renaming
//!   and constraint lifting;
//! * [`timers`] — `after`/`deadline`/`every` compiled into `send`/
//!   `receive` channel goals plus synthetic tick events (no new goal
//!   forms; the runtime's timer wheel interprets the tick names);
//! * [`spec`] — complete specifications (graph, sub-workflows, triggers,
//!   timers, global constraints) with the full `Apply`/`Excise` pipeline,
//!   whose `Apply` scopes each constraint to the subgoal holding its
//!   events (§7's modular compilation).

pub mod cfg;
pub mod compensation;
pub mod dot;
pub mod loops;
pub mod spec;
pub mod timers;
pub mod triggers;

pub use cfg::{ActivityId, Arc, Cfg, CfgError, SplitKind};
pub use compensation::{guarded_seq, saga, SagaStep};
pub use dot::goal_to_dot;
pub use loops::{unroll, Unrolling};
pub use spec::{RecursiveDefinition, SubWorkflows, WorkflowSpec};
pub use timers::{compile_timer, compile_timers, TimerRule, TimerSpec};
pub use triggers::{compile_trigger, compile_triggers, Trigger, TriggerSemantics};
