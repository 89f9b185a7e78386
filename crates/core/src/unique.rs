//! The unique-event property (Definition 3.1).
//!
//! A concurrent-Horn goal has the unique-event property when every
//! significant event occurs at most once in any execution. The paper's
//! constraint compilation (§5) is only correct for unique-event goals, and
//! notes that the property is recognizable in linear time. This module is
//! that recognizer, built directly on the structural facts (3):
//!
//! * in `E₁ ⊗ E₂` and `E₁ | E₂`, an event occurring in `E₁` cannot occur in
//!   `E₂` — both conjuncts execute, so a shared event would occur twice;
//! * `E₁ ∨ E₂` is unique-event iff both disjuncts are — only one branch
//!   executes, so the branches may freely share events.
//!
//! So a goal is unique-event iff every two occurrences of an event meet —
//! have as their lowest common ancestor — at an `∨`. `⊙` executes its body
//! on the path and is transparent; a `◇` body never executes on it and is
//! skipped. Among an event's occurrences in pre-order, the meeting node of
//! any two is the highest of the meeting nodes of consecutive ones, so it
//! is enough to test each occurrence against the one before it.
//!
//! The check is one pre-order walk. It keeps the open `⊗`/`|`/`∨` nodes
//! from the root down, with their pre-order ids, and each event's latest
//! occurrence. An occurrence meets the one before it, at id `p`, at the
//! deepest open node whose id is at most `p`: the open nodes hold the
//! current occurrence, and one of them holds `p` iff it started no later.
//! That node is found by binary search over the open stack, so the walk
//! costs O(n log d) time and O(n) space for `n` nodes nested `d` deep —
//! linear for any fixed depth bound, such as the parser's. It builds no
//! per-subgoal set; a violation names the meeting `⊗`/`|`.

use crate::goal::{FxBuildHasher, Goal};
use crate::symbol::Symbol;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A violation of the unique-event property: `event` can occur twice in a
/// single execution because it appears in two sibling conjuncts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DuplicateEvent {
    /// The offending event.
    pub event: Symbol,
    /// Rendering of the smallest conjunction holding both occurrences, for
    /// designer feedback.
    pub context: String,
}

impl fmt::Display for DuplicateEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event `{}` may occur twice in one execution (within `{}`)",
            self.event, self.context
        )
    }
}

impl std::error::Error for DuplicateEvent {}

/// Checks the unique-event property over *all* propositional atoms of the
/// goal, returning the goal's event set on success.
///
/// This is the conservative default: a goal unique in all its atoms is
/// certainly unique in any subset designated as significant events.
pub fn check_unique_events(goal: &Goal) -> Result<BTreeSet<Symbol>, DuplicateEvent> {
    check_unique_events_among(goal, None)
}

/// Checks the unique-event property restricted to the events in
/// `significant`. Activities outside the set may repeat freely — they are
/// not constrained events, so repetition does not affect the compilation.
/// Returns the significant events that occur outside `◇` on success.
pub fn check_unique_events_among(
    goal: &Goal,
    significant: Option<&BTreeSet<Symbol>>,
) -> Result<BTreeSet<Symbol>, DuplicateEvent> {
    let mut walk = Walk::new(significant);
    walk.visit(goal)?;
    Ok(walk.latest.into_keys().collect())
}

/// [`check_unique_events`] without the event set: what compiling and
/// opening an analysis session ask, at the cost of the walk alone.
pub fn ensure_unique_events(goal: &Goal) -> Result<(), DuplicateEvent> {
    Walk::new(None).visit(goal)
}

/// Convenience predicate form of [`check_unique_events`].
pub fn is_unique_event(goal: &Goal) -> bool {
    ensure_unique_events(goal).is_ok()
}

/// The state of the pre-order walk.
struct Walk<'g, 's> {
    significant: Option<&'s BTreeSet<Symbol>>,
    /// The `⊗`/`|`/`∨` nodes open around the cursor, root first, each
    /// with its pre-order id (ascending up the stack).
    open: Vec<(usize, &'g Goal)>,
    /// Each event's latest occurrence so far, by pre-order id.
    latest: HashMap<Symbol, usize, FxBuildHasher>,
    /// The next pre-order id.
    next: usize,
}

impl<'g, 's> Walk<'g, 's> {
    fn new(significant: Option<&'s BTreeSet<Symbol>>) -> Self {
        Walk {
            significant,
            open: Vec::new(),
            latest: HashMap::default(),
            next: 0,
        }
    }

    fn visit(&mut self, goal: &'g Goal) -> Result<(), DuplicateEvent> {
        let id = self.next;
        self.next += 1;
        match goal {
            Goal::Atom(a) => {
                let Some(event) = a.as_event() else {
                    return Ok(());
                };
                if !self.significant.is_none_or(|s| s.contains(&event)) {
                    return Ok(());
                }
                if let Some(earlier) = self.latest.insert(event, id) {
                    // Some open node holds both occurrences (the root
                    // does), so the search finds at least one.
                    let holding = self.open.partition_point(|&(open, _)| open <= earlier);
                    let (_, meeting) = self.open[holding - 1];
                    if !matches!(meeting, Goal::Or(_)) {
                        return Err(DuplicateEvent {
                            event,
                            context: meeting.to_string(),
                        });
                    }
                }
                Ok(())
            }
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => {
                self.open.push((id, goal));
                for g in gs.iter() {
                    self.visit(g)?;
                }
                self.open.pop();
                Ok(())
            }
            Goal::Isolated(g) => self.visit(g),
            // ◇ bodies are hypothetical: their events never occur on the
            // execution path, so they cannot break per-path uniqueness
            // (and the Apply transformation treats them as opaque).
            Goal::Possible(_) => Ok(()),
            Goal::Send(_) | Goal::Receive(_) | Goal::Empty | Goal::NoPath => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::{conc, or, seq};
    use crate::symbol::sym;

    fn g(name: &str) -> Goal {
        Goal::atom(name)
    }

    #[test]
    fn figure1_goal_is_unique_event() {
        // Equation (1) of the paper, conditions omitted.
        let goal = seq(vec![
            g("a"),
            conc(vec![
                seq(vec![
                    g("b"),
                    or(vec![seq(vec![g("d"), g("h")]), g("e")]),
                    g("j"),
                ]),
                seq(vec![g("c"), or(vec![seq(vec![g("f"), g("i")]), g("g")])]),
            ]),
            g("k"),
        ]);
        let events = check_unique_events(&goal).expect("figure 1 is unique-event");
        assert_eq!(events.len(), 11);
    }

    #[test]
    fn duplicate_in_seq_is_rejected() {
        let goal = seq(vec![g("a"), g("b"), g("a")]);
        let err = check_unique_events(&goal).unwrap_err();
        assert_eq!(err.event, sym("a"));
    }

    #[test]
    fn duplicate_in_conc_is_rejected() {
        let goal = conc(vec![g("x"), seq(vec![g("y"), g("x")])]);
        let err = check_unique_events(&goal).unwrap_err();
        assert_eq!(err.event, sym("x"));
    }

    #[test]
    fn duplicate_across_or_branches_is_allowed() {
        // η occurs in both branches of the ∨ in Example 5.7; the goal is
        // still unique-event because only one branch executes.
        let goal = seq(vec![
            g("gamma"),
            or(vec![g("eta"), conc(vec![g("alpha"), g("beta"), g("eta")])]),
        ]);
        assert!(is_unique_event(&goal));
    }

    #[test]
    fn duplicate_inside_one_or_branch_is_rejected() {
        let goal = or(vec![g("a"), seq(vec![g("b"), g("b")])]);
        assert!(!is_unique_event(&goal));
    }

    #[test]
    fn restricting_to_significant_events_ignores_other_activities() {
        // `audit` repeats, but it is not a significant event.
        let goal = seq(vec![g("audit"), g("pay"), g("audit")]);
        assert!(!is_unique_event(&goal));
        let significant: BTreeSet<Symbol> = [sym("pay")].into_iter().collect();
        assert!(check_unique_events_among(&goal, Some(&significant)).is_ok());
    }

    #[test]
    fn channels_and_units_do_not_count_as_events() {
        use crate::goal::Channel;
        let goal = seq(vec![
            Goal::Send(Channel(0)),
            Goal::Receive(Channel(0)),
            Goal::Empty,
        ]);
        assert_eq!(check_unique_events(&goal).unwrap().len(), 0);
    }

    #[test]
    fn isolation_is_transparent_but_possibility_is_opaque() {
        use crate::goal::{isolated, possible};
        // ⊙a executes a on the path: counted.
        assert!(!is_unique_event(&seq(vec![isolated(g("a")), g("a")])));
        // ◇a does not execute a on the path: a may also occur for real.
        assert!(is_unique_event(&seq(vec![possible(g("a")), g("a")])));
        // The ◇-guarded-sequence combinator relies on this: guards carry
        // copies of later steps.
        let guarded = seq(vec![
            possible(seq(vec![g("x"), g("y")])),
            g("x"),
            possible(g("y")),
            g("y"),
        ]);
        assert!(is_unique_event(&guarded));
    }

    #[test]
    fn event_set_is_returned_on_success() {
        let goal = seq(vec![g("a"), or(vec![g("b"), g("c")])]);
        let evs = check_unique_events(&goal).unwrap();
        assert_eq!(evs, [sym("a"), sym("b"), sym("c")].into_iter().collect());
    }

    #[test]
    fn the_meeting_conjunction_is_the_context() {
        // The two `a`s meet at the `|`, below the root `⊗`; the `∨` above
        // the first one does not make them alternatives.
        let meeting = conc(vec![or(vec![g("a"), g("b")]), seq(vec![g("c"), g("a")])]);
        let goal = seq(vec![g("x"), meeting.clone(), g("y")]);
        let err = check_unique_events(&goal).unwrap_err();
        assert_eq!((err.event, err.context), (sym("a"), meeting.to_string()));
        // Three alternatives of one `∨`, each holding the event: legal.
        let spread = seq(vec![
            g("x"),
            or(vec![g("a"), seq(vec![g("b"), g("a")]), g("a")]),
        ]);
        assert!(is_unique_event(&spread));
    }

    /// The set walk this module used before its pre-order walk: each
    /// subgoal's executable events bottom-up, the first overlap between
    /// `⊗`/`|` siblings rejected.
    fn reference(
        goal: &Goal,
        significant: Option<&BTreeSet<Symbol>>,
    ) -> Result<BTreeSet<Symbol>, DuplicateEvent> {
        match goal {
            Goal::Atom(a) => {
                let mut set = BTreeSet::new();
                if let Some(e) = a.as_event() {
                    if significant.is_none_or(|s| s.contains(&e)) {
                        set.insert(e);
                    }
                }
                Ok(set)
            }
            Goal::Seq(gs) | Goal::Conc(gs) => {
                let mut acc: BTreeSet<Symbol> = BTreeSet::new();
                for g in gs.iter() {
                    for e in reference(g, significant)? {
                        if !acc.insert(e) {
                            return Err(DuplicateEvent {
                                event: e,
                                context: goal.to_string(),
                            });
                        }
                    }
                }
                Ok(acc)
            }
            Goal::Or(gs) => {
                let mut acc: BTreeSet<Symbol> = BTreeSet::new();
                for g in gs.iter() {
                    acc.extend(reference(g, significant)?);
                }
                Ok(acc)
            }
            Goal::Isolated(g) => reference(g, significant),
            Goal::Possible(_) => Ok(BTreeSet::new()),
            Goal::Send(_) | Goal::Receive(_) | Goal::Empty | Goal::NoPath => Ok(BTreeSet::new()),
        }
    }

    use crate::goal::{isolated, possible};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `goal` rebuilt with every atom renamed by `rename`, some subgoals
    /// wrapped in `⊙` or `◇`, and every node built raw or through the
    /// smart constructors, at random.
    fn scramble(
        goal: &Goal,
        rng: &mut StdRng,
        rename: &mut impl FnMut(&mut StdRng) -> Goal,
    ) -> Goal {
        let smart = rng.gen_bool(0.5);
        let node = match goal {
            Goal::Atom(_) => rename(rng),
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => {
                let kids: Vec<Goal> = gs.iter().map(|k| scramble(k, rng, rename)).collect();
                match (goal, smart) {
                    (Goal::Seq(_), true) => seq(kids),
                    (Goal::Seq(_), false) => Goal::raw_seq(kids),
                    (Goal::Conc(_), true) => conc(kids),
                    (Goal::Conc(_), false) => Goal::raw_conc(kids),
                    (_, true) => or(kids),
                    (_, false) => Goal::raw_or(kids),
                }
            }
            other => other.clone(),
        };
        match rng.gen_range(0..20) {
            0 if smart => isolated(node),
            0 => Goal::raw_isolated(node),
            1 if smart => possible(node),
            1 => Goal::raw_possible(node),
            _ => node,
        }
    }

    /// How often each event executes on some path's syntax: occurrences
    /// outside `◇`.
    fn occurrences(goal: &Goal, counts: &mut std::collections::BTreeMap<Symbol, usize>) {
        match goal {
            Goal::Atom(a) => {
                if let Some(e) = a.as_event() {
                    *counts.entry(e).or_default() += 1;
                }
            }
            Goal::Seq(gs) | Goal::Conc(gs) | Goal::Or(gs) => {
                gs.iter().for_each(|k| occurrences(k, counts));
            }
            Goal::Isolated(g) => occurrences(g, counts),
            _ => {}
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(2048))]

        /// The pre-order walk against the set walk on random goals: raw
        /// and canonical nodes, `⊙`/`◇` wrappers, atoms renamed into 3–8
        /// names (many duplicates) or with one occurrence renamed onto
        /// another event (one duplicate). Verdicts and event sets agree,
        /// under a significant subset too; where one event occurs exactly
        /// twice and every other once, so does the error, event and
        /// context.
        #[test]
        fn the_pre_order_walk_is_the_set_walk(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let shape = crate::gen::GoalShape { depth: 5, width: 4, or_bias: 0.3 };
            let (base, events) = crate::gen::random_goal(seed, shape, "u");
            let goal = if seed % 2 == 0 {
                let names = rng.gen_range(3..=8);
                scramble(&base, &mut rng, &mut |rng| Goal::atom(format!("n{}", rng.gen_range(0..names))))
            } else {
                // Every event once, but for one occurrence renamed onto
                // another event.
                let (mut at, from, onto) = (0, rng.gen_range(0..events.len().max(1)), rng.gen_range(0..events.len().max(1)));
                scramble(&base, &mut rng, &mut |_| {
                    at += 1;
                    Goal::atom(if at - 1 == from { events[onto] } else { events[at - 1] })
                })
            };
            let got = check_unique_events(&goal);
            let want = reference(&goal, None);
            proptest::prop_assert_eq!(got.is_ok(), want.is_ok(), "{}", goal);
            proptest::prop_assert_eq!(ensure_unique_events(&goal).is_ok(), want.is_ok());
            let mut counts = std::collections::BTreeMap::new();
            occurrences(&goal, &mut counts);
            let twice: Vec<usize> = counts.values().copied().filter(|&n| n > 1).collect();
            if twice == [2] || want.is_ok() {
                proptest::prop_assert_eq!(&got, &want, "{}", goal);
            }
            let significant: BTreeSet<Symbol> = counts.keys().copied().filter(|_| rng.gen_bool(0.5)).collect();
            let got = check_unique_events_among(&goal, Some(&significant));
            let want = reference(&goal, Some(&significant));
            proptest::prop_assert_eq!(got.is_ok(), want.is_ok(), "{}", goal);
            if want.is_ok() {
                proptest::prop_assert_eq!(&got, &want);
            }
        }
    }
}
