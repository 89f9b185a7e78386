//! Loops and iteration (paper, §7, "Loops and iteration").
//!
//! Loops in a control flow graph correspond to recursive CTR rules, which
//! the constraint compiler cannot accept directly: the unique-event
//! property (Definition 3.1) fails as soon as an event can recur. The
//! paper points out that the property "has to be relaxed to handle
//! workflows with loops"; the standard compilation-friendly relaxation is
//! **bounded unrolling with occurrence renaming** — iteration `i` of event
//! `e` becomes the distinct event `e@i`, restoring uniqueness.
//!
//! [`unroll`] produces the unrolled goal; [`Unrolling`] maps constraints
//! written against base event names onto the renamed occurrences
//! (existential reading: *some* iteration's occurrence satisfies the
//! dependency), so the whole `Apply`/`Excise` pipeline applies unchanged.
//! For unbounded iteration, execute the recursive rules directly with
//! `ctr-engine` (whose rule bases accept recursion behind an opt-in and a
//! depth bound).

use ctr::constraints::Constraint;
use ctr::goal::{or, seq, Goal};
use ctr::symbol::{sym, Symbol};
use std::collections::BTreeMap;

/// The renamed event for iteration `i` (1-based) of `base`.
pub fn iteration_event(base: Symbol, i: usize) -> Symbol {
    sym(&format!("{base}@{i}"))
}

/// A bounded-loop unrolling: the goal plus the mapping from base events
/// to their per-iteration renamings.
#[derive(Clone, Debug)]
pub struct Unrolling {
    /// `body^min ⊗ (body^{min+1} ∨ …)` with renamed events.
    pub goal: Goal,
    /// base event → the renamed events of each unrolled iteration.
    pub occurrences: BTreeMap<Symbol, Vec<Symbol>>,
}

/// Unrolls `repeat body between min and max times` into a loop-free,
/// unique-event goal. Every propositional event `e` of the body becomes
/// `e@i` in iteration `i`.
///
/// # Panics
///
/// Panics if `min > max` or `max == 0`.
pub fn unroll(body: &Goal, min: usize, max: usize) -> Unrolling {
    assert!(min <= max, "min iterations must not exceed max");
    assert!(max > 0, "at least one unrolled iteration is required");

    let mut occurrences: BTreeMap<Symbol, Vec<Symbol>> = BTreeMap::new();
    // Conditions and first-order atoms are state queries, not events:
    // `substitute` offers only events, so they repeat freely.
    let iterations: Vec<Goal> = (1..=max)
        .map(|i| {
            body.substitute(!0, &mut |e| {
                let renamed = iteration_event(e, i);
                let list = occurrences.entry(e).or_default();
                if !list.contains(&renamed) {
                    list.push(renamed);
                }
                Some(Goal::atom(renamed))
            })
        })
        .collect();

    // mandatory prefix ⊗ optional nested suffix:
    // it₁ ⊗ … ⊗ it_min ⊗ (ε ∨ it_{min+1} ⊗ (ε ∨ …)).
    let mut optional = Goal::Empty;
    for it in iterations[min..].iter().rev() {
        optional = or(vec![Goal::Empty, seq(vec![it.clone(), optional])]);
    }
    let mut parts: Vec<Goal> = iterations[..min].to_vec();
    parts.push(optional);
    Unrolling {
        goal: seq(parts),
        occurrences,
    }
}

impl Unrolling {
    /// Lifts a constraint over base event names to the unrolled goal.
    ///
    /// Each `∇e` becomes `∨ᵢ ∇e@i` ("some iteration's occurrence"), and
    /// each `¬∇e` becomes `∧ᵢ ¬∇e@i` ("no iteration's occurrence") — the
    /// natural existential reading of dependencies over repeating events.
    /// Events not occurring in the loop body pass through unchanged.
    pub fn lift(&self, constraint: &Constraint) -> Constraint {
        match constraint {
            Constraint::Must(e) => match self.occurrences.get(e) {
                Some(renamed) => {
                    Constraint::or(renamed.iter().map(|&r| Constraint::Must(r)).collect())
                }
                None => constraint.clone(),
            },
            Constraint::MustNot(e) => match self.occurrences.get(e) {
                Some(renamed) => {
                    Constraint::and(renamed.iter().map(|&r| Constraint::MustNot(r)).collect())
                }
                None => constraint.clone(),
            },
            Constraint::Serial(_) => {
                // ∇e₁ ⊗ ∇e₂ over iterations: some pair of occurrences in
                // order. Split first (Prop 3.3), then lift each binary
                // order as the disjunction over occurrence pairs.
                let split = ctr::constraints::split_serials(constraint);
                match split {
                    Constraint::Serial(pair) => self.lift_order(pair[0], pair[1]),
                    other => self.lift(&other),
                }
            }
            Constraint::And(cs) => Constraint::and(cs.iter().map(|c| self.lift(c)).collect()),
            Constraint::Or(cs) => Constraint::or(cs.iter().map(|c| self.lift(c)).collect()),
            Constraint::Not(c) => Constraint::not(self.lift(c)),
        }
    }

    fn variants(&self, e: Symbol) -> Vec<Symbol> {
        self.occurrences.get(&e).cloned().unwrap_or_else(|| vec![e])
    }

    fn lift_order(&self, a: Symbol, b: Symbol) -> Constraint {
        let mut alternatives = Vec::new();
        for &ra in &self.variants(a) {
            for &rb in &self.variants(b) {
                if ra != rb {
                    alternatives.push(Constraint::Serial(vec![ra, rb]));
                }
            }
        }
        Constraint::or(alternatives)
    }

    /// Strips iteration suffixes from a trace, recovering base event
    /// names (`e@2` → `e`).
    pub fn debase(trace: &[Symbol]) -> Vec<Symbol> {
        trace
            .iter()
            .map(|s| {
                let name = s.as_str();
                match name.rsplit_once('@') {
                    Some((base, iter)) if iter.chars().all(|c| c.is_ascii_digit()) => sym(base),
                    _ => *s,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctr::analysis::compile;
    use ctr::goal::conc;
    use ctr::semantics::event_traces;
    use ctr::unique::is_unique_event;

    fn g(name: &str) -> Goal {
        Goal::atom(name)
    }

    #[test]
    fn unrolled_goal_is_unique_event() {
        let body = seq(vec![g("fetch"), or(vec![g("retry"), g("ok")])]);
        let u = unroll(&body, 1, 3);
        assert!(is_unique_event(&u.goal));
        assert_eq!(u.occurrences[&sym("fetch")].len(), 3);
    }

    #[test]
    fn iteration_counts_are_respected() {
        let u = unroll(&g("tick"), 1, 3);
        let traces = event_traces(&u.goal, 10_000).unwrap();
        let lengths: Vec<usize> = traces.iter().map(Vec::len).collect();
        assert_eq!(lengths, vec![1, 2, 3], "between 1 and 3 ticks");
        // And base names recover.
        for t in &traces {
            assert!(Unrolling::debase(t).iter().all(|&e| e == sym("tick")));
        }
    }

    #[test]
    fn zero_minimum_allows_empty_run() {
        let u = unroll(&g("tick"), 0, 2);
        let traces = event_traces(&u.goal, 10_000).unwrap();
        assert_eq!(
            traces.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn lifted_must_means_some_iteration() {
        let body = or(vec![g("pay_card"), g("pay_cash")]);
        let u = unroll(&body, 1, 2);
        let c = u.lift(&Constraint::must("pay_card"));
        let compiled = compile(&u.goal, &[c]).unwrap();
        let traces = event_traces(&compiled.goal, 10_000).unwrap();
        assert!(!traces.is_empty());
        for t in traces {
            assert!(
                t.iter().any(|s| s.as_str().starts_with("pay_card@")),
                "trace {t:?} lacks a card payment"
            );
        }
    }

    #[test]
    fn lifted_must_not_bans_every_iteration() {
        let body = or(vec![g("pay_card"), g("pay_cash")]);
        let u = unroll(&body, 1, 2);
        let c = u.lift(&Constraint::must_not("pay_card"));
        let compiled = compile(&u.goal, &[c]).unwrap();
        let traces = event_traces(&compiled.goal, 10_000).unwrap();
        assert!(!traces.is_empty());
        for t in traces {
            assert!(t.iter().all(|s| !s.as_str().starts_with("pay_card@")));
        }
    }

    #[test]
    fn lifted_order_spans_iterations() {
        // In each iteration a and b run concurrently; require some a
        // before some b overall.
        let body = conc(vec![g("a"), g("b")]);
        let u = unroll(&body, 2, 2);
        let c = u.lift(&Constraint::order("a", "b"));
        let compiled = compile(&u.goal, &[c]).unwrap();
        assert!(compiled.is_consistent());
        let traces = event_traces(&compiled.goal, 100_000).unwrap();
        for t in &traces {
            let first_a = t.iter().position(|s| s.as_str().starts_with("a@"));
            let last_b = t.iter().rposition(|s| s.as_str().starts_with("b@"));
            assert!(first_a.unwrap() < last_b.unwrap(), "trace {t:?}");
        }
    }

    #[test]
    fn constraints_on_non_loop_events_pass_through() {
        let u = unroll(&g("tick"), 1, 2);
        let c = u.lift(&Constraint::must("outside"));
        assert_eq!(c, Constraint::must("outside"));
    }

    #[test]
    #[should_panic(expected = "min iterations")]
    fn inverted_bounds_panic() {
        unroll(&g("x"), 3, 2);
    }

    #[test]
    fn debase_ignores_literal_at_signs_in_names() {
        let t = vec![sym("tick@2"), sym("plain"), sym("odd@name")];
        assert_eq!(
            Unrolling::debase(&t),
            vec![sym("tick"), sym("plain"), sym("odd@name")]
        );
    }
}
