//! Concurrent-Horn rules and rule bases.
//!
//! A concurrent-Horn rule `head ← body` names a procedure: "one way to
//! execute `head` is to execute `body`" (paper, §2). In workflow terms the
//! rules define **sub-workflows**: `subWorkFlowName ← subWorkFlowDefinition`
//! lets a composite activity appear in specifications as if it were a
//! regular activity, hiding its structure.
//!
//! The paper restricts attention to *non-iterative* workflows — no
//! recursive rules (§2); loops are future work (§7). [`RuleBase`] enforces
//! this by default and offers an opt-in for bounded recursion, which the
//! interpreter guards with a depth limit.

use ctr::goal::Goal;
use ctr::symbol::Symbol;
use ctr::term::Atom;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A concurrent-Horn rule `head ← body`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// The head atom; its variables are the formal parameters.
    pub head: Atom,
    /// The body, a concurrent-Horn goal.
    pub body: Goal,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <- {}", self.head, self.body)
    }
}

/// Errors when assembling a rule base.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuleError {
    /// The rule set is recursive (directly or mutually) on the named
    /// predicate, which non-iterative workflows forbid.
    Recursive(Symbol),
    /// A rule head is negated, which is not Horn.
    NegatedHead(Symbol),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::Recursive(p) => write!(
                f,
                "rule predicate `{p}` is (mutually) recursive; non-iterative workflows \
                 require acyclic sub-workflow definitions (enable bounded recursion to allow)"
            ),
            RuleError::NegatedHead(p) => write!(f, "rule head `{p}` must not be negated"),
        }
    }
}

impl std::error::Error for RuleError {}

/// A set of concurrent-Horn rules indexed by head predicate.
#[derive(Clone, Debug, Default)]
pub struct RuleBase {
    rules: BTreeMap<Symbol, Vec<Rule>>,
    allow_recursion: bool,
}

impl RuleBase {
    /// An empty rule base (recursion disallowed, per the paper's
    /// non-iterative restriction).
    pub fn new() -> RuleBase {
        RuleBase::default()
    }

    /// Opts in to recursive rules — the §7 "loops and iteration"
    /// extension. The interpreter bounds unfolding depth at run time.
    pub fn allow_recursion(&mut self) -> &mut Self {
        self.allow_recursion = true;
        self
    }

    /// True if recursion has been enabled.
    pub fn recursion_allowed(&self) -> bool {
        self.allow_recursion
    }

    /// Adds a rule, revalidating acyclicity unless recursion is enabled.
    pub fn add(&mut self, rule: Rule) -> Result<&mut Self, RuleError> {
        if rule.head.negated {
            return Err(RuleError::NegatedHead(rule.head.pred));
        }
        let pred = rule.head.pred;
        self.rules.entry(pred).or_default().push(rule);
        if !self.allow_recursion {
            if let Some(offender) = self.find_cycle() {
                // Roll the insertion back so the base stays valid.
                let list = self.rules.get_mut(&pred).expect("just inserted");
                list.pop();
                if list.is_empty() {
                    self.rules.remove(&pred);
                }
                return Err(RuleError::Recursive(offender));
            }
        }
        Ok(self)
    }

    /// Convenience: defines a propositional sub-workflow.
    pub fn define(&mut self, name: impl Into<Symbol>, body: Goal) -> Result<&mut Self, RuleError> {
        self.add(Rule {
            head: Atom::prop(name),
            body,
        })
    }

    /// The rules whose head predicate is `pred`.
    pub fn rules_for(&self, pred: Symbol) -> &[Rule] {
        self.rules.get(&pred).map_or(&[], Vec::as_slice)
    }

    /// True if any rule defines `pred`.
    pub fn defines(&self, pred: Symbol) -> bool {
        self.rules.contains_key(&pred)
    }

    /// All defined predicates.
    pub fn predicates(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.rules.keys().copied()
    }

    /// Total number of rules.
    pub fn len(&self) -> usize {
        self.rules.values().map(Vec::len).sum()
    }

    /// True if no rules are defined.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Returns a predicate on a definition cycle, if one exists.
    fn find_cycle(&self) -> Option<Symbol> {
        // DFS over the call graph: defined predicate → defined predicates
        // mentioned in its bodies.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let preds: Vec<Symbol> = self.rules.keys().copied().collect();
        let mut marks: BTreeMap<Symbol, Mark> = preds.iter().map(|&p| (p, Mark::White)).collect();

        fn callees(rules: &BTreeMap<Symbol, Vec<Rule>>, pred: Symbol) -> BTreeSet<Symbol> {
            let mut out = BTreeSet::new();
            if let Some(rs) = rules.get(&pred) {
                for r in rs {
                    r.body.for_each_atom(&mut |a| {
                        out.insert(a.pred);
                    });
                }
            }
            out.retain(|p| rules.contains_key(p));
            out
        }

        fn visit(
            rules: &BTreeMap<Symbol, Vec<Rule>>,
            marks: &mut BTreeMap<Symbol, Mark>,
            pred: Symbol,
        ) -> Option<Symbol> {
            match marks[&pred] {
                Mark::Black => return None,
                Mark::Grey => return Some(pred),
                Mark::White => {}
            }
            marks.insert(pred, Mark::Grey);
            for callee in callees(rules, pred) {
                if let Some(offender) = visit(rules, marks, callee) {
                    return Some(offender);
                }
            }
            marks.insert(pred, Mark::Black);
            None
        }

        for p in preds {
            if let Some(offender) = visit(&self.rules, &mut marks, p) {
                return Some(offender);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctr::goal::{or, seq};
    use ctr::symbol::sym;

    fn g(name: &str) -> Goal {
        Goal::atom(name)
    }

    #[test]
    fn define_and_lookup() {
        let mut rb = RuleBase::new();
        rb.define("ship", seq(vec![g("pack"), g("post")])).unwrap();
        assert!(rb.defines(sym("ship")));
        assert_eq!(rb.rules_for(sym("ship")).len(), 1);
        assert_eq!(rb.len(), 1);
    }

    #[test]
    fn multiple_rules_per_predicate() {
        let mut rb = RuleBase::new();
        rb.define("deliver", g("courier")).unwrap();
        rb.define("deliver", g("mail")).unwrap();
        assert_eq!(rb.rules_for(sym("deliver")).len(), 2);
    }

    #[test]
    fn direct_recursion_is_rejected() {
        let mut rb = RuleBase::new();
        let err = rb
            .define("loop", seq(vec![g("work"), g("loop")]))
            .unwrap_err();
        assert_eq!(err, RuleError::Recursive(sym("loop")));
        assert!(!rb.defines(sym("loop")), "rejected rule is rolled back");
    }

    #[test]
    fn mutual_recursion_is_rejected() {
        let mut rb = RuleBase::new();
        rb.define("ping", g("pong")).unwrap();
        let err = rb.define("pong", g("ping")).unwrap_err();
        assert!(matches!(err, RuleError::Recursive(_)));
        assert!(rb.defines(sym("ping")), "earlier valid rule survives");
        assert!(!rb.defines(sym("pong")));
    }

    #[test]
    fn recursion_opt_in() {
        let mut rb = RuleBase::new();
        rb.allow_recursion();
        rb.define(
            "loop",
            or(vec![Goal::Empty, seq(vec![g("work"), g("loop")])]),
        )
        .unwrap();
        assert!(rb.defines(sym("loop")));
    }

    #[test]
    fn negated_head_is_rejected() {
        let mut rb = RuleBase::new();
        let err = rb
            .add(Rule {
                head: Atom::prop("p").negate(),
                body: g("q"),
            })
            .unwrap_err();
        assert_eq!(err, RuleError::NegatedHead(sym("p")));
    }

    #[test]
    fn display_rule() {
        let r = Rule {
            head: Atom::prop("ship"),
            body: seq(vec![g("pack"), g("post")]),
        };
        assert_eq!(r.to_string(), "ship <- pack * post");
    }
}
