//! The temporal constraint algebra `CONSTR` (paper, §3).
//!
//! `CONSTR` is as expressive as Singh's event algebra and covers Klein's
//! constraints. Its building blocks are formulas `∇e ≡ path ⊗ e ⊗ path`
//! over significant events `e`:
//!
//! * primitive constraints `∇e` ("e must happen") and `¬∇e` ("e must not
//!   happen");
//! * serial constraints `∇e₁ ⊗ ⋯ ⊗ ∇eₙ` over positive primitives;
//! * `∧` and `∨` combinations.
//!
//! The algebra is closed under negation (Lemma 3.4): negation is pushed
//! down with De Morgan's laws, and the negation of a binary serial
//! constraint unfolds to `¬∇e₁ ∨ ¬∇e₂ ∨ (∇e₂ ⊗ ∇e₁)`. Serial constraints
//! split into binary *order constraints* (Proposition 3.3), and every
//! constraint normalizes to `∨ᵢ ∧ⱼ basicᵢⱼ` where each basic is a
//! primitive or an order constraint (Corollary 3.5). The `Apply`
//! compilation consumes that normal form.

use crate::symbol::Symbol;
use std::fmt;

/// A constraint in the algebra `CONSTR`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// `∇e`: event `e` must happen.
    Must(Symbol),
    /// `¬∇e`: event `e` must not happen.
    MustNot(Symbol),
    /// `∇e₁ ⊗ ⋯ ⊗ ∇eₙ` (n ≥ 2): all must happen, in this order.
    Serial(Vec<Symbol>),
    /// Conjunction: all must hold on the execution.
    And(Vec<Constraint>),
    /// Disjunction: at least one must hold.
    Or(Vec<Constraint>),
    /// Negation; `CONSTR` is closed under it (Lemma 3.4).
    Not(Box<Constraint>),
}

impl Constraint {
    /// `∇e`.
    pub fn must(e: impl Into<Symbol>) -> Constraint {
        Constraint::Must(e.into())
    }

    /// `¬∇e`.
    pub fn must_not(e: impl Into<Symbol>) -> Constraint {
        Constraint::MustNot(e.into())
    }

    /// The order constraint `∇a ⊗ ∇b`: both occur, `a` before `b`. Note
    /// this is *stronger* than Klein's order constraint, which is
    /// conditional on both events occurring (see [`Constraint::klein_order`]).
    pub fn order(a: impl Into<Symbol>, b: impl Into<Symbol>) -> Constraint {
        Constraint::Serial(vec![a.into(), b.into()])
    }

    /// A serial constraint `∇e₁ ⊗ ⋯ ⊗ ∇eₙ`. Lengths 0/1 collapse to the
    /// equivalent trivial/primitive forms.
    pub fn serial(events: Vec<Symbol>) -> Constraint {
        match events.len() {
            0 => Constraint::And(Vec::new()), // vacuously true
            1 => Constraint::Must(events[0]),
            _ => Constraint::Serial(events),
        }
    }

    /// Conjunction.
    pub fn and(cs: Vec<Constraint>) -> Constraint {
        let mut out = Vec::with_capacity(cs.len());
        for c in cs {
            match c {
                Constraint::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        if out.len() == 1 {
            out.pop().expect("len checked")
        } else {
            Constraint::And(out)
        }
    }

    /// Disjunction.
    pub fn or(cs: Vec<Constraint>) -> Constraint {
        let mut out = Vec::with_capacity(cs.len());
        for c in cs {
            match c {
                Constraint::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        if out.len() == 1 {
            out.pop().expect("len checked")
        } else {
            Constraint::Or(out)
        }
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(c: Constraint) -> Constraint {
        Constraint::Not(Box::new(c))
    }

    /// Material implication `c₁ ⇒ c₂ ≡ ¬c₁ ∨ c₂`.
    pub fn implies(premise: Constraint, conclusion: Constraint) -> Constraint {
        Constraint::or(vec![Constraint::not(premise), conclusion])
    }

    // --- The idioms catalogued in §3 -------------------------------------

    /// `∇e ∧ ∇f` — both events must occur, in some order.
    pub fn both(e: impl Into<Symbol>, f: impl Into<Symbol>) -> Constraint {
        Constraint::and(vec![Constraint::must(e), Constraint::must(f)])
    }

    /// `¬∇e ∨ ¬∇f` — `e` and `f` cannot both happen.
    pub fn mutually_exclusive(e: impl Into<Symbol>, f: impl Into<Symbol>) -> Constraint {
        Constraint::or(vec![Constraint::must_not(e), Constraint::must_not(f)])
    }

    /// `¬∇e ∨ (∇e ⊗ ∇f)` — if `e` occurs, `f` must occur later.
    pub fn causes_later(e: impl Into<Symbol>, f: impl Into<Symbol>) -> Constraint {
        let (e, f) = (e.into(), f.into());
        Constraint::or(vec![Constraint::must_not(e), Constraint::order(e, f)])
    }

    /// `¬∇f ∨ (∇e ⊗ ∇f)` — if `f` occurred, `e` must have occurred before.
    pub fn requires_earlier(e: impl Into<Symbol>, f: impl Into<Symbol>) -> Constraint {
        let (e, f) = (e.into(), f.into());
        Constraint::or(vec![Constraint::must_not(f), Constraint::order(e, f)])
    }

    /// Klein's order constraint `¬∇e ∨ ¬∇f ∨ (∇e ⊗ ∇f)` — if both occur,
    /// `e` comes first.
    pub fn klein_order(e: impl Into<Symbol>, f: impl Into<Symbol>) -> Constraint {
        let (e, f) = (e.into(), f.into());
        Constraint::or(vec![
            Constraint::must_not(e),
            Constraint::must_not(f),
            Constraint::order(e, f),
        ])
    }

    /// Klein's existence constraint `¬∇e ∨ ∇f` — if `e` occurs, so does
    /// `f` (before or after).
    pub fn klein_exists(e: impl Into<Symbol>, f: impl Into<Symbol>) -> Constraint {
        Constraint::or(vec![Constraint::must_not(e), Constraint::must(f)])
    }

    /// Every event symbol mentioned by the constraint.
    pub fn events(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.collect_events(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_events(&self, out: &mut Vec<Symbol>) {
        match self {
            Constraint::Must(e) | Constraint::MustNot(e) => out.push(*e),
            Constraint::Serial(es) => out.extend(es.iter().copied()),
            Constraint::And(cs) | Constraint::Or(cs) => {
                for c in cs {
                    c.collect_events(out);
                }
            }
            Constraint::Not(c) => c.collect_events(out),
        }
    }

    /// Number of connective/primitive nodes — the constraint-size measure.
    pub fn size(&self) -> usize {
        match self {
            Constraint::Must(_) | Constraint::MustNot(_) => 1,
            Constraint::Serial(es) => es.len(),
            Constraint::And(cs) | Constraint::Or(cs) => {
                1 + cs.iter().map(Constraint::size).sum::<usize>()
            }
            Constraint::Not(c) => 1 + c.size(),
        }
    }

    /// Normalizes to the disjunctive normal form of Corollary 3.5.
    pub fn normalize(&self) -> NormalForm {
        normalize(self)
    }

    /// True if the constraint is an *existence* constraint — built from
    /// primitives with `∧`/`∨` only (footnote 5). The NP-hardness of
    /// Proposition 4.1 already holds for this subset.
    pub fn is_existence(&self) -> bool {
        match self {
            Constraint::Must(_) | Constraint::MustNot(_) => true,
            Constraint::Serial(_) => false,
            Constraint::And(cs) | Constraint::Or(cs) => cs.iter().all(Constraint::is_existence),
            Constraint::Not(c) => c.is_existence(),
        }
    }

    /// True if the constraint is an *order* constraint — no `∨` anywhere
    /// (footnote 6) and negation-free. For this subset the consistency
    /// problem is polynomial.
    pub fn is_order_only(&self) -> bool {
        match self {
            Constraint::Must(_) | Constraint::MustNot(_) | Constraint::Serial(_) => true,
            Constraint::And(cs) => cs.iter().all(Constraint::is_order_only),
            Constraint::Or(_) | Constraint::Not(_) => false,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write(c: &Constraint, parent_prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            // or=0 < and=1 < atoms
            let p = match c {
                Constraint::Or(_) => 0,
                Constraint::And(_) => 1,
                _ => 2,
            };
            let parens = p < 2 && p < parent_prec;
            if parens {
                write!(f, "(")?;
            }
            match c {
                Constraint::Must(e) => write!(f, "exists({e})")?,
                Constraint::MustNot(e) => write!(f, "absent({e})")?,
                Constraint::Serial(es) => {
                    write!(f, "serial(")?;
                    for (i, e) in es.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{e}")?;
                    }
                    write!(f, ")")?;
                }
                Constraint::And(cs) => {
                    if cs.is_empty() {
                        write!(f, "true")?;
                    }
                    for (i, c) in cs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " and ")?;
                        }
                        write(c, p, f)?;
                    }
                }
                Constraint::Or(cs) => {
                    if cs.is_empty() {
                        write!(f, "false")?;
                    }
                    for (i, c) in cs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " or ")?;
                        }
                        write(c, p, f)?;
                    }
                }
                Constraint::Not(c) => {
                    write!(f, "not(")?;
                    write(c, 0, f)?;
                    write!(f, ")")?;
                }
            }
            if parens {
                write!(f, ")")?;
            }
            Ok(())
        }
        write(self, 0, f)
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

// ---------------------------------------------------------------------------
// Normal form (Corollary 3.5)
// ---------------------------------------------------------------------------

/// A basic constraint of the normal form: a primitive, or an order
/// constraint over two positive primitives.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Basic {
    /// `∇e`.
    Must(Symbol),
    /// `¬∇e`.
    MustNot(Symbol),
    /// `∇a ⊗ ∇b`.
    Order(Symbol, Symbol),
}

impl fmt::Display for Basic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Basic::Must(e) => write!(f, "exists({e})"),
            Basic::MustNot(e) => write!(f, "absent({e})"),
            Basic::Order(a, b) => write!(f, "before({a}, {b})"),
        }
    }
}

impl fmt::Debug for Basic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A conjunction of basics — one `∧ⱼ serialᵢⱼ` block of the normal form.
pub type Conjunct = Vec<Basic>;

/// The normal form `∨ᵢ ∧ⱼ basicᵢⱼ` of Corollary 3.5.
///
/// The number of disjuncts is the `d` of Theorem 5.11: `Apply` multiplies
/// the goal by at most `d` per constraint.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct NormalForm {
    /// The disjuncts; an execution satisfies the constraint iff it
    /// satisfies every basic of at least one disjunct. An empty disjunct
    /// list denotes the unsatisfiable constraint; a list containing an
    /// empty conjunct denotes the trivially true one.
    pub disjuncts: Vec<Conjunct>,
}

impl NormalForm {
    /// The trivially true constraint.
    pub fn trivial() -> NormalForm {
        NormalForm {
            disjuncts: vec![Vec::new()],
        }
    }

    /// The unsatisfiable constraint.
    pub fn unsat() -> NormalForm {
        NormalForm {
            disjuncts: Vec::new(),
        }
    }

    /// The `d` of Theorem 5.11 for this constraint.
    pub fn disjunct_count(&self) -> usize {
        self.disjuncts.len()
    }

    /// Reconstructs an equivalent [`Constraint`] from the normal form.
    pub fn to_constraint(&self) -> Constraint {
        Constraint::or(
            self.disjuncts
                .iter()
                .map(|conj| {
                    Constraint::and(
                        conj.iter()
                            .map(|b| match *b {
                                Basic::Must(e) => Constraint::Must(e),
                                Basic::MustNot(e) => Constraint::MustNot(e),
                                Basic::Order(a, bb) => Constraint::Serial(vec![a, bb]),
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    }
}

/// Pushes negation down to primitives (Lemma 3.4). The result contains no
/// `Not` nodes.
pub fn push_negation(c: &Constraint) -> Constraint {
    fn pos(c: &Constraint) -> Constraint {
        match c {
            Constraint::Must(_) | Constraint::MustNot(_) | Constraint::Serial(_) => c.clone(),
            Constraint::And(cs) => Constraint::and(cs.iter().map(pos).collect()),
            Constraint::Or(cs) => Constraint::or(cs.iter().map(pos).collect()),
            Constraint::Not(inner) => neg(inner),
        }
    }
    fn neg(c: &Constraint) -> Constraint {
        match c {
            Constraint::Must(e) => Constraint::MustNot(*e),
            Constraint::MustNot(e) => Constraint::Must(*e),
            // De Morgan (valid in CTR, Lemma 3.4).
            Constraint::And(cs) => Constraint::or(cs.iter().map(neg).collect()),
            Constraint::Or(cs) => Constraint::and(cs.iter().map(neg).collect()),
            Constraint::Not(inner) => pos(inner),
            Constraint::Serial(es) => {
                // Split first (Prop 3.3): ∇e₁⊗⋯⊗∇eₙ ≡ ∧ᵢ (∇eᵢ ⊗ ∇eᵢ₊₁),
                // then negate the conjunction; the negation of a binary
                // order constraint is ¬∇a ∨ ¬∇b ∨ (∇b ⊗ ∇a) under the
                // unique-event assumptions (2). Under them ∇a ⊗ ∇a is
                // false, so its negation is true — not the ¬∇a the unfolding
                // would leave once normalization drops the false ∇a ⊗ ∇a.
                let pairs: Vec<Constraint> = es
                    .windows(2)
                    .map(|w| {
                        if w[0] == w[1] {
                            return Constraint::and(Vec::new());
                        }
                        Constraint::or(vec![
                            Constraint::MustNot(w[0]),
                            Constraint::MustNot(w[1]),
                            Constraint::Serial(vec![w[1], w[0]]),
                        ])
                    })
                    .collect();
                Constraint::or(pairs)
            }
        }
    }
    pos(c)
}

/// Splits serial constraints into binary order constraints
/// (Proposition 3.3): `∇e₁ ⊗ ∇e₂ ⊗ s ≡ (∇e₁ ⊗ ∇e₂) ∧ (∇e₂ ⊗ s)`.
/// Requires a negation-free constraint (run [`push_negation`] first).
pub fn split_serials(c: &Constraint) -> Constraint {
    match c {
        Constraint::Must(_) | Constraint::MustNot(_) => c.clone(),
        Constraint::Serial(es) => {
            if es.len() <= 2 {
                c.clone()
            } else {
                Constraint::and(
                    es.windows(2)
                        .map(|w| Constraint::Serial(vec![w[0], w[1]]))
                        .collect(),
                )
            }
        }
        Constraint::And(cs) => Constraint::and(cs.iter().map(split_serials).collect()),
        Constraint::Or(cs) => Constraint::or(cs.iter().map(split_serials).collect()),
        Constraint::Not(_) => unreachable!("split_serials requires negation-free input"),
    }
}

/// Computes the normal form of Corollary 3.5: negation pushed in, serial
/// constraints split, and the result distributed into `∨ᵢ ∧ⱼ basicᵢⱼ`.
///
/// Disjuncts are deduplicated; a disjunct containing both `∇e` and `¬∇e`
/// is dropped as unsatisfiable, and `∇e` is absorbed by an order
/// constraint mentioning `e` in the same conjunct.
pub fn normalize(c: &Constraint) -> NormalForm {
    let flat = split_serials(&push_negation(c));

    fn dnf(c: &Constraint) -> Vec<Conjunct> {
        match c {
            Constraint::Must(e) => vec![vec![Basic::Must(*e)]],
            Constraint::MustNot(e) => vec![vec![Basic::MustNot(*e)]],
            Constraint::Serial(es) => {
                debug_assert_eq!(es.len(), 2, "serials were split");
                vec![vec![Basic::Order(es[0], es[1])]]
            }
            Constraint::Or(cs) => cs.iter().flat_map(dnf).collect(),
            Constraint::And(cs) => {
                let mut acc: Vec<Conjunct> = vec![Vec::new()];
                for child in cs {
                    let child_d = dnf(child);
                    let mut next = Vec::with_capacity(acc.len() * child_d.len());
                    for base in &acc {
                        for extension in &child_d {
                            let mut merged = base.clone();
                            merged.extend(extension.iter().copied());
                            next.push(merged);
                        }
                    }
                    acc = next;
                }
                acc
            }
            Constraint::Not(_) => unreachable!("negation was pushed in"),
        }
    }

    let mut disjuncts: Vec<Conjunct> = Vec::new();
    'outer: for mut conj in dnf(&flat) {
        conj.sort_unstable();
        conj.dedup();
        // Drop conjuncts with an internal contradiction, and `Must(e)`
        // entries subsumed by an order constraint on `e`.
        let mut keep: Vec<Basic> = Vec::with_capacity(conj.len());
        for b in &conj {
            match *b {
                Basic::Must(e) => {
                    let contradicted = conj
                        .iter()
                        .any(|o| matches!(o, Basic::MustNot(x) if *x == e));
                    if contradicted {
                        continue 'outer;
                    }
                    let subsumed = conj
                        .iter()
                        .any(|o| matches!(o, Basic::Order(a, bb) if *a == e || *bb == e));
                    if !subsumed {
                        keep.push(*b);
                    }
                }
                Basic::MustNot(e) => {
                    let contradicted = conj.iter().any(|o| {
                        matches!(o, Basic::Must(x) if *x == e)
                            || matches!(o, Basic::Order(a, bb) if *a == e || *bb == e)
                    });
                    if contradicted {
                        continue 'outer;
                    }
                    keep.push(*b);
                }
                Basic::Order(a, bb) => {
                    if a == bb {
                        // ∇a ⊗ ∇a needs a to occur twice: impossible for
                        // unique-event goals.
                        continue 'outer;
                    }
                    let reversed = conj
                        .iter()
                        .any(|o| matches!(o, Basic::Order(x, y) if *x == bb && *y == a));
                    if reversed {
                        continue 'outer;
                    }
                    keep.push(*b);
                }
            }
        }
        if !disjuncts.contains(&keep) {
            disjuncts.push(keep);
        }
    }
    NormalForm { disjuncts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    #[test]
    fn klein_order_normal_form_has_three_disjuncts() {
        let nf = Constraint::klein_order("e", "f").normalize();
        assert_eq!(nf.disjunct_count(), 3);
        assert!(nf.disjuncts.contains(&vec![Basic::MustNot(sym("e"))]));
        assert!(nf.disjuncts.contains(&vec![Basic::MustNot(sym("f"))]));
        assert!(nf
            .disjuncts
            .contains(&vec![Basic::Order(sym("e"), sym("f"))]));
    }

    #[test]
    fn double_negation_cancels() {
        let c = Constraint::not(Constraint::not(Constraint::must("e")));
        assert_eq!(push_negation(&c), Constraint::must("e"));
    }

    #[test]
    fn negated_order_unfolds_per_lemma_3_4() {
        // ¬(∇e₁ ⊗ ∇e₂) ≡ ¬∇e₁ ∨ ¬∇e₂ ∨ (∇e₂ ⊗ ∇e₁)
        let c = Constraint::not(Constraint::order("e1", "e2"));
        let nf = c.normalize();
        assert_eq!(nf.disjunct_count(), 3);
        assert!(nf
            .disjuncts
            .contains(&vec![Basic::Order(sym("e2"), sym("e1"))]));
    }

    #[test]
    fn serial_splits_into_adjacent_pairs() {
        let c = Constraint::serial(vec![sym("a"), sym("b"), sym("c"), sym("d")]);
        let split = split_serials(&c);
        assert_eq!(
            split,
            Constraint::And(vec![
                Constraint::Serial(vec![sym("a"), sym("b")]),
                Constraint::Serial(vec![sym("b"), sym("c")]),
                Constraint::Serial(vec![sym("c"), sym("d")]),
            ])
        );
    }

    #[test]
    fn negated_long_serial_is_in_constr() {
        // ¬(∇e ⊗ ∇f ⊗ ∇g): "if e then f happens, g cannot happen later".
        let c = Constraint::not(Constraint::serial(vec![sym("e"), sym("f"), sym("g")]));
        let nf = c.normalize();
        // ¬((e<f) ∧ (f<g)) = ¬(e<f) ∨ ¬(f<g) → 3 + 3 disjuncts, of which
        // `absent(f)` appears in both and is deduplicated.
        assert_eq!(nf.disjunct_count(), 5);
    }

    #[test]
    fn contradictory_conjunct_is_pruned() {
        let c = Constraint::and(vec![Constraint::must("e"), Constraint::must_not("e")]);
        assert_eq!(c.normalize(), NormalForm::unsat());
    }

    #[test]
    fn must_subsumed_by_order_is_dropped() {
        let c = Constraint::and(vec![Constraint::must("a"), Constraint::order("a", "b")]);
        let nf = c.normalize();
        assert_eq!(nf.disjuncts, vec![vec![Basic::Order(sym("a"), sym("b"))]]);
    }

    #[test]
    fn mustnot_contradicts_order_on_same_event() {
        let c = Constraint::and(vec![Constraint::must_not("a"), Constraint::order("a", "b")]);
        assert_eq!(c.normalize(), NormalForm::unsat());
    }

    #[test]
    fn opposite_orders_are_unsat() {
        let c = Constraint::and(vec![
            Constraint::order("a", "b"),
            Constraint::order("b", "a"),
        ]);
        assert_eq!(c.normalize(), NormalForm::unsat());
    }

    #[test]
    fn reflexive_order_is_unsat() {
        assert_eq!(Constraint::order("a", "a").normalize(), NormalForm::unsat());
    }

    #[test]
    fn negated_reflexive_order_is_trivial() {
        // ¬(∇a ⊗ ∇a) holds on every unique-event execution; it used to
        // normalize to ¬∇a.
        let negated = Constraint::not(Constraint::order("a", "a"));
        assert_eq!(negated.normalize(), NormalForm::trivial());
        // A serial with one repeated step is false, and its negation true.
        let serial = Constraint::serial(vec![sym("a"), sym("a"), sym("b")]);
        let nf = Constraint::not(serial).normalize();
        assert!(nf.disjuncts.contains(&Vec::new()), "{nf:?}");
    }

    #[test]
    fn implies_is_not_or() {
        let c = Constraint::implies(Constraint::must("e"), Constraint::must("f"));
        let nf = c.normalize();
        assert_eq!(nf.disjunct_count(), 2);
        assert!(nf.disjuncts.contains(&vec![Basic::MustNot(sym("e"))]));
        assert!(nf.disjuncts.contains(&vec![Basic::Must(sym("f"))]));
    }

    #[test]
    fn normal_form_round_trips_through_constraint() {
        let c = Constraint::klein_order("x", "y");
        let nf = c.normalize();
        assert_eq!(nf.to_constraint().normalize(), nf);
    }

    #[test]
    fn existence_and_order_classification() {
        assert!(Constraint::klein_exists("a", "b").is_existence());
        assert!(!Constraint::klein_order("a", "b").is_existence());
        assert!(Constraint::order("a", "b").is_order_only());
        assert!(
            Constraint::and(vec![Constraint::order("a", "b"), Constraint::must("c")])
                .is_order_only()
        );
        assert!(!Constraint::klein_order("a", "b").is_order_only());
    }

    #[test]
    fn trivial_and_unsat_forms() {
        assert_eq!(
            Constraint::serial(vec![]).normalize(),
            NormalForm::trivial()
        );
        assert_eq!(NormalForm::trivial().disjunct_count(), 1);
        assert_eq!(NormalForm::unsat().disjunct_count(), 0);
    }

    #[test]
    fn events_are_collected_and_deduped() {
        let c = Constraint::klein_order("a", "b");
        assert_eq!(c.events(), vec![sym("a"), sym("b")]);
    }

    #[test]
    fn display_is_readable() {
        let c = Constraint::klein_exists("e", "f");
        assert_eq!(c.to_string(), "absent(e) or exists(f)");
        let k = Constraint::klein_order("e", "f");
        assert_eq!(k.to_string(), "absent(e) or absent(f) or serial(e, f)");
    }

    #[test]
    fn duplicate_disjuncts_are_removed() {
        let c = Constraint::or(vec![Constraint::must("e"), Constraint::must("e")]);
        assert_eq!(c.normalize().disjunct_count(), 1);
    }
}
