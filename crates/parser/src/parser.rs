//! Recursive-descent parser for goals, constraints, and whole workflow
//! specifications.
//!
//! # Goal grammar
//!
//! ```text
//! goal    := conc ('+' conc)*                 // ∨, loosest
//! conc    := serial ('#' serial)*             // |
//! serial  := unary ('*' unary)*               // ⊗, tightest connective
//! unary   := 'iso' '(' goal ')' | 'poss' '(' goal ')'
//!          | 'empty' | 'nopath' | '(' goal ')' | atom
//! atom    := ['!'] ident [ '(' term (',' term)* ')' ]
//! term    := INT | ident [ '(' term (',' term)* ')' ]    // Capitalized ident = variable
//! ```
//!
//! # Constraint grammar (the algebra `CONSTR` of §3)
//!
//! ```text
//! constr  := cand ('or' cand)* [ 'implies' constr ]
//! cand    := cprim ('and' cprim)*
//! cprim   := 'exists' '(' e ')' | 'absent' '(' e ')'
//!          | 'serial' '(' e (',' e)+ ')' | 'before' '(' a ',' b ')'
//!          | 'klein_order' '(' a ',' b ')' | 'klein_exists' '(' a ',' b ')'
//!          | 'causes' '(' a ',' b ')' | 'requires' '(' a ',' b ')'
//!          | 'not' '(' constr ')' | '(' constr ')'
//! ```
//!
//! # Specification grammar
//!
//! ```text
//! spec    := 'workflow' ident '{' item* '}'
//! item    := 'graph' goal ';'
//!          | 'define' ident ':=' goal ';'
//!          | 'constraint' constr ';'
//!          | 'trigger' 'on' ident ['if' atom] 'do' goal ['eventually'] ';'
//!          | ('after' | 'deadline' | 'every') '(' ident ',' duration ')' ';'
//! duration := INT ('ms' | 's' | 'm' | 'h')
//! ```
//!
//! # What a parse allocates
//!
//! Little beyond what it builds. Tokens borrow their text from the
//! source and are copied, never cloned; a name is interned straight from
//! that borrowed text, and interning a name already known allocates
//! nothing. A grammar level with one part returns that part as it is;
//! one with several gathers them on a stack the parse reuses and hands
//! them to `seq`/`conc`/`or` (or `Constraint::and`/`or`) in one
//! exact-size vector, which becomes the node's child list. What is left
//! is the token vector and per node of the result its own allocations
//! (`crates/parser/tests/parse_allocs.rs` counts them).

use crate::lexer::{lex, LexError, Token, TokenKind};
use ctr::constraints::Constraint;
use ctr::goal::{conc, isolated, or, possible, seq, Goal};
use ctr::symbol::{sym, Symbol};
use ctr::term::{Atom, Term, Var};
use ctr_workflow::{TimerSpec, Trigger, TriggerSemantics, WorkflowSpec};
use std::collections::BTreeMap;
use std::fmt;

/// A parse error with source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}:{}", self.message, self.line, self.col)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            message: format!("unexpected character `{}`", e.found),
            line: e.line,
            col: e.col,
        }
    }
}

/// The most goals, constraints or terms that may be open inside each other
/// at any point of the input. The parser recurses once per level, and so
/// does every later pass over what it built (lowering, the unique-event
/// check, `Apply`, `Excise`, program compilation, `Drop`), on whatever
/// stack the caller happens to have — 2 MiB on a server's connection
/// thread or a test's. An overflow there aborts the process, which no
/// caller can catch; this bound is what turns hostile nesting into an
/// error instead.
///
/// One level of text can be four of the tree (`a + b # c * iso(…)`), and
/// `Apply`, the heaviest pass, overflows 2 MiB between 920 and 1 020 tree
/// levels unoptimized (between 2 050 and 4 100 optimized; this parser
/// between 255 and 300 of its own levels unoptimized): 128 leaves the
/// slowest build a factor of 1.8. Hand-written specifications nest two
/// or three deep.
const MAX_NESTING: usize = 128;

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Variable-name → index mapping, scoped per top-level parse.
    vars: BTreeMap<&'a str, Var>,
    /// The parts of every goal level with more than one, gathered here
    /// and handed to `seq`/`conc`/`or` in one exact-size vector.
    goals: Vec<Goal>,
    /// The same for the `and`/`or` levels of constraints.
    constraints: Vec<Constraint>,
    /// The events of the constraint form being read.
    events: Vec<Symbol>,
    /// Goals, constraints and terms currently open around the cursor.
    depth: usize,
    /// The most that were open at once since the counter was last reset
    /// (see the `repeat` form, which nests what it unrolls).
    deepest: usize,
}

/// Which timer item keyword introduced the declaration.
#[derive(Clone, Copy)]
enum TimerForm {
    After,
    Deadline,
    Every,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Result<Parser<'a>, ParseError> {
        Ok(Parser {
            tokens: lex(input)?,
            pos: 0,
            vars: BTreeMap::new(),
            goals: Vec::new(),
            constraints: Vec::new(),
            events: Vec::new(),
            depth: 0,
            deepest: 0,
        })
    }

    fn peek(&self) -> Token<'a> {
        self.tokens[self.pos]
    }

    fn advance(&mut self) -> Token<'a> {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError {
            message: message.into(),
            line: t.line,
            col: t.col,
        }
    }

    fn nesting_error(&self) -> ParseError {
        self.error(format!("nesting exceeds the limit of {MAX_NESTING} levels"))
    }

    /// Runs `parse` one nesting level down.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Parser<'a>) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.nesting_error());
        }
        self.depth += 1;
        self.deepest = self.deepest.max(self.depth);
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        if self.peek().kind == *kind {
            self.advance();
            Ok(())
        } else {
            Err(self.error(format!("expected {kind}, found {}", self.peek().kind)))
        }
    }

    fn eat_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.peek().kind {
            TokenKind::Ident(name) => {
                self.advance();
                Ok(name)
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    /// Consumes a `kind` token if it is next; returns whether it was.
    fn eat(&mut self, kind: TokenKind<'a>) -> bool {
        let next = self.peek().kind == kind;
        if next {
            self.advance();
        }
        next
    }

    /// Consumes the identifier `word` if it is next; returns whether it was.
    fn eat_keyword(&mut self, word: &str) -> bool {
        if matches!(self.peek().kind, TokenKind::Ident(name) if name == word) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    // --- Goals -----------------------------------------------------------

    fn goal(&mut self) -> Result<Goal, ParseError> {
        self.nested(|p| {
            p.level(
                |p| p.eat(TokenKind::Plus),
                Parser::conc_expr,
                |p| &mut p.goals,
                or,
            )
        })
    }

    fn conc_expr(&mut self) -> Result<Goal, ParseError> {
        self.level(
            |p| p.eat(TokenKind::Hash),
            Parser::serial_expr,
            |p| &mut p.goals,
            conc,
        )
    }

    fn serial_expr(&mut self) -> Result<Goal, ParseError> {
        self.level(
            |p| p.eat(TokenKind::Star),
            Parser::unary_expr,
            |p| &mut p.goals,
            seq,
        )
    }

    /// One level of the grammar: `part (sep part)*`, joined by `join`. A
    /// lone part is the level's value as it is; several are gathered on
    /// `stack`, above whatever enclosing levels left there, and handed to
    /// `join` in one exact-size vector.
    fn level<T>(
        &mut self,
        sep: impl Fn(&mut Parser<'a>) -> bool,
        part: impl Fn(&mut Parser<'a>) -> Result<T, ParseError>,
        stack: impl for<'p> Fn(&'p mut Parser<'a>) -> &'p mut Vec<T>,
        join: impl FnOnce(Vec<T>) -> T,
    ) -> Result<T, ParseError> {
        let first = part(self)?;
        if !sep(self) {
            return Ok(first);
        }
        let base = stack(self).len();
        stack(self).push(first);
        loop {
            let next = part(self)?;
            stack(self).push(next);
            if !sep(self) {
                break;
            }
        }
        Ok(join(stack(self).drain(base..).collect()))
    }

    fn unary_expr(&mut self) -> Result<Goal, ParseError> {
        match self.peek().kind {
            TokenKind::LParen => {
                self.advance();
                let g = self.goal()?;
                self.expect(&TokenKind::RParen)?;
                Ok(g)
            }
            TokenKind::Bang => {
                self.advance();
                let atom = self.atom()?;
                Ok(Goal::Atom(atom.negate()))
            }
            TokenKind::Ident(name) => match name {
                "iso" | "poss" => {
                    let wrapper = name;
                    self.advance();
                    self.expect(&TokenKind::LParen)?;
                    let g = self.goal()?;
                    self.expect(&TokenKind::RParen)?;
                    Ok(if wrapper == "iso" {
                        isolated(g)
                    } else {
                        possible(g)
                    })
                }
                // §7 iteration: `repeat(body, min, max)` unrolls the body
                // with per-iteration event renaming (see
                // `ctr_workflow::loops`). Constraints must reference the
                // renamed `event@i` occurrences or be lifted manually.
                "repeat" => {
                    self.advance();
                    self.expect(&TokenKind::LParen)?;
                    let around = std::mem::replace(&mut self.deepest, self.depth);
                    let body = self.goal()?;
                    self.expect(&TokenKind::Comma)?;
                    let min = self.eat_bound()?;
                    self.expect(&TokenKind::Comma)?;
                    let max = self.eat_bound()?;
                    self.expect(&TokenKind::RParen)?;
                    if min > max || max == 0 {
                        return Err(self.error(format!(
                            "repeat bounds must satisfy 0 <= min <= max and max > 0, got ({min}, {max})"
                        )));
                    }
                    // Each optional iteration holds the next one level
                    // further in, the body's own nesting at the bottom.
                    let unrolled = self.deepest.saturating_add(max - min);
                    if unrolled > MAX_NESTING {
                        return Err(self.nesting_error());
                    }
                    self.deepest = around.max(unrolled);
                    Ok(ctr_workflow::unroll(&body, min, max).goal)
                }
                // §7 failure semantics: `guarded(s₁ * s₂ * …)` inserts a
                // ◇-pre-flight check before every step.
                "guarded" => {
                    self.advance();
                    self.expect(&TokenKind::LParen)?;
                    let body = self.goal()?;
                    self.expect(&TokenKind::RParen)?;
                    let steps: Vec<Goal> = match body {
                        Goal::Seq(gs) => gs.to_vec(),
                        other => vec![other],
                    };
                    Ok(ctr_workflow::guarded_seq(&steps))
                }
                "empty" => {
                    self.advance();
                    Ok(Goal::Empty)
                }
                "nopath" => {
                    self.advance();
                    Ok(Goal::NoPath)
                }
                // Channel primitives in their Display form, so compiled
                // goals round-trip through text: `send(xi3)`,
                // `receive(xi3)`.
                "send" | "receive" => {
                    let which = name;
                    self.advance();
                    self.expect(&TokenKind::LParen)?;
                    let channel = match self.peek().kind {
                        TokenKind::Ident(arg) if arg.starts_with("xi") => {
                            arg["xi".len()..].parse::<u32>().ok()
                        }
                        _ => None,
                    };
                    let Some(n) = channel else {
                        return Err(self.error("expected a channel `xiN` in send/receive"));
                    };
                    self.advance();
                    self.expect(&TokenKind::RParen)?;
                    let ch = ctr::goal::Channel(n);
                    Ok(if which == "send" {
                        Goal::Send(ch)
                    } else {
                        Goal::Receive(ch)
                    })
                }
                _ => Ok(Goal::Atom(self.atom()?)),
            },
            other => Err(self.error(format!("expected a goal, found {other}"))),
        }
    }

    fn eat_bound(&mut self) -> Result<usize, ParseError> {
        match self.peek().kind {
            TokenKind::Int(n) if n >= 0 => {
                let n = n as usize;
                self.advance();
                Ok(n)
            }
            other => Err(self.error(format!("expected a non-negative bound, found {other}"))),
        }
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let name = self.eat_ident()?;
        if name.starts_with(|c: char| c.is_ascii_uppercase()) {
            return Err(self.error(format!(
                "`{name}` is a variable; predicate names must start lowercase"
            )));
        }
        let mut args = Vec::new();
        if self.eat(TokenKind::LParen) {
            loop {
                args.push(self.term()?);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        Ok(Atom::new(sym(name), args))
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        self.nested(Parser::term_open)
    }

    fn term_open(&mut self) -> Result<Term, ParseError> {
        match self.peek().kind {
            TokenKind::Int(n) => {
                self.advance();
                Ok(Term::Int(n))
            }
            TokenKind::Ident(name) => {
                self.advance();
                if name.starts_with(|c: char| c.is_ascii_uppercase()) {
                    let next = Var(self.vars.len() as u32);
                    let v = *self.vars.entry(name).or_insert(next);
                    return Ok(Term::Var(v));
                }
                if self.eat(TokenKind::LParen) {
                    let mut args = Vec::new();
                    loop {
                        args.push(self.term()?);
                        if !self.eat(TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    // At least one argument: a compound, not a constant.
                    Ok(Term::Compound(sym(name), args))
                } else {
                    Ok(Term::Const(sym(name)))
                }
            }
            other => Err(self.error(format!("expected a term, found {other}"))),
        }
    }

    // --- Constraints -------------------------------------------------------

    fn constraint(&mut self) -> Result<Constraint, ParseError> {
        self.nested(|p| {
            let left = p.level(
                |p| p.eat_keyword("or"),
                Parser::constraint_and,
                |p| &mut p.constraints,
                Constraint::or,
            )?;
            if p.eat_keyword("implies") {
                let right = p.constraint()?;
                Ok(Constraint::implies(left, right))
            } else {
                Ok(left)
            }
        })
    }

    fn constraint_and(&mut self) -> Result<Constraint, ParseError> {
        self.level(
            |p| p.eat_keyword("and"),
            Parser::constraint_prim,
            |p| &mut p.constraints,
            Constraint::and,
        )
    }

    /// Reads `(e₁, …, eₙ)`; an `arity` of 0 takes any number of events.
    fn event_args(&mut self, arity: usize) -> Result<&[Symbol], ParseError> {
        self.expect(&TokenKind::LParen)?;
        self.events.clear();
        loop {
            let event = sym(self.eat_ident()?);
            self.events.push(event);
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        let found = self.events.len();
        if arity != 0 && found != arity {
            return Err(self.error(format!("expected {arity} event(s), found {found}")));
        }
        Ok(&self.events)
    }

    /// Reads `(a, b)`.
    fn event_pair(&mut self) -> Result<(Symbol, Symbol), ParseError> {
        let events = self.event_args(2)?;
        Ok((events[0], events[1]))
    }

    fn constraint_prim(&mut self) -> Result<Constraint, ParseError> {
        if self.eat(TokenKind::LParen) {
            let c = self.constraint()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(c);
        }
        let name = self.eat_ident()?;
        match name {
            "exists" => Ok(Constraint::Must(self.event_args(1)?[0])),
            "absent" => Ok(Constraint::MustNot(self.event_args(1)?[0])),
            "serial" => {
                if self.event_args(0)?.len() < 2 {
                    return Err(self.error("serial(…) needs at least two events"));
                }
                Ok(Constraint::serial(self.events.clone()))
            }
            "before" => {
                let (a, b) = self.event_pair()?;
                Ok(Constraint::order(a, b))
            }
            "klein_order" => {
                let (a, b) = self.event_pair()?;
                Ok(Constraint::klein_order(a, b))
            }
            "klein_exists" => {
                let (a, b) = self.event_pair()?;
                Ok(Constraint::klein_exists(a, b))
            }
            "causes" => {
                let (a, b) = self.event_pair()?;
                Ok(Constraint::causes_later(a, b))
            }
            "requires" => {
                let (a, b) = self.event_pair()?;
                Ok(Constraint::requires_earlier(a, b))
            }
            "not" => {
                self.expect(&TokenKind::LParen)?;
                let c = self.constraint()?;
                self.expect(&TokenKind::RParen)?;
                Ok(Constraint::not(c))
            }
            other => Err(self.error(format!(
                "unknown constraint form `{other}` (expected exists/absent/serial/before/\
                 klein_order/klein_exists/causes/requires/not)"
            ))),
        }
    }

    // --- Specifications ----------------------------------------------------

    /// Parses the parenthesized tail of a timer item: `(ev, 30s)`.
    fn timer_spec(&mut self, form: TimerForm) -> Result<TimerSpec, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let event = sym(self.eat_ident()?);
        self.expect(&TokenKind::Comma)?;
        let ms = self.eat_duration()?;
        self.expect(&TokenKind::RParen)?;
        Ok(match form {
            TimerForm::After => TimerSpec::after(event, ms),
            TimerForm::Deadline => TimerSpec::deadline(event, ms),
            TimerForm::Every => TimerSpec::every(event, ms),
        })
    }

    /// Parses a duration `INT unit` (`150ms`, `30s`, `5m`, `24h`) into
    /// milliseconds. The lexer splits `30s` into an integer and an
    /// identifier, so the unit arrives as a separate token.
    fn eat_duration(&mut self) -> Result<u64, ParseError> {
        let n = match self.peek().kind {
            TokenKind::Int(n) if n >= 0 => {
                let n = n as u64;
                self.advance();
                n
            }
            other => {
                return Err(self.error(format!(
                    "expected a duration like `30s` or `150ms`, found {other}"
                )))
            }
        };
        let unit = self.eat_ident()?;
        let scale: u64 = match unit {
            "ms" => 1,
            "s" => 1_000,
            "m" => 60_000,
            "h" => 3_600_000,
            other => {
                return Err(self.error(format!(
                    "unknown duration unit `{other}` (expected ms, s, m, or h)"
                )))
            }
        };
        n.checked_mul(scale)
            .ok_or_else(|| self.error(format!("duration `{n}{unit}` overflows milliseconds")))
    }

    fn spec(&mut self) -> Result<WorkflowSpec, ParseError> {
        if !self.eat_keyword("workflow") {
            return Err(self.error("expected `workflow <name> { … }`"));
        }
        let name = self.eat_ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut spec = WorkflowSpec::new(name, Goal::Empty);
        let mut saw_graph = false;
        while self.peek().kind != TokenKind::RBrace {
            if self.eat_keyword("graph") {
                if saw_graph {
                    return Err(self.error("duplicate `graph` section"));
                }
                spec.graph = self.goal()?;
                saw_graph = true;
            } else if self.eat_keyword("define") {
                let sub = sym(self.eat_ident()?);
                self.expect(&TokenKind::Define)?;
                let body = self.goal()?;
                spec.subworkflows
                    .define(sub, body)
                    .map_err(|e| self.error(e.to_string()))?;
            } else if self.eat_keyword("constraint") {
                spec.constraints.push(self.constraint()?);
            } else if self.eat_keyword("trigger") {
                if !self.eat_keyword("on") {
                    return Err(self.error("expected `on <event>` after `trigger`"));
                }
                let on = sym(self.eat_ident()?);
                let condition = if self.eat_keyword("if") {
                    Some(self.atom()?)
                } else {
                    None
                };
                if !self.eat_keyword("do") {
                    return Err(self.error("expected `do <goal>` in trigger"));
                }
                let action = self.goal()?;
                let semantics = if self.eat_keyword("eventually") {
                    TriggerSemantics::Eventual
                } else {
                    TriggerSemantics::Immediate
                };
                spec.triggers.push(Trigger {
                    on,
                    condition,
                    action,
                    semantics,
                });
            } else if self.eat_keyword("after") {
                spec.timers.push(self.timer_spec(TimerForm::After)?);
            } else if self.eat_keyword("deadline") {
                spec.timers.push(self.timer_spec(TimerForm::Deadline)?);
            } else if self.eat_keyword("every") {
                spec.timers.push(self.timer_spec(TimerForm::Every)?);
            } else {
                return Err(self.error(format!(
                    "expected `graph`, `define`, `constraint`, `trigger`, `after`, \
                     `deadline`, or `every`, found {}",
                    self.peek().kind
                )));
            }
            self.expect(&TokenKind::Semi)?;
        }
        self.expect(&TokenKind::RBrace)?;
        if !saw_graph {
            return Err(self.error(format!("workflow `{name}` has no `graph` section")));
        }
        Ok(spec)
    }
}

/// Parses a concurrent-Horn goal.
pub fn parse_goal(input: &str) -> Result<Goal, ParseError> {
    let mut p = Parser::new(input)?;
    let g = p.goal()?;
    if !p.at_eof() {
        return Err(p.error(format!("unexpected trailing {}", p.peek().kind)));
    }
    Ok(g)
}

/// Parses a `CONSTR` constraint.
pub fn parse_constraint(input: &str) -> Result<Constraint, ParseError> {
    let mut p = Parser::new(input)?;
    let c = p.constraint()?;
    if !p.at_eof() {
        return Err(p.error(format!("unexpected trailing {}", p.peek().kind)));
    }
    Ok(c)
}

/// Parses a complete workflow specification.
pub fn parse_spec(input: &str) -> Result<WorkflowSpec, ParseError> {
    let mut p = Parser::new(input)?;
    let s = p.spec()?;
    if !p.at_eof() {
        return Err(p.error(format!("unexpected trailing {}", p.peek().kind)));
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(name: &str) -> Goal {
        Goal::atom(name)
    }

    #[test]
    fn goal_precedence_matches_display() {
        let goal = parse_goal("a * (b + c) # d").unwrap();
        assert_eq!(
            goal,
            conc(vec![seq(vec![g("a"), or(vec![g("b"), g("c")])]), g("d")])
        );
        // Round trip through Display.
        assert_eq!(parse_goal(&goal.to_string()).unwrap(), goal);
    }

    #[test]
    fn or_binds_loosest() {
        let goal = parse_goal("a * b + c # d").unwrap();
        assert_eq!(
            goal,
            or(vec![seq(vec![g("a"), g("b")]), conc(vec![g("c"), g("d")])])
        );
    }

    #[test]
    fn modalities_and_units() {
        let goal = parse_goal("iso(a * b) # poss(c) * empty").unwrap();
        assert_eq!(
            goal,
            conc(vec![isolated(seq(vec![g("a"), g("b")])), possible(g("c"))])
        );
        assert_eq!(parse_goal("nopath + a").unwrap(), g("a"));
    }

    #[test]
    fn negated_and_first_order_atoms() {
        let goal = parse_goal("!frozen * pay(X, 3) * book(paris)").unwrap();
        let Goal::Seq(parts) = &goal else {
            panic!("expected seq")
        };
        assert_eq!(parts[0], Goal::Atom(Atom::prop("frozen").negate()));
        assert_eq!(
            parts[1],
            Goal::Atom(Atom::new("pay", vec![Term::Var(Var(0)), Term::Int(3)]))
        );
        assert_eq!(
            parts[2],
            Goal::Atom(Atom::new("book", vec![Term::constant("paris")]))
        );
    }

    #[test]
    fn shared_variables_unify_names() {
        let goal = parse_goal("flight(X) * ins_booked(X) * hotel(Y)").unwrap();
        let Goal::Seq(parts) = &goal else {
            panic!("expected seq")
        };
        let Goal::Atom(a1) = &parts[0] else { panic!() };
        let Goal::Atom(a2) = &parts[1] else { panic!() };
        let Goal::Atom(a3) = &parts[2] else { panic!() };
        assert_eq!(a1.args[0], a2.args[0], "same name, same variable");
        assert_ne!(a1.args[0], a3.args[0]);
    }

    #[test]
    fn compound_terms_nest() {
        let goal = parse_goal("log(entry(order, 42))").unwrap();
        assert_eq!(
            goal,
            Goal::Atom(Atom::new(
                "log",
                vec![Term::compound(
                    "entry",
                    vec![Term::constant("order"), Term::Int(42)]
                )]
            ))
        );
    }

    #[test]
    fn constraint_forms() {
        assert_eq!(
            parse_constraint("exists(e)").unwrap(),
            Constraint::must("e")
        );
        assert_eq!(
            parse_constraint("absent(e)").unwrap(),
            Constraint::must_not("e")
        );
        assert_eq!(
            parse_constraint("before(a, b)").unwrap(),
            Constraint::order("a", "b")
        );
        assert_eq!(
            parse_constraint("serial(a, b, c)").unwrap(),
            Constraint::serial(vec![sym("a"), sym("b"), sym("c")])
        );
        assert_eq!(
            parse_constraint("klein_order(a, b)").unwrap(),
            Constraint::klein_order("a", "b")
        );
        assert_eq!(
            parse_constraint("not(before(a, b))").unwrap(),
            Constraint::not(Constraint::order("a", "b"))
        );
    }

    #[test]
    fn constraint_connectives_and_implies() {
        let c = parse_constraint("exists(a) and absent(b) or exists(c)").unwrap();
        assert_eq!(
            c,
            Constraint::or(vec![
                Constraint::and(vec![Constraint::must("a"), Constraint::must_not("b")]),
                Constraint::must("c"),
            ])
        );
        let imp = parse_constraint("exists(e) implies exists(f)").unwrap();
        assert_eq!(
            imp,
            Constraint::implies(Constraint::must("e"), Constraint::must("f"))
        );
    }

    #[test]
    fn channel_primitives_round_trip() {
        use ctr::goal::Channel;
        let goal = conc(vec![
            seq(vec![g("a"), Goal::Send(Channel(3))]),
            seq(vec![Goal::Receive(Channel(3)), g("b")]),
        ]);
        let text = goal.to_string();
        assert_eq!(parse_goal(&text).unwrap(), goal, "text was `{text}`");
        // A compiled workflow round-trips whole.
        let compiled =
            ctr::apply::apply(&[Constraint::order("a", "b")], &conc(vec![g("a"), g("b")]));
        assert_eq!(parse_goal(&compiled.to_string()).unwrap(), compiled);
    }

    #[test]
    fn malformed_channels_are_rejected() {
        assert!(parse_goal("send(3)").is_err());
        assert!(parse_goal("receive(xi)").is_err());
        assert!(parse_goal("send(xix)").is_err());
    }

    #[test]
    fn repeat_unrolls_with_renaming() {
        let goal = parse_goal("start * repeat(poll, 1, 3) * done").unwrap();
        assert!(ctr::unique::is_unique_event(&goal));
        let events = goal.events();
        assert!(events.contains(&sym("poll@1")));
        assert!(events.contains(&sym("poll@3")));
        assert!(!events.contains(&sym("poll")));
    }

    #[test]
    fn repeat_rejects_bad_bounds() {
        assert!(parse_goal("repeat(a, 3, 1)").is_err());
        assert!(parse_goal("repeat(a, 0, 0)").is_err());
        assert!(parse_goal("repeat(a, -1, 2)").is_err());
    }

    /// `open` × `levels`, `core`, then `close` × `levels`.
    fn nest(open: &str, core: &str, close: &str, levels: usize) -> String {
        format!("{}{core}{}", open.repeat(levels), close.repeat(levels))
    }

    fn assert_nesting_error(e: ParseError, col: usize) {
        assert_eq!(
            (e.message.as_str(), e.line, e.col),
            ("nesting exceeds the limit of 128 levels", 1, col),
        );
    }

    #[test]
    fn goals_nest_to_the_limit_and_no_further() {
        // The goal itself is the first level.
        for (open, parenthesis) in [("(", 1), ("iso(", 4), ("poss(", 5), ("a * (b + ", 5)] {
            let deepest = nest(open, "a", ")", MAX_NESTING - 1);
            assert!(parse_goal(&deepest).is_ok(), "{open}");
            let spec = format!("workflow w {{ graph {deepest}; }}");
            assert!(parse_spec(&spec).is_ok(), "{open}");
            // Refused at the token after the parenthesis that opens one
            // level too many.
            let past = nest(open, "a", ")", MAX_NESTING);
            let e = parse_goal(&past).unwrap_err();
            assert_nesting_error(e, open.len() * (MAX_NESTING - 1) + parenthesis + 1);
        }
        // What took 2 MiB of stack to refuse is refused the same way.
        let e = parse_goal(&nest("iso(", "a", ")", 100_000)).unwrap_err();
        assert_nesting_error(e, 4 * MAX_NESTING + 1);
    }

    #[test]
    fn constraints_nest_to_the_limit_and_no_further() {
        for (open, width) in [("not(", 4), ("(", 1)] {
            let deepest = nest(open, "exists(a)", ")", MAX_NESTING - 1);
            assert!(parse_constraint(&deepest).is_ok(), "{open}");
            let past = nest(open, "exists(a)", ")", MAX_NESTING);
            assert_nesting_error(
                parse_constraint(&past).unwrap_err(),
                width * MAX_NESTING + 1,
            );
        }
        // `implies` nests to the right without a parenthesis.
        let chain = |n: usize| vec!["exists(a)"; n].join(" implies ");
        assert!(parse_constraint(&chain(MAX_NESTING)).is_ok());
        assert!(parse_constraint(&chain(MAX_NESTING + 1)).is_err());
        let spec = format!(
            "workflow w {{ graph a; constraint {}; }}",
            nest("not(", "exists(a)", ")", 100_000)
        );
        assert!(parse_spec(&spec).unwrap_err().message.contains("nesting"));
    }

    #[test]
    fn terms_nest_to_the_limit_and_no_further() {
        // The goal is one level, each `f(` another.
        let deepest = format!("p({})", nest("f(", "x", ")", MAX_NESTING - 2));
        assert!(parse_goal(&deepest).is_ok());
        let past = format!("p({})", nest("f(", "x", ")", MAX_NESTING - 1));
        assert_nesting_error(parse_goal(&past).unwrap_err(), 2 * MAX_NESTING + 1);
        assert!(parse_goal(&format!("p({})", nest("f(", "x", ")", 100_000))).is_err());
    }

    #[test]
    fn repeat_counts_the_nesting_it_unrolls_into() {
        // Each optional iteration holds the rest one level further in.
        assert!(parse_goal(&format!("repeat(a, 0, {})", MAX_NESTING - 2)).is_ok());
        assert!(parse_goal(&format!("repeat(a, 7, {})", MAX_NESTING + 5)).is_ok());
        let e = parse_goal(&format!("repeat(a, 0, {})", MAX_NESTING - 1)).unwrap_err();
        assert!(e.message.contains("nesting exceeds"), "{e}");
        assert!(parse_goal("repeat(repeat(a, 0, 100), 0, 100)").is_err());
        assert!(parse_goal("repeat(a, 0, 4000000000)").is_err());
        // A body's nesting does not count against its siblings.
        let side_by_side = format!("repeat(a, 0, 100) * {}", nest("(", "b", ")", 100));
        assert!(parse_goal(&side_by_side).is_ok());
        // What is accepted prints to text the parser takes back.
        let unrolled = parse_goal(&format!("repeat(a, 0, {})", MAX_NESTING - 2)).unwrap();
        assert_eq!(parse_goal(&unrolled.to_string()).unwrap(), unrolled);
    }

    #[test]
    fn guarded_inserts_possibility_checks() {
        let goal = parse_goal("guarded(a * b)").unwrap();
        let Goal::Seq(parts) = &goal else {
            panic!("expected sequence")
        };
        assert_eq!(parts.len(), 4);
        assert!(matches!(parts[0], Goal::Possible(_)));
        // Single-step form.
        let single = parse_goal("guarded(x)").unwrap();
        assert!(matches!(&single, Goal::Seq(ps) if ps.len() == 2));
    }

    #[test]
    fn full_spec_parses() {
        let input = r"
            workflow orders {
                graph order * fulfil * close;
                define fulfil := pick # invoice;
                constraint before(pick, invoice);
                trigger on order if priority do expedite;
                trigger on close do archive eventually;
            }
        ";
        let spec = parse_spec(input).unwrap();
        assert_eq!(spec.name, "orders");
        assert_eq!(spec.graph, seq(vec![g("order"), g("fulfil"), g("close")]));
        assert!(spec.subworkflows.defines(sym("fulfil")));
        assert_eq!(spec.constraints, vec![Constraint::order("pick", "invoice")]);
        assert_eq!(spec.triggers.len(), 2);
        assert_eq!(spec.triggers[0].condition, Some(Atom::prop("priority")));
        assert_eq!(spec.triggers[1].semantics, TriggerSemantics::Eventual);
        // And the whole thing compiles.
        assert!(spec.compile().unwrap().is_consistent());
    }

    #[test]
    fn timer_items_parse_with_units() {
        let input = r"
            workflow sla {
                graph submit * review * publish;
                after(review, 30s);
                deadline(publish, 24h);
                every(review, 5m);
                after(submit, 150ms);
            }
        ";
        let spec = parse_spec(input).unwrap();
        assert_eq!(
            spec.timers,
            vec![
                ctr_workflow::TimerSpec::after("review", 30_000),
                ctr_workflow::TimerSpec::deadline("publish", 86_400_000),
                ctr_workflow::TimerSpec::every("review", 300_000),
                ctr_workflow::TimerSpec::after("submit", 150),
            ]
        );
        // The compiled goal carries the ticks as ordinary events.
        let compiled = spec.compile().unwrap();
        assert!(compiled.is_consistent());
        let events = compiled.goal.events();
        assert!(
            events.contains(&sym("publish@deadline86400000")),
            "{events:?}"
        );
        assert!(events.contains(&sym("review@after30000")));
    }

    #[test]
    fn timer_durations_are_validated() {
        let spec = |body: &str| format!("workflow w {{ graph a; {body} }}");
        assert!(parse_spec(&spec("after(a, 30s);")).is_ok());
        let err = parse_spec(&spec("after(a, 30);")).unwrap_err();
        assert!(err.message.contains("expected identifier"), "{err}");
        let err = parse_spec(&spec("after(a, 30w);")).unwrap_err();
        assert!(err.message.contains("unknown duration unit"), "{err}");
        let err = parse_spec(&spec("after(a, x);")).unwrap_err();
        assert!(err.message.contains("expected a duration"), "{err}");
        let err = parse_spec(&spec("after(a, 9999999999999999h);")).unwrap_err();
        assert!(
            err.message.contains("overflow") || err.message.contains("expected a duration"),
            "{err}"
        );
    }

    #[test]
    fn spec_requires_graph() {
        let err = parse_spec("workflow empty { constraint exists(a); }").unwrap_err();
        assert!(err.message.contains("no `graph`"));
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_goal("a *\n  *").unwrap_err();
        assert_eq!((err.line, err.col), (2, 3));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse_goal("a b").is_err());
        assert!(parse_constraint("exists(a) exists(b)").is_err());
    }

    #[test]
    fn unknown_constraint_form_is_helpful() {
        let err = parse_constraint("happens(a)").unwrap_err();
        assert!(err.message.contains("unknown constraint form"));
    }

    #[test]
    fn uppercase_predicate_is_rejected() {
        assert!(parse_goal("Approve").is_err());
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        let at = |input: &str| {
            let e = parse_goal(input).unwrap_err();
            (e.message, e.line, e.col)
        };
        let stray =
            |c: char, line: usize, col: usize| (format!("unexpected character `{c}`"), line, col);
        let no_goal =
            |line: usize, col: usize| ("expected a goal, found `*`".to_owned(), line, col);
        // A multi-byte character is one column, as an error and as space.
        assert_eq!(at("a * é"), stray('é', 1, 5));
        assert_eq!(at("a *\u{3000}\u{3000}@"), stray('@', 1, 6));
        // A non-breaking space and a tab are one column each.
        assert_eq!(at("a\u{a0}* *"), no_goal(1, 5));
        assert_eq!(at("a\u{a0}*\u{a0}\u{a0}@"), stray('@', 1, 6));
        assert_eq!(at("a\t* *"), no_goal(1, 5));
        assert_eq!(at("\t\ta * @"), stray('@', 1, 7));
        // CRLF: the `\r` is a column of the line it ends, the next starts
        // at 1.
        assert_eq!(at("a *\r\n  *"), no_goal(2, 3));
        assert_eq!(at("a\r\n\r\n @"), stray('@', 3, 2));
        // A comment holding multi-byte text ends at its newline.
        assert_eq!(at("a // naïve — ok\n * *"), no_goal(2, 4));
        let eof = ("expected a goal, found end of input".to_owned(), 1, 5);
        assert_eq!(at("a * // naïve"), eof);
    }

    proptest::proptest! {
        /// Display and the parser agree on random canonical goals, `⊙`
        /// and `◇` wrappers and `ε` alternatives included.
        #[test]
        fn canonical_goals_round_trip_through_text(seed in 0u64..1_000_000, wrap in 0u8..4) {
            let shape = ctr::gen::GoalShape { depth: 5, width: 4, or_bias: 0.3 };
            let (goal, _) = ctr::gen::random_goal(seed, shape, "e");
            let goal = match wrap {
                0 => isolated(goal),
                1 => seq(vec![possible(goal.clone()), goal]),
                _ => goal,
            };
            let text = goal.to_string();
            proptest::prop_assert_eq!(parse_goal(&text).unwrap(), goal, "{}", text);
        }
    }

    #[test]
    fn figure1_goal_parses() {
        // Equation (1) in the surface syntax.
        let input = "a * ((cond1 * b * ((d * cond3 * h) + e) * j) \
                     # (cond2 * c * ((f * i * cond4) + (g * cond5)))) * k";
        let goal = parse_goal(input).unwrap();
        assert!(ctr::unique::is_unique_event(&goal));
        assert_eq!(goal.events().len(), 16);
    }
}
