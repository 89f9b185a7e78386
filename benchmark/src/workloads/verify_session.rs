//! `verify_session` — the designer's warm path.
//!
//! Four `Analyzer` sessions (an order chain over a pipeline, the 3-SAT
//! reduction, a `minimize_constraints` session and a multi-property
//! session) are driven by one seeded script of constraint edits and
//! queries. 70 % of edits touch the **last** constraint — the prefix is
//! shared and replays as table hits — and 30 % touch the **first** one
//! or move it to the end, which loses the prefix. One op is one edit or
//! one query answered.
//!
//! The same `Apply`/`Excise` rules as `compile_scratch`, but *through
//! the table* (`core.memo`): a change that helps one path and costs the
//! other shows as a split between the two workloads.
//!
//! Every query's answer is checked against the untabled
//! `ctr::analysis` functions on the same constraint list (brute force
//! for the SAT session); every edit must hand back the constraint the
//! shadow list says it displaced.

use super::fleet::digest_names;
use super::{self_cpu_s, LatencySampler, Rep, RunConfig, Workload};
use crate::inputs;
use crate::rng::Rng;
use crate::trace::Tracer;
use ctr::analysis::{self, Verification};
use ctr::constraints::Constraint;
use ctr::gen::{self, SatInstance};
use ctr::goal::Goal;
use ctr::memo::Analyzer;
use ctr::symbol::{sym, Symbol};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Script length at full size.
const SCRIPT_OPS: usize = 2000;

/// One of the four sessions.
#[derive(Clone, Debug)]
struct Session {
    name: &'static str,
    goal: Goal,
    constraints: Vec<Constraint>,
    /// Replacement constraints the edits draw from.
    alternatives: Vec<Constraint>,
    /// Properties `verify`/`verify_all` ask about.
    properties: Vec<Constraint>,
    /// Which queries this session is asked, with weights.
    queries: &'static [(Query, u32)],
    /// Share of script ops aimed at this session, in percent.
    weight: u32,
    /// For the SAT session: clause view of `constraints`, so brute force
    /// can referee.
    sat_vars: Option<usize>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Query {
    Consistent,
    Verify,
    VerifyAll,
    Minimize,
}

#[derive(Clone, Debug)]
enum Action {
    Replace { index: usize, with: Constraint },
    Remove { index: usize },
    Add(Constraint),
    Consistent,
    Verify(usize),
    VerifyAll,
    Minimize,
}

/// Where an edit lands — decides whether the table's prefix survives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditSite {
    /// The last constraint: prefix shared.
    Tail,
    /// The first constraint, or a reorder: prefix lost.
    Head,
}

#[derive(Clone, Debug)]
struct ScriptOp {
    session: usize,
    action: Action,
    /// For edits: where it lands. For queries: where the session's most
    /// recent edit landed.
    site: EditSite,
}

/// Hit/miss counts of queries, split by the site of the edit before
/// them (traced runs).
#[derive(Clone, Copy, Debug, Default)]
pub struct HitCounts {
    /// Table hits.
    pub hits: u64,
    /// Table misses.
    pub misses: u64,
}

/// The workload state.
pub struct VerifySession {
    sessions: Vec<Session>,
    script: Vec<ScriptOp>,
    expected: Option<Vec<u64>>,
    /// Nanoseconds each untabled reference `verify` took (the scratch
    /// path on the same queries — the table's denominator).
    pub untabled_verify_ns: Vec<u64>,
    /// Σ compiled goal size of the four sessions' initial specs.
    output_nodes: u64,
    /// Hits/misses after tail edits (traced runs).
    pub tail: HitCounts,
    /// Hits/misses after head edits (traced runs).
    pub head: HitCounts,
    /// Table sizes at the end of the last traced repetition.
    pub table_entries: u64,
    /// Interned goals at the end of the last traced repetition.
    pub table_interned: u64,
}

fn t(i: usize) -> Symbol {
    sym(&format!("t{i}"))
}

fn sessions(seed: u64, smoke: bool) -> Vec<Session> {
    let root = Rng::new(seed);
    let scale = |n: usize| if smoke { (n / 4).max(3) } else { n };

    // orders64: pipeline with an order chain; alternatives are other
    // orders (mostly implied by the pipeline, some reversed and so
    // inconsistent), properties are Klein orders over random pairs.
    let n = scale(64);
    let events = 2 * n + 2;
    let mut rng = root.fork("orders");
    // Pairs a fixed distance apart, anywhere in the pipeline: the seed
    // moves them, their reach (and so the work they cause) stays put.
    let spans = [1usize, 2, 5, 11, 23, events / 3];
    let pair = |rng: &mut Rng, i: usize| {
        let span = spans[i % spans.len()].min(events - 1);
        let a = rng.below(events - span);
        (a, a + span)
    };
    let mut alternatives = Vec::new();
    for i in 0..6 {
        let (a, b) = pair(&mut rng, i);
        alternatives.push(if i == 5 {
            Constraint::order(t(b), t(a))
        } else {
            Constraint::order(t(a), t(b))
        });
    }
    let properties = (0..6)
        .map(|i| {
            let (a, b) = pair(&mut rng, i);
            if i % 2 == 0 {
                Constraint::klein_order(t(a), t(b))
            } else {
                Constraint::klein_order(t(b), t(a))
            }
        })
        .collect();
    let orders = Session {
        name: "orders64",
        goal: gen::pipeline_workflow(events),
        constraints: gen::order_chain(n),
        alternatives,
        properties,
        queries: &[(Query::Consistent, 1), (Query::Verify, 2)],
        weight: 22,
        sat_vars: None,
    };

    // sat10: the reduction of Prop. 4.1; alternatives are spare clauses
    // of the same instance family, the query is consistency
    // (= satisfiability).
    let vars = if smoke { 6 } else { 10 };
    let mut rng = root.fork("sat");
    let (inst, spares) = inputs::sat_instance_with_spares(vars, 4, &mut rng);
    let (goal, constraints) = gen::sat_to_workflow(&inst);
    let alternatives = gen::sat_to_workflow(&SatInstance {
        vars,
        clauses: spares,
    })
    .1;
    let sat = Session {
        name: "sat10",
        goal,
        constraints,
        alternatives,
        properties: Vec::new(),
        queries: &[(Query::Consistent, 1)],
        weight: 4,
        sat_vars: Some(vars),
    };

    // minimize_orders32: redundancy elimination over an order chain.
    let n = scale(32);
    let events = 2 * n + 2;
    let mut rng = root.fork("minimize");
    let alternatives = [1usize, 3, 9, events / 3]
        .iter()
        .map(|&span| {
            let a = rng.below(events - span);
            Constraint::order(t(a), t(a + span))
        })
        .collect();
    let minimize = Session {
        name: "minimize_orders32",
        goal: gen::pipeline_workflow(events),
        constraints: gen::order_chain(n),
        alternatives,
        properties: Vec::new(),
        queries: &[(Query::Minimize, 1), (Query::Consistent, 3)],
        weight: 14,
        sat_vars: None,
    };

    // multiprop_parallel12: one property batch per query.
    let w = scale(12);
    let mut rng = root.fork("multiprop");
    let alternatives = (0..6)
        .map(|_| {
            let a = rng.below(w);
            let b = (a + 1 + rng.below(w - 1)) % w;
            Constraint::order(t(a), t(b))
        })
        .collect();
    let multiprop = Session {
        name: "multiprop_parallel12",
        goal: gen::parallel_workflow(w),
        constraints: vec![Constraint::order(t(0), t(1)), Constraint::order(t(1), t(2))],
        alternatives,
        properties: (0..w - 1)
            .map(|i| Constraint::klein_order(t(i), t(i + 1)))
            .collect(),
        queries: &[(Query::VerifyAll, 1), (Query::Consistent, 1)],
        weight: 60,
        sat_vars: None,
    };

    vec![orders, sat, minimize, multiprop]
}

/// `total` items split over `weights` in exact proportion (largest
/// remainders first), as a shuffled deck.
fn deck<T: Copy>(rng: &mut Rng, items: &[(T, u32)], total: usize) -> Vec<T> {
    let weight_sum: u32 = items.iter().map(|(_, w)| w).sum();
    let mut counts: Vec<usize> = items
        .iter()
        .map(|(_, w)| total * *w as usize / weight_sum as usize)
        .collect();
    let mut by_remainder: Vec<usize> = (0..items.len()).collect();
    by_remainder
        .sort_by_key(|&i| std::cmp::Reverse(total * items[i].1 as usize % weight_sum as usize));
    let mut short = total - counts.iter().sum::<usize>();
    for i in by_remainder {
        if short == 0 {
            break;
        }
        counts[i] += 1;
        short -= 1;
    }
    let mut out: Vec<T> = items
        .iter()
        .zip(&counts)
        .flat_map(|((item, _), n)| std::iter::repeat_n(*item, *n))
        .collect();
    rng.shuffle(&mut out);
    out
}

/// The seeded edit/query script. Counts are exact — ops per session,
/// queries per kind, 70 % of edit moves at the tail and 30 % at the
/// head — and the seed only decides their order and which alternative
/// an edit installs, so runs on different seeds do the same amount of
/// each kind of work. Queries and edits alternate per session; a
/// `Remove` is followed by the `Add` that puts the constraint back (at
/// the end — for a head removal that is the reorder), so constraint
/// counts stay put.
fn script(sessions: &[Session], seed: u64, ops: usize) -> Vec<ScriptOp> {
    let mut rng = Rng::new(seed).fork("script");
    let weights: Vec<(usize, u32)> = sessions
        .iter()
        .enumerate()
        .map(|(i, s)| (i, s.weight))
        .collect();
    let order = deck(&mut rng, &weights, ops);
    let mut per_session: Vec<std::vec::IntoIter<ScriptOp>> = sessions
        .iter()
        .enumerate()
        .map(|(s, session)| {
            let total = order.iter().filter(|&&o| o == s).count();
            session_ops(s, session, total, &mut rng).into_iter()
        })
        .collect();
    order
        .into_iter()
        .map(|s| per_session[s].next().expect("one op per deck card"))
        .collect()
}

/// One session's `total` ops in order: query, edit, query, edit, …
fn session_ops(s: usize, session: &Session, total: usize, rng: &mut Rng) -> Vec<ScriptOp> {
    let edit_slots = total / 2;
    // A toggle (remove, then add back) takes two edit slots, a replace
    // one; a quarter of the slots go to toggles.
    let toggles = edit_slots / 4;
    let replaces = edit_slots - 2 * toggles;
    let mut moves = deck(
        rng,
        &[(true, toggles as u32), (false, replaces as u32)],
        toggles + replaces,
    );
    if moves.is_empty() {
        moves.push(false);
    }
    let sites = deck(
        rng,
        &[(EditSite::Tail, 70), (EditSite::Head, 30)],
        moves.len(),
    );
    let mut queries = deck(rng, session.queries, total - edit_slots).into_iter();
    let mut alternatives = (0..).map(|i| &session.alternatives[i % session.alternatives.len()]);
    let mut len = session.constraints.len();
    let mut shadow = session.constraints.clone();
    let mut edits: Vec<(Action, EditSite)> = Vec::with_capacity(edit_slots);
    for (toggle, site) in moves.into_iter().zip(sites) {
        let index = match site {
            EditSite::Tail => len - 1,
            EditSite::Head => 0,
        };
        if toggle && len > 1 {
            let removed = shadow.remove(index);
            edits.push((Action::Remove { index }, site));
            shadow.push(removed.clone());
            edits.push((Action::Add(removed), site));
        } else {
            let with = alternatives.next().expect("endless").clone();
            shadow[index] = with.clone();
            edits.push((Action::Replace { index, with }, site));
            if toggle {
                // A one-constraint session cannot toggle; keep the slot count.
                let with = alternatives.next().expect("endless").clone();
                shadow[index] = with.clone();
                edits.push((Action::Replace { index, with }, site));
            }
        }
        len = shadow.len();
    }
    let mut edits = edits.into_iter();
    let mut last_site = EditSite::Tail;
    (0..total)
        .map(|k| {
            let action = if k % 2 == 0 {
                match queries.next().expect("one query per even slot") {
                    Query::Consistent => Action::Consistent,
                    Query::Verify => Action::Verify(rng.below(session.properties.len())),
                    Query::VerifyAll => Action::VerifyAll,
                    Query::Minimize => Action::Minimize,
                }
            } else {
                let (action, site) = edits.next().expect("one edit per odd slot");
                last_site = site;
                action
            };
            ScriptOp {
                session: s,
                action,
                site: last_site,
            }
        })
        .collect()
}

fn digest_constraint(c: &Constraint) -> u64 {
    digest_names(&[c.to_string()])
}

fn digest_verification(v: &Verification) -> u64 {
    match v {
        Verification::Holds => 1,
        Verification::CounterExample(goal) => goal.structural_hash() | 2,
    }
}

fn fold(acc: u64, x: u64) -> u64 {
    (acc ^ x)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .rotate_left(17)
}

/// Runs one script op against a session and digests what came back.
#[inline]
fn execute(analyzer: &mut Analyzer, session: &Session, action: &Action) -> u64 {
    match action {
        Action::Replace { index, with } => {
            digest_constraint(&analyzer.replace_constraint(*index, with.clone()))
        }
        Action::Remove { index } => digest_constraint(&analyzer.remove_constraint(*index)),
        Action::Add(c) => analyzer.add_constraint(c.clone()) as u64,
        Action::Consistent => u64::from(analyzer.is_consistent()),
        Action::Verify(p) => digest_verification(&analyzer.verify(&session.properties[*p])),
        Action::VerifyAll => analyzer
            .verify_all(&session.properties)
            .iter()
            .fold(0, |acc, v| fold(acc, digest_verification(v))),
        Action::Minimize => analyzer
            .minimize_constraints()
            .iter()
            .fold(0, |acc, i| fold(acc, *i as u64 + 1)),
    }
}

/// The clause list a SAT session's constraints encode.
fn clauses_of(constraints: &[Constraint], vars: usize) -> SatInstance {
    let clauses = constraints
        .iter()
        .map(|c| {
            c.events()
                .iter()
                .map(|e| {
                    // `x{v}_t` / `x{v}_f`, as `gen::sat_to_workflow` names them.
                    let name = e.as_str();
                    let (v, polarity) = name[1..].split_once('_').expect("sat event name");
                    (v.parse().expect("sat variable index"), polarity == "t")
                })
                .collect()
        })
        .collect();
    SatInstance { vars, clauses }
}

impl VerifySession {
    /// The untabled answer to every script op, memoised on
    /// `(session, constraint list, query)` — the script revisits few
    /// distinct states, and scratch verification is 10× the tabled cost.
    fn reference_digests(&mut self) -> Vec<u64> {
        let mut shadow: Vec<Vec<Constraint>> = self
            .sessions
            .iter()
            .map(|s| s.constraints.clone())
            .collect();
        let mut memo: HashMap<String, u64> = HashMap::new();
        let mut out = Vec::with_capacity(self.script.len());
        for op in &self.script {
            let session = &self.sessions[op.session];
            let list = &mut shadow[op.session];
            let state_key = |list: &[Constraint], query: &str| {
                let mut key = format!("{}|{query}", op.session);
                for c in list {
                    let _ = write!(key, "|{c}");
                }
                key
            };
            let digest = match &op.action {
                Action::Replace { index, with } => {
                    digest_constraint(&std::mem::replace(&mut list[*index], with.clone()))
                }
                Action::Remove { index } => digest_constraint(&list.remove(*index)),
                Action::Add(c) => {
                    list.push(c.clone());
                    list.len() as u64 - 1
                }
                Action::Consistent => {
                    if let Some(vars) = session.sat_vars {
                        u64::from(clauses_of(list, vars).brute_force_sat())
                    } else {
                        *memo
                            .entry(state_key(list, "consistent"))
                            .or_insert_with(|| {
                                u64::from(
                                    analysis::is_consistent(&session.goal, list)
                                        .expect("unique-event"),
                                )
                            })
                    }
                }
                Action::Verify(p) => {
                    let timings = &mut self.untabled_verify_ns;
                    *memo
                        .entry(state_key(list, &format!("verify{p}")))
                        .or_insert_with(|| {
                            let t0 = Instant::now();
                            let v = analysis::verify(&session.goal, list, &session.properties[*p])
                                .expect("unique-event");
                            timings.push(t0.elapsed().as_nanos() as u64);
                            digest_verification(&v)
                        })
                }
                Action::VerifyAll => {
                    let timings = &mut self.untabled_verify_ns;
                    *memo
                        .entry(state_key(list, "verify_all"))
                        .or_insert_with(|| {
                            session.properties.iter().fold(0, |acc, p| {
                                let t0 = Instant::now();
                                let v =
                                    analysis::verify(&session.goal, list, p).expect("unique-event");
                                timings.push(t0.elapsed().as_nanos() as u64);
                                fold(acc, digest_verification(&v))
                            })
                        })
                }
                Action::Minimize => *memo.entry(state_key(list, "minimize")).or_insert_with(|| {
                    analysis::minimize_constraints(&session.goal, list)
                        .expect("unique-event")
                        .iter()
                        .fold(0, |acc, i| fold(acc, *i as u64 + 1))
                }),
            };
            out.push(digest);
        }
        out
    }

    /// Nanoseconds to open the four sessions and compile each once (the
    /// cold table fill a designer pays on opening a spec).
    pub fn session_build_ns(&self) -> u64 {
        let t0 = Instant::now();
        for s in &self.sessions {
            let mut analyzer = Analyzer::new(&s.goal, &s.constraints).expect("unique-event");
            std::hint::black_box(analyzer.compiled());
        }
        t0.elapsed().as_nanos() as u64
    }
}

impl Workload for VerifySession {
    fn generate(cfg: &RunConfig) -> VerifySession {
        let sessions = sessions(cfg.seed, cfg.smoke);
        let ops = if cfg.smoke {
            SCRIPT_OPS / 25
        } else {
            SCRIPT_OPS
        };
        let script = script(&sessions, cfg.seed, ops);
        let mut files: Vec<(String, String)> = sessions
            .iter()
            .map(|s| {
                (
                    format!("{}.ctr", s.name),
                    inputs::render_spec(s.name, &s.goal, &s.constraints),
                )
            })
            .collect();
        let mut listing = String::new();
        for op in &script {
            let name = sessions[op.session].name;
            let _ = match &op.action {
                Action::Replace { index, with } => {
                    writeln!(listing, "{name} replace {index} {with}")
                }
                Action::Remove { index } => writeln!(listing, "{name} remove {index}"),
                Action::Add(c) => writeln!(listing, "{name} add {c}"),
                Action::Consistent => writeln!(listing, "{name} consistent"),
                Action::Verify(p) => {
                    writeln!(
                        listing,
                        "{name} verify {}",
                        sessions[op.session].properties[*p]
                    )
                }
                Action::VerifyAll => writeln!(listing, "{name} verify_all"),
                Action::Minimize => writeln!(listing, "{name} minimize"),
            };
        }
        files.push(("script.txt".to_owned(), listing));
        inputs::save_inputs("verify_session", &files).expect("write generated inputs");
        VerifySession {
            sessions,
            script,
            expected: None,
            untabled_verify_ns: Vec::new(),
            output_nodes: 0,
            tail: HitCounts::default(),
            head: HitCounts::default(),
            table_entries: 0,
            table_interned: 0,
        }
    }

    fn reference(&mut self) {
        self.output_nodes = self
            .sessions
            .iter()
            .map(|s| {
                analysis::compile(&s.goal, &s.constraints)
                    .expect("unique-event")
                    .goal
                    .size() as u64
            })
            .sum();
        self.expected = Some(self.reference_digests());
    }

    fn repetition(&mut self, tracer: &mut Tracer) -> Rep {
        let t0 = Instant::now();
        let mut analyzers: Vec<Analyzer> = self
            .sessions
            .iter()
            .map(|s| Analyzer::new(&s.goal, &s.constraints).expect("unique-event"))
            .collect();
        let prepare_s = t0.elapsed().as_secs_f64();

        let mut sampler = LatencySampler::new(1, self.script.len());
        let mut failed = 0u64;
        let traced = tracer.is_on();
        let cpu0 = self_cpu_s();
        let t0 = Instant::now();
        for (i, op) in self.script.iter().enumerate() {
            let session = &self.sessions[op.session];
            let analyzer = &mut analyzers[op.session];
            let is_edit = matches!(
                op.action,
                Action::Replace { .. } | Action::Remove { .. } | Action::Add(_)
            );
            let digest = if traced {
                analyzer.reset_counters();
                let layer = if is_edit {
                    "core.memo.edit"
                } else {
                    "core.memo.query"
                };
                let digest = sampler.time(|| {
                    tracer.span("op", i as u32, |t| {
                        t.span(layer, i as u32, |_| execute(analyzer, session, &op.action))
                    })
                });
                if !is_edit {
                    let stats = analyzer.stats();
                    let counts = match op.site {
                        EditSite::Tail => &mut self.tail,
                        EditSite::Head => &mut self.head,
                    };
                    counts.hits += stats.hits;
                    counts.misses += stats.misses;
                }
                digest
            } else {
                sampler.time(|| execute(analyzer, session, &op.action))
            };
            if let Some(expected) = &self.expected {
                if expected[i] != digest {
                    failed += 1;
                }
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = self_cpu_s() - cpu0;
        if traced {
            self.table_entries = analyzers.iter().map(|a| a.stats().entries as u64).sum();
            self.table_interned = analyzers.iter().map(|a| a.stats().interned as u64).sum();
        }
        Rep {
            prepare_s,
            wall_s,
            cpu_s,
            ops: self.script.len() as u64,
            failed,
            lat_ns: sampler.samples,
            extra: vec![("output_nodes", self.output_nodes as f64)],
            ..Rep::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            seconds: 0.0,
            smoke: true,
        }
    }

    #[test]
    fn tabled_answers_match_the_untabled_reference() {
        let mut w = VerifySession::generate(&smoke_cfg(9));
        w.reference();
        let rep = w.repetition(&mut Tracer::off());
        assert_eq!(rep.failed, 0);
        assert_eq!(rep.ops as usize, w.script.len());
        let mut tracer = Tracer::on(Instant::now());
        assert_eq!(w.repetition(&mut tracer).failed, 0);
        assert!(w.tail.hits + w.tail.misses > 0);
        assert!(tracer.layer("core.memo.query").spans > 0);
    }

    #[test]
    fn the_script_is_a_function_of_the_seed_and_keeps_its_edit_mix() {
        let a = VerifySession::generate(&RunConfig {
            seed: 2,
            seconds: 0.0,
            smoke: false,
        });
        let b = VerifySession::generate(&RunConfig {
            seed: 2,
            seconds: 0.0,
            smoke: false,
        });
        let render = |w: &VerifySession| format!("{:?}", w.script);
        assert_eq!(render(&a), render(&b));
        let edits: Vec<&ScriptOp> = a
            .script
            .iter()
            .filter(|op| matches!(op.action, Action::Replace { .. } | Action::Remove { .. }))
            .collect();
        let tail = edits.iter().filter(|op| op.site == EditSite::Tail).count();
        let share = tail as f64 / edits.len() as f64;
        assert!((0.6..0.8).contains(&share), "tail share {share}");
    }

    #[test]
    fn a_wrong_reference_digest_is_a_failed_op() {
        let mut w = VerifySession::generate(&smoke_cfg(5));
        w.reference();
        w.expected.as_mut().unwrap()[3] ^= 0x55;
        assert_eq!(w.repetition(&mut Tracer::off()).failed, 1);
    }
}
