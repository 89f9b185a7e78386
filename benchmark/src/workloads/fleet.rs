//! Instance scripts shared by the fleet, socket and ladder workloads.
//!
//! A [`SpecPlan`] holds one deployable spec and a handful of seeded
//! **variants**: complete, valid event sequences through it, found by
//! random-walking the single-threaded [`Runtime`] — the same oracle the
//! results are later checked against. A fleet script assigns every
//! instance one variant and interleaves them.

use crate::inputs;
use crate::rng::Rng;
use ctr::timer::parse_tick;
use ctr_runtime::{InstanceStatus, Runtime, RuntimeError};

/// Logical milliseconds every `advance` op moves the clock by; also the
/// delay of the timed spec's `after` gate, so one advance opens every
/// gate armed before it.
pub const ADVANCE_STEP_MS: u64 = 30_000;

/// One step of an instance's life after `start`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanOp {
    /// Fire event `events[i]`; must be accepted.
    Fire(u16),
    /// Ask what is eligible.
    Eligible,
    /// Fire event `events[i]`, which is *not* eligible here; the typed
    /// refusal is the correct answer and the journal must not move.
    Refuse(u16),
    /// Wait until the fleet clock has advanced past this instance's
    /// `after` gate.
    Gate,
    /// Finish through silent steps.
    TryComplete,
}

/// A deployable spec with seeded walks through it.
#[derive(Clone, Debug)]
pub struct SpecPlan {
    /// Workflow name (as deployed).
    pub name: String,
    /// `.ctr` source.
    pub source: String,
    /// Event names `PlanOp` indexes into.
    pub events: Vec<String>,
    /// Complete op sequences, one per variant.
    pub variants: Vec<Vec<PlanOp>>,
    /// Size of the compiled goal.
    pub compiled_nodes: usize,
}

/// What a plan's walks contain besides the fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanStyle {
    /// `start` + every scripted fire, nothing else (socket workloads
    /// and the ladder).
    FiresOnly,
    /// Fires plus an `eligible` probe every 8 fires, one deliberately
    /// ineligible fire and a final `try_complete` (the embedder's mix).
    Mixed,
}

impl SpecPlan {
    /// Compiles `source`, then walks it `variants` times.
    pub fn build(source: &str, rng: &mut Rng, variants: usize, style: PlanStyle) -> SpecPlan {
        let spec = ctr_parser::parse_spec(source).expect("benchmark specs parse");
        let compiled = spec.compile().expect("benchmark specs compile");
        assert!(compiled.is_consistent(), "benchmark specs are consistent");
        let events: Vec<String> = compiled
            .goal
            .events()
            .iter()
            .map(|e| e.as_str().to_owned())
            .filter(|e| parse_tick(e).is_none())
            .collect();
        let index_of = |name: &str| -> u16 {
            events
                .iter()
                .position(|e| e == name)
                .expect("eligible events come from the goal's alphabet") as u16
        };
        let mut oracle = Runtime::new();
        let name = oracle.deploy_source(source).expect("deploys");
        let walks = (0..variants)
            .map(|_| {
                let id = oracle.start(&name).expect("deployed");
                let mut ops = Vec::new();
                let mut fires = 0usize;
                // Where the ineligible fire goes: after this many fires.
                let refuse_after = 1 + rng.below(3);
                loop {
                    let eligible = oracle.eligible(id).expect("live instance");
                    if eligible.is_empty() {
                        let gated = oracle.status(id) == Ok(InstanceStatus::Running)
                            && oracle
                                .pending_timers(id)
                                .expect("live instance")
                                .iter()
                                .any(|(tick, _)| tick.contains("@after"));
                        if !gated {
                            break;
                        }
                        ops.push(PlanOp::Gate);
                        let to = oracle.clock_ms() + ADVANCE_STEP_MS;
                        oracle.advance(to).expect("no store, cannot fail");
                        continue;
                    }
                    let event = &eligible[rng.below(eligible.len())];
                    oracle.fire(id, event).expect("eligible events fire");
                    ops.push(PlanOp::Fire(index_of(event)));
                    fires += 1;
                    if style == PlanStyle::Mixed {
                        if fires == refuse_after {
                            // Unique-event property: an event that has
                            // fired can never be eligible again.
                            let fired: Vec<u16> = ops
                                .iter()
                                .filter_map(|op| match op {
                                    PlanOp::Fire(e) => Some(*e),
                                    _ => None,
                                })
                                .collect();
                            let again = fired[rng.below(fired.len())];
                            assert!(
                                matches!(
                                    oracle.fire(id, &events[again as usize]),
                                    Err(RuntimeError::NotEligible { .. })
                                ),
                                "re-firing a fired event is refused"
                            );
                            ops.push(PlanOp::Refuse(again));
                        }
                        if fires.is_multiple_of(8) {
                            ops.push(PlanOp::Eligible);
                        }
                    }
                }
                if style == PlanStyle::Mixed {
                    ops.push(PlanOp::TryComplete);
                }
                ops
            })
            .collect();
        SpecPlan {
            name,
            source: source.to_owned(),
            events,
            variants: walks,
            compiled_nodes: compiled.goal.size(),
        }
    }

    /// Fires in variant `v`.
    pub fn fires_in(&self, v: usize) -> usize {
        self.variants[v]
            .iter()
            .filter(|op| matches!(op, PlanOp::Fire(_)))
            .count()
    }
}

/// The fire sequence of a rotating window: fire `k` goes to slot
/// `k % window`, each slot walking its instance's variant to the end
/// before taking the next `(ordinal, variant)`. This is the arrival
/// order the socket workloads send and every ladder rung replays.
pub fn rotate_fires(plan: &SpecPlan, ordinals: &[(u32, u8)], window: usize) -> Vec<(u32, u16)> {
    let mut slots: Vec<Option<(u32, &[PlanOp], usize)>> = vec![None; window];
    let mut next = ordinals.iter();
    let mut fires: Vec<(u32, u16)> = Vec::new();
    let mut idle = 0;
    let mut k = 0usize;
    while idle < window {
        let slot = &mut slots[k % window];
        k += 1;
        if slot.is_none_or(|(_, ops, at)| at == ops.len()) {
            *slot = next.next().map(|&(ordinal, variant)| {
                (ordinal, plan.variants[variant as usize].as_slice(), 0)
            });
        }
        match slot {
            Some((ordinal, ops, at)) => {
                let PlanOp::Fire(event) = ops[*at] else {
                    unreachable!("rotating windows take fires-only plans");
                };
                fires.push((*ordinal, event));
                *at += 1;
                idle = 0;
            }
            None => idle += 1,
        }
    }
    fires
}

/// The `layered16x2` workflow with its 15 stage orders — the spec the
/// fleet, the socket workloads and every ladder rung share, so their
/// per-fire costs are comparable.
pub fn layered_orders_source(rng: &mut Rng) -> String {
    inputs::render_spec(
        "layered16x2",
        &ctr::gen::layered_workflow(16, 2),
        &inputs::stage_orders(rng, 16, 2),
    )
}

/// A spec with an `after` gate (armed at start, opened by `advance`)
/// and a `deadline` watchdog (armed at start, cancelled structurally
/// when its event fires — it never expires inside a run).
pub const TIMED_SOURCE: &str = "workflow timed_intake {
    graph receive_claim * (assess # reserve) * cooling_off_done * settle * close_claim;
    after(cooling_off_done, 30s);
    deadline(close_claim, 1000h);
}
";

/// FNV-1a over a list of names — the digest both sides of a journal or
/// `eligible` comparison compute.
pub fn digest_names<S: AsRef<str>>(names: &[S]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for name in names {
        for b in name.as_ref().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_are_complete_valid_and_seeded() {
        let mut rng = Rng::new(4);
        let source = layered_orders_source(&mut rng);
        let plan = SpecPlan::build(&source, &mut rng, 4, PlanStyle::Mixed);
        assert_eq!(plan.name, "layered16x2");
        for (v, ops) in plan.variants.iter().enumerate() {
            assert_eq!(plan.fires_in(v), 32, "one event per lane per stage");
            assert_eq!(
                ops.iter()
                    .filter(|op| matches!(op, PlanOp::Refuse(_)))
                    .count(),
                1
            );
            assert_eq!(ops.iter().filter(|op| **op == PlanOp::Eligible).count(), 4);
            assert_eq!(ops.last(), Some(&PlanOp::TryComplete));
        }
        let mut rng2 = Rng::new(4);
        let source2 = layered_orders_source(&mut rng2);
        let plan2 = SpecPlan::build(&source2, &mut rng2, 4, PlanStyle::Mixed);
        assert_eq!(source, source2);
        assert_eq!(plan.variants, plan2.variants);
    }

    #[test]
    fn the_timed_spec_gates_on_advance() {
        let plan = SpecPlan::build(TIMED_SOURCE, &mut Rng::new(1), 2, PlanStyle::FiresOnly);
        for ops in &plan.variants {
            assert_eq!(ops.iter().filter(|op| **op == PlanOp::Gate).count(), 1);
            assert!(matches!(ops.last(), Some(PlanOp::Fire(_))));
        }
        assert!(plan.events.iter().all(|e| !e.contains('@')));
    }

    #[test]
    fn digests_separate_names() {
        assert_ne!(digest_names(&["ab", "c"]), digest_names(&["a", "bc"]));
        assert_eq!(
            digest_names(&["a", "b"]),
            digest_names(&[String::from("a"), String::from("b")])
        );
    }
}
