//! The serving acceptance property: any interleaving of pipelined
//! `fire` / `fire_batch` requests over one connection commits exactly
//! the journal the same sequence produces through in-process calls.
//! The server may batch a burst into `fire_runs` — one instance-lock
//! acquisition and one store append per instance per burst — but it
//! must never reorder one instance's requests or leak one request's
//! failure into another.

use ctr_runtime::Runtime;
use ctr_serve::{Client, Request, Response, ServeOptions, Server};
use proptest::prelude::*;

/// Small spec with branching so random event picks hit eligible,
/// ineligible, and completed states.
const PAY: &str = "workflow pay { graph invoice * (approve + reject) * file; }";
const EVENTS: [&str; 5] = ["invoice", "approve", "reject", "file", "bogus"];
const INSTANCES: usize = 3;

#[derive(Clone, Debug)]
enum Op {
    Fire(usize, usize),
    FireBatch(usize, Vec<usize>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0..INSTANCES), (0..EVENTS.len())).prop_map(|(slot, e)| Op::Fire(slot, e)),
        (
            (0..INSTANCES),
            proptest::collection::vec(0..EVENTS.len(), 1..4)
        )
            .prop_map(|(slot, events)| Op::FireBatch(slot, events)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipelined_wire_bursts_commit_the_in_process_journal(
        ops in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        // Served side: one connection, every op pipelined into a
        // single flush so the server sees (up to) one big burst.
        let served = Runtime::new();
        let server =
            Server::bind(served.clone(), "127.0.0.1:0", ServeOptions::default()).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());

        let mut client = Client::connect(addr).unwrap();
        client.deploy(PAY).unwrap();
        let wire_ids: Vec<u64> = (0..INSTANCES).map(|_| client.start("pay").unwrap()).collect();

        // In-process oracle: the same sequence, one call at a time.
        let local = Runtime::new();
        local.deploy_source(PAY).unwrap();
        let local_ids: Vec<u64> = (0..INSTANCES).map(|_| local.start("pay").unwrap()).collect();

        for op in &ops {
            match op {
                Op::Fire(slot, e) => client.send(&Request::Fire {
                    instance: wire_ids[*slot],
                    event: EVENTS[*e].to_owned(),
                }),
                Op::FireBatch(slot, events) => client.send(&Request::FireBatch {
                    instance: wire_ids[*slot],
                    events: events.iter().map(|e| EVENTS[*e].to_owned()).collect(),
                }),
            }
        }
        client.flush().unwrap();
        let responses: Vec<Response> = ops.iter().map(|_| client.recv().unwrap()).collect();

        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Fire(slot, e) => {
                    let oracle = local.fire(local_ids[*slot], EVENTS[*e]);
                    match (&responses[i], oracle) {
                        (Response::Status(_), Ok(_)) => {}
                        (Response::Error(_), Err(_)) => {}
                        (wire, oracle) => {
                            prop_assert!(false, "op {i} diverged: wire {wire:?} vs {oracle:?}")
                        }
                    }
                }
                Op::FireBatch(slot, events) => {
                    let names: Vec<&str> = events.iter().map(|e| EVENTS[*e]).collect();
                    let oracle = local.fire_batch(local_ids[*slot], &names).unwrap();
                    match &responses[i] {
                        Response::Outcomes(wire) => {
                            prop_assert_eq!(wire.len(), oracle.len(), "op {}", i);
                            for (w, o) in wire.iter().zip(&oracle) {
                                let same = matches!(
                                    (w, o),
                                    (
                                        ctr_serve::WireOutcome::Fired(_),
                                        ctr_runtime::FireOutcome::Fired(_)
                                    ) | (
                                        ctr_serve::WireOutcome::Rejected(_),
                                        ctr_runtime::FireOutcome::Rejected(_)
                                    ) | (
                                        ctr_serve::WireOutcome::Skipped,
                                        ctr_runtime::FireOutcome::Skipped
                                    )
                                );
                                prop_assert!(same, "op {} outcome diverged: {:?} vs {:?}", i, w, o);
                            }
                        }
                        other => prop_assert!(false, "op {i}: expected Outcomes, got {other:?}"),
                    }
                }
            }
        }

        // The committed state is identical, instance by instance.
        for (wire_id, local_id) in wire_ids.iter().zip(&local_ids) {
            prop_assert_eq!(
                served.journal(*wire_id).unwrap(),
                local.journal(*local_id).unwrap()
            );
        }
        prop_assert_eq!(served.snapshot(), local.snapshot());

        handle.shutdown();
        join.join().unwrap().unwrap();
    }
}

/// A 15 KB `deploy` frame — `iso(` 3 000 deep — used to overflow the
/// connection thread's stack in the parser and abort the whole server.
/// It is a typed fault now, and the same server, over the same
/// connection, answers the next request.
#[test]
fn hostile_nesting_in_a_deploy_frame_is_a_typed_fault_and_the_server_lives() {
    let server = Server::bind(Runtime::new(), "127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).unwrap();
    let deep = format!(
        "workflow deep {{ graph {}a{}; }}",
        "iso(".repeat(3_000),
        ")".repeat(3_000)
    );
    match client.deploy(&deep) {
        Err(ctr_serve::ClientError::Fault(fault)) => {
            assert_eq!(fault.code, ctr_serve::FaultCode::Spec);
            assert!(
                fault.message.contains("nesting exceeds the limit of"),
                "{fault}"
            );
        }
        other => panic!("expected a spec fault, got {other:?}"),
    }
    assert_eq!(client.stats().unwrap().instances, 0);
    assert_eq!(client.deploy(PAY).unwrap(), "pay");
    // … and so does a second connection.
    assert_eq!(Client::connect(addr).unwrap().stats().unwrap().instances, 0);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// An inconsistent `deploy` is a `Spec` fault whose message names the
/// constraints that conflict, as `ctr check` does.
#[test]
fn an_inconsistent_deploy_names_its_conflict_over_the_wire() {
    let server = Server::bind(Runtime::new(), "127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let spec = "workflow knot { graph a # b # c; constraint before(a, b); \
                constraint exists(c); constraint before(b, a); }";
    match Client::connect(addr).unwrap().deploy(spec) {
        Err(ctr_serve::ClientError::Fault(fault)) => {
            assert_eq!(fault.code, ctr_serve::FaultCode::Spec);
            assert!(
                (fault.message).ends_with(
                    "cannot be deployed: constraints 1 (serial(a, b)) and 3 (serial(b, a)) conflict"
                ),
                "{fault}"
            );
        }
        other => panic!("expected a spec fault, got {other:?}"),
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}
