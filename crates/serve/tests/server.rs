//! End-to-end tests over real loopback TCP: the full verb set, burst
//! pipelining on one connection, protocol-fault handling, and clean
//! shutdown with idle connections open.

use ctr_runtime::SharedRuntime;
use ctr_serve::protocol::{self, FaultCode};
use ctr_serve::{
    Client, ClientError, Request, Response, ServeOptions, Server, WireOutcome, WireStatus,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

const PAY: &str = "workflow pay { graph invoice * (approve + reject) * file; }";

fn spawn(
    runtime: SharedRuntime,
) -> (
    SocketAddr,
    ctr_serve::ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(runtime, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

#[test]
fn every_verb_round_trips_and_shutdown_is_clean() {
    let rt = SharedRuntime::new();
    let (addr, _handle, join) = spawn(rt.clone());

    // An idle second connection must not block shutdown.
    let idle = Client::connect(addr).unwrap();

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.deploy(PAY).unwrap(), "pay");
    let id = client.start("pay").unwrap();
    assert_eq!(client.eligible(id).unwrap(), vec!["invoice"]);
    assert_eq!(client.fire(id, "invoice").unwrap(), WireStatus::Running);
    let outcomes = client
        .fire_batch(id, &["approve".to_owned(), "file".to_owned()])
        .unwrap();
    assert_eq!(outcomes.len(), 2);

    // A second instance through fire_many.
    let id2 = client.start("pay").unwrap();
    let outcomes = client
        .fire_many(&[(id2, "invoice".to_owned()), (id2, "reject".to_owned())])
        .unwrap();
    assert_eq!(outcomes.len(), 2);

    // The wire snapshot is the server runtime's snapshot, verbatim.
    assert_eq!(client.snapshot().unwrap(), rt.snapshot());

    let stats = client.stats().unwrap();
    assert_eq!(stats.instances, 2);

    // Typed fault for a ghost instance.
    match client.fire(999_999, "invoice") {
        Err(ClientError::Fault(fault)) => assert_eq!(fault.code, FaultCode::UnknownInstance),
        other => panic!("expected UnknownInstance fault, got {other:?}"),
    }

    client.shutdown().unwrap();
    join.join().unwrap().unwrap();

    // The server runtime is still usable in-process after shutdown.
    assert_eq!(rt.journal(id).unwrap(), vec!["invoice", "approve", "file"]);
    drop(idle);
}

#[test]
fn pipelined_burst_over_one_connection_matches_in_process() {
    let served = SharedRuntime::new();
    let (addr, handle, join) = spawn(served.clone());
    let local = SharedRuntime::new();

    let mut client = Client::connect(addr).unwrap();
    client.deploy(PAY).unwrap();
    local.deploy_source(PAY).unwrap();
    let wire_a = client.start("pay").unwrap();
    let wire_b = client.start("pay").unwrap();
    let local_a = local.start("pay").unwrap();
    let local_b = local.start("pay").unwrap();

    // Interleaved fire + fire_batch over two instances, with a
    // mid-sequence ineligible event, all in one flush.
    let script: Vec<(u64, u64, Vec<&str>)> = vec![
        (wire_a, local_a, vec!["invoice"]),
        (wire_b, local_b, vec!["invoice", "reject"]),
        (wire_a, local_a, vec!["file"]), // ineligible: approve/reject first
        (wire_a, local_a, vec!["approve", "file"]),
        (wire_b, local_b, vec!["file"]),
    ];
    for (wire_id, _, events) in &script {
        if events.len() == 1 {
            client.send(&Request::Fire {
                instance: *wire_id,
                event: events[0].to_owned(),
            });
        } else {
            client.send(&Request::FireBatch {
                instance: *wire_id,
                events: events.iter().map(|s| s.to_string()).collect(),
            });
        }
    }
    client.flush().unwrap();
    let wire_responses: Vec<Response> = script.iter().map(|_| client.recv().unwrap()).collect();

    // The same sequence, sequential in-process calls.
    for (i, (_, local_id, events)) in script.iter().enumerate() {
        if events.len() == 1 {
            let fired = local.fire(*local_id, events[0]);
            match (&wire_responses[i], &fired) {
                (Response::Status(_), Ok(_)) | (Response::Error(_), Err(_)) => {}
                other => panic!("request {i} diverged: {other:?}"),
            }
        } else {
            let outcomes = local.fire_batch(*local_id, events).unwrap();
            let outcomes: Vec<WireOutcome> =
                outcomes.iter().map(WireOutcome::from_runtime).collect();
            match &wire_responses[i] {
                Response::Outcomes(wire) => assert_eq!(wire, &outcomes, "request {i}"),
                other => panic!("request {i}: expected Outcomes, got {other:?}"),
            }
        }
    }
    assert_eq!(
        served.journal(wire_a).unwrap(),
        local.journal(local_a).unwrap()
    );
    assert_eq!(
        served.journal(wire_b).unwrap(),
        local.journal(local_b).unwrap()
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn a_corrupt_frame_gets_a_typed_error_then_the_connection_closes() {
    let rt = SharedRuntime::new();
    rt.deploy_source(PAY).unwrap();
    let id = rt.start("pay").unwrap();
    let (addr, handle, join) = spawn(rt.clone());

    // One well-formed request followed by a CRC-corrupt frame in the
    // same write: the good request still executes, the fault gets a
    // typed Protocol error, then the server closes the connection.
    let mut bytes = Vec::new();
    let mut payload = Vec::new();
    protocol::encode_request(
        &Request::Fire {
            instance: id,
            event: "invoice".to_owned(),
        },
        &mut payload,
    );
    protocol::encode_frame(&payload, &mut bytes);
    let mut bad = Vec::new();
    protocol::encode_frame(&payload, &mut bad);
    let last = bad.len() - 1;
    bad[last] ^= 0x40; // corrupt the payload under an unchanged CRC
    bytes.extend_from_slice(&bad);

    let responses = write_then_read_to_eof(addr, &bytes);
    assert_eq!(responses.len(), 2, "good request answered, fault typed");
    assert!(matches!(
        responses[0],
        Response::Status(WireStatus::Running)
    ));
    match &responses[1] {
        Response::Error(fault) => assert_eq!(fault.code, FaultCode::Protocol),
        other => panic!("expected Protocol fault, got {other:?}"),
    }
    // The committed fire survived the connection teardown.
    assert_eq!(rt.journal(id).unwrap(), vec!["invoice"]);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Writes `bytes` in one piece, reads until the server closes, and
/// decodes everything it sent.
fn write_then_read_to_eof(addr: SocketAddr, bytes: &[u8]) -> Vec<Response> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(bytes).unwrap();
    let mut rx = Vec::new();
    stream.read_to_end(&mut rx).unwrap();
    let mut responses = Vec::new();
    while let Some((consumed, payload)) = protocol::split_frame(&rx).unwrap() {
        responses.push(protocol::decode_response(payload).unwrap());
        rx.drain(..consumed);
    }
    assert!(rx.is_empty(), "no torn trailing bytes from the server");
    responses
}

#[test]
fn a_bad_name_deep_in_a_batch_commits_nothing_of_its_frame() {
    let rt = SharedRuntime::new();
    rt.deploy_source(PAY).unwrap();
    let id = rt.start("pay").unwrap();
    let (addr, handle, join) = spawn(rt.clone());

    // A good fire, then — same write, intact CRC — a fire_batch whose
    // third name is not UTF-8. Its first two names are eligible events:
    // were the batch executed as far as it decodes, they would commit.
    let mut bytes = Vec::new();
    let mut payload = Vec::new();
    protocol::encode_request(
        &Request::Fire {
            instance: id,
            event: "invoice".to_owned(),
        },
        &mut payload,
    );
    protocol::encode_frame(&payload, &mut bytes);
    payload.clear();
    protocol::encode_request(
        &Request::FireBatch {
            instance: id,
            events: vec!["approve".to_owned(), "file".to_owned(), "zz".to_owned()],
        },
        &mut payload,
    );
    let len = payload.len();
    payload[len - 2..].copy_from_slice(&[0xff, 0xfe]);
    protocol::encode_frame(&payload, &mut bytes);

    let responses = write_then_read_to_eof(addr, &bytes);
    assert_eq!(responses.len(), 2, "{responses:?}");
    assert!(matches!(
        responses[0],
        Response::Status(WireStatus::Running)
    ));
    match &responses[1] {
        Response::Error(fault) => {
            assert_eq!(fault.code, FaultCode::Protocol);
            assert!(fault.message.contains("utf-8"), "{}", fault.message);
        }
        other => panic!("expected Protocol fault, got {other:?}"),
    }
    assert_eq!(rt.journal(id).unwrap(), vec!["invoice"]);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn handle_shutdown_unblocks_a_server_with_no_traffic() {
    let (_, handle, join) = spawn(SharedRuntime::new());
    handle.shutdown();
    join.join().unwrap().unwrap();
}
