//! The checked-in specs of `examples/specs/` through the CLI, with the
//! flags an operator would type. Each case goes through `ctr_cli::run`,
//! the argv dispatcher `main` calls, so the flag parsing is covered as
//! well as `cmd_enact`, `cmd_verify` and `cmd_run`.
//!
//! * **Enact** — `payment_saga` completes clean, recovers injected
//!   faults through retries, and ends an unrecoverable plan in a typed
//!   failure (exit 1); `retry_polling` meets its publish deadline, and
//!   misses it when `publish` is delayed past it, with the committed
//!   prefix's compensation plan. A hang here is the headline bug, so every
//!   run has a watchdog.
//! * **Verify** — three properties of `payment_saga` in one session.
//! * **A doctored checkpoint** — a checkpoint `timer` line naming an
//!   ordinary event is refused by every verb that opens the store,
//!   without touching a segment, and the store recovers once the
//!   original checkpoint is back.

use ctr_cli::{run, CliError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

/// Longer than any run below takes by far (the slowest waits out a 1 s
/// deadline).
const WATCHDOG: Duration = Duration::from_secs(60);

fn spec(name: &str) -> String {
    format!("{}/../../examples/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// `ctr <args>`, on a thread, failing the test if it does not return.
fn ctr(args: &[&str]) -> Result<String, CliError> {
    let args: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
    let (tx, rx) = mpsc::channel();
    let what = args.join(" ");
    std::thread::spawn(move || tx.send(run(&args)));
    rx.recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("`ctr {what}` did not return"))
}

#[test]
fn enact_payment_saga_clean_recovered_and_aborted() {
    let saga = spec("payment_saga.ctr");
    let out = ctr(&["enact", &saga]).unwrap();
    assert!(out.contains("COMPLETED:"), "{out}");
    assert!(out.contains(", 0 retries"), "{out}");

    let out = ctr(&[
        "enact",
        &saga,
        "--seed",
        "1",
        "--attempts",
        "3",
        "--faults",
        "charge_card=fail:2,notify=delay:5",
    ])
    .unwrap();
    assert!(out.contains("attempt 3 of `charge_card`: ok"), "{out}");
    assert!(out.contains("COMPLETED:"), "{out}");
    assert!(out.contains(", 2 retries"), "{out}");

    let err = ctr(&[
        "enact",
        &saga,
        "--attempts",
        "2",
        "--faults",
        "notify=fail:99",
    ])
    .unwrap_err();
    assert_eq!(err.code, 1, "{}", err.message);
    assert!(
        err.message.contains("FAILED: activity `notify` failed"),
        "{}",
        err.message
    );
}

#[test]
fn enact_retry_polling_meets_and_misses_its_deadline() {
    let polling = spec("retry_polling.ctr");
    let out = ctr(&["enact", &polling]).unwrap();
    assert!(out.contains("COMPLETED:"), "{out}");

    let err = ctr(&[
        "enact",
        &polling,
        "--faults",
        "publish=delay:1500",
        "--compensate",
        "collect=discard_partial",
    ])
    .unwrap_err();
    assert_eq!(err.code, 1, "{}", err.message);
    assert!(
        err.message
            .contains("deadline on `publish` expired after 1s"),
        "{}",
        err.message
    );
    assert!(
        err.message.contains("compensation: discard_partial"),
        "{}",
        err.message
    );
}

#[test]
fn verify_answers_three_properties_of_the_saga_in_one_session() {
    let out = ctr(&[
        "verify",
        &spec("payment_saga.ctr"),
        "-p",
        "klein_order(accept, charge_card)",
        "-p",
        "klein_order(reserve_stock, risk_check)",
        "-p",
        "exists(accept)",
        "--stats",
    ])
    .unwrap();
    assert!(out.contains("3 of 3 properties hold"), "{out}");
    assert!(out.contains("memo:"), "{out}");
}

/// Every segment file under `store`, by path, with its bytes.
fn segments(store: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut found = BTreeMap::new();
    let mut dirs = vec![store.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "seg") {
                found.insert(path.clone(), std::fs::read(&path).unwrap());
            }
        }
    }
    found
}

#[test]
fn a_doctored_checkpoint_is_refused_by_every_verb_that_opens_the_store() {
    let store = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("ctr_doctored_store_{}", std::process::id()));
    std::fs::remove_dir_all(&store).ok();
    let dir = store.display().to_string();
    let session = |verb: &[&str]| {
        let mut args = vec!["run", "--store", &dir];
        args.extend(verb);
        ctr(&args)
    };
    session(&["deploy", &spec("order_fulfilment.ctr")]).unwrap();
    session(&["start", "order_fulfilment"]).unwrap();
    session(&["snapshot"]).unwrap();
    session(&["start", "order_fulfilment"]).unwrap();

    let checkpoint = store.join("checkpoint.snap");
    let original = std::fs::read(&checkpoint).unwrap();
    let mut doctored = original.clone();
    doctored.extend_from_slice(b"timer 0 take_order due 5\n");
    std::fs::write(&checkpoint, doctored).unwrap();
    let before = segments(&store);
    assert!(!before.is_empty(), "the second start is in a segment");

    for verb in [&["status", "0"][..], &["advance", "10"], &["recover"]] {
        let err = session(verb).unwrap_err();
        assert_eq!(err.code, 1, "{verb:?}: {}", err.message);
        assert!(
            err.message.contains("snapshot error: ")
                && err.message.contains("timer 0 take_order due 5"),
            "{verb:?}: {}",
            err.message
        );
    }
    assert_eq!(segments(&store), before, "no segment byte changed");

    std::fs::write(&checkpoint, original).unwrap();
    let out = session(&["recover"]).unwrap();
    assert!(out.contains("1 workflows, 2 instances"), "{out}");
    std::fs::remove_dir_all(&store).ok();
}
