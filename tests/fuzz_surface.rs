//! Robustness tests for the user-facing surfaces: the parser never
//! panics on arbitrary input, the analysis pipeline is total on
//! whatever the parser accepts, and the persistence boundary — snapshot
//! restore and write-ahead-log recovery — is total on corrupt bytes.

use ctr_parser::{lex, parse_constraint, parse_goal, parse_spec};
use proptest::prelude::*;

/// A small but representative runtime snapshot to corrupt: two
/// workflows, a running instance and a completed one.
fn seed_snapshot() -> String {
    let mut rt = ctr_runtime::Runtime::new();
    rt.deploy_source("workflow pay { graph invoice * (approve # audit) * archive; }")
        .unwrap();
    rt.deploy_source("workflow ship { graph pick * pack * dispatch; }")
        .unwrap();
    let a = rt.start("pay").unwrap();
    rt.fire(a, "invoice").unwrap();
    let b = rt.start("ship").unwrap();
    for event in ["pick", "pack", "dispatch"] {
        rt.fire(b, event).unwrap();
    }
    rt.try_complete(b).unwrap();
    rt.snapshot()
}

/// Workflow lines whose channel ids sit as far up `u32` as text can put
/// them: tables sized by the id's value used to overflow on the first
/// and take 1.2 GB for the second.
const FAR_CHANNELS: [&str; 2] = [
    "workflow w := a * send(xi4294967295) * receive(xi4294967295) * b",
    "workflow w := a * send(xi300000000) * receive(xi300000000) * b",
];

/// A snapshot with `timer` lines: two timed workflows, an instance of
/// each, its one timer pending under it.
fn timed_snapshot() -> String {
    let mut rt = ctr_runtime::Runtime::new();
    rt.deploy_source("workflow timed { graph invoice * approve * file; deadline(approve, 1h); }")
        .unwrap();
    rt.deploy_source("workflow other { graph a * b; after(b, 5s); }")
        .unwrap();
    let timed = rt.start("timed").unwrap();
    rt.fire(timed, "invoice").unwrap();
    rt.start("other").unwrap();
    rt.snapshot()
}

/// The seed as it is, and with a line spliced in before the instance
/// lines: two restore must refuse — an id with no successor (`id + 1`
/// used to overflow), a second line for an id the seed already holds —
/// and the [`FAR_CHANNELS`]; and the [`timed_snapshot`].
fn seed_snapshots() -> [String; 6] {
    let seed = seed_snapshot();
    let at = seed.find("instance ").unwrap();
    let with = |line: &str| format!("{}{line}\n{}", &seed[..at], &seed[at..]);
    [
        with("instance 18446744073709551615 of ship [running]: pick"),
        with("instance 1 of pay [running]: invoice"),
        with(FAR_CHANNELS[0]),
        with(FAR_CHANNELS[1]),
        seed,
        timed_snapshot(),
    ]
}

/// What a canonical snapshot's `timer` lines must satisfy: each sits
/// under its own instance's line, names a tick that instance's workflow
/// declares, and is the only line for it.
fn assert_timer_lines_are_declared_ticks(snapshot: &str) {
    let mut ticks_of = std::collections::BTreeMap::new();
    let (mut instance, mut seen) = (None, Vec::new());
    for line in snapshot.lines() {
        if let Some(rest) = line.strip_prefix("workflow ") {
            let (name, goal) = rest.split_once(" := ").unwrap();
            let events = parse_goal(goal).unwrap().events();
            let ticks: Vec<&str> = events.iter().map(|e| e.as_str()).collect();
            ticks_of.insert(name, ticks);
        } else if let Some(rest) = line.strip_prefix("instance ") {
            let mut words = rest.split_whitespace();
            instance = Some((words.next().unwrap(), words.nth(1).unwrap()));
            seen.clear();
        } else if let Some(rest) = line.strip_prefix("timer ") {
            let mut words = rest.split_whitespace();
            let (id, tick) = (words.next().unwrap(), words.next().unwrap());
            let (of, workflow) = instance.expect("a timer line follows an instance line");
            assert_eq!(id, of, "{line}");
            assert!(ctr::timer::parse_tick(tick).is_some(), "{line}");
            assert!(ticks_of[workflow].contains(&tick), "{line}");
            assert!(!seen.contains(&tick), "{line}");
            seen.push(tick);
        }
    }
}

/// A channel id from text costs what the goal costs, wherever in `u32`
/// it lies: a restored or deployed workflow naming one starts, runs to
/// completion and snapshots back to the same bytes.
#[test]
fn far_channel_ids_restore_deploy_and_run() {
    use ctr_runtime::{InstanceStatus, Runtime, SharedRuntime};
    let run = |rt: &mut Runtime, events: &[&str]| {
        let id = rt.start("w").unwrap();
        for event in events {
            rt.fire(id, event).unwrap();
        }
        assert_eq!(rt.try_complete(id).unwrap(), InstanceStatus::Completed);
        let snapshot = rt.snapshot();
        assert_eq!(Runtime::restore(&snapshot).unwrap().snapshot(), snapshot);
        assert_eq!(
            SharedRuntime::restore(&snapshot).unwrap().snapshot(),
            snapshot
        );
    };
    for line in FAR_CHANNELS {
        let text = format!("ctr-runtime snapshot v1\n{line}\n");
        let mut rt = Runtime::restore(&text).unwrap();
        assert_eq!(rt.snapshot(), text);
        run(&mut rt, &["a", "b"]);
    }
    // Through the compiler, which needs an id of its own for `before`.
    let mut rt = Runtime::new();
    rt.deploy_source(
        "workflow w { graph a * send(xi4294967295) * receive(xi4294967295) * b * c; \
         constraint before(a, c); }",
    )
    .unwrap();
    run(&mut rt, &["a", "b", "c"]);
}

/// `iso(iso(…a…))`, 3 000 deep: 15 KB of text that took more stack to
/// parse than a 2 MiB thread — a test's, a server connection's — has, and
/// an overflow aborts the process.
fn hostile_nesting() -> String {
    format!("{}a{}", "iso(".repeat(3_000), ")".repeat(3_000))
}

/// Nesting past the parser's bound is a typed error at every door text
/// comes in through, on this default-stack test thread.
#[test]
fn hostile_nesting_is_a_typed_error_wherever_text_enters() {
    use ctr_runtime::{Runtime, RuntimeError, SharedRuntime};
    let deep = hostile_nesting();
    let spec = format!("workflow deep {{ graph {deep}; }}");
    for error in [
        parse_goal(&deep).unwrap_err(),
        parse_spec(&spec).unwrap_err(),
        parse_constraint(&deep.replace("iso(", "not(").replace('a', "exists(a)")).unwrap_err(),
        parse_goal(&deep.replace("iso(", "f(").replace("f(a", "p(a")).unwrap_err(),
    ] {
        assert_eq!(error.message, "nesting exceeds the limit of 128 levels");
        assert_eq!(error.line, 1);
    }
    let refused = |e: &str| e.contains("nesting exceeds the limit of 128 levels at 1:");
    assert!(matches!(
        Runtime::new().deploy_source(&spec),
        Err(RuntimeError::Parse(e)) if refused(&e)
    ));
    assert!(matches!(
        SharedRuntime::new().deploy_source(&spec),
        Err(RuntimeError::Parse(e)) if refused(&e)
    ));
    // The same text as a snapshot's workflow line.
    let snapshot = format!("ctr-runtime snapshot v1\nworkflow deep := {deep}\n");
    assert!(matches!(
        Runtime::restore(&snapshot),
        Err(RuntimeError::Snapshot(e)) if refused(&e)
    ));
    assert!(matches!(
        SharedRuntime::restore(&snapshot),
        Err(RuntimeError::Snapshot(e)) if refused(&e)
    ));
}

/// What the bound lets through, every later recursion gets through too,
/// on a thread with the default stack: 127 levels that each put a `∨`, a
/// `|`, a `⊗` and a `⊙` on the way down (four tree levels per level of
/// text) go through lowering, the unique-event check, `Apply` and `Excise`
/// (an order across all the blocks), program compilation, a scheduler run,
/// a snapshot, its restore, and `Drop`.
#[test]
fn the_deepest_accepted_nesting_runs_through_every_pass() {
    use ctr_runtime::{InstanceStatus, Runtime};
    let levels = 127;
    let graph = (0..levels).rev().fold("z".to_owned(), |inner, i| {
        format!("a{i} + b{i} # c{i} * iso({inner})")
    });
    let source = format!("workflow deep {{ graph {graph}; constraint before(b0, z); }}");
    std::thread::spawn(move || {
        let spec = parse_spec(&source).unwrap();
        let compiled = spec.compile().unwrap();
        assert!(compiled.is_consistent());
        assert_eq!(compiled.goal.channels().len(), 1);
        let program = ctr_engine::Program::compile(&compiled.goal).unwrap();
        let path = ctr_engine::Scheduler::new(&program).run_first().unwrap();
        assert!(path.iter().any(|step| step.pred.as_str() == "z"));

        let mut rt = Runtime::new();
        rt.deploy_source(&source).unwrap();
        let id = rt.start("deep").unwrap();
        for event in &path {
            rt.fire(id, event.pred.as_str()).unwrap();
        }
        assert_eq!(rt.try_complete(id).unwrap(), InstanceStatus::Completed);
        let snapshot = rt.snapshot();
        assert_eq!(Runtime::restore(&snapshot).unwrap().snapshot(), snapshot);
    })
    .join()
    .unwrap();
}

/// Text inside the parser's bound can compile to a goal that prints past
/// it: 130 one-level defines, each expanded where its name stands, nest
/// the compiled goal 130 deep. That printed goal is the deploy record and
/// the snapshot line, so the deploy used to be acknowledged and every
/// later open of the store failed on its own record. The deploy is refused
/// with a typed error under both holders (a `Spec` fault over the wire),
/// appends nothing, and the store that saw the refusal still opens.
#[test]
fn a_deploy_that_would_not_read_back_is_refused() {
    use ctr_runtime::{Runtime, RuntimeError, SharedRuntime, WalStore};
    use ctr_serve::{Fault, FaultCode};
    use std::sync::Arc;
    const PAY: &str = "workflow pay { graph invoice * (approve + reject) * file; }";
    let levels = 130;
    let defines: String = (0..levels)
        .map(|i| format!("define s{i} := (a{i} + b{i} * s{}); ", i + 1))
        .collect();
    let deep = format!("workflow deeps {{ graph s0; {defines}define s{levels} := leaf; }}");
    assert!(parse_spec(&deep)
        .unwrap()
        .compile()
        .unwrap()
        .is_consistent());
    let refused = |e: RuntimeError| {
        assert_eq!(Fault::from_runtime(&e).code, FaultCode::Spec);
        assert!(
            matches!(&e, RuntimeError::Compile(m) if m.contains("nesting exceeds the limit of 128 levels")),
            "{e:?}"
        );
    };

    let dir = std::env::temp_dir().join(format!("ctr_fuzz_deep_deploy_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let wal = || Arc::new(WalStore::open(&dir).unwrap());
    {
        let mut rt = Runtime::with_store(wal());
        refused(rt.deploy_source(&deep).unwrap_err());
        rt.deploy_source(PAY).unwrap();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
    }
    {
        let rt = SharedRuntime::open(wal()).unwrap();
        refused(rt.deploy_source(&deep).unwrap_err());
        assert_eq!(rt.workflows(), ["pay"]);
        let snapshot = rt.snapshot();
        assert_eq!(Runtime::restore(&snapshot).unwrap().snapshot(), snapshot);
        assert_eq!(
            SharedRuntime::restore(&snapshot).unwrap().snapshot(),
            snapshot
        );
    }
    let rt = Runtime::open(wal()).unwrap();
    assert_eq!(rt.workflows(), ["pay"]);
    assert_eq!(rt.journal(0).unwrap(), ["invoice"]);
    drop(rt);
    std::fs::remove_dir_all(&dir).ok();
}

/// The last id that has a successor. A snapshot may name it — an
/// operator's edit, another system's export — and `start` then has
/// nothing left to hand out: the one id above it is the id recovery
/// refuses ("leaves no next id"), and past that the counter would wrap
/// onto live instances. `start` must say so with a typed error before it
/// appends or arms anything, every time, and leave the store openable
/// and the instances it holds running. (It used to acknowledge
/// `u64::MAX`, append its `Start`, and every later open failed.)
#[test]
fn start_refuses_the_id_recovery_would_refuse() {
    use ctr_runtime::{MemStore, Runtime, RuntimeError, SharedRuntime, Store, WalStore};
    use std::sync::Arc;
    const LAST: u64 = u64::MAX - 1;
    const TIMED: &str = "workflow timed { graph invoice * approve * file; deadline(approve, 1h); }";

    // `reopen` hands out the store afresh; no two handles live at once.
    fn check(reopen: &dyn Fn() -> Arc<dyn Store>) {
        let records = || reopen().replay().unwrap().records.len();
        {
            let store = reopen();
            let mut rt = Runtime::with_store(Arc::clone(&store));
            rt.deploy_source(TIMED).unwrap();
            let id = rt.start("timed").unwrap();
            rt.fire(id, "invoice").unwrap();
            let snapshot = rt
                .snapshot()
                .replace(&format!("instance {id} "), &format!("instance {LAST} "))
                .replace(&format!("timer {id} "), &format!("timer {LAST} "));
            store.checkpoint(&snapshot).unwrap();
        }
        assert_eq!(records(), 0, "the checkpoint covers everything");
        macro_rules! refused {
            ($holder:ty) => {{
                #[allow(unused_mut)]
                let mut rt = <$holder>::open(reopen()).unwrap();
                assert_eq!(rt.instances(), [LAST]);
                let before = (rt.snapshot(), rt.pending_timer_count());
                for _ in 0..2 {
                    assert_eq!(rt.start("timed"), Err(RuntimeError::InstanceIdsExhausted));
                    assert_eq!((rt.snapshot(), rt.pending_timer_count()), before);
                }
                drop(rt);
                assert_eq!(records(), 0, "a refused start appends nothing");
            }};
        }
        refused!(Runtime);
        refused!(SharedRuntime);
        // The instance the store holds goes on, durably, under both.
        let mut rt = Runtime::open(reopen()).unwrap();
        rt.fire(LAST, "approve").unwrap();
        assert_eq!(rt.start("timed"), Err(RuntimeError::InstanceIdsExhausted));
        drop(rt);
        let rt = SharedRuntime::open(reopen()).unwrap();
        rt.fire(LAST, "file").unwrap();
        assert_eq!(rt.start("timed"), Err(RuntimeError::InstanceIdsExhausted));
        drop(rt);
        assert_eq!(records(), 2);
        let rt = Runtime::open(reopen()).unwrap();
        assert_eq!(rt.journal(LAST).unwrap(), ["invoice", "approve", "file"]);
    }

    let mem: Arc<dyn Store> = Arc::new(MemStore::new());
    check(&|| Arc::clone(&mem));
    let dir = std::env::temp_dir().join(format!("ctr_fuzz_last_id_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    check(&|| Arc::new(WalStore::open(&dir).unwrap()));
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint's `timer` line is checked like the log's arm record —
/// and, since no crash produces a stray one, refused where the log's
/// orphan arm is dropped. Each doctored line used to be armed as it
/// stood: an ordinary event then "expired" into the journal as an
/// activity nobody performed, a repeated line armed its tick twice.
/// Refusal is an `Err` from `restore` and `open` alike, under both
/// holders: no runtime comes back, so nothing is armed.
#[test]
fn a_doctored_timer_line_is_refused_not_armed() {
    use ctr_runtime::{MemStore, Runtime, RuntimeError, SharedRuntime, Store, WalStore};
    use std::sync::Arc;
    const DEADLINE: &str = "timer 0 approve@deadline3600000 due 3600000\n";
    const AFTER: &str = "timer 1 b@after5000 due 5000\n";

    let snapshot = timed_snapshot();
    let under_0 = snapshot.find(DEADLINE).unwrap() + DEADLINE.len();
    assert!(snapshot.ends_with(AFTER), "{snapshot}");
    let spliced = |at: usize, line: &str| format!("{}{line}{}", &snapshot[..at], &snapshot[at..]);
    let doctored = [
        // An ordinary event of the workflow, one still to happen.
        spliced(under_0, "timer 0 approve due 5\n"),
        // A tick, but of the other deployed workflow.
        spliced(under_0, "timer 0 b@after5000 due 5\n"),
        // The instance's own tick, a second time.
        spliced(under_0, DEADLINE),
        spliced(under_0, "timer 0 approve@deadline3600000 due 7\n"),
        // An instance nobody started: at the end, and before every instance line.
        spliced(
            snapshot.len(),
            "timer 7 approve@deadline3600000 due 3600000\n",
        ),
        spliced(snapshot.find("instance 0 ").unwrap(), DEADLINE),
        // Instance 0's timer line, moved below instance 1's line.
        snapshot.replacen(DEADLINE, "", 1) + DEADLINE,
    ];

    // `reopen` hands out the store afresh; no two handles live at once.
    let check = |reopen: &dyn Fn() -> Arc<dyn Store>| {
        macro_rules! holder {
            ($holder:ty) => {{
                for text in &doctored {
                    reopen().checkpoint(text).unwrap();
                    for refused in [
                        <$holder>::restore(text).err(),
                        <$holder>::open(reopen()).err(),
                    ] {
                        assert!(
                            matches!(refused, Some(RuntimeError::Snapshot(_))),
                            "{refused:?} for\n{text}"
                        );
                    }
                    assert_eq!(reopen().replay().unwrap().records.len(), 0);
                }
                reopen().checkpoint(&snapshot).unwrap();
                for rt in [<$holder>::restore(&snapshot), <$holder>::open(reopen())] {
                    #[allow(unused_mut)]
                    let mut rt = rt.unwrap();
                    assert_eq!(rt.snapshot(), snapshot);
                    assert_eq!(rt.pending_timer_count(), 2);
                    assert_eq!(
                        rt.advance(4_000_000).unwrap(),
                        [
                            (1, "b@after5000".to_owned()),
                            (0, "approve@deadline3600000".to_owned())
                        ]
                    );
                }
            }};
        }
        holder!(Runtime);
        holder!(SharedRuntime);
    };

    let mem: Arc<dyn Store> = Arc::new(MemStore::new());
    check(&|| Arc::clone(&mem));
    let dir = std::env::temp_dir().join(format!("ctr_fuzz_timer_line_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    check(&|| Arc::new(WalStore::open(&dir).unwrap()));
    std::fs::remove_dir_all(&dir).ok();
}

/// A scratch directory holding a small write-ahead log (a deploy, two
/// starts, a few fires, optionally a checkpoint) whose files the tests
/// then corrupt.
fn seed_wal(tag: &str, n: u64, checkpoint: bool) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ctr_fuzz_wal_{tag}_{}_{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = std::sync::Arc::new(ctr_runtime::WalStore::open(&dir).unwrap());
    let mut rt = ctr_runtime::Runtime::with_store(store);
    rt.deploy_source("workflow pay { graph invoice * (approve # audit) * archive; }")
        .unwrap();
    let a = rt.start("pay").unwrap();
    rt.fire_batch(a, &["invoice", "approve", "audit", "archive"])
        .unwrap();
    rt.try_complete(a).unwrap();
    if checkpoint {
        rt.checkpoint().unwrap();
    }
    let b = rt.start("pay").unwrap();
    rt.fire(b, "invoice").unwrap();
    dir
}

/// Every file under the store directory, sorted for determinism.
fn wal_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(at) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&at) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer returns a token stream or a positioned error — never a
    /// panic — on arbitrary input.
    #[test]
    fn lexer_is_total(input in ".{0,200}") {
        let _ = lex(&input);
    }

    /// Same for the three parsers.
    #[test]
    fn parsers_are_total(input in ".{0,200}") {
        let _ = parse_goal(&input);
        let _ = parse_constraint(&input);
        let _ = parse_spec(&input);
    }

    /// Structured noise: well-formed tokens in random arrangements.
    #[test]
    fn parsers_are_total_on_token_soup(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("*".to_owned()),
                Just("#".to_owned()),
                Just("+".to_owned()),
                Just("(".to_owned()),
                Just(")".to_owned()),
                Just(";".to_owned()),
                Just("{".to_owned()),
                Just("}".to_owned()),
                Just(":=".to_owned()),
                Just("!".to_owned()),
                Just("iso".to_owned()),
                Just("poss".to_owned()),
                Just("empty".to_owned()),
                Just("repeat".to_owned()),
                Just("guarded".to_owned()),
                Just("workflow".to_owned()),
                Just("graph".to_owned()),
                Just("constraint".to_owned()),
                Just("exists".to_owned()),
                Just("before".to_owned()),
                Just("a".to_owned()),
                Just("b".to_owned()),
                Just("3".to_owned()),
            ],
            0..30,
        )
    ) {
        let input = tokens.join(" ");
        let _ = parse_goal(&input);
        let _ = parse_spec(&input);
    }

    /// Whatever the goal parser accepts, the whole pipeline handles
    /// without panicking: unique-event check, compilation, scheduling.
    #[test]
    fn pipeline_is_total_on_parsed_goals(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("*".to_owned()),
                Just("#".to_owned()),
                Just("+".to_owned()),
                Just("(".to_owned()),
                Just(")".to_owned()),
                Just("a".to_owned()),
                Just("b".to_owned()),
                Just("c".to_owned()),
                Just("d".to_owned()),
                Just("empty".to_owned()),
            ],
            1..24,
        )
    ) {
        let input = tokens.join(" ");
        let Ok(goal) = parse_goal(&input) else { return Ok(()) };
        let constraints = [ctr::Constraint::klein_order("a", "b")];
        // compile() rejects non-unique-event goals with an error, not a
        // panic; consistent outputs must schedule without panicking.
        if let Ok(compiled) = ctr::analysis::compile(&goal, &constraints) {
            if compiled.is_consistent() {
                let program = ctr_engine::Program::compile(&compiled.goal).unwrap();
                let _ = ctr_engine::Scheduler::new(&program).run_first();
            }
        }
    }

    /// Snapshot restore — through both the single-threaded and the
    /// sharded runtime — returns `Ok` or a typed error on arbitrarily
    /// mangled snapshots (truncated anywhere, noise spliced anywhere),
    /// never a panic.
    #[test]
    fn restore_is_total_on_corrupted_snapshots(
        which in 0..6usize,
        cut in 0..400usize,
        pos in 0..400usize,
        noise in proptest::collection::vec(0..=255u8, 0..24),
    ) {
        let base = seed_snapshots()[which].clone().into_bytes();
        let mut mangled = base.clone();
        mangled.truncate(cut.min(base.len()));
        let at = pos.min(mangled.len());
        mangled.splice(at..at, noise);
        let text = String::from_utf8_lossy(&mangled);
        let _ = ctr_runtime::SharedRuntime::restore(&text);
        // Accepted ⇒ canonical: what restore takes in, it writes back
        // as text that restores to the same bytes, and every timer it
        // armed is a tick of its instance's workflow, once.
        if let Ok(rt) = ctr_runtime::Runtime::restore(&text) {
            let canonical = rt.snapshot();
            let again = ctr_runtime::Runtime::restore(&canonical).map(|rt| rt.snapshot());
            prop_assert_eq!(again.as_ref(), Ok(&canonical));
            assert_timer_lines_are_declared_ticks(&canonical);
        }
    }

    /// Write-ahead-log recovery is total on torn and bit-flipped files:
    /// any prefix truncation or byte corruption of any store file —
    /// segments or the checkpoint — yields a recovered runtime or a
    /// typed error, never a panic. (A tear confined to the newest
    /// segment's tail must recover cleanly; that stronger property is
    /// pinned in tests/store_recovery.rs.)
    #[test]
    fn wal_recovery_is_total_on_corrupted_files(
        n in 0..u64::MAX,
        checkpoint in (0..2u8).prop_map(|b| b == 1),
        which in 0..16usize,
        truncate_to in 0..4096usize,
        flips in proptest::collection::vec((0..4096usize, 1..=255u8), 0..6),
    ) {
        let dir = seed_wal("total", n, checkpoint);
        let files = wal_files(&dir);
        let path = &files[which % files.len()];
        let mut bytes = std::fs::read(path).unwrap();
        bytes.truncate(truncate_to.min(bytes.len()));
        for (at, mask) in flips {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
        }
        std::fs::write(path, &bytes).unwrap();
        if let Ok(store) = ctr_runtime::WalStore::open(&dir) {
            let _ = ctr_runtime::Runtime::open(std::sync::Arc::new(store));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
