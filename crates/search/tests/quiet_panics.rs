//! What reaches the panic hook: a search's report, not the panics of the
//! failing seeds it ran to find the lowest; a replay's panic and report;
//! any panic outside a search. One test in its own binary, since the panic
//! hook belongs to the process.

use std::panic::catch_unwind;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use clarens_search::{replay, search};

static HOOKED: AtomicUsize = AtomicUsize::new(0);

fn schedule(seed: u64) -> Result<(), String> {
    match seed {
        10.. => panic!("boom at {seed}"),
        _ => Ok(()),
    }
}

#[test]
fn only_the_report_of_a_search_reaches_the_panic_hook() {
    std::panic::set_hook(Box::new(|_| {
        HOOKED.fetch_add(1, SeqCst);
    }));
    let report = catch_unwind(|| search("x", 0..100, schedule)).unwrap_err();
    let report = report.downcast_ref::<String>().unwrap();
    assert_eq!(
        report,
        "x: seed 10: panicked: boom at 10\nreplay: SEARCH_SEED=10 cargo test -p x"
    );
    assert_eq!(HOOKED.load(SeqCst), 1, "the report alone");

    let report = catch_unwind(|| replay("x", 10, schedule)).unwrap_err();
    assert_eq!(
        report.downcast_ref::<String>().unwrap(),
        "x: seed 10: panicked: boom at 10"
    );
    assert_eq!(HOOKED.load(SeqCst), 3, "the replayed panic and its report");

    catch_unwind(|| panic!("outside")).unwrap_err();
    assert_eq!(HOOKED.load(SeqCst), 4, "a panic outside a search");
}
