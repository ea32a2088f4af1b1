//! An idle store sleeps: a durable store that has taken a write and then
//! sits idle for a second wakes no thread. Nothing polls the log; a
//! compaction is started by the write that makes it due.
//!
//! This file is its own test binary: it reads the scheduler statistics of
//! every thread of the process, so no other test may run beside it.

use std::collections::BTreeMap;
use std::time::Duration;

use clarens_db::Store;

/// Every thread of this process as `tid → (name, voluntary context
/// switches)`.
fn threads() -> BTreeMap<String, (String, u64)> {
    let mut out = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let task = task.unwrap();
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue; // the thread exited
        };
        let field = |key: &str| {
            let line = status.lines().find_map(|line| line.strip_prefix(key));
            line.unwrap_or_default().trim().to_string()
        };
        let switches = field("voluntary_ctxt_switches:").parse().unwrap();
        let tid = task.file_name().to_string_lossy().into_owned();
        out.insert(tid, (field("Name:"), switches));
    }
    out
}

#[test]
fn an_idle_durable_store_wakes_no_thread() {
    let path = std::env::temp_dir().join(format!("clarens-db-idle-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store = Store::open_with_sync(&path, true).unwrap();
    store.put("sessions", "s1", b"alice".to_vec()).unwrap();

    // `/proc/thread-self` names this thread's own task directory.
    let own = std::fs::read_link("/proc/thread-self").unwrap();
    let own = own.file_name().unwrap().to_string_lossy().into_owned();
    let before = threads();
    std::thread::sleep(Duration::from_secs(1));
    let after = threads();

    let woken: Vec<String> = after
        .iter()
        .filter(|(tid, _)| **tid != own)
        .filter_map(|(tid, (name, switches))| {
            let was = before.get(tid).map_or(0, |(_, switches)| *switches);
            (*switches > was).then(|| format!("{name} ({tid}): {} switches", switches - was))
        })
        .collect();
    assert!(
        woken.is_empty(),
        "an idle store woke {woken:?} in 1 s; threads before: {before:?}"
    );
    assert_eq!(store.get("sessions", "s1").unwrap(), b"alice");
    drop(store);
    std::fs::remove_file(&path).unwrap();
}
