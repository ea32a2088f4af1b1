//! The one harness of the workspace's seeded searches (DESIGN.md §7). A
//! schedule is a function of its seed: it draws every decision from one
//! [`Rng`], keeps its pending events on one [`Agenda`], and fails with a
//! text whose first line says why and whose other lines are its journal.
//! [`search`] runs it for every seed of a set, sharded over the machine's
//! threads, and reports the lowest failing seed with the failure, the tail
//! of its journal and the command that replays it. With `SEARCH_SEED=<n>`
//! set, a search runs seed `n` alone, in its set or not ([`replay`]).

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, Once};

use rand::{rngs::StdRng, Rng as _, SeedableRng};

/// Journal lines a search report shows; a replay shows them all.
const TAIL: usize = 40;

/// Run `schedule` for every seed in `seeds` and panic with the report of
/// the lowest that fails; a panic in a schedule is its seed's failure.
/// `name` is what follows `cargo test -p` to run the search alone (e.g.
/// `clarens-federation --test election_sim`), for the replay command.
pub fn search<F>(name: &str, seeds: impl IntoIterator<Item = u64>, schedule: F)
where
    F: Fn(u64) -> Result<(), String> + Sync,
{
    if let Ok(seed) = std::env::var("SEARCH_SEED") {
        let seed = seed.parse().expect("SEARCH_SEED is a u64");
        return replay(name, seed, schedule);
    }
    let mut seeds: Vec<u64> = seeds.into_iter().collect();
    seeds.sort_unstable();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    if let Err((seed, failure)) = run(&seeds, threads, &schedule) {
        let report = report(name, seed, &failure, TAIL);
        panic!("{report}\nreplay: SEARCH_SEED={seed} cargo test -p {name}");
    }
}

/// Run `schedule` for `seed` alone; a failure panics with the whole
/// journal.
pub fn replay(name: &str, seed: u64, schedule: impl Fn(u64) -> Result<(), String>) {
    if let Err(failure) = attempt(&schedule, seed) {
        panic!("{}", report(name, seed, &failure, usize::MAX));
    }
}

/// Seed `seed` of search `name` failed: why, and the last `lines` of the
/// journal.
fn report(name: &str, seed: u64, failure: &str, lines: usize) -> String {
    let (why, journal) = failure.split_once('\n').unwrap_or((failure, ""));
    let journal: Vec<&str> = journal.lines().collect();
    let skip = journal.len().saturating_sub(lines);
    let mut out = format!("{name}: seed {seed}: {why}");
    if skip > 0 {
        out += &format!("\n({skip} earlier journal lines)");
    }
    journal[skip..]
        .iter()
        .for_each(|line| out += &format!("\n{line}"));
    out
}

/// One schedule, a panic in it caught as its failure.
fn attempt(schedule: &impl Fn(u64) -> Result<(), String>, seed: u64) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| schedule(seed))).unwrap_or_else(|panic| {
        let text = (panic.downcast_ref::<String>().cloned())
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(format!("panicked: {}", text.unwrap_or_default()))
    })
}

thread_local! {
    /// Set while this thread runs a seed of a search, whose panic is only
    /// its failure: the report says what it was.
    static SEARCHING: Cell<bool> = const { Cell::new(false) };
}

/// [`attempt`], with the panic hook silent on this thread meanwhile: a
/// search that fails at many seeds prints the report of the lowest, not a
/// panic message (and backtrace) for every failing seed a thread ran. The
/// hook is installed once and hands every other panic to the one it
/// replaced.
fn quiet_attempt(schedule: &impl Fn(u64) -> Result<(), String>, seed: u64) -> Result<(), String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SEARCHING.try_with(Cell::get).unwrap_or(false) {
                previous(info)
            }
        }));
    });
    SEARCHING.set(true);
    let outcome = attempt(schedule, seed);
    SEARCHING.set(false);
    outcome
}

/// Run the sorted `seeds` on `threads` threads. Each takes the next seed
/// in order and none takes one past a failure already found, so every seed
/// below the lowest failing one has run when they finish.
fn run<F>(seeds: &[u64], threads: usize, schedule: &F) -> Result<(), (u64, String)>
where
    F: Fn(u64) -> Result<(), String> + Sync,
{
    let (next, lowest) = (AtomicUsize::new(0), AtomicUsize::new(usize::MAX));
    let failures = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Relaxed);
                if i >= seeds.len() || i > lowest.load(Relaxed) {
                    break;
                }
                if let Err(failure) = quiet_attempt(schedule, seeds[i]) {
                    lowest.fetch_min(i, Relaxed);
                    failures.lock().unwrap().insert(seeds[i], failure);
                }
            });
        }
    });
    match failures.into_inner().unwrap().pop_first() {
        Some(failed) => Err(failed),
        None => Ok(()),
    }
}

/// A schedule's pending events by due time; first in, first out at equal
/// times. Only `(time, insertion)` orders them, so an event needs no order.
pub struct Agenda<E> {
    due: Due,
    /// The events, each in the slot its key names; `free` lists empty ones.
    slots: Vec<Option<E>>,
    free: Vec<usize>,
}

/// The keys, earliest first: `(time, insertion, slot)`. Not generic, so
/// its heap is compiled once, in this crate.
#[derive(Default)]
struct Due {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    pushed: u64,
}

impl Due {
    fn push(&mut self, at: u64, slot: usize) {
        self.pushed += 1;
        self.heap.push(Reverse((at, self.pushed, slot)));
    }

    fn pop_until(&mut self, limit: u64) -> Option<(u64, usize)> {
        let &Reverse((at, _, slot)) = self.heap.peek().filter(|key| key.0 .0 <= limit)?;
        self.heap.pop();
        Some((at, slot))
    }
}

impl<E> Default for Agenda<E> {
    fn default() -> Self {
        let (due, slots, free) = Default::default();
        Agenda { due, slots, free }
    }
}

impl<E> Agenda<E> {
    pub fn push(&mut self, at: u64, event: E) {
        let slot = self.free.pop().unwrap_or(self.slots.len());
        match self.slots.get_mut(slot) {
            Some(empty) => *empty = Some(event),
            None => self.slots.push(Some(event)),
        }
        self.due.push(at, slot);
    }

    /// The next event, if it is due at or before `limit`.
    pub fn pop_until(&mut self, limit: u64) -> Option<(u64, E)> {
        let (at, slot) = self.due.pop_until(limit)?;
        self.free.push(slot);
        Some((at, self.slots[slot].take()?))
    }
}

/// A schedule's one random source: a seeded `StdRng` and the draws made
/// of it, each one output reduced modulo its range.
pub struct Rng(StdRng);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(StdRng::seed_from_u64(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// A draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A draw from `lo..=hi`.
    pub fn pick(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// True `percent` times in a hundred.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }

    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// A length drawn from `len`, then that many bytes.
    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        let n = self.pick(len.start as u64, len.end as u64 - 1);
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    /// A char drawn uniformly from the union of `alphabet`'s ranges, as a
    /// regex class draws one: `[a-z_]` is `&['a'..='z', '_'..='_']`.
    pub fn char(&mut self, alphabet: &[RangeInclusive<char>]) -> char {
        let width = |range: &RangeInclusive<char>| *range.end() as u64 - *range.start() as u64 + 1;
        let mut at = self.next_u64() % alphabet.iter().map(width).sum::<u64>();
        for range in alphabet {
            if at < width(range) {
                let code = *range.start() as u32 + at as u32;
                return char::from_u32(code).expect("an alphabet holds no surrogate");
            }
            at -= width(range);
        }
        unreachable!("the draw is inside the union")
    }

    /// A length drawn from `len`, then that many chars of `alphabet`.
    pub fn string(&mut self, alphabet: &[RangeInclusive<char>], len: Range<usize>) -> String {
        let n = self.pick(len.start as u64, len.end as u64 - 1);
        (0..n).map(|_| self.char(alphabet)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails at seeds 7 and 300, each with a three-line journal; counts runs.
    fn planted(runs: &[AtomicUsize]) -> impl Fn(u64) -> Result<(), String> + Sync + '_ {
        move |seed| {
            runs[seed as usize % runs.len()].fetch_add(1, Relaxed);
            match seed {
                7 | 300 => Err(format!(
                    "planted at {seed}\n{seed}: 0\n{seed}: 1\n{seed}: 2"
                )),
                _ => Ok(()),
            }
        }
    }

    #[test]
    fn the_lowest_failing_seed_is_reported_and_every_seed_runs_once() {
        let seeds: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let failed = run(&seeds, threads, &planted(&[AtomicUsize::new(0)]));
            assert_eq!(failed.unwrap_err().0, 7);
        }
        let runs: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        run(&seeds[8..300], 3, &planted(&runs)).unwrap();
        let once =
            |(i, r): (usize, &AtomicUsize)| r.load(Relaxed) == (8..300).contains(&i) as usize;
        assert!(runs.iter().enumerate().all(once));
    }

    #[test]
    fn a_replay_runs_its_seed_alone_and_prints_the_whole_journal() {
        let runs: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let panic = catch_unwind(|| replay("x", 300, planted(&runs))).unwrap_err();
        let ran: Vec<usize> = (0..1000).filter(|&i| runs[i].load(Relaxed) > 0).collect();
        let whole = "x: seed 300: planted at 300\n300: 0\n300: 1\n300: 2";
        assert_eq!(
            (ran, panic.downcast_ref::<String>().unwrap().as_str()),
            (vec![300], whole)
        );
        replay("x", 1 << 40, planted(&runs)); // outside any set, and passing
        let journal: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let tail = report("x", 1, &format!("w\n{}", journal.join("\n")), TAIL);
        assert!(tail.starts_with("x: seed 1: w\n(60 earlier journal lines)\n60\n61\n"));
        assert!(tail.ends_with("\n98\n99"));
    }

    #[test]
    fn a_panic_is_its_seeds_failure() {
        let seeds: Vec<u64> = (0..100).collect();
        let schedule = |seed| match seed {
            41.. => panic!("boom at {seed}"),
            _ => Ok(()),
        };
        let failed = run(&seeds, 2, &schedule).unwrap_err();
        assert_eq!(failed, (41, "panicked: boom at 41".to_owned()));
    }

    #[test]
    fn the_agenda_pops_by_time_then_insertion() {
        let mut agenda = Agenda::default();
        for (at, event) in [(5, 'a'), (1, 'b'), (5, 'c'), (1, 'd'), (3, 'e')] {
            agenda.push(at, event);
        }
        assert_eq!(agenda.pop_until(0), None);
        let mut popped: Vec<_> = std::iter::from_fn(|| agenda.pop_until(4)).collect();
        agenda.push(4, 'f');
        popped.extend(std::iter::from_fn(|| agenda.pop_until(u64::MAX)));
        assert_eq!(
            popped,
            [(1, 'b'), (1, 'd'), (3, 'e'), (4, 'f'), (5, 'a'), (5, 'c')]
        );
    }

    /// A seed names the same schedule it named before the helper existed.
    #[test]
    fn each_draw_is_one_std_rng_output_modulo_its_range() {
        let (mut rng, mut raw) = (Rng::new(9), StdRng::seed_from_u64(9));
        for _ in 0..1000 {
            assert_eq!(rng.pick(3, 5), 3 + raw.next_u64() % 3);
            assert_eq!(rng.below(7), (raw.next_u64() % 7) as usize);
            assert_eq!(rng.chance(30), raw.next_u64() % 100 < 30);
        }
    }

    #[test]
    fn bytes_and_strings_keep_to_their_lengths_and_alphabets() {
        let mut rng = Rng::new(5);
        let alphabet = ['a'..='c', '_'..='_', 'А'..='Б', '𝒳'..='𝒳'];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            assert!((2..6).contains(&rng.bytes(2..6).len()));
            let text = rng.string(&alphabet, 0..4);
            assert!(text.chars().count() < 4);
            seen.extend(text.chars());
        }
        assert_eq!(seen.into_iter().collect::<String>(), "_abcАБ𝒳");
        assert!(rng.string(&alphabet, 0..1).is_empty() && rng.bytes(0..1).is_empty());
    }
}
