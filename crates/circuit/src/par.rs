//! The workspace's one parallel executor: a [`team`] of threads that lives
//! as long as one call and returns its results in part order, so the member
//! count never shows in what it computes; its [`PhaseBarrier`] for members
//! in lockstep; [`map_indexed`] for a shared work list, and
//! [`map_indexed_with`] for one whose members keep scratch between claims.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Cores of this host, read once per process: `available_parallelism` is a
/// `sched_getaffinity` call plus cgroup-file reads (over 10 µs), far too
/// much to pay on every scheduling cycle or estimate batch.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// `body(part, &barrier)` for all parts at once — part 0 on the caller, each
/// other on a scoped helper spawned once — with the results in part order.
/// The barrier has exactly `parts.len()` members; one part runs inline.
/// A member's panic poisons the barrier and, once every member has stopped,
/// resumes on the caller with its own payload.
pub fn team<P: Send, R: Send>(
    parts: Vec<P>,
    body: impl Fn(P, &PhaseBarrier) -> R + Sync,
) -> Vec<R> {
    let barrier = PhaseBarrier::new(parts.len());
    let mut parts = parts.into_iter();
    let Some(mine) = parts.next() else { return Vec::new() };
    if parts.len() == 0 {
        return vec![body(mine, &barrier)];
    }
    let (body, barrier) = (&body, &barrier);
    let member = |part| {
        let _guard = Member(barrier);
        body(part, barrier)
    };
    let mut outcomes: Vec<_> = std::thread::scope(|scope| {
        let _guard = Member(barrier); // a failed spawn releases the helpers already waiting
        let helpers: Vec<_> = parts.map(|part| scope.spawn(move || member(part))).collect();
        let mine = catch_unwind(AssertUnwindSafe(|| member(mine)));
        std::iter::once(mine).chain(helpers.into_iter().map(|helper| helper.join())).collect()
    });
    // Resume the panic that poisoned the barrier, not the unwinding it caused.
    let original = outcomes.iter().position(|o| o.as_ref().is_err_and(|p| !p.is::<Poisoned>()));
    if let Some(Err(payload)) = original.map(|i| outcomes.swap_remove(i)) {
        resume_unwind(payload);
    }
    outcomes.into_iter().map(|o| o.unwrap_or_else(|payload| resume_unwind(payload))).collect()
}

/// `work(0), …, work(items - 1)`, in index order, computed by a [`team`] of
/// `min(workers, items)` members that claim the next index from a shared
/// counter until none is left (static chunks would leave a core idle behind
/// one expensive item). A panic in `work` resumes as [`team`]'s do.
#[inline] // measured: out of line, warm estimate lookups ran 5–10 % slower
pub fn map_indexed<T: Send>(
    workers: usize,
    items: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    map_indexed_with(workers, items, || (), |_, index| work(index))
}

/// [`map_indexed`] with per-member scratch: `init()` runs on the caller once
/// per member before the team starts (so the buffers a member reuses come
/// from the caller's allocator arena), and each member passes its own value
/// to every `work(&mut scratch, index)` it runs. A member claims indices in
/// increasing order, so its scratch may carry state from one claim to the
/// next.
#[inline]
pub fn map_indexed_with<S: Send, T: Send>(
    workers: usize,
    items: usize,
    init: impl FnMut() -> S,
    work: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    if items == 0 {
        return Vec::new(); // every warm estimate-cache batch: no team to set up
    }
    // Relaxed: the counter only hands out indices; what `work` reads was
    // shared before the team started and results come back through `team`.
    let next = AtomicUsize::new(0);
    let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&index| index < items);
    let scratch = std::iter::repeat_with(init).take(workers.clamp(1, items)).collect();
    let claimed = team(scratch, |mut scratch, _| {
        std::iter::from_fn(claim)
            .map(|index| (index, work(&mut scratch, index)))
            .collect::<Vec<_>>()
    });
    let mut done: Vec<(usize, T)> = claimed.into_iter().flatten().collect();
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, value)| value).collect()
}

/// Spin iterations a waiter burns before it starts yielding its core. One
/// iteration is two loads and a `spin_loop` hint (tens of nanoseconds), so
/// the budget covers roughly one island round (tens of microseconds).
const SPIN_BUDGET: u32 = 1 << 11;

/// The meeting point of a [`team`] whose members meet every few tens of
/// microseconds (NSGA-II island rounds). A futex park/wake per meeting, as in
/// `std::sync::Barrier`, costs about what the round earns, so waiters *spin*
/// for about one round — the longest a healthy teammate can be behind — and
/// only then [`std::thread::yield_now`], which lets a team larger than the
/// set of free cores finish: the member everyone waits for gets the core.
#[derive(Debug)]
pub struct PhaseBarrier {
    members: usize,
    /// Members that have arrived in the current phase.
    arrived: AtomicUsize,
    /// Completed phases; the last arriver's increment releases the waiters.
    phase: AtomicUsize,
    poisoned: AtomicBool,
}

/// What [`PhaseBarrier::wait`] unwinds with once a teammate has panicked.
struct Poisoned;

impl PhaseBarrier {
    fn new(members: usize) -> Self {
        PhaseBarrier { members, arrived: 0.into(), phase: 0.into(), poisoned: false.into() }
    }

    /// Block until all members have called `wait` for this phase. Everything
    /// a member wrote before its `wait` is visible to every member after it.
    /// A one-member team never touches the shared state. Unwinds if a
    /// teammate panicked.
    pub fn wait(&self) {
        if self.members == 1 {
            return;
        }
        // No teammate can complete this phase before this thread arrives, so
        // the load reads exactly the phase this thread is in.
        let phase = self.phase.load(Ordering::Acquire);
        // AcqRel: each arrival releases the member's writes into the
        // counter's release sequence, and the last arriver acquires all of
        // them before it publishes the new phase.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.members {
            // Reset before the release below: a teammate re-arrives only
            // after it has acquired the new phase, hence sees the zero.
            self.arrived.store(0, Ordering::Relaxed);
            self.phase.store(phase.wrapping_add(1), Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        // Acquire pairs with the last arriver's Release store.
        while self.phase.load(Ordering::Acquire) == phase {
            if self.poisoned.load(Ordering::Acquire) {
                resume_unwind(Box::new(Poisoned));
            }
            if spins < SPIN_BUDGET {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Held by every member while it takes part: dropped while its thread
/// unwinds, it poisons the barrier.
struct Member<'a>(&'a PhaseBarrier);

impl Drop for Member<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Run `body` on its own thread and fail the test if it has not finished
    /// within a generous deadline: a barrier bug shows as a hang, which must
    /// fail rather than stall the suite. Returns `body`'s panic, if any.
    fn under_watchdog(body: impl FnOnce() + Send + 'static) -> Option<Box<dyn Any + Send>> {
        let (done, finished) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            // Signal on drop, so a panicking body reports in too.
            struct Signal(mpsc::Sender<()>);
            impl Drop for Signal {
                fn drop(&mut self) {
                    let _ = self.0.send(());
                }
            }
            let _signal = Signal(done);
            body();
        });
        finished.recv_timeout(Duration::from_secs(120)).expect("the team hung");
        runner.join().err()
    }

    /// `members` threads step a shared counter through `phases` phases: in
    /// every phase each member adds one, meets the team, and must then read
    /// exactly `members × (phase + 1)` — a member that ran ahead would have
    /// pushed the count past that, one left behind would leave it short. A
    /// second meeting keeps the next phase's additions out of the check.
    fn lockstep(members: usize, phases: usize) {
        let counter = AtomicUsize::new(0);
        team(vec![(); members], |(), barrier| {
            for phase in 0..phases {
                counter.fetch_add(1, Ordering::Relaxed);
                barrier.wait();
                assert_eq!(counter.load(Ordering::Relaxed), members * (phase + 1));
                barrier.wait();
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), members * phases);
    }

    #[test]
    fn barrier_keeps_every_member_in_lockstep() {
        for members in 1..=4 {
            assert!(under_watchdog(move || lockstep(members, 10_000)).is_none(), "{members}");
        }
    }

    #[test]
    fn barrier_completes_when_members_outnumber_cores() {
        // Spinning alone would starve the member the others wait for; the
        // yield fallback is what finishes this.
        assert!(under_watchdog(|| lockstep(2 * host_cores() + 1, 2_000)).is_none());
    }

    /// Threads enrolled by hand, as a team enrols its members: a panic
    /// between two meetings releases the others, and the scope surfaces it.
    #[test]
    fn barrier_panic_releases_the_team_and_surfaces_from_the_scope() {
        let panic = under_watchdog(|| {
            let barrier = PhaseBarrier::new(3);
            std::thread::scope(|scope| {
                for member in 0..3 {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let _guard = Member(barrier);
                        for phase in 0..100 {
                            if member == 1 && phase == 50 {
                                panic!("member 1 fails mid-phase");
                            }
                            barrier.wait();
                        }
                    });
                }
            });
        });
        assert!(panic.is_some(), "the member's panic must propagate out of thread::scope");
    }

    #[test]
    fn barrier_for_a_one_member_team_is_free() {
        team(vec![()], |(), barrier| {
            for _ in 0..1_000 {
                barrier.wait();
            }
            assert_eq!(barrier.phase.load(Ordering::Relaxed), 0, "no shared state is touched");
        });
    }

    /// A team returns its members' results in part order and runs part 0 on
    /// the caller.
    #[test]
    fn team_results_come_back_in_part_order() {
        let caller = std::thread::current().id();
        for parts in [0usize, 1, 2, 5] {
            let results = team((0..parts).collect::<Vec<_>>(), |part, _| {
                (part * 10, std::thread::current().id() == caller)
            });
            let expected: Vec<_> = (0..parts).map(|p| (p * 10, p == 0)).collect();
            assert_eq!(results, expected, "{parts} parts");
        }
    }

    /// Every worker count gives the serial map, bit for bit — also when the
    /// members' claims interleave: with two or more members, item 0 waits
    /// until another member has computed item 1.
    #[test]
    fn map_indexed_equals_the_serial_map() {
        let value = |i: usize| (i as f64 * 0.37).sin() / (1.0 + i as f64);
        let panic = under_watchdog(move || {
            for items in [0usize, 1, 7, 100] {
                let serial: Vec<u64> = (0..items).map(|i| value(i).to_bits()).collect();
                for workers in [1usize, 2, 5] {
                    let item_1_done = AtomicBool::new(false);
                    let work = |i: usize| {
                        if i == 1 {
                            item_1_done.store(true, Ordering::Release);
                        }
                        let interleave = i == 0 && workers > 1 && items > 1;
                        while interleave && !item_1_done.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        value(i)
                    };
                    let parallel: Vec<u64> =
                        map_indexed(workers, items, work).iter().map(|x| x.to_bits()).collect();
                    assert_eq!(parallel, serial, "{workers} workers, {items} items");
                }
            }
        });
        assert!(panic.is_none(), "a worker count changed the map (see the panic above)");
    }

    /// Scratch is built on the caller, one per member, and a member sees its
    /// claims in increasing order; the results are the serial map.
    #[test]
    fn map_indexed_with_builds_scratch_on_the_caller_and_claims_in_order() {
        let caller = std::thread::current().id();
        for items in [0usize, 1, 7, 100] {
            for workers in [1usize, 2, 5] {
                let mut built = 0;
                let init = || {
                    assert_eq!(std::thread::current().id(), caller);
                    built += 1;
                    None
                };
                let work = |last: &mut Option<usize>, i| {
                    assert!(last.is_none_or(|last| last < i), "claim {i} after {last:?}");
                    *last = Some(i);
                    i * i
                };
                let squares = map_indexed_with(workers, items, init, work);
                assert_eq!(squares, (0..items).map(|i| i * i).collect::<Vec<_>>());
                assert_eq!(built, workers.min(items), "{workers} workers, {items} items");
            }
        }
    }

    /// One member panics mid-phase — the caller's part or a helper's — and
    /// the call ends with exactly that member's panic, not the poison its
    /// teammates saw.
    #[test]
    fn team_surfaces_the_panicking_members_own_payload() {
        for parts in [1usize, 2, 5] {
            for culprit in [0, parts - 1] {
                let panic = under_watchdog(move || {
                    team((0..parts).collect::<Vec<_>>(), |part, barrier| {
                        for phase in 0..100 {
                            if part == culprit && phase == 50 {
                                panic!("member {part} fails mid-phase");
                            }
                            barrier.wait();
                        }
                    });
                })
                .expect("the member's panic surfaces");
                let expected = format!("member {culprit} fails mid-phase");
                assert_eq!(panic.downcast_ref::<String>(), Some(&expected));
            }
        }
    }
}
