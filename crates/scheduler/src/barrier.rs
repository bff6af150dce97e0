//! The meeting point of an island team (see [`crate::nsga2`]): a reusable
//! phase barrier for a handful of threads that meet every few tens of
//! microseconds.
//!
//! At that granularity a `std::sync::Barrier` does not pay: parking a waiter
//! on a futex and waking it again costs about as much as the island round the
//! team is synchronising, so the parallelism is handed straight back.
//! [`PhaseBarrier`] waiters instead *spin* for a bounded budget — about one
//! island round, the longest a healthy teammate can be behind — and only then
//! fall back to [`std::thread::yield_now`], which is what lets a team larger
//! than the set of free cores still finish: the member everyone is waiting
//! for gets the core.
//!
//! A member that panics would leave its teammates waiting forever, and
//! `std::thread::scope` — which joins before it propagates — would hang with
//! them. Every member therefore holds a [`Membership`] guard; dropped during
//! an unwind it poisons the barrier, and every current and future
//! [`PhaseBarrier::wait`] panics in turn, so the scope joins promptly and the
//! original panic surfaces.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Spin iterations a waiter burns before it starts yielding its core. One
/// iteration is two loads and a `spin_loop` hint (tens of nanoseconds), so
/// the budget covers roughly one island round (tens of microseconds).
const SPIN_BUDGET: u32 = 1 << 11;

/// A reusable barrier for a fixed team of `members` threads.
#[derive(Debug)]
pub(crate) struct PhaseBarrier {
    members: usize,
    /// Members that have arrived in the current phase.
    arrived: AtomicUsize,
    /// Completed phases; the last arriver's increment releases the waiters.
    phase: AtomicUsize,
    poisoned: AtomicBool,
}

impl PhaseBarrier {
    /// A barrier every one of `members` threads must reach to complete a
    /// phase.
    pub(crate) fn new(members: usize) -> Self {
        assert!(members >= 1, "a team has at least one member");
        PhaseBarrier {
            members,
            arrived: AtomicUsize::new(0),
            phase: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Enrol the calling thread: keep the guard alive for as long as the
    /// thread takes part, so that a panic on it releases the teammates.
    pub(crate) fn member(&self) -> Membership<'_> {
        Membership(self)
    }

    /// Block until all members have called `wait` for this phase. Everything
    /// a member wrote before its `wait` is visible to every member after it.
    /// A one-member team never touches the shared state.
    ///
    /// # Panics
    ///
    /// If a teammate panicked (see [`Membership`]).
    pub(crate) fn wait(&self) {
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
            assert!(!self.poisoned.load(Ordering::Acquire), "an island team member panicked");
            if spins < SPIN_BUDGET {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Proof of enrolment in a [`PhaseBarrier`] team. Dropped while its thread
/// unwinds, it poisons the barrier so no teammate waits for a member that
/// will never arrive.
#[derive(Debug)]
pub(crate) struct Membership<'a>(&'a PhaseBarrier);

impl Drop for Membership<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Run `body` on its own thread and fail the test if it has not finished
    /// within a generous deadline: a barrier bug shows as a hang, which must
    /// fail rather than stall the suite. Returns whether `body` panicked.
    pub(crate) fn under_watchdog(body: impl FnOnce() + Send + 'static) -> bool {
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
        runner.join().is_err()
    }

    /// `members` threads step a shared counter through `phases` phases: in
    /// every phase each member adds one, meets the team, and must then read
    /// exactly `members × (phase + 1)` — a member that ran ahead would have
    /// pushed the count past that, one left behind would leave it short. A
    /// second meeting keeps the next phase's additions out of the check.
    fn lockstep(members: usize, phases: usize) {
        let barrier = PhaseBarrier::new(members);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..members {
                scope.spawn(|| {
                    let _membership = barrier.member();
                    for phase in 0..phases {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        assert_eq!(counter.load(Ordering::Relaxed), members * (phase + 1));
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), members * phases);
    }

    #[test]
    fn barrier_keeps_every_member_in_lockstep() {
        for members in 1..=4 {
            assert!(!under_watchdog(move || lockstep(members, 10_000)), "members = {members}");
        }
    }

    #[test]
    fn barrier_completes_when_members_outnumber_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        // Spinning alone would starve the member the others wait for; the
        // yield fallback is what finishes this.
        assert!(!under_watchdog(move || lockstep(2 * cores + 1, 2_000)));
    }

    #[test]
    fn barrier_panic_releases_the_team_and_surfaces_from_the_scope() {
        let panicked = under_watchdog(|| {
            let barrier = PhaseBarrier::new(3);
            std::thread::scope(|scope| {
                for member in 0..3 {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let _membership = barrier.member();
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
        assert!(panicked, "the member's panic must propagate out of thread::scope");
    }

    #[test]
    fn barrier_for_a_one_member_team_is_free() {
        let barrier = PhaseBarrier::new(1);
        let _membership = barrier.member();
        for _ in 0..1_000 {
            barrier.wait();
        }
        assert_eq!(barrier.phase.load(Ordering::Relaxed), 0, "no shared state is touched");
    }
}
