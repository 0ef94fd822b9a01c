//! Dijkstra ring termination detection.
//!
//! The engine has no central scheduler and does not know the number of tasks
//! in advance, so idle workers cannot simply exit — another worker might still
//! hand them work.  The paper uses the classic Dijkstra–Feijen–van Gasteren
//! token algorithm (in the variant described by Schnitger's lecture notes):
//!
//! * workers form a ring; worker 0 initiates a **white token** when it is idle,
//! * an idle worker forwards the token to its successor; if the worker is
//!   **black** (it sent work to someone since it last forwarded the token) it
//!   colors the token black and becomes white again,
//! * when worker 0 gets a **white** token back and is itself white and idle,
//!   every worker is out of work and the computation terminates; otherwise
//!   worker 0 starts a new round.
//!
//! The detection delay is proportional to the number of workers, which is fine
//! for the ≤ 16 workers the paper (and this reproduction) targets.
//!
//! A worker past the first may join the ring late, or never: its thread is a
//! pooled helper that may not have started.  The token skips the slots that
//! have not joined.  That is safe because such a slot holds no work when it
//! joins, except the root share it took at the moment it joined, and worker
//! 0 starts no round before every share is taken or back in its own hands.
//! So a late member can only get work by stealing, and a steal blackens its
//! victim, as a steal by any idle member does.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Shared state of the ring-token termination detector.
#[derive(Debug)]
pub struct Termination {
    workers: usize,
    /// Which workers take part (`true` once joined); the token skips the
    /// others.  Worker 0 always takes part.
    members: Vec<AtomicBool>,
    /// Which worker currently holds the token.
    token_at: AtomicUsize,
    /// Color of the token (`true` = black).
    token_black: AtomicBool,
    /// Per-worker color (`true` = black, set when the worker sends work).
    worker_black: Vec<AtomicBool>,
    /// Whether worker 0 has a round in flight.
    round_in_progress: AtomicBool,
    /// Global termination flag.
    terminated: AtomicBool,
}

impl Termination {
    /// Creates the detector for `workers` workers of which only worker 0
    /// takes part; the others [`join`](Self::join) as they start.
    pub fn new(workers: usize) -> Self {
        Termination {
            workers,
            members: (0..workers)
                .map(|worker| AtomicBool::new(worker == 0))
                .collect(),
            token_at: AtomicUsize::new(0),
            token_black: AtomicBool::new(false),
            worker_black: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            round_in_progress: AtomicBool::new(false),
            terminated: AtomicBool::new(false),
        }
    }

    /// Makes `worker` a member: from now on the token stops at it.  A worker
    /// joins holding no work but the root share it takes in the same step.
    pub fn join(&self, worker: usize) {
        self.members[worker].store(true, Ordering::SeqCst);
    }

    /// The member after `worker` along the ring.
    fn next(&self, worker: usize) -> usize {
        (worker + 1..self.workers)
            .find(|&next| self.members[next].load(Ordering::SeqCst))
            .unwrap_or(0)
    }

    /// Marks `worker` black: it transferred work to another worker, so a round
    /// that already passed it may be stale.
    pub fn mark_black(&self, worker: usize) {
        self.worker_black[worker].store(true, Ordering::SeqCst);
    }

    /// Has global termination been detected (or forced)?
    pub fn is_terminated(&self) -> bool {
        self.terminated.load(Ordering::SeqCst)
    }

    /// Forces termination from outside the ring.
    pub fn force(&self) {
        self.terminated.store(true, Ordering::SeqCst);
    }

    /// Called by an *idle* worker; passes the token along the ring if this
    /// worker currently holds it.  Returns `true` when global termination has
    /// been detected.
    ///
    /// With a single worker, being idle immediately means termination.
    pub fn poll_idle(&self, worker: usize) -> bool {
        if self.terminated.load(Ordering::SeqCst) {
            return true;
        }
        if self.workers == 1 {
            self.terminated.store(true, Ordering::SeqCst);
            return true;
        }
        if self.token_at.load(Ordering::SeqCst) != worker {
            return false;
        }
        if worker == 0 {
            if self.round_in_progress.load(Ordering::SeqCst) {
                // The token completed a round.
                let token_black = self.token_black.load(Ordering::SeqCst);
                let self_black = self.worker_black[0].load(Ordering::SeqCst);
                if !token_black && !self_black {
                    self.terminated.store(true, Ordering::SeqCst);
                    return true;
                }
            }
            // Start a (new) white round.
            self.round_in_progress.store(true, Ordering::SeqCst);
            self.token_black.store(false, Ordering::SeqCst);
            self.worker_black[0].store(false, Ordering::SeqCst);
            self.token_at.store(self.next(0), Ordering::SeqCst);
        } else {
            if self.worker_black[worker].load(Ordering::SeqCst) {
                self.token_black.store(true, Ordering::SeqCst);
                self.worker_black[worker].store(false, Ordering::SeqCst);
            }
            self.token_at.store(self.next(worker), Ordering::SeqCst);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring every worker has joined.
    fn joined(workers: usize) -> Termination {
        let term = Termination::new(workers);
        (1..workers).for_each(|worker| term.join(worker));
        term
    }

    /// Drive the ring with every worker idle and no blackness: one full round
    /// plus worker 0's re-check detects termination.
    #[test]
    fn all_idle_terminates_after_one_round() {
        let term = joined(4);
        // Worker 0 starts the round.
        assert!(!term.poll_idle(0));
        for w in 1..4 {
            assert!(!term.poll_idle(w));
        }
        // Token is back at worker 0, everyone stayed white.
        assert!(term.poll_idle(0));
        assert!(term.is_terminated());
    }

    #[test]
    fn black_worker_delays_termination_by_one_round() {
        let term = joined(3);
        assert!(!term.poll_idle(0));
        // Worker 1 handed out work during this round.
        term.mark_black(1);
        assert!(!term.poll_idle(1));
        assert!(!term.poll_idle(2));
        // Round completed black -> no termination, new round starts.
        assert!(!term.poll_idle(0));
        assert!(!term.is_terminated());
        assert!(!term.poll_idle(1));
        assert!(!term.poll_idle(2));
        assert!(term.poll_idle(0));
        assert!(term.is_terminated());
    }

    #[test]
    fn busy_worker_stalls_the_token() {
        let term = joined(3);
        assert!(!term.poll_idle(0));
        // Worker 1 never polls (it is busy); worker 2 polling does nothing
        // because it does not hold the token.
        for _ in 0..10 {
            assert!(!term.poll_idle(2));
        }
        assert!(!term.is_terminated());
        // Worker 1 finally becomes idle and forwards; then 2, then 0 detects.
        assert!(!term.poll_idle(1));
        assert!(!term.poll_idle(2));
        assert!(term.poll_idle(0));
    }

    #[test]
    fn single_worker_terminates_immediately() {
        let term = joined(1);
        assert!(term.poll_idle(0));
        assert!(term.is_terminated());
    }

    #[test]
    fn force_overrides_everything() {
        let term = joined(8);
        term.force();
        assert!(term.is_terminated());
        assert!(term.poll_idle(5));
    }

    #[test]
    fn the_token_skips_workers_that_have_not_joined() {
        let term = Termination::new(4);
        // Alone, worker 0 sees its own round come back.
        assert!(!term.poll_idle(0));
        // Worker 2 joins mid-round: the token reaches it from worker 0's
        // next round on, and never stops at 1 or 3.
        term.join(2);
        assert!(!term.poll_idle(2), "the token is not at worker 2 yet");
        assert!(!term.is_terminated());
        term.mark_black(0);
        assert!(!term.poll_idle(0), "worker 0 was black: a new round");
        assert!(!term.poll_idle(1) && !term.poll_idle(3));
        assert!(!term.poll_idle(2));
        assert!(term.poll_idle(0));
    }

    #[test]
    fn worker_0_black_prevents_first_detection() {
        let term = joined(2);
        assert!(!term.poll_idle(0));
        term.mark_black(0);
        assert!(!term.poll_idle(1));
        // Token returned white but worker 0 is black -> new round.
        assert!(!term.poll_idle(0));
        assert!(!term.poll_idle(1));
        assert!(term.poll_idle(0));
    }
}
