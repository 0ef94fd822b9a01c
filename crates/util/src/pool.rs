//! One process-wide pool of parked helper threads, and the scopes that offer
//! them work.
//!
//! A parallel run starts its helpers in the work-first style of Cilk-5
//! (Frigo, Leiserson and Randall, PLDI 1998): the calling thread does the
//! work itself and never waits for a helper that has not started.  Inside
//! [`Pool::scope`] the caller *offers* jobs; a helper may take each one.
//! When the scope ends, every offer no helper took is withdrawn unrun, and
//! the scope waits only for the offers helpers took.  So a job may never
//! run, and the code that offers it must be able to do its work another
//! way: `sge-stealing` offers each worker past the first its share of the
//! roots and has the calling worker take back every share no helper took,
//! and `sge-service` offers a batch's claimers past the calling thread,
//! which claims every query no helper claimed.
//!
//! Open offers wait in one queue, oldest first, under the pool's lock.  An
//! offer wakes a parked helper, or starts one when every parked helper has
//! an older offer to take and the pool is below its cap, or else waits for
//! the first helper that finishes its job.  So the pool has no size
//! setting: it grows to the most offers open at once, capped at
//! [`max_workers`] − 1, and a spawn the OS refuses leaves it smaller.  An idle helper parks on a condition variable and
//! never spins.  A job that panics unwinds into the pool, which keeps the
//! helper and hands the panic to the scope; the scope re-raises it once
//! every offer it made is withdrawn or finished.
//!
//! A helper serves jobs until the process exits, so no handle joins it.
//!
//! The lifetime erasure in [`Scope::offer`] is the only unsafe code outside
//! the `poll(2)` binding.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Workers one run may ask for per core the host makes available.
pub const WORKERS_PER_CORE: usize = 16;

/// The most workers one run may ask for on this host: [`WORKERS_PER_CORE`]
/// × `std::thread::available_parallelism()`, read once.  The calling thread
/// is one of them, so the process-wide pool holds at most one helper fewer.
pub fn max_workers() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        WORKERS_PER_CORE * std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// A job with its borrows' lifetime erased (see [`Scope::offer`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// What a job that panicked unwound with.
type Panic = Box<dyn Any + Send + 'static>;

/// Locks a pool mutex.  No code that can panic runs while one is held (jobs
/// run and are dropped outside every lock), so a poisoned lock still holds
/// consistent data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The jobs of one scope that helpers are running, and the first panic
/// among those that finished.
#[derive(Default)]
struct Running {
    jobs: usize,
    panic: Option<Panic>,
}

/// What one scope shares with the helpers that take its offers.  Owned, so
/// a helper may hold it after the job it took finished.
#[derive(Default)]
struct Tally {
    running: Mutex<Running>,
    finished: Condvar,
}

impl Tally {
    /// Reports a taken job done.
    fn finish(&self, panic: Option<Panic>) {
        let mut running = lock(&self.running);
        running.jobs -= 1;
        running.panic = running.panic.take().or(panic);
        self.finished.notify_all();
    }

    /// Waits until every taken job finished; returns the first one's panic.
    fn wait(&self) -> Option<Panic> {
        let running = lock(&self.running);
        let mut running = self
            .finished
            .wait_while(running, |running| running.jobs > 0)
            .unwrap_or_else(PoisonError::into_inner);
        running.panic.take()
    }
}

/// The pool's state, under its one lock.
#[derive(Default)]
struct State {
    /// Offers no helper has taken, oldest first, with their scope's tally.
    open: VecDeque<(Job, Arc<Tally>)>,
    /// Helpers parked or on their way to park, a new one included: each
    /// takes an open offer, if there is one, before it waits.
    idle: usize,
    /// Helpers started or being started; none ever exits.
    spawned: usize,
}

/// A pool of parked helper threads that run the jobs scopes offer.
pub struct Pool {
    max_helpers: usize,
    state: Mutex<State>,
    /// Wakes parked helpers.
    wake: Condvar,
}

impl Pool {
    /// An empty pool that never holds more than `max_helpers` helpers.
    /// Parallel runs share [`Pool::global`]; a pool of its own lets a test
    /// fix the cap.
    pub fn new(max_helpers: usize) -> Pool {
        Pool {
            max_helpers,
            state: Mutex::default(),
            wake: Condvar::new(),
        }
    }

    /// The process-wide pool, capped at [`max_workers`] − 1 helpers.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(max_workers() - 1))
    }

    /// The threads this pool has ever started, all of them still helpers
    /// (counting one whose start is under way).
    pub fn spawned(&self) -> usize {
        lock(&self.state).spawned
    }

    /// Runs `f` with a scope whose offers may borrow anything that outlives
    /// this call.  Returns once every offer is withdrawn or finished; if `f`
    /// or a job panicked, re-raises that panic then, the caller's first.
    pub fn scope<'env, R>(&'static self, f: impl FnOnce(&Scope<'env>) -> R) -> R {
        let scope = Scope {
            pool: self,
            tally: Arc::default(),
            env: PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Dropped here, on the scope's thread, unrun, while everything the
        // jobs borrow is still alive.
        drop(self.withdraw(&scope.tally));
        let job_panic = scope.tally.wait();
        match (result, job_panic) {
            (Err(panic), _) | (Ok(_), Some(panic)) => panic::resume_unwind(panic),
            (Ok(value), None) => value,
        }
    }

    /// Queues `job` and wakes a parked helper for it, or starts one when
    /// every parked helper has an older offer to take and the pool is below
    /// its cap.  Otherwise the job waits for the first helper that
    /// finishes, as it does when the OS refuses the thread.
    fn post(&'static self, job: Job, tally: &Arc<Tally>) {
        let mut state = lock(&self.state);
        state.open.push_back((job, Arc::clone(tally)));
        if state.idle >= state.open.len() {
            self.wake.notify_one();
            return;
        }
        if state.spawned >= self.max_helpers {
            return;
        }
        state.spawned += 1;
        state.idle += 1;
        drop(state);
        let started = std::thread::Builder::new()
            .name("sge-helper".into())
            .spawn(move || self.serve());
        if started.is_err() {
            let mut state = lock(&self.state);
            state.spawned -= 1;
            state.idle -= 1;
        }
    }

    /// Takes the offers of `tally`'s scope that no helper took out of the
    /// queue, so that no helper finds one later.  A helper woken for one of
    /// them finds the queue empty and parks again.
    fn withdraw(&self, tally: &Arc<Tally>) -> Vec<Job> {
        let mut state = lock(&self.state);
        let mut unrun = Vec::new();
        let mut index = 0;
        while index < state.open.len() {
            if Arc::ptr_eq(&state.open[index].1, tally) {
                unrun.extend(state.open.remove(index).map(|(job, _)| job));
            } else {
                index += 1;
            }
        }
        unrun
    }

    /// A helper's life: park until an offer is open, take the oldest, run
    /// it, park again.
    fn serve(&'static self) {
        loop {
            let mut state = lock(&self.state);
            let (job, tally) = loop {
                if let Some(offer) = state.open.pop_front() {
                    break offer;
                }
                state = self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            };
            state.idle -= 1;
            // Under the pool's lock, so a scope that no longer finds the
            // offer in the queue finds it running.
            lock(&tally.running).jobs += 1;
            drop(state);
            let panic = panic::catch_unwind(AssertUnwindSafe(job)).err();
            // Idle before reporting, so a caller that sees its offers
            // finished finds this helper for its next run.
            lock(&self.state).idle += 1;
            tally.finish(panic);
        }
    }
}

/// The offers of one [`Pool::scope`] call.
pub struct Scope<'env> {
    pool: &'static Pool,
    tally: Arc<Tally>,
    /// Invariant in `'env`, so a job cannot borrow what dies before the
    /// scope ends.
    env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Offers `job` to the pool's helpers.  The job runs at most once, on a
    /// helper, and not at all if no helper takes it before the scope ends:
    /// the caller must be able to do its work another way.
    #[allow(unsafe_code)]
    pub fn offer(&self, job: impl FnOnce() + Send + 'env) {
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(job);
        // SAFETY: only the lifetime changes, and no use of the job outlives
        // `'env`:
        // - the scope returns or unwinds only after every offer it made is
        //   withdrawn or finished (`Pool::scope` withdraws and waits also
        //   when `f` panicked).  Withdrawing takes the offers no helper took
        //   out of the queue and drops their jobs on the scope's thread,
        //   unrun; for each offer a helper took, the scope waits until the
        //   helper reported it finished, which the helper does after the
        //   job ran and was dropped.  `'env` outlives the `scope` call, and
        //   `Scope` is invariant in it, so every borrow of the job is alive
        //   until then;
        // - a helper takes a job only out of the queue, under the pool's
        //   lock, and counts it running in the same step.  So once its
        //   scope withdrew, no helper finds the job: one that comes for an
        //   offer after its scope returned touches only the queue.
        let job: Job = unsafe { std::mem::transmute(job) };
        self.pool.post(job, &self.tally);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn private_pool(max_helpers: usize) -> &'static Pool {
        Box::leak(Box::new(Pool::new(max_helpers)))
    }

    /// Occupies `helpers` helpers of `pool` from a thread of `threads`
    /// until the returned sender is dropped.
    fn occupy<'scope>(
        threads: &'scope std::thread::Scope<'scope, '_>,
        pool: &'static Pool,
        helpers: usize,
    ) -> mpsc::Sender<()> {
        let (release, wait_release) = mpsc::channel::<()>();
        let wait_release = Arc::new(Mutex::new(wait_release));
        let (busy, wait_busy) = mpsc::channel();
        threads.spawn(move || {
            let (taken, wait_taken) = mpsc::channel();
            pool.scope(|scope| {
                for _ in 0..helpers {
                    let (taken, wait_release) = (taken.clone(), Arc::clone(&wait_release));
                    scope.offer(move || {
                        taken.send(()).unwrap();
                        let _ = lock(&wait_release).recv();
                    });
                }
                for _ in 0..helpers {
                    wait_taken.recv().unwrap();
                }
                busy.send(()).unwrap();
            })
        });
        wait_busy.recv().unwrap();
        release
    }

    #[test]
    fn a_scope_waits_for_the_offers_helpers_took() {
        let pool = private_pool(2);
        let ran = AtomicUsize::new(0);
        let (started, wait_started) = mpsc::channel();
        pool.scope(|scope| {
            for _ in 0..2 {
                let started = started.clone();
                let ran = &ran;
                scope.offer(move || {
                    started.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(20));
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Both helpers took their offer before the scope ends.
            for _ in 0..2 {
                wait_started.recv().unwrap();
            }
        });
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        assert_eq!(pool.spawned(), 2);
    }

    #[test]
    fn offers_nobody_took_are_withdrawn_unrun() {
        // No helper at all: every offer stays open and is withdrawn unrun,
        // and dropping the job releases what it owned.
        let pool = private_pool(0);
        let owned = Arc::new(());
        pool.scope(|scope| {
            let owned = Arc::clone(&owned);
            scope.offer(move || panic!("ran {owned:?}"));
        });
        assert_eq!(Arc::strong_count(&owned), 1);
        assert_eq!(pool.spawned(), 0);
        assert!(lock(&pool.state).open.is_empty());
    }

    #[test]
    fn an_offer_to_a_busy_pool_waits_for_a_helper_to_finish() {
        let pool = private_pool(1);
        std::thread::scope(|threads| {
            // With the one helper busy, the offer waits in the queue...
            let release = occupy(threads, pool, 1);
            let ran = AtomicUsize::new(0);
            pool.scope(|scope| scope.offer(|| _ = ran.fetch_add(1, Ordering::SeqCst)));
            assert_eq!(ran.load(Ordering::SeqCst), 0);
            // ...and the helper that finishes takes the next one there.
            let (done, wait_done) = mpsc::channel();
            pool.scope(|scope| {
                scope.offer(move || done.send(()).unwrap());
                drop(release);
                wait_done.recv_timeout(Duration::from_secs(10)).unwrap();
            });
        });
        assert_eq!(pool.spawned(), 1);
    }

    #[test]
    fn no_job_runs_after_its_scope_returned() {
        // Each scope lets go at once, so its helper often comes too late.
        // A job that ran late would move its counter after the snapshot.
        let pool = private_pool(1);
        let runs: Vec<_> = (0..200)
            .map(|_| {
                let counter = Arc::new(AtomicUsize::new(0));
                pool.scope(|scope| {
                    let counter = Arc::clone(&counter);
                    scope.offer(move || _ = counter.fetch_add(1, Ordering::SeqCst));
                });
                let seen = counter.load(Ordering::SeqCst);
                (counter, seen)
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while lock(&pool.state).idle == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(lock(&pool.state).idle, 1, "the helper parked");
        for (counter, seen) in runs {
            assert_eq!(counter.load(Ordering::SeqCst), seen);
        }
        assert_eq!(pool.spawned(), 1);
    }

    #[test]
    fn a_panicking_job_reaches_the_scope_and_the_helper_survives() {
        let pool = private_pool(1);
        let (taken, wait_taken) = mpsc::channel();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.offer(move || {
                    taken.send(()).unwrap();
                    panic!("job failed");
                });
                wait_taken.recv().unwrap();
            })
        }));
        let payload = caught.expect_err("the job's panic is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job failed"));
        // The same helper takes the next offer.
        let (done, wait_done) = mpsc::channel();
        pool.scope(|scope| {
            scope.offer(move || done.send(7).unwrap());
            assert_eq!(wait_done.recv().unwrap(), 7);
        });
        assert_eq!(pool.spawned(), 1);
    }

    #[test]
    fn the_callers_panic_waits_for_taken_offers_and_wins() {
        let pool = private_pool(1);
        let finished = AtomicUsize::new(0);
        let (taken, wait_taken) = mpsc::channel();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                let finished = &finished;
                scope.offer(move || {
                    taken.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(20));
                    finished.fetch_add(1, Ordering::SeqCst);
                    panic!("job failed too");
                });
                wait_taken.recv().unwrap();
                panic!("caller failed");
            })
        }));
        let payload = caught.expect_err("the caller's panic is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller failed"));
        assert_eq!(finished.load(Ordering::SeqCst), 1, "the scope waited");
    }

    #[test]
    fn the_pool_grows_to_the_offers_open_at_once_and_no_further() {
        let pool = private_pool(3);
        for offers in [1usize, 5, 2, 3, 5] {
            pool.scope(|scope| {
                for _ in 0..offers {
                    scope.offer(|| {});
                }
            });
        }
        assert_eq!(pool.spawned(), 3, "capped at three");
        // One scope after another: the largest one's offers.
        let pool = private_pool(8);
        for offers in [2usize, 1, 2, 2] {
            pool.scope(|scope| {
                for _ in 0..offers {
                    scope.offer(|| {});
                }
            });
        }
        assert_eq!(pool.spawned(), 2);
        // Two scopes at once, each holding two helpers: four.
        std::thread::scope(|threads| {
            let first = occupy(threads, pool, 2);
            let second = occupy(threads, pool, 2);
            drop((first, second));
        });
        assert_eq!(pool.spawned(), 4);
    }

    #[test]
    fn the_global_pool_leaves_room_for_the_caller() {
        assert_eq!(Pool::global().max_helpers, max_workers() - 1);
    }
}
