//! The work-stealing engine: shared arrays, the worker loop and the driver.
//!
//! The worker main loop is a direct transcription of Fig. 2 of the paper:
//!
//! ```text
//! while not terminated:
//!     if q.is_empty():
//!         acquire_task(worker)
//!     task = q.pop()
//!     work_available[worker] = not q.is_empty()
//!     process_task_requests(worker)
//!     execute(task)
//! ```
//!
//! The private deque `q` is the worker's DFS stack ([`TaskStack`]): one
//! level per depth, holding the consistent children of the applied prefix.
//! The owner pops depth-first from the deepest level; a steal takes a task
//! group, a `task_group_size`-aligned range of the shallowest level.
//!
//! Three shared arrays coordinate the workers (Section 3.2):
//!
//! * `work_available` — one boolean per worker: does it currently have
//!   stealable tasks?  A worker writes its flag only when the value changes,
//!   not once per task,
//! * `requests` — one slot per worker; thieves CAS their own id into a
//!   victim's slot (only one request per victim at a time, as in the paper's
//!   use of `std::atomic_compare_exchange_weak`),
//! * `transfers` — one cell per *thief*, through which the victim hands over a
//!   stolen task group together with the prefix of choices it needs.
//!
//! Every slot of the three arrays sits on its own 128-byte line, so a
//! thief's write to one worker's slot never invalidates the line another
//! worker polls once per task.
//!
//! Only a steal copies between workers: the stolen range and the prefix it
//! needs.  An expansion fills its level in place from the problem's
//! candidates and drops the inconsistent ones, so in steady state it
//! allocates nothing.

use crate::problem::BacktrackProblem;
use crate::stats::{RunResult, WorkerStats};
use crate::task::{TaskStack, Transfer};
use crate::termination::Termination;
use sge_util::{CancelToken, MatchBudget, SplitMix64};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sentinel meaning "no pending steal request".
const NO_REQUEST: usize = usize::MAX;

/// How often (in executed tasks / spin iterations) the wall clock is consulted
/// for the time limit.
const DEADLINE_CHECK_INTERVAL: u64 = 1024;

/// Configuration of one parallel run.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of worker threads.
    pub num_workers: usize,
    /// Task-group (coalescing) size; the paper settles on 4.
    pub task_group_size: usize,
    /// When `false`, workers only process their initial share (the "no work
    /// stealing" baseline of Fig. 3).
    pub steal_enabled: bool,
    /// Optional wall-clock limit for the whole parallel phase.
    pub time_limit: Option<Duration>,
    /// Stop cooperatively once this many solutions have been recorded across
    /// all workers (`None` = run to exhaustion).  The engine guarantees that
    /// exactly `min(max_solutions, total)` solutions are counted and reported
    /// to [`BacktrackProblem::on_solution`].
    pub max_solutions: Option<u64>,
    /// External cooperative cancellation: when the token fires, termination
    /// is forced exactly as if the solution budget had been exhausted, and
    /// the result reports `cancelled`.  Solutions discovered after the token
    /// fires are discarded, not counted.
    pub cancel: Option<Arc<CancelToken>>,
    /// Seed for the (deterministic per worker) victim-selection RNG.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            task_group_size: 4,
            steal_enabled: true,
            time_limit: None,
            max_solutions: None,
            cancel: None,
            seed: 0x5EED_1234_ABCD,
        }
    }
}

impl EngineConfig {
    /// Convenience constructor with `workers` threads and the paper's default
    /// task-group size of 4.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            num_workers: workers,
            ..EngineConfig::default()
        }
    }

    /// Sets the task-group size.
    pub fn task_group_size(mut self, size: usize) -> Self {
        self.task_group_size = size.max(1);
        self
    }

    /// Enables or disables stealing.
    pub fn steal(mut self, enabled: bool) -> Self {
        self.steal_enabled = enabled;
        self
    }

    /// Sets a wall-clock time limit.
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Stops the run cooperatively after `limit` solutions.
    pub fn max_solutions(mut self, limit: u64) -> Self {
        self.max_solutions = Some(limit);
        self
    }

    /// Attaches an external cancellation token.
    pub fn cancel_token(mut self, token: Arc<CancelToken>) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// One per-worker slot of a shared array, aligned to 128 bytes so that no two
/// workers' slots share a cache line or the adjacent line the prefetcher
/// pairs with it.
#[repr(align(128))]
struct Padded<T>(T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// One thief's transfer mailbox.
enum TransferCell<C> {
    /// No answer yet.
    Empty,
    /// The victim had nothing to give (or is shutting down).
    Reject,
    /// A stolen task group plus the prefix needed to run it.
    Task(Transfer<C>),
}

/// State shared by all workers of one run.
struct Shared<C> {
    work_available: Vec<Padded<AtomicBool>>,
    requests: Vec<Padded<AtomicUsize>>,
    transfers: Vec<Padded<Mutex<TransferCell<C>>>>,
    termination: Termination,
    deadline: Option<Instant>,
    timed_out: AtomicBool,
    /// Budget of countable solutions (`EngineConfig::max_solutions`); claims
    /// beyond it are discarded, so the counted total is exact.
    budget: MatchBudget,
    cancel: Option<Arc<CancelToken>>,
    cancelled: AtomicBool,
}

impl<C> Shared<C> {
    fn new(workers: usize, deadline: Option<Instant>, config: &EngineConfig) -> Self {
        Shared {
            work_available: (0..workers)
                .map(|_| Padded(AtomicBool::new(false)))
                .collect(),
            requests: (0..workers)
                .map(|_| Padded(AtomicUsize::new(NO_REQUEST)))
                .collect(),
            transfers: (0..workers)
                .map(|_| Padded(Mutex::new(TransferCell::Empty)))
                .collect(),
            termination: Termination::new(workers),
            deadline,
            timed_out: AtomicBool::new(false),
            budget: MatchBudget::new(config.max_solutions),
            cancel: config.cancel.clone(),
            cancelled: AtomicBool::new(false),
        }
    }

    /// Checks the global deadline; on expiry forces termination.
    fn check_deadline(&self) {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.timed_out.store(true, Ordering::SeqCst);
                self.termination.force();
            }
        }
    }

    /// `true` once the external cancellation token has fired; latches the
    /// `cancelled` result flag and forces termination the first time it is
    /// observed.
    fn cancel_requested(&self) -> bool {
        match &self.cancel {
            Some(token) if token.is_cancelled() => {
                self.cancelled.store(true, Ordering::SeqCst);
                self.termination.force();
                true
            }
            _ => false,
        }
    }

    /// The per-tick interrupt poll: cancellation, then the deadline.
    fn check_interrupts(&self) {
        self.cancel_requested();
        self.check_deadline();
    }
}

struct Worker<'a, P: BacktrackProblem> {
    id: usize,
    problem: &'a P,
    shared: &'a Shared<P::Choice>,
    config: &'a EngineConfig,
    stack: TaskStack<P::Choice>,
    state: P::State,
    /// Choices applied so far, by level; `path.len()` is the applied depth.
    path: Vec<P::Choice>,
    total_depth: usize,
    stats: WorkerStats,
    rng: SplitMix64,
    /// The value this worker last published in `work_available`.
    advertised: bool,
    /// Whether the last level is counted through
    /// [`BacktrackProblem::count_last_level`]: only when nothing can
    /// interrupt it (no solution budget, time limit or cancel token).
    count_last_level: bool,
    ticks: u64,
}

impl<'a, P: BacktrackProblem> Worker<'a, P> {
    fn new(
        id: usize,
        problem: &'a P,
        shared: &'a Shared<P::Choice>,
        config: &'a EngineConfig,
    ) -> Self {
        Worker {
            id,
            problem,
            shared,
            config,
            stack: TaskStack::new(config.task_group_size),
            state: problem.new_state(),
            path: Vec::new(),
            total_depth: problem.depth(),
            stats: WorkerStats {
                worker_id: id,
                ..WorkerStats::default()
            },
            rng: SplitMix64::new(config.seed ^ (id as u64).wrapping_mul(0x9E37_79B9)),
            advertised: false,
            count_last_level: config.max_solutions.is_none()
                && config.time_limit.is_none()
                && config.cancel.is_none(),
            ticks: 0,
        }
    }

    /// Undoes applied levels until only `depth` of them remain.
    fn rewind_to(&mut self, depth: usize) {
        while self.path.len() > depth {
            let level = self.path.len() - 1;
            self.problem.undo(level, &mut self.state);
            self.path.pop();
        }
    }

    /// Executes one task: apply the choice and either record a solution,
    /// count the last level below it, or fill the next level of the stack
    /// with its (pre-checked) children.
    fn execute(&mut self, depth: usize, choice: P::Choice, checked: bool) {
        self.rewind_to(depth);
        self.stats.tasks_executed += 1;
        if !checked {
            // Root-distribution tasks are enqueued unchecked (Section 3.3);
            // their consistency check happens here and counts as a state.
            self.stats.states += 1;
            if !self.problem.is_consistent(depth, choice, &self.state) {
                return;
            }
        }
        self.problem.apply(depth, choice, &mut self.state);
        self.path.push(choice);

        let level = depth + 1;
        if level == self.total_depth {
            if self.claim_solution() {
                self.stats.solutions += 1;
                self.problem.on_solution(self.id, &self.state);
            }
            return;
        }
        if self.count_last_level && level + 1 == self.total_depth {
            if let Some(count) = self.problem.count_last_level(&mut self.state) {
                self.stats.states += count.states;
                self.stats.solutions += count.solutions;
                return;
            }
        }

        // Consistency is verified *before* the children become stealable
        // (Section 3.1), so thieves do not steal dead ends; each check is a
        // visited state.
        let (problem, state, states) = (self.problem, &mut self.state, &mut self.stats.states);
        let groups = self.stack.spawn(level, true, |children| {
            problem.candidates(level, state, children);
            *states += children.len() as u64;
            children.retain(|&c| problem.is_consistent(level, c, state));
        });
        self.stats.task_groups += groups;
    }

    /// Publishes whether this worker has stealable work, writing the shared
    /// flag only when the value changes.
    fn advertise(&mut self) {
        let available = !self.stack.is_empty();
        if available != self.advertised {
            self.advertised = available;
            self.shared.work_available[self.id].store(available, Ordering::SeqCst);
        }
    }

    /// Claims one slot of the shared solution budget.  Returns `true` when the
    /// solution should be counted; once the budget is exhausted termination is
    /// forced so all workers stop promptly, and over-claims are discarded —
    /// the run reports exactly `min(max_solutions, total)` solutions.
    ///
    /// An external cancellation trips this path too: solutions found after
    /// the token fired are discarded, so cancellation behaves exactly like a
    /// budget that ran out the moment the token fired.
    fn claim_solution(&mut self) -> bool {
        if self.shared.cancel_requested() {
            return false;
        }
        let counted = self.shared.budget.claim();
        if self.shared.budget.is_exhausted() {
            self.shared.termination.force();
        }
        counted
    }

    /// Answers at most one pending steal request: hand over the back group (and
    /// the prefix of choices it needs) if we have one to spare, reject
    /// otherwise.
    fn process_requests(&mut self) {
        let thief = self.shared.requests[self.id].load(Ordering::SeqCst);
        if thief == NO_REQUEST || thief == self.id {
            return;
        }
        let answer = if self.shared.termination.is_terminated() {
            TransferCell::Reject
        } else {
            match self.stack.steal_back() {
                Some(group) => {
                    let prefix = self.path[..group.depth].to_vec();
                    self.stats.tasks_sent += 1;
                    // Sending work may re-activate an idle worker: mark this
                    // worker black for the termination ring.
                    self.shared.termination.mark_black(self.id);
                    TransferCell::Task(Transfer { prefix, group })
                }
                None => TransferCell::Reject,
            }
        };
        *self.shared.transfers[thief].lock().expect("mutex poisoned") = answer;
        // Accept new requests only after the answer is visible to the thief.
        self.shared.requests[self.id].store(NO_REQUEST, Ordering::SeqCst);
        self.advertise();
    }

    /// Installs a stolen transfer: replay the prefix, then adopt the group
    /// as the level below it.
    fn install(&mut self, transfer: Transfer<P::Choice>) {
        self.rewind_to(0);
        for (level, &choice) in transfer.prefix.iter().enumerate() {
            self.problem.apply(level, choice, &mut self.state);
            self.path.push(choice);
        }
        self.stack.install(transfer.group);
        self.advertise();
    }

    fn tick(&mut self) {
        self.ticks += 1;
        if self.ticks.is_multiple_of(DEADLINE_CHECK_INTERVAL) {
            self.shared.check_interrupts();
        }
    }

    /// Receiver-initiated steal loop: repeatedly request work from a random
    /// victim until a task group arrives or termination is detected.  Returns
    /// `true` when work was obtained.  The clock is read only on entering
    /// and leaving: the time counts as steal wait when work arrived and as
    /// idle time when the loop ended in termination.
    fn acquire(&mut self) -> bool {
        let entered = Instant::now();
        let acquired = self.steal();
        let seconds = entered.elapsed().as_secs_f64();
        if acquired {
            self.stats.steal_wait_seconds += seconds;
        } else {
            self.stats.idle_seconds += seconds;
        }
        acquired
    }

    /// The body of [`Self::acquire`].
    fn steal(&mut self) -> bool {
        self.advertise();
        let workers = self.config.num_workers;
        let mut spins: u64 = 0;
        loop {
            if self.shared.termination.is_terminated() {
                return false;
            }
            self.tick();
            // While idle we still answer requests (with a rejection) and keep
            // the termination token moving.
            self.process_requests();
            if self.shared.termination.poll_idle(self.id) {
                return false;
            }

            // Pick a random victim that advertises work.
            let victim = self.rng.next_below(workers);
            if victim != self.id && self.shared.work_available[victim].load(Ordering::SeqCst) {
                self.stats.steal_requests += 1;
                if self.shared.requests[victim]
                    .compare_exchange(NO_REQUEST, self.id, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    // Wait for the victim's answer.  The token is NOT
                    // forwarded while the request is pending: a transfer the
                    // victim already committed to may still be sitting unread
                    // in our mailbox, and the ring would otherwise be able to
                    // complete a white round around us and declare
                    // termination with that stolen task group in flight
                    // (dropping its whole subtree).  Holding the token here
                    // makes delivery look instantaneous to the Dijkstra ring;
                    // every victim answers every request (even while idle or
                    // winding down), so the wait always ends.
                    let mut waits: u64 = 0;
                    loop {
                        if self.shared.termination.is_terminated() {
                            return false;
                        }
                        self.tick();
                        self.process_requests();
                        let mut cell = self.shared.transfers[self.id]
                            .lock()
                            .expect("mutex poisoned");
                        match std::mem::replace(&mut *cell, TransferCell::Empty) {
                            TransferCell::Empty => {
                                drop(cell);
                                waits += 1;
                                if waits.is_multiple_of(8) {
                                    // Oversubscribed hosts (fewer cores than
                                    // workers) need the victim to get CPU time
                                    // to answer; yield rather than burn quanta.
                                    std::thread::yield_now();
                                } else {
                                    std::hint::spin_loop();
                                }
                            }
                            TransferCell::Reject => break,
                            TransferCell::Task(transfer) => {
                                drop(cell);
                                self.stats.steals += 1;
                                self.install(transfer);
                                return true;
                            }
                        }
                    }
                }
            }

            spins += 1;
            if spins.is_multiple_of(8) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// The worker main loop (paper Fig. 2).
    fn run(&mut self) {
        let start = Instant::now();
        loop {
            if self.shared.termination.is_terminated() {
                break;
            }
            self.tick();
            if self.stack.is_empty() {
                if !self.config.steal_enabled {
                    // Static initial partition only (Fig. 3 baseline).
                    break;
                }
                if !self.acquire() {
                    break;
                }
                continue;
            }
            let (depth, choice, checked) = self.stack.pop_task().expect("stack reported non-empty");
            self.advertise();
            self.process_requests();
            self.execute(depth, choice, checked);
        }
        // Final courtesy: make sure no thief is left waiting on us.
        self.process_requests();
        self.problem.retire_state(&self.state);
        self.stats.busy_seconds = start.elapsed().as_secs_f64();
    }
}

/// Runs the parallel backtracking search over `problem`.
///
/// The children of the state-space root are distributed round-robin over the
/// workers' private deques (Section 3.3); from then on the receiver-initiated
/// work-stealing protocol balances the load.
///
/// A problem with `depth() == 0` has exactly one (empty) solution.
pub fn run<P: BacktrackProblem>(problem: &P, config: &EngineConfig) -> RunResult {
    let start = Instant::now();
    let workers = config.num_workers.max(1);
    let total_depth = problem.depth();

    if total_depth == 0 {
        let mut stats = vec![WorkerStats::default(); workers];
        for (id, w) in stats.iter_mut().enumerate() {
            w.worker_id = id;
        }
        // The empty problem has one (empty) solution, unless the budget is 0.
        let budget = MatchBudget::new(config.max_solutions);
        if budget.claim() {
            stats[0].solutions = 1;
            problem.on_solution(0, &problem.new_state());
        }
        let mut result = RunResult::from_workers(stats, start.elapsed().as_secs_f64(), false);
        result.limit_hit = budget.is_exhausted();
        return result;
    }

    // Initial work distribution: one task per child of the root, dealt
    // round-robin, enqueued unchecked.
    let mut init_state = problem.new_state();
    let mut roots: Vec<P::Choice> = Vec::new();
    problem.candidates(0, &mut init_state, &mut roots);
    problem.retire_state(&init_state);
    let mut per_worker: Vec<Vec<P::Choice>> = vec![Vec::new(); workers];
    for (i, choice) in roots.into_iter().enumerate() {
        per_worker[i % workers].push(choice);
    }

    let deadline = config.time_limit.map(|limit| start + limit);
    let shared: Shared<P::Choice> = Shared::new(workers, deadline, config);
    // An already-expired deadline (or an already-fired cancellation token)
    // forces termination before any worker runs, so every scheduler agrees
    // on the degenerate outcome (zero work) instead of racing the periodic
    // per-worker interrupt checks.
    shared.check_interrupts();

    let worker_stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = per_worker
            .into_iter()
            .enumerate()
            .map(|(id, share)| {
                scope.spawn(move || {
                    let mut worker = Worker::new(id, problem, shared, config);
                    worker.stats.task_groups += worker
                        .stack
                        .spawn(0, false, |roots| roots.extend_from_slice(&share));
                    worker.advertise();
                    worker.run();
                    worker.stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("worker thread panicked"))
            .collect()
    });

    let mut result = RunResult::from_workers(
        worker_stats,
        start.elapsed().as_secs_f64(),
        shared.timed_out.load(Ordering::SeqCst),
    );
    result.limit_hit = shared.budget.is_exhausted();
    result.cancelled = shared.cancelled.load(Ordering::SeqCst);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::LevelCount;

    /// N-Queens as a [`BacktrackProblem`]: level = row, choice = column.
    struct NQueens {
        n: usize,
    }

    struct QueensState {
        columns: Vec<u32>,
    }

    impl BacktrackProblem for NQueens {
        type State = QueensState;
        type Choice = u32;

        fn depth(&self) -> usize {
            self.n
        }

        fn new_state(&self) -> QueensState {
            QueensState {
                columns: Vec::new(),
            }
        }

        fn candidates(&self, _level: usize, _state: &mut QueensState, out: &mut Vec<u32>) {
            out.clear();
            out.extend(0..self.n as u32);
        }

        fn is_consistent(&self, level: usize, choice: u32, state: &QueensState) -> bool {
            state
                .columns
                .iter()
                .enumerate()
                .take(level)
                .all(|(row, &col)| {
                    col != choice && (level - row) as i64 != (choice as i64 - col as i64).abs()
                })
        }

        fn apply(&self, _level: usize, choice: u32, state: &mut QueensState) {
            state.columns.push(choice);
        }

        fn undo(&self, _level: usize, state: &mut QueensState) {
            state.columns.pop();
        }
    }

    fn queens_solutions(n: usize) -> u64 {
        // Known values of the N-Queens sequence (OEIS A000170).
        [1, 1, 0, 0, 2, 10, 4, 40, 92, 352, 724][n]
    }

    /// N-Queens that counts its last row instead of enumerating it, and
    /// records how often the engine asked.
    struct CountingQueens {
        inner: NQueens,
        asked: std::sync::atomic::AtomicU64,
    }

    impl BacktrackProblem for CountingQueens {
        type State = QueensState;
        type Choice = u32;
        fn depth(&self) -> usize {
            self.inner.depth()
        }
        fn new_state(&self) -> QueensState {
            self.inner.new_state()
        }
        fn candidates(&self, level: usize, state: &mut QueensState, out: &mut Vec<u32>) {
            self.inner.candidates(level, state, out);
        }
        fn is_consistent(&self, level: usize, choice: u32, state: &QueensState) -> bool {
            self.inner.is_consistent(level, choice, state)
        }
        fn apply(&self, level: usize, choice: u32, state: &mut QueensState) {
            self.inner.apply(level, choice, state);
        }
        fn undo(&self, level: usize, state: &mut QueensState) {
            self.inner.undo(level, state);
        }
        fn count_last_level(&self, state: &mut QueensState) -> Option<LevelCount> {
            self.asked.fetch_add(1, Ordering::Relaxed);
            let level = self.inner.n - 1;
            let columns = 0..self.inner.n as u32;
            let solutions = columns
                .filter(|&c| self.inner.is_consistent(level, c, state))
                .count() as u64;
            Some(LevelCount {
                states: self.inner.n as u64,
                solutions,
            })
        }
    }

    fn counting_queens(n: usize) -> CountingQueens {
        CountingQueens {
            inner: NQueens { n },
            asked: std::sync::atomic::AtomicU64::new(0),
        }
    }

    #[test]
    fn last_level_count_matches_enumeration() {
        for n in [6usize, 8] {
            let reference = run(&NQueens { n }, &EngineConfig::with_workers(1));
            let reference_tasks: u64 = reference.workers.iter().map(|w| w.tasks_executed).sum();
            for workers in [1usize, 2, 4] {
                for group_size in [1usize, 3, 4, 16] {
                    let problem = counting_queens(n);
                    let config = EngineConfig::with_workers(workers).task_group_size(group_size);
                    let result = run(&problem, &config);
                    let case = format!("n={n} workers={workers} group={group_size}");
                    assert_eq!(result.solutions, reference.solutions, "{case}");
                    assert_eq!(result.states, reference.states, "{case}");
                    assert!(problem.asked.load(Ordering::Relaxed) > 0, "{case}");
                    let tasks: u64 = result.workers.iter().map(|w| w.tasks_executed).sum();
                    assert!(tasks < reference_tasks, "{case}: leaves are not tasks");
                }
            }
        }
    }

    #[test]
    fn last_level_count_is_never_consulted_under_limits() {
        let token = Arc::new(CancelToken::new());
        let configs = [
            EngineConfig::with_workers(2).max_solutions(1_000),
            EngineConfig::with_workers(2).time_limit(Duration::from_secs(600)),
            EngineConfig::with_workers(2).cancel_token(token),
        ];
        for config in configs {
            let problem = counting_queens(8);
            let result = run(&problem, &config);
            assert_eq!(result.solutions, 92);
            assert_eq!(problem.asked.load(Ordering::Relaxed), 0, "{config:?}");
        }
    }

    #[test]
    fn a_stolen_group_replays_to_the_victims_state() {
        let problem = NQueens { n: 8 };
        let config = EngineConfig::with_workers(2).task_group_size(2);
        let shared: Shared<u32> = Shared::new(2, None, &config);
        let drain = |worker: &mut Worker<NQueens>| {
            while let Some((depth, choice, checked)) = worker.stack.pop_task() {
                worker.execute(depth, choice, checked);
            }
        };
        // The victim owns the subtree of a queen in column 0 and is three
        // levels into it.
        let mut victim = Worker::new(0, &problem, &shared, &config);
        victim.stack.spawn(0, false, |roots| roots.push(0));
        for _ in 0..3 {
            let (depth, choice, checked) = victim.stack.pop_task().unwrap();
            victim.execute(depth, choice, checked);
        }
        shared.requests[0].store(1, Ordering::SeqCst);
        victim.process_requests();
        let answer = std::mem::replace(
            &mut *shared.transfers[1].lock().unwrap(),
            TransferCell::Empty,
        );
        let TransferCell::Task(transfer) = answer else {
            panic!("the victim had work to give");
        };
        // Level 0 ran out, so the group comes from level 1: the back
        // 2-aligned group of the queens row 1 can take beside column 0.
        let depth = transfer.group.depth;
        assert_eq!(depth, 1);
        assert_eq!(transfer.group.choices, vec![6, 7]);
        assert_eq!(transfer.prefix, victim.path[..depth]);
        let mut thief = Worker::new(1, &problem, &shared, &config);
        thief.install(transfer);
        assert_eq!(thief.state.columns, victim.state.columns[..depth]);
        // Between them they find the four solutions below column 0.
        drain(&mut victim);
        drain(&mut thief);
        assert_eq!(victim.stats.solutions + thief.stats.solutions, 4);
        assert!(thief.stats.solutions > 0);
    }

    #[test]
    fn single_worker_matches_known_counts() {
        for n in [4usize, 5, 6, 7, 8] {
            let problem = NQueens { n };
            let result = run(&problem, &EngineConfig::with_workers(1));
            assert_eq!(result.solutions, queens_solutions(n), "n={n}");
            assert!(!result.timed_out);
        }
    }

    #[test]
    fn multiple_workers_match_known_counts() {
        for workers in [2usize, 3, 4, 8] {
            let problem = NQueens { n: 8 };
            let result = run(&problem, &EngineConfig::with_workers(workers));
            assert_eq!(result.solutions, 92, "workers={workers}");
            assert_eq!(result.workers.len(), workers);
        }
    }

    #[test]
    fn states_are_independent_of_worker_count() {
        let problem = NQueens { n: 7 };
        let sequential = run(&problem, &EngineConfig::with_workers(1));
        for workers in [2usize, 4, 6] {
            let parallel = run(&problem, &EngineConfig::with_workers(workers));
            assert_eq!(parallel.states, sequential.states, "workers={workers}");
            assert_eq!(parallel.solutions, sequential.solutions);
        }
    }

    #[test]
    fn task_group_size_does_not_change_results() {
        let problem = NQueens { n: 7 };
        let reference = run(&problem, &EngineConfig::with_workers(3)).solutions;
        for group_size in [1usize, 2, 4, 8, 16] {
            let result = run(
                &problem,
                &EngineConfig::with_workers(3).task_group_size(group_size),
            );
            assert_eq!(result.solutions, reference, "group_size={group_size}");
        }
    }

    #[test]
    fn no_steal_mode_still_finds_all_solutions() {
        let problem = NQueens { n: 8 };
        let result = run(&problem, &EngineConfig::with_workers(4).steal(false));
        assert_eq!(result.solutions, 92);
        assert_eq!(result.steals, 0);
    }

    #[test]
    fn stealing_happens_with_imbalanced_initial_work() {
        // With 8 workers on an 9-queens instance there are only 9 root tasks
        // with very different subtree sizes — stealing should occur.  Whether
        // it *does* depends on the OS schedule: on a single-core host a
        // worker often drains its whole subtree before a would-be thief ever
        // runs, so the steal assertion holds over a bounded retry loop while
        // the solution count must be exact on every run.
        let problem = NQueens { n: 9 };
        let mut steals = 0;
        for _ in 0..20 {
            let result = run(&problem, &EngineConfig::with_workers(8));
            assert_eq!(result.solutions, 352);
            steals += result.steals;
            if steals > 0 {
                break;
            }
        }
        assert!(
            steals > 0,
            "expected at least one steal with imbalanced roots across 20 schedules"
        );
    }

    #[test]
    fn more_workers_than_root_tasks() {
        let problem = NQueens { n: 5 };
        let result = run(&problem, &EngineConfig::with_workers(12));
        assert_eq!(result.solutions, 10);
    }

    #[test]
    fn unsolvable_instance_terminates_with_zero_solutions() {
        let problem = NQueens { n: 3 };
        for workers in [1usize, 2, 4] {
            let result = run(&problem, &EngineConfig::with_workers(workers));
            assert_eq!(result.solutions, 0, "workers={workers}");
        }
    }

    #[test]
    fn zero_depth_problem_has_one_solution() {
        let problem = NQueens { n: 0 };
        let result = run(&problem, &EngineConfig::with_workers(4));
        assert_eq!(result.solutions, 1);
    }

    #[test]
    fn solution_budget_stops_early_and_is_exact() {
        let problem = NQueens { n: 8 };
        for workers in [1usize, 3, 6] {
            let config = EngineConfig::with_workers(workers).max_solutions(10);
            let result = run(&problem, &config);
            assert_eq!(result.solutions, 10, "workers={workers}");
            assert!(result.limit_hit);
            let counted: u64 = result.workers.iter().map(|w| w.solutions).sum();
            assert_eq!(counted, 10);
        }
        // A budget larger than the solution count changes nothing.
        let config = EngineConfig::with_workers(2).max_solutions(1000);
        let result = run(&problem, &config);
        assert_eq!(result.solutions, 92);
        assert!(!result.limit_hit);
        // A zero budget yields zero solutions, even for zero-depth problems.
        let result = run(&problem, &EngineConfig::with_workers(2).max_solutions(0));
        assert_eq!(result.solutions, 0);
        let result = run(
            &NQueens { n: 0 },
            &EngineConfig::with_workers(2).max_solutions(0),
        );
        assert_eq!(result.solutions, 0);
    }

    #[test]
    fn slow_solution_observers_lose_no_solutions() {
        // A blocking on_solution (the streaming bridge blocks on a bounded
        // channel) drastically changes steal timing; counts must not change.
        struct SlowQueens {
            inner: NQueens,
        }
        impl BacktrackProblem for SlowQueens {
            type State = QueensState;
            type Choice = u32;
            fn depth(&self) -> usize {
                self.inner.depth()
            }
            fn new_state(&self) -> QueensState {
                self.inner.new_state()
            }
            fn candidates(&self, level: usize, state: &mut QueensState, out: &mut Vec<u32>) {
                self.inner.candidates(level, state, out);
            }
            fn is_consistent(&self, level: usize, choice: u32, state: &QueensState) -> bool {
                self.inner.is_consistent(level, choice, state)
            }
            fn apply(&self, level: usize, choice: u32, state: &mut QueensState) {
                self.inner.apply(level, choice, state);
            }
            fn undo(&self, level: usize, state: &mut QueensState) {
                self.inner.undo(level, state);
            }
            fn on_solution(&self, _worker_id: usize, _state: &QueensState) {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        for trial in 0..20 {
            let problem = SlowQueens {
                inner: NQueens { n: 7 },
            };
            let result = run(&problem, &EngineConfig::with_workers(2));
            assert_eq!(result.solutions, 40, "trial {trial}");
        }
    }

    #[test]
    fn pre_cancelled_token_stops_the_run_with_zero_work() {
        let problem = NQueens { n: 9 };
        let token = Arc::new(CancelToken::new());
        token.cancel();
        for workers in [1usize, 4] {
            let result = run(
                &problem,
                &EngineConfig::with_workers(workers).cancel_token(Arc::clone(&token)),
            );
            assert!(result.cancelled, "workers={workers}");
            assert_eq!(result.solutions, 0, "workers={workers}");
            assert!(!result.limit_hit);
            assert!(!result.timed_out);
        }
    }

    #[test]
    fn cancellation_mid_run_discards_later_solutions() {
        /// Cancels its own run after observing `after` solutions.
        struct SelfCancelling {
            inner: NQueens,
            token: Arc<CancelToken>,
            seen: std::sync::atomic::AtomicU64,
            after: u64,
        }
        impl BacktrackProblem for SelfCancelling {
            type State = QueensState;
            type Choice = u32;
            fn depth(&self) -> usize {
                self.inner.depth()
            }
            fn new_state(&self) -> QueensState {
                self.inner.new_state()
            }
            fn candidates(&self, level: usize, state: &mut QueensState, out: &mut Vec<u32>) {
                self.inner.candidates(level, state, out);
            }
            fn is_consistent(&self, level: usize, choice: u32, state: &QueensState) -> bool {
                self.inner.is_consistent(level, choice, state)
            }
            fn apply(&self, level: usize, choice: u32, state: &mut QueensState) {
                self.inner.apply(level, choice, state);
            }
            fn undo(&self, level: usize, state: &mut QueensState) {
                self.inner.undo(level, state);
            }
            fn on_solution(&self, _worker_id: usize, _state: &QueensState) {
                if self.seen.fetch_add(1, Ordering::SeqCst) + 1 >= self.after {
                    self.token.cancel();
                }
            }
        }
        let token = Arc::new(CancelToken::new());
        let problem = SelfCancelling {
            inner: NQueens { n: 8 },
            token: Arc::clone(&token),
            seen: std::sync::atomic::AtomicU64::new(0),
            after: 5,
        };
        let result = run(&problem, &EngineConfig::with_workers(3).cancel_token(token));
        assert!(result.cancelled);
        assert!(result.solutions < 92, "cancellation cut the run short");
        assert!(result.solutions >= 5, "counted solutions before the cancel");
    }

    #[test]
    fn time_limit_forces_termination() {
        let problem = NQueens { n: 10 };
        let config = EngineConfig::with_workers(2).time_limit(Duration::from_millis(1));
        let result = run(&problem, &config);
        // Either it finished incredibly fast or it was cut off; both are fine,
        // but the run must return promptly and report consistently.
        if result.timed_out {
            assert!(result.solutions <= 724);
        } else {
            assert_eq!(result.solutions, 724);
        }
    }

    #[test]
    fn worker_stats_are_populated() {
        let problem = NQueens { n: 7 };
        let result = run(&problem, &EngineConfig::with_workers(3));
        assert_eq!(result.workers.len(), 3);
        let total: u64 = result.workers.iter().map(|w| w.states).sum();
        assert_eq!(total, result.states);
        assert!(result.workers.iter().all(|w| w.busy_seconds >= 0.0));
        assert!(result.elapsed_seconds > 0.0);
    }

    #[test]
    fn task_groups_and_wait_times_are_reported() {
        // Every worker ends in one terminating steal attempt; the group
        // count depends on the worker count (root shares) and group size
        // only, never on the schedule.
        let problem = NQueens { n: 7 };
        let config = EngineConfig::with_workers(3).task_group_size(2);
        let first = run(&problem, &config);
        let groups: u64 = first.workers.iter().map(|w| w.task_groups).sum();
        assert_eq!(first.task_groups, groups);
        assert!(first.task_groups > 0);
        for _ in 0..5 {
            assert_eq!(run(&problem, &config).task_groups, first.task_groups);
        }
        assert!(first.idle_seconds > 0.0);
        assert!(first.steal_wait_seconds >= 0.0);
        let waits: f64 = first.workers.iter().map(|w| w.idle_seconds).sum();
        assert!((first.idle_seconds - waits).abs() < 1e-9);
        // Without stealing nobody waits.
        let frozen = run(&problem, &config.clone().steal(false));
        assert_eq!(frozen.task_groups, first.task_groups);
        assert_eq!((frozen.idle_seconds, frozen.steal_wait_seconds), (0.0, 0.0));
    }
}
