//! The abstraction the engine parallelizes.

/// What the levels from one expansion down contribute below its applied
/// prefix, counted by [`BacktrackProblem::count_rest`] instead of
/// enumerated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestCount {
    /// Consistency checks enumerating the levels would have performed.
    pub states: u64,
    /// Solutions among them.
    pub solutions: u64,
}

/// A depth-first backtracking problem with a fixed number of levels.
///
/// The engine explores the state-space tree whose nodes at depth `d` are the
/// consistent choices for level `d` given the choices made at levels
/// `0..d`.  A *solution* is a consistent assignment of all
/// [`BacktrackProblem::depth`] levels.
///
/// Implementations must be cheap to share between threads (`Sync`); all
/// per-worker mutable data lives in [`BacktrackProblem::State`], of which the
/// engine creates one instance per worker, candidate lists included.
/// Because the engine transfers only *prefixes of choices* between workers
/// (never whole states), `apply`/`undo` must be able to reconstruct any
/// state from a sequence of choices.  A worker answering a steal also undoes
/// its deeper levels to check a shallower level's choices against that
/// level's own prefix, then applies them again.
pub trait BacktrackProblem: Sync {
    /// Per-worker mutable search state (partial assignment plus whatever
    /// auxiliary structures make `is_consistent` fast).
    type State: Send;

    /// A choice at one level, e.g. a candidate target node.  Must be small and
    /// `Copy`: tasks and stolen prefixes are built from these.
    type Choice: Copy + Send + Sync;

    /// Number of levels; a complete assignment has exactly this many choices.
    fn depth(&self) -> usize;

    /// A fresh state with no choices applied.
    fn new_state(&self) -> Self::State;

    /// Builds the raw (unchecked) candidate list for `level` in `state`,
    /// given that levels `0..level` are applied, and returns its length.
    ///
    /// The engine reads the list through [`Self::candidate`] for as long as
    /// it explores the level below this prefix, while it applies and undoes
    /// this and deeper levels and builds the deeper levels' lists: a list
    /// must stay unchanged until the next `candidates` call for its own
    /// level.
    fn candidates(&self, level: usize, state: &mut Self::State) -> usize;

    /// Entry `index` of the list the last [`Self::candidates`] call for
    /// `level` built in `state`.
    fn candidate(&self, level: usize, index: usize, state: &Self::State) -> Self::Choice;

    /// Is `choice` consistent at `level`, given the applied prefix `0..level`?
    fn is_consistent(&self, level: usize, choice: Self::Choice, state: &Self::State) -> bool;

    /// Applies `choice` at `level` (levels `0..level` are already applied).
    fn apply(&self, level: usize, choice: Self::Choice, state: &mut Self::State);

    /// Undoes the choice previously applied at `level` (deeper levels are
    /// already undone).
    fn undo(&self, level: usize, state: &mut Self::State);

    /// Called once per complete consistent assignment, on the worker that
    /// found it, with all levels applied.  Implementations that need to
    /// collect solutions can use interior mutability (e.g. a mutex-protected
    /// vector); the engine itself only counts.
    fn on_solution(&self, _worker_id: usize, _state: &Self::State) {}

    /// The first level [`Self::count_rest`] may count: the last level
    /// (`depth() - 1`) by default.
    fn counted_from(&self) -> usize {
        self.depth().saturating_sub(1)
    }

    /// Counts the states and solutions of levels `level..depth()` below the
    /// applied prefix `0..level`, without enumerating them.  `None` (the
    /// default) means "enumerate": the engine then opens a frame over the
    /// level's candidates as usual, and asks again one level down.
    ///
    /// The engine asks at each expansion into a level at or past
    /// [`Self::counted_from`] (the root list is not an expansion), and only
    /// when nothing can interrupt the levels part-way (no solution budget,
    /// time limit or cancel token).  Counted levels open no frame and are
    /// not tasks, and counted solutions never reach [`Self::on_solution`],
    /// so a problem answers only while nothing observes individual
    /// solutions.  The counts must equal what enumerating would have
    /// produced, and must fit `room`, what the worker's totals can still
    /// take: a problem declines a count above it.
    fn count_rest(
        &self,
        _level: usize,
        _state: &mut Self::State,
        _room: RestCount,
    ) -> Option<RestCount> {
        None
    }

    /// Called once with each worker's state when the worker stops, and once
    /// with the state that generated the root choices.  Problems that
    /// accumulate per-worker counters in their state add them to the run's
    /// totals here, once per worker, instead of touching shared memory per
    /// operation.
    fn retire_state(&self, _state: &Self::State) {}
}
