//! Task groups, steal transfers and the private deque laid out as a
//! worker's DFS stack.

/// A group of sibling tasks: untried choices for one level of the search,
/// sharing the same parent path.  This is the hand-off format of a steal.
///
/// Task coalescing (Section 3.4 of the paper) makes the *group* the unit of
/// stealing, which bounds the number of steals — and therefore the number
/// of times a partial assignment has to be copied between workers.
#[derive(Clone, Debug)]
pub struct TaskGroup<C> {
    /// The level these choices belong to.
    pub depth: usize,
    /// The sibling choices (in exploration order).
    pub choices: Vec<C>,
    /// Index of the next unexecuted choice; `choices[..next]` are done.
    pub next: usize,
    /// `true` when the choices were consistency-checked at spawn time (all
    /// spawned groups); `false` only for the initial root distribution, which
    /// the paper enqueues unchecked.
    pub checked: bool,
}

impl<C: Copy> TaskGroup<C> {
    /// Creates a group over `choices` for `depth`.
    pub fn new(depth: usize, choices: Vec<C>, checked: bool) -> Self {
        TaskGroup {
            depth,
            choices,
            next: 0,
            checked,
        }
    }

    /// Number of unexecuted choices left.
    pub fn remaining(&self) -> usize {
        self.choices.len() - self.next
    }

    /// `true` when every choice has been taken.
    pub fn is_exhausted(&self) -> bool {
        self.next >= self.choices.len()
    }

    /// Takes the next choice in exploration order.
    pub fn take_next(&mut self) -> Option<C> {
        if self.is_exhausted() {
            None
        } else {
            let choice = self.choices[self.next];
            self.next += 1;
            Some(choice)
        }
    }
}

/// What travels from a victim to a thief: the stolen task group plus the
/// prefix of choices (levels `0..group.depth`) the thief must replay to
/// reconstruct the partial assignment.  This is the *only* place where
/// assignment data is copied between workers.
#[derive(Clone, Debug)]
pub struct Transfer<C> {
    /// Choices for levels `0..depth` of the stolen group.
    pub prefix: Vec<C>,
    /// The stolen group (ownership moves to the thief).
    pub group: TaskGroup<C>,
}

/// One level of a [`TaskStack`]: choices for one depth, all below the same
/// applied prefix.
#[derive(Debug)]
struct Level<C> {
    choices: Vec<C>,
    /// The next choice the owner takes.
    next: usize,
    /// End of the choices still owned; steals cut `choices[end..]` off.
    end: usize,
    checked: bool,
}

impl<C> Default for Level<C> {
    fn default() -> Self {
        Level {
            choices: Vec::new(),
            next: 0,
            end: 0,
            checked: false,
        }
    }
}

impl<C> Level<C> {
    fn has_choices(&self) -> bool {
        self.next < self.end
    }
}

/// The private deque of one worker, laid out as its depth-first stack.
///
/// Level `d` holds the choices for depth `d` below the applied prefix of
/// length `d`: the worker's share of the root choices at level 0, the
/// consistent children of the last task executed at depth `d - 1` above
/// it.  The owner takes the next choice of the *deepest* level that still
/// has one, which is depth-first order.  A steal answer takes a task group
/// from the *shallowest* such level — the one with the largest subtrees
/// below it, so stolen work tends to be long-running (Section 3.2).
///
/// Groups are not stored: group `k` of a level is its `group_size`-aligned
/// range `k * g .. (k + 1) * g`.  A steal hands over the level's last such
/// range, or the choices from the owner's next one on when only a partly
/// run group is left.  Expansions refill a level's storage in place, so in
/// steady state the owner allocates nothing; only a steal copies choices.
#[derive(Debug)]
pub(crate) struct TaskStack<C> {
    levels: Vec<Level<C>>,
    /// Levels `top..` have no choices left; level `top - 1`, if any, has.
    top: usize,
    group_size: usize,
}

impl<C: Copy> TaskStack<C> {
    /// An empty stack cutting levels into groups of `group_size`.
    pub(crate) fn new(group_size: usize) -> Self {
        TaskStack {
            levels: Vec::new(),
            top: 0,
            group_size: group_size.max(1),
        }
    }

    /// `true` when no level has a choice left.
    pub(crate) fn is_empty(&self) -> bool {
        self.top == 0
    }

    /// Replaces level `depth` with the choices `fill` writes into its
    /// cleared storage and returns the task groups they form, ⌈choices ÷
    /// group size⌉.  Every level from `depth` on must be out of choices:
    /// the owner expands only below the level it took its task from.
    pub(crate) fn spawn(
        &mut self,
        depth: usize,
        checked: bool,
        fill: impl FnOnce(&mut Vec<C>),
    ) -> u64 {
        debug_assert!(depth >= self.top, "level {depth} still has choices");
        if self.levels.len() <= depth {
            self.levels.resize_with(depth + 1, Level::default);
        }
        let level = &mut self.levels[depth];
        level.choices.clear();
        fill(&mut level.choices);
        (level.next, level.end, level.checked) = (0, level.choices.len(), checked);
        if level.has_choices() {
            self.top = depth + 1;
        }
        level.end.div_ceil(self.group_size) as u64
    }

    /// Takes the next task in depth-first order: the next choice of the
    /// deepest level that has one.  Returns `(depth, choice, checked)`.
    pub(crate) fn pop_task(&mut self) -> Option<(usize, C, bool)> {
        let depth = self.top.checked_sub(1)?;
        let level = &mut self.levels[depth];
        let choice = level.choices[level.next];
        level.next += 1;
        let checked = level.checked;
        self.settle();
        Some((depth, choice, checked))
    }

    /// Hands over the back group of the shallowest level with choices left,
    /// skipping exhausted levels.
    pub(crate) fn steal_back(&mut self) -> Option<TaskGroup<C>> {
        let depth = self.levels[..self.top]
            .iter()
            .position(Level::has_choices)?;
        let level = &mut self.levels[depth];
        let start = ((level.end - 1) / self.group_size * self.group_size).max(level.next);
        let stolen = level.choices[start..level.end].to_vec();
        level.end = start;
        let group = TaskGroup::new(depth, stolen, level.checked);
        self.settle();
        Some(group)
    }

    /// Adopts a stolen group as level `group.depth` of an empty stack.
    pub(crate) fn install(&mut self, group: TaskGroup<C>) {
        debug_assert!(self.is_empty(), "only an idle worker steals");
        if group.is_exhausted() {
            return;
        }
        let depth = group.depth;
        if self.levels.len() <= depth {
            self.levels.resize_with(depth + 1, Level::default);
        }
        let level = &mut self.levels[depth];
        (level.next, level.end, level.checked) = (group.next, group.choices.len(), group.checked);
        level.choices = group.choices;
        self.top = depth + 1;
    }

    /// Lowers `top` past the levels that ran out of choices.
    fn settle(&mut self) {
        while self.top > 0 && !self.levels[self.top - 1].has_choices() {
            self.top -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_group_iteration_order() {
        let mut group = TaskGroup::new(2, vec![10, 20, 30], true);
        assert_eq!(group.remaining(), 3);
        assert_eq!(group.take_next(), Some(10));
        assert_eq!(group.take_next(), Some(20));
        assert_eq!(group.remaining(), 1);
        assert!(!group.is_exhausted());
        assert_eq!(group.take_next(), Some(30));
        assert!(group.is_exhausted());
        assert_eq!(group.take_next(), None);
    }

    fn pop_all(stack: &mut TaskStack<u32>) -> Vec<(usize, u32, bool)> {
        std::iter::from_fn(|| stack.pop_task()).collect()
    }

    #[test]
    fn deque_pops_front_group_in_dfs_order() {
        let mut stack = TaskStack::new(4);
        assert_eq!(stack.spawn(0, false, |v| v.extend([1, 2])), 1);
        assert_eq!(stack.pop_task(), Some((0, 1, false)));
        // The children of the task just taken come before its siblings.
        assert_eq!(stack.spawn(1, true, |v| v.extend([7, 8])), 1);
        assert_eq!(stack.pop_task(), Some((1, 7, true)));
        assert_eq!(stack.spawn(2, true, |v| v.push(9)), 1);
        assert_eq!(
            pop_all(&mut stack),
            vec![(2, 9, true), (1, 8, true), (0, 2, false)]
        );
        assert!(stack.is_empty());
    }

    #[test]
    fn steal_takes_the_shallowest_group() {
        let mut stack = TaskStack::new(4);
        stack.spawn(0, false, |v| v.extend(1..=10));
        assert_eq!(stack.pop_task(), Some((0, 1, false)));
        stack.spawn(1, true, |v| v.extend([20, 21, 22]));
        assert_eq!(stack.pop_task(), Some((1, 20, true)));
        stack.spawn(2, true, |v| v.push(30));
        let mut steal = || {
            let group = stack.steal_back().unwrap();
            assert_eq!(group.next, 0);
            (group.depth, group.choices, group.checked)
        };
        // The shallowest level's 4-aligned groups, back first: [8, 10),
        // [4, 8), then the partly run [0, 4) from its next choice on.
        assert_eq!(steal(), (0, vec![9, 10], false));
        assert_eq!(steal(), (0, vec![5, 6, 7, 8], false));
        assert_eq!(steal(), (0, vec![2, 3, 4], false));
        assert_eq!(steal(), (1, vec![21, 22], true));
        // The owner keeps the deepest level.
        assert_eq!(pop_all(&mut stack), vec![(2, 30, true)]);
        assert!(stack.steal_back().is_none());
    }

    #[test]
    fn exhausted_groups_are_skipped() {
        let mut stack = TaskStack::new(2);
        stack.spawn(0, false, |v| v.extend([1, 2]));
        assert_eq!(stack.pop_task(), Some((0, 1, false)));
        stack.spawn(1, true, |v| v.extend([3, 4]));
        assert_eq!(stack.pop_task(), Some((1, 3, true)));
        stack.spawn(2, true, |v| v.push(5));
        assert_eq!(stack.pop_task(), Some((2, 5, true)));
        // Level 2 ran out: the owner goes on with level 1.
        assert!(!stack.is_empty());
        assert_eq!(
            stack.steal_back().map(|g| (g.depth, g.choices)),
            Some((0, vec![2]))
        );
        // Level 0 ran out: the next steal skips it.
        assert_eq!(
            stack.steal_back().map(|g| (g.depth, g.choices)),
            Some((1, vec![4]))
        );
        assert!(stack.is_empty());
        assert_eq!(stack.pop_task(), None);
        assert!(stack.steal_back().is_none());
    }

    #[test]
    fn spawn_keeps_dfs_order_and_reuses_exhausted_storage() {
        let mut stack = TaskStack::new(2);
        assert_eq!(stack.spawn(1, true, |v| v.extend(1..=5)), 3);
        let expected: Vec<_> = (1..=5).map(|c| (1, c, true)).collect();
        assert_eq!(pop_all(&mut stack), expected, "in order");
        let storage = stack.levels[1].choices.as_ptr();
        // The next expansion of the level refills the same storage.
        assert_eq!(stack.spawn(1, true, |v| v.extend([6, 7, 8, 9])), 2);
        assert_eq!(stack.levels[1].choices.as_ptr(), storage);
        // A steal copies the group out and leaves the storage in place.
        let stolen = stack.steal_back().unwrap();
        assert_eq!((stolen.depth, stolen.choices), (1, vec![8, 9]));
        assert_eq!(stack.levels[1].choices.as_ptr(), storage);
        assert_eq!(pop_all(&mut stack), vec![(1, 6, true), (1, 7, true)]);
        assert_eq!(stack.spawn(2, true, |_| {}), 0, "no children, no group");
        assert!(stack.is_empty());
    }

    #[test]
    fn empty_group_never_enters_the_deque() {
        let mut stack: TaskStack<u32> = TaskStack::new(4);
        stack.spawn(0, true, |_| {});
        assert!(stack.is_empty());
        stack.install(TaskGroup::new(3, vec![], true));
        assert!(stack.is_empty());
        // A stolen group becomes its depth's level.
        stack.install(TaskGroup::new(2, vec![5, 6], true));
        assert_eq!(pop_all(&mut stack), vec![(2, 5, true), (2, 6, true)]);
    }
}
