//! Tasks, task groups and steal transfers.

/// A group of sibling tasks: untried choices for one level of the search,
/// sharing the same parent path.
///
/// Task coalescing (Section 3.4 of the paper) makes the *group* the unit kept
/// in the private deque and the unit of stealing, which bounds the number of
/// steals — and therefore the number of times a partial assignment has to be
/// copied between workers.
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

/// The private deque of one worker.
///
/// The owner pushes and pops at the *front* (depth-first order); steal
/// answers remove whole groups from the *back*, which by construction holds
/// the shallowest groups — the ones with the largest subtrees below them, so
/// stolen work tends to be long-running (Section 3.2).
///
/// The storage of exhausted groups is kept and reused by [`Self::spawn`], so
/// in steady state the owner's expansions allocate nothing; only a steal
/// moves a group's storage to another worker.
#[derive(Debug)]
pub struct PrivateDeque<C> {
    groups: std::collections::VecDeque<TaskGroup<C>>,
    spare: Vec<Vec<C>>,
}

impl<C: Copy> Default for PrivateDeque<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Copy> PrivateDeque<C> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        PrivateDeque {
            groups: std::collections::VecDeque::new(),
            spare: Vec::new(),
        }
    }

    /// `true` when no unexecuted choice remains.  Exhausted groups never
    /// stay queued (pushes skip them, [`Self::pop_task`] retires the front
    /// one the moment it runs out), so this is one length check.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Number of groups currently held (including a possibly partially
    /// executed front group).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Pushes a freshly spawned group at the front.
    pub fn push_front(&mut self, group: TaskGroup<C>) {
        if !group.is_exhausted() {
            self.groups.push_front(group);
        }
    }

    /// Queues `choices`, the consistent children of the task just executed,
    /// at the front as groups of at most `group_size`, the first group
    /// frontmost so the owner keeps depth-first order.  The groups take the
    /// storage of exhausted ones.  Returns the number of groups queued.
    pub fn spawn(&mut self, depth: usize, choices: &[C], group_size: usize) -> u64 {
        let mut groups = 0;
        for chunk in choices.chunks(group_size.max(1)).rev() {
            let mut storage = self.spare.pop().unwrap_or_default();
            storage.clear();
            storage.extend_from_slice(chunk);
            self.groups.push_front(TaskGroup::new(depth, storage, true));
            groups += 1;
        }
        groups
    }

    /// Pushes a group at the back (initial distribution).
    pub fn push_back(&mut self, group: TaskGroup<C>) {
        if !group.is_exhausted() {
            self.groups.push_back(group);
        }
    }

    /// Takes the next task in depth-first order: the next choice of the front
    /// group, dropping exhausted groups on the way.  Returns `(depth, choice,
    /// checked)`.
    pub fn pop_task(&mut self) -> Option<(usize, C, bool)> {
        loop {
            let front = self.groups.front_mut()?;
            if let Some(choice) = front.take_next() {
                let depth = front.depth;
                let checked = front.checked;
                if front.is_exhausted() {
                    self.retire_front();
                }
                return Some((depth, choice, checked));
            }
            self.retire_front();
        }
    }

    /// Drops the (exhausted) front group, keeping its storage for reuse.
    fn retire_front(&mut self) {
        if let Some(group) = self.groups.pop_front() {
            self.spare.push(group.choices);
        }
    }

    /// Removes the group at the back (steal end), skipping exhausted groups.
    pub fn steal_back(&mut self) -> Option<TaskGroup<C>> {
        loop {
            let back = self.groups.pop_back()?;
            if !back.is_exhausted() {
                return Some(back);
            }
            self.spare.push(back.choices);
        }
    }

    /// Depth of the shallowest (stealable) group, if any.
    pub fn back_depth(&self) -> Option<usize> {
        self.groups
            .iter()
            .rev()
            .find(|g| !g.is_exhausted())
            .map(|g| g.depth)
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

    #[test]
    fn deque_pops_front_group_in_dfs_order() {
        let mut deque = PrivateDeque::new();
        deque.push_back(TaskGroup::new(0, vec![1, 2], false));
        deque.push_front(TaskGroup::new(1, vec![7, 8], true));
        // Front group (depth 1) is consumed before the depth-0 group.
        assert_eq!(deque.pop_task(), Some((1, 7, true)));
        assert_eq!(deque.pop_task(), Some((1, 8, true)));
        assert_eq!(deque.pop_task(), Some((0, 1, false)));
        assert_eq!(deque.pop_task(), Some((0, 2, false)));
        assert_eq!(deque.pop_task(), None);
        assert!(deque.is_empty());
    }

    #[test]
    fn steal_takes_the_shallowest_group() {
        let mut deque = PrivateDeque::new();
        deque.push_front(TaskGroup::new(0, vec![1], false));
        deque.push_front(TaskGroup::new(1, vec![2], true));
        deque.push_front(TaskGroup::new(2, vec![3], true));
        assert_eq!(deque.back_depth(), Some(0));
        let stolen = deque.steal_back().unwrap();
        assert_eq!(stolen.depth, 0);
        assert_eq!(deque.back_depth(), Some(1));
        assert_eq!(deque.len(), 2);
    }

    #[test]
    fn exhausted_groups_are_skipped() {
        let mut deque = PrivateDeque::new();
        let mut done = TaskGroup::new(3, vec![9], true);
        let _ = done.take_next();
        deque.push_front(done);
        assert!(deque.is_empty());
        assert_eq!(deque.pop_task(), None);
        assert!(deque.steal_back().is_none());
    }

    #[test]
    fn spawn_keeps_dfs_order_and_reuses_exhausted_storage() {
        let mut deque = PrivateDeque::new();
        assert_eq!(deque.spawn(1, &[1, 2, 3, 4, 5], 2), 3);
        let popped: Vec<_> = std::iter::from_fn(|| deque.pop_task()).collect();
        let expected: Vec<_> = (1..=5).map(|c| (1, c, true)).collect();
        assert_eq!(popped, expected, "first group frontmost, in order");
        let mut recycled: Vec<*const u32> = deque.spare.iter().map(|v| v.as_ptr()).collect();
        assert_eq!(recycled.len(), 3);
        // The next expansion takes the exhausted groups' storage.
        assert_eq!(deque.spawn(2, &[6, 7, 8, 9], 2), 2);
        assert_eq!(deque.spare.len(), 1);
        let mut reused: Vec<_> = deque.groups.iter().map(|g| g.choices.as_ptr()).collect();
        reused.extend(deque.spare.iter().map(|v| v.as_ptr()));
        recycled.sort_unstable();
        reused.sort_unstable();
        assert_eq!(reused, recycled);
        assert_eq!(deque.spawn(2, &[], 2), 0, "no children, no group");
        // A steal moves the group, storage included.
        let stolen = deque.steal_back().unwrap();
        assert_eq!((stolen.depth, stolen.choices), (2, vec![8, 9]));
    }

    #[test]
    fn empty_group_never_enters_the_deque() {
        let mut deque: PrivateDeque<u32> = PrivateDeque::new();
        deque.push_front(TaskGroup::new(0, vec![], true));
        deque.push_back(TaskGroup::new(0, vec![], false));
        assert_eq!(deque.len(), 0);
    }
}
