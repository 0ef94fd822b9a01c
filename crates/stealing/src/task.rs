//! Task groups, steal transfers and the private deque laid out as a
//! worker's depth-first search.

use std::ops::Range;

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
    /// `true` when the victim checked the choices before it handed them
    /// over (every stolen group); `false` for a share of the root list,
    /// which the paper enqueues unchecked.
    pub checked: bool,
}

impl<C> TaskGroup<C> {
    /// Creates a group over `choices` for `depth`.
    pub fn new(depth: usize, choices: Vec<C>, checked: bool) -> Self {
        TaskGroup {
            depth,
            choices,
            checked,
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

/// Where a frame's choices come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    /// The problem's candidate list for the frame's depth, built when the
    /// worker expanded the state above it.
    Listed,
    /// Choices the frame holds, not checked yet: a worker's share of the
    /// root list.
    Share,
    /// Choices the frame holds that the victim checked before it handed
    /// them over.
    Stolen,
}

/// A choice a frame hands out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Next<C> {
    /// Entry `index` of the problem's candidate list for the frame's depth,
    /// not checked yet.
    Listed(usize),
    /// A choice the frame holds, and whether it was checked already.
    Held(C, bool),
}

/// One depth of a worker's search: a cursor over the choices for that
/// depth below the applied prefix.
#[derive(Debug)]
struct Frame<C> {
    source: Source,
    /// The choices of a `Share` or `Stolen` frame; unused by a `Listed` one.
    held: Vec<C>,
    /// The next choice the owner takes.
    next: usize,
    /// End of the choices still owned; steals cut ranges off the back.
    end: usize,
    /// Choices the owner applied.
    applied: usize,
    /// Consistent choices steals took.
    stolen: usize,
}

impl<C> Default for Frame<C> {
    fn default() -> Self {
        Frame {
            source: Source::Listed,
            held: Vec::new(),
            next: 0,
            end: 0,
            applied: 0,
            stolen: 0,
        }
    }
}

impl<C: Copy> Frame<C> {
    fn at(&self, index: usize) -> Next<C> {
        match self.source {
            Source::Listed => Next::Listed(index),
            source => Next::Held(self.held[index], source == Source::Stolen),
        }
    }

    fn has_choices(&self) -> bool {
        self.next < self.end
    }
}

/// The private deque of one worker, laid out as its depth-first search.
///
/// Frame `d` is a cursor over the choices for depth `d` below the applied
/// prefix of length `d`: the problem's own candidate list when the worker
/// expanded the state above it, or choices the frame holds — a share of
/// the root list or a stolen group.  The owner takes the next choice of
/// the *deepest* frame and checks it then, which is the sequential
/// depth-first loop: nothing is copied or checked for thieves in advance
/// (lazy task creation).  A steal cuts a task group off the *shallowest*
/// frame that still has a choice — the one with the largest subtrees below
/// it, so stolen work tends to be long-running (Section 3.2).
///
/// Groups are not stored: group `k` of a frame is its `group_size`-aligned
/// range `k * g .. (k + 1) * g`.  A steal takes the frame's last such range,
/// or the choices from the owner's next one on when only a partly run group
/// is left.  A frame counts its task groups, ⌈consistent choices ÷ g⌉,
/// when it finishes, the choices a steal took included, so the total does
/// not depend on who ran them.
///
/// The frames also hold the worker's path: the choice applied at a live
/// frame's depth is the last one the owner took from it, since the owner
/// comes back to a frame only once the frames below it finished.
#[derive(Debug)]
pub(crate) struct Frames<C> {
    frames: Vec<Frame<C>>,
    /// Frames `base..top` are live; frame `top - 1` is the deepest.
    base: usize,
    top: usize,
    group_size: usize,
}

impl<C: Copy> Frames<C> {
    /// No live frame, for a search `depth` levels deep, cutting groups of
    /// `group_size`.
    pub(crate) fn new(depth: usize, group_size: usize) -> Self {
        Frames {
            frames: (0..depth).map(|_| Frame::default()).collect(),
            base: 0,
            top: 0,
            group_size: group_size.max(1),
        }
    }

    /// `true` when no frame is live: the worker is out of work.
    pub(crate) fn is_empty(&self) -> bool {
        self.top == self.base
    }

    /// The depth of the deepest live frame.
    pub(crate) fn deepest(&self) -> Option<usize> {
        (!self.is_empty()).then(|| self.top - 1)
    }

    /// Takes the next choice of the deepest frame; `None` when it has none
    /// left.
    #[inline]
    pub(crate) fn take(&mut self) -> Option<Next<C>> {
        let frame = &mut self.frames[self.top - 1];
        if frame.next == frame.end {
            return None;
        }
        frame.next += 1;
        Some(frame.at(frame.next - 1))
    }

    /// Counts the choice the owner just took from frame `depth` as applied.
    #[inline]
    pub(crate) fn count_applied(&mut self, depth: usize) {
        self.frames[depth].applied += 1;
    }

    /// Opens frame `depth` over the `len` entries of the problem's
    /// candidate list for it: the first frame of a search, or the one
    /// below the deepest.
    pub(crate) fn expand(&mut self, depth: usize, len: usize) {
        debug_assert!(depth == self.top, "frame {depth} is not below the deepest");
        let frame = &mut self.frames[depth];
        (frame.source, frame.next, frame.end) = (Source::Listed, 0, len);
        (frame.applied, frame.stolen) = (0, 0);
        self.top = depth + 1;
    }

    /// Adopts a root share or a stolen group as the only live frame, at
    /// its depth.  A group without a choice left opens nothing.
    pub(crate) fn install(&mut self, group: TaskGroup<C>) {
        debug_assert!(self.is_empty(), "only an idle worker adopts a group");
        if group.choices.is_empty() {
            return;
        }
        let frame = &mut self.frames[group.depth];
        frame.source = [Source::Share, Source::Stolen][group.checked as usize];
        (frame.next, frame.end) = (0, group.choices.len());
        (frame.applied, frame.stolen) = (0, 0);
        frame.held = group.choices;
        (self.base, self.top) = (group.depth, group.depth + 1);
    }

    /// Closes the deepest frame, which has no choice left, and returns the
    /// tasks its owner executed from it and the task groups it formed.  A
    /// stolen group forms none: its victim counted them.
    pub(crate) fn finish(&mut self) -> (u64, u64) {
        self.top -= 1;
        let frame = &self.frames[self.top];
        debug_assert!(!frame.has_choices(), "frame {} still has choices", self.top);
        let consistent = frame.applied + frame.stolen;
        let groups = match frame.source {
            Source::Stolen => 0,
            // Most frames form at most one group: no division for them.
            _ if consistent <= self.group_size => (consistent > 0) as usize,
            _ => consistent.div_ceil(self.group_size),
        };
        (frame.applied as u64, groups as u64)
    }

    /// Cuts the last group off the shallowest frame with a choice left and
    /// returns the frame's depth and the group's indices, which
    /// [`Self::choice`] resolves.
    pub(crate) fn cut_back(&mut self) -> Option<(usize, Range<usize>)> {
        let frames = &self.frames[self.base..self.top];
        let depth = self.base + frames.iter().position(Frame::has_choices)?;
        let frame = &mut self.frames[depth];
        let start = ((frame.end - 1) / self.group_size * self.group_size).max(frame.next);
        let group = start..frame.end;
        frame.end = start;
        Some((depth, group))
    }

    /// Counts `n` consistent choices a steal took from frame `depth`.
    pub(crate) fn count_stolen(&mut self, depth: usize, n: usize) {
        self.frames[depth].stolen += n;
    }

    /// Entry `index` of frame `depth`, as [`Self::take`] hands it out.
    pub(crate) fn choice(&self, depth: usize, index: usize) -> Next<C> {
        self.frames[depth].at(index)
    }

    /// The depth of the first live frame: a stolen group's, or 0.
    pub(crate) fn base(&self) -> usize {
        self.base
    }

    /// The choice the owner last took from live frame `depth`: the one
    /// applied at that depth while a deeper frame is live.
    pub(crate) fn last_taken(&self, depth: usize) -> Next<C> {
        let frame = &self.frames[depth];
        frame.at(frame.next - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Takes the deepest frame's choices until it has none left.
    fn take_all(frames: &mut Frames<u32>) -> Vec<Next<u32>> {
        std::iter::from_fn(|| frames.take()).collect()
    }

    /// Takes the deepest frame's next choice, counting it applied when
    /// `apply`.
    fn take_one(frames: &mut Frames<u32>, apply: bool) -> Option<Next<u32>> {
        let next = frames.take();
        if apply && next.is_some() {
            frames.count_applied(frames.deepest().unwrap());
        }
        next
    }

    /// Cuts groups off until none is left: `(depth, indices)` each.
    fn cut_all(frames: &mut Frames<u32>) -> Vec<(usize, Range<usize>)> {
        std::iter::from_fn(|| frames.cut_back()).collect()
    }

    #[test]
    fn deque_pops_front_group_in_dfs_order() {
        let mut frames = Frames::new(3, 4);
        frames.install(TaskGroup::new(0, vec![1, 2], false));
        assert_eq!(take_one(&mut frames, true), Some(Next::Held(1, false)));
        // The children of the choice just taken come before its siblings.
        frames.expand(1, 2);
        assert_eq!(frames.deepest(), Some(1));
        assert_eq!(take_one(&mut frames, false), Some(Next::Listed(0)));
        frames.expand(2, 1);
        assert_eq!(take_all(&mut frames), vec![Next::Listed(0)]);
        assert_eq!(frames.finish(), (0, 0), "no consistent choice, no group");
        // Frame 1's path entry is the choice taken last.
        assert_eq!(frames.last_taken(1), Next::Listed(0));
        assert_eq!(take_all(&mut frames), vec![Next::Listed(1)]);
        frames.finish();
        assert_eq!(take_all(&mut frames), vec![Next::Held(2, false)]);
        assert_eq!(frames.finish(), (1, 1));
        assert!(frames.is_empty());
    }

    #[test]
    fn steal_takes_the_shallowest_group() {
        let mut frames = Frames::new(3, 4);
        frames.install(TaskGroup::new(0, (1..=10).collect(), false));
        assert_eq!(take_one(&mut frames, true), Some(Next::Held(1, false)));
        frames.expand(1, 3);
        assert_eq!(take_one(&mut frames, true), Some(Next::Listed(0)));
        frames.expand(2, 1);
        // The shallowest frame's 4-aligned groups, back first: [8, 10),
        // [4, 8), then the partly run [0, 4) from its next choice on; then
        // the next frame down.
        assert_eq!(
            cut_all(&mut frames),
            vec![(0, 8..10), (0, 4..8), (0, 1..4), (1, 1..3), (2, 0..1)]
        );
        assert_eq!(frames.choice(0, 9), Next::Held(10, false));
        assert_eq!(frames.choice(1, 2), Next::Listed(2));
        // The owner is left with nothing to take below its applied prefix.
        assert_eq!(frames.take(), None);
        assert!(
            !frames.is_empty(),
            "the frames finish as the owner backs up"
        );
    }

    #[test]
    fn exhausted_groups_are_skipped() {
        let mut frames = Frames::new(3, 2);
        frames.install(TaskGroup::new(0, vec![1, 2], false));
        assert_eq!(take_one(&mut frames, true), Some(Next::Held(1, false)));
        frames.expand(1, 2);
        assert_eq!(take_one(&mut frames, true), Some(Next::Listed(0)));
        frames.expand(2, 1);
        assert_eq!(take_one(&mut frames, true), Some(Next::Listed(0)));
        // Frame 2 ran out: a steal goes to the shallowest frame with a
        // choice left, then skips it once it ran out too.
        assert_eq!(frames.cut_back(), Some((0, 1..2)));
        assert_eq!(frames.cut_back(), Some((1, 1..2)));
        assert_eq!(frames.cut_back(), None);
        for _ in 0..3 {
            assert_eq!(take_one(&mut frames, false), None);
            assert_eq!(frames.finish(), (1, 1));
        }
        assert!(frames.is_empty());
    }

    #[test]
    fn spawn_keeps_dfs_order_and_reuses_exhausted_storage() {
        let mut frames: Frames<u32> = Frames::new(3, 2);
        frames.expand(0, 1);
        assert_eq!(take_one(&mut frames, true), Some(Next::Listed(0)));
        // An expansion is a cursor over the problem's list: it hands the
        // list's indices out in order and holds no choice of its own.
        frames.expand(1, 5);
        for index in 0..5 {
            assert_eq!(
                take_one(&mut frames, index % 2 == 0),
                Some(Next::Listed(index))
            );
        }
        assert_eq!(frames.frames[1].held.capacity(), 0);
        assert_eq!(frames.finish(), (3, 2), "three applied choices, two groups");
        // The next expansion of the depth reuses its frame.
        frames.expand(1, 4);
        assert_eq!(frames.cut_back(), Some((1, 2..4)), "after frame 0 ran out");
        // The choices a steal cut off and found consistent count in the
        // frame they came from: two applied and two stolen form two groups.
        frames.count_stolen(1, 2);
        assert_eq!(take_one(&mut frames, true), Some(Next::Listed(0)));
        assert_eq!(take_one(&mut frames, true), Some(Next::Listed(1)));
        assert_eq!(take_one(&mut frames, true), None);
        assert_eq!(frames.finish(), (2, 2));
        assert_eq!(take_all(&mut frames), vec![]);
        assert_eq!(frames.finish(), (1, 1));
        assert!(frames.is_empty());
    }

    #[test]
    fn empty_group_never_enters_the_deque() {
        let mut frames: Frames<u32> = Frames::new(4, 4);
        frames.install(TaskGroup::new(3, vec![], true));
        assert!(frames.is_empty());
        assert_eq!(frames.cut_back(), None);
        // A stolen group becomes its depth's frame and forms no group of
        // its own: its victim counted them.
        frames.install(TaskGroup::new(2, vec![5, 6], true));
        assert_eq!(frames.deepest(), Some(2));
        assert_eq!(take_one(&mut frames, true), Some(Next::Held(5, true)));
        assert_eq!(take_all(&mut frames), vec![Next::Held(6, true)]);
        assert_eq!(frames.finish(), (1, 0));
        assert!(frames.is_empty());
    }
}
