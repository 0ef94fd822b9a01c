//! The suffix-count rule: the tail of the match order that only injectivity
//! couples, counted below a mapped prefix instead of walked.
//!
//! A position belongs to the *independent suffix* that starts at `c` when it
//! is constrained, carries no self-loop and reads all its constraint parents
//! before `c`.  Every pattern edge is a constraint of its later end, so every
//! pattern edge of a suffix position leads into the prefix `0..c`.  Below a
//! mapped prefix a suffix position's candidate list therefore depends on the
//! prefix alone, and every candidate in it passes every check of
//! [`SearchContext::is_consistent`] but injectivity:
//!
//! * domain membership (or the node label) and the prefilter were applied
//!   when the list was built, and the prefilter's degree and signature
//!   minimums, like plain RI's degree check, follow from the satisfied
//!   back-edges (one distinct neighbor per pattern edge);
//! * there is no self-loop to check.
//!
//! Name the positions from a level `s_0..s_{k-1}`, their lists `L_i` and
//! the lists' *free* members, those the prefix has not used, `A_i`.  With
//! `P_i` the number of injective assignments of `s_0..s_{i-1}` into their
//! free members (`P_0 = 1`), a depth-first walk requests `L_i` exactly `P_i`
//! times, visits `P_i·|L_i|` states at `s_i` and finds `P_k` matches.  The
//! memo serves every request but the first, which it serves only when it
//! held the list already, and the walk builds `L_i` only when `P_i > 0`.
//! [`SearchContext::count_rest`] reproduces all of it: it requests `L_i`
//! through the memo exactly when `P_i > 0`, so the memo and every kernel
//! counter end as the walk would leave them.
//!
//! Up to three positions are counted by inclusion-exclusion over merges of
//! the lists, each `P_i` known before the next list is needed:
//! `P_2 = |A||B| − |A∩B|` and
//! `P_3 = |A||B||C| − |A∩B||C| − |A∩C||B| − |B∩C||A| + 2|A∩B∩C|`.  The
//! target's size bounds every total of such a count, so when the caller has
//! room for that bound it counts in place and cannot decline.  Every other
//! count, and every longer suffix, grows a matching of levels into free
//! candidates, one augmenting path per level, to learn whether the next
//! level is reached before building its list.  Each free candidate's
//! *signature*, the set of levels whose list holds it, comes from one merge
//! of the sorted lists, and the candidates fall into classes by signature.
//! Levels that share a class form a component (a union of signature bits),
//! and components multiply.  A component of one level `l` holds only its
//! own free members, so it multiplies every `P_i` past `l` by their number
//! through one running product: that is what walking it would count, and
//! it is the shape of the leaves that hang off distinct labels (the leaf
//! Cartesian product that CFL-Match postpones; Bi et al., SIGMOD 2016).
//! Only a component of two or more levels is walked, level by level,
//! picking a class weighted by the members it has left.  A walk path stands
//! for at least one assignment, so the walk never costs more than
//! enumerating would; its totals are checked before anything is counted.
//! The classes live in the worker state's scratch, which grows on the first
//! class walk and is empty between counts.

use crate::kernels::KernelUsage;
use crate::search::{MemoEntry, SearchContext, WorkerState};
use sge_graph::NodeId;
use sge_plan::MatchOrder;

/// The longest suffix counted: one signature bit per position.
const MAX_COUNTED: usize = 64;

/// What the positions from one level on contribute below a mapped prefix,
/// counted by [`SearchContext::count_rest`] instead of enumerated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SuffixCount {
    /// States the enumerating walk would have visited.
    pub states: u64,
    /// Matches among them.
    pub matches: u64,
}

/// The first position of `order`'s longest independent suffix, at most
/// [`MAX_COUNTED`] positions long; `order.len()` when the last position
/// does not qualify.
///
/// Scans back from the last position, keeping the deepest constraint parent
/// of the positions scanned, and stops at the first position that is
/// parentless, self-looped or some later position's parent.  A scan that
/// stops cannot resume further up: the deepest parent only grows.
pub(crate) fn counted_from(order: &MatchOrder) -> usize {
    let steps = &order.plan.steps;
    let mut from = steps.len();
    let mut deepest = 0;
    while from > 0 && steps.len() - from < MAX_COUNTED {
        let step = &steps[from - 1];
        let Some(parent) = step.constraints.iter().map(|c| c.parent_pos).max() else {
            break;
        };
        deepest = deepest.max(parent);
        if step.self_loop.is_some() || deepest >= from - 1 {
            break;
        }
        from -= 1;
    }
    from
}

impl SearchContext<'_> {
    /// The suffix-count rule: the states and matches of positions
    /// `level..` below the prefix mapped in `state`, counted without
    /// visiting them, and the candidate requests of a walk over them made
    /// through `state`'s memo and kernel counters (see the module docs).
    /// The loop asks at each expansion into a level at or past
    /// [`Self::counted_from`], and only while nothing observes individual
    /// matches, candidate lists or states and nothing can interrupt the
    /// walk part-way (no match budget, deadline or cancel token).
    ///
    /// `None` when `level` is not in the independent suffix, or when the
    /// count or the state's kernel counters would overflow or the count
    /// exceeds `room`, what the caller's totals can still take.  A declined
    /// count leaves the counters as they were and marks every list it
    /// rebuilt for rebuilding, so enumerating from there counts exactly
    /// what a walk would have.
    #[inline]
    pub fn count_rest(
        &self,
        level: usize,
        state: &mut WorkerState,
        room: SuffixCount,
    ) -> Option<SuffixCount> {
        let n = self.num_positions();
        if level < self.counted_from() || level >= n {
            return None;
        }
        match n - level {
            k @ 1..=3 => self.count_paths(level, state, room, &mut [0; 4][..=k]),
            k => self.count_paths(level, state, room, &mut [0; MAX_COUNTED + 1][..=k]),
        }
    }

    /// [`Self::count_rest`] of the `paths.len() - 1` levels from `level`,
    /// leaving `P_0..` in `paths`: by the closed forms when nothing can
    /// make the count decline, by the class walk otherwise.
    #[inline(always)]
    pub(crate) fn count_paths(
        &self,
        level: usize,
        state: &mut WorkerState,
        room: SuffixCount,
        paths: &mut [u64],
    ) -> Option<SuffixCount> {
        paths[0] = 1;
        match self.fits(paths.len() - 1, state, room) {
            true => Some(self.closed_forms(level, state, paths)),
            false => self.count_walked(level, state, room, paths),
        }
    }

    /// [`Self::count_paths`] by the class walk, restoring `state` when the
    /// count declines.
    #[inline(never)]
    fn count_walked(
        &self,
        level: usize,
        state: &mut WorkerState,
        room: SuffixCount,
        paths: &mut [u64],
    ) -> Option<SuffixCount> {
        let mut requests = Requests {
            level,
            len: 0,
            held: 0,
            before: None,
        };
        let count = self.class_walk(state, &mut requests, paths, room);
        if count.is_none() {
            // The next request of every rebuilt level rebuilds it again and
            // counts its work then, as a walk would have.
            if let Some(before) = requests.before {
                state.kernels = before;
            }
            for i in (0..requests.len).filter(|&i| requests.held >> i & 1 == 0) {
                state.memo[level + i].built = false;
            }
        }
        count
    }

    /// `true` when no count of `k` ≤ 3 levels can overflow or exceed
    /// `room`: with `n` target nodes, no list is longer than `n`, no level
    /// is reached along more than `n^i` paths, so states, matches and
    /// requests stay within `k·n^k`.
    #[inline]
    fn fits(&self, k: usize, state: &WorkerState, room: SuffixCount) -> bool {
        let n = self.target().num_nodes() as u64;
        let bound = match k {
            1 => Some(n),
            2 => n.checked_mul(n).and_then(|n2| n2.checked_mul(2)),
            3 => n
                .checked_mul(n)
                .and_then(|n2| n2.checked_mul(n)?.checked_mul(3)),
            _ => None,
        };
        let usage = &state.kernels;
        let left = room
            .states
            .min(room.matches)
            .min(!usage.lists)
            .min(!usage.reused);
        bound.is_some_and(|bound| bound <= left)
    }

    /// `P_1..` for up to three levels by inclusion-exclusion, requesting
    /// each list once the previous `P` shows its level is reached and
    /// counting every request in place: [`Self::fits`] holds.
    #[inline]
    fn closed_forms(
        &self,
        level: usize,
        state: &mut WorkerState,
        paths: &mut [u64],
    ) -> SuffixCount {
        let k = paths.len() - 1;
        let wide = |sum: u64| u128::from(sum);
        self.refresh(level, state);
        let l0 = &state.memo[level].list;
        let a = l0.iter().filter(|&&v| !state.used[v as usize]).count() as u64;
        let mut states = l0.len() as u64;
        paths[1] = a;
        if k > 1 && a > 0 {
            self.request(level + 1, a, state);
            let lists = [0, 1].map(|i| state.memo[level + i].list.as_slice());
            // Each free member of the newest list, with the earlier lists
            // holding it as bits.
            let mut n = [0u64; 8];
            memberships(lists[1], &lists[..1], &state.used, |s| n[s] += 1);
            let (b, ab) = (n[0] + n[1], n[1]);
            paths[2] = a * b - ab;
            states += a * lists[1].len() as u64;
            if k > 2 && paths[2] > 0 {
                self.request(level + 2, paths[2], state);
                let lists = [0, 1, 2].map(|i| state.memo[level + i].list.as_slice());
                n = [0; 8];
                memberships(lists[2], &lists[..2], &state.used, |s| n[s] += 1);
                let c = n.iter().sum::<u64>();
                let (ac, bc, abc) = (n[1] + n[3], n[2] + n[3], n[3]);
                let (a, b, c) = (wide(a), wide(b), wide(c));
                let plus = a * b * c + 2 * wide(abc);
                let minus = wide(ab) * c + wide(ac) * b + wide(bc) * a;
                paths[3] = (plus - minus) as u64;
                states += paths[2] * lists[2].len() as u64;
            }
        }
        SuffixCount {
            states,
            matches: paths[k],
        }
    }

    /// The `paths` requests a walk makes for `depth`'s list: the first
    /// answered like any request, the rest from the memo.
    #[inline]
    fn request(&self, depth: usize, paths: u64, state: &mut WorkerState) {
        self.refresh(depth, state);
        let usage = &mut state.kernels;
        usage.lists += paths - 1;
        usage.reused += paths - 1;
    }

    /// Counts any number of levels: requests each list while a matching
    /// shows its level is reached, counts the assignments into the free
    /// candidates of the requested lists, then checks every total.
    fn class_walk(
        &self,
        state: &mut WorkerState,
        requests: &mut Requests,
        paths: &mut [u64],
        room: SuffixCount,
    ) -> Option<SuffixCount> {
        let level = requests.level;
        let mut matched = [NodeId::MAX; MAX_COUNTED];
        for i in 0..paths.len() - 1 {
            requests.next(self, state);
            let lists = &state.memo[level..];
            if !augment(i, lists, &state.used, &mut matched[..=i], &mut 0) {
                break;
            }
        }
        let lists = &state.memo[level..level + requests.len];
        let counted = count_classes(lists, &state.used, &mut state.classes, paths);
        state.classes.clear();
        counted?;
        let mut totals = Totals::default();
        for (i, &p) in paths.iter().enumerate().take(requests.len) {
            totals = totals.add(p, requests.list(i, state).len(), requests.held >> i & 1)?;
        }
        let k = paths.len() - 1;
        let matches = if requests.len == k { paths[k] } else { 0 };
        totals.commit(matches, room, state)
    }
}

/// The lists one count requested, in level order.
struct Requests {
    /// The first level counted.
    level: usize,
    /// Lists requested: levels `level..level + len`.
    len: usize,
    /// Bit `i`: the memo held level `level + i`'s list already.
    held: u64,
    /// The state's kernel counters before the first request.
    before: Option<KernelUsage>,
}

impl Requests {
    /// Brings the next level's memo entry up to date, counting a rebuild's
    /// kernel work in `state`.
    fn next(&mut self, ctx: &SearchContext<'_>, state: &mut WorkerState) {
        self.before.get_or_insert(state.kernels);
        if ctx.update_memo(self.level + self.len, state) {
            self.held |= 1 << self.len;
        }
        self.len += 1;
    }

    /// The list of the `i`-th level requested.
    #[inline]
    fn list<'s>(&self, i: usize, state: &'s WorkerState) -> &'s [NodeId] {
        &state.memo[self.level + i].list
    }
}

/// The states a walk over the requested levels visits, and the lists it
/// requests and the memo serves.
#[derive(Clone, Copy, Default)]
struct Totals {
    states: u64,
    lists: u64,
    reused: u64,
}

impl Totals {
    /// Adds a level reached along `paths` paths, with a list of `size`
    /// candidates the memo held already when `held` is 1; `None` on
    /// overflow.
    fn add(self, paths: u64, size: usize, held: u64) -> Option<Totals> {
        debug_assert!(paths > 0, "a level was requested but never reached");
        Some(Totals {
            states: self.states.checked_add(paths.checked_mul(size as u64)?)?,
            lists: self.lists.checked_add(paths)?,
            reused: self.reused.checked_add(paths - 1 + held)?,
        })
    }

    /// The count with `matches`, its requests added to `state`'s kernel
    /// counters; `None`, with the request counters untouched, when a total
    /// overflows or the count exceeds `room`.
    fn commit(
        self,
        matches: u64,
        room: SuffixCount,
        state: &mut WorkerState,
    ) -> Option<SuffixCount> {
        if self.states > room.states || matches > room.matches {
            return None;
        }
        let usage = &mut state.kernels;
        (usage.lists, usage.reused) = (
            usage.lists.checked_add(self.lists)?,
            usage.reused.checked_add(self.reused)?,
        );
        Some(SuffixCount {
            states: self.states,
            matches,
        })
    }
}

/// Calls `visit` once per free member of the sorted list `newest`, with
/// the set of the sorted `earlier` lists (at most two) that hold it: bit
/// `j` for `earlier[j]`.
#[inline]
fn memberships(
    newest: &[NodeId],
    earlier: &[&[NodeId]],
    used: &[bool],
    mut visit: impl FnMut(usize),
) {
    let mut at = [0usize; 2];
    for &v in newest {
        if used[v as usize] {
            continue;
        }
        let mut held = 0;
        for (j, (list, i)) in earlier.iter().zip(&mut at).enumerate() {
            while list.get(*i).is_some_and(|&w| w < v) {
                *i += 1;
            }
            held |= usize::from(list.get(*i) == Some(&v)) << j;
        }
        visit(held);
    }
}

/// Extends a matching of levels `0..i` into free candidates (`matched[j]`
/// holds level `j`'s, and `matched` ends at level `i`'s slot) to level `i`
/// along an augmenting path (Kuhn's algorithm).  `false` when none exists:
/// then no injective assignment covers levels `0..=i`.
fn augment(
    i: usize,
    lists: &[MemoEntry],
    used: &[bool],
    matched: &mut [NodeId],
    visited: &mut u64,
) -> bool {
    *visited |= 1 << i;
    let free = || lists[i].list.iter().copied().filter(|&v| !used[v as usize]);
    if let Some(v) = free().find(|v| !matched.contains(v)) {
        matched[i] = v;
        return true;
    }
    for v in free() {
        let owner = matched.iter().position(|&w| w == v);
        let owner = owner.expect("every free candidate left is matched");
        if *visited >> owner & 1 == 0 && augment(owner, lists, used, matched, visited) {
            matched[i] = v;
            return true;
        }
    }
    false
}

/// Calls `visit` with the signature of each free member of the sorted
/// `lists`, the set of lists that hold it (bit `i` for `lists[i]`), in node
/// order: one merge of the lists through a heap of their next free members,
/// each keyed `node << 6 | list`.
fn signatures(lists: &[MemoEntry], used: &[bool], mut visit: impl FnMut(u64)) {
    let mut at = [0usize; MAX_COUNTED];
    let mut next = |i: usize| {
        let rest = &lists[i].list[at[i]..];
        let free = rest.iter().position(|&v| !used[v as usize]);
        at[i] += free.map_or(rest.len(), |f| f + 1);
        free.map(|f| u64::from(rest[f]) << 6 | i as u64)
    };
    let mut heap = [0u64; MAX_COUNTED];
    let mut len = 0;
    for key in (0..lists.len()).filter_map(&mut next) {
        heap[len] = key;
        len += 1;
    }
    for root in (0..len / 2).rev() {
        sift_down(&mut heap[..len], root);
    }
    let mut signature = 0;
    while len > 0 {
        let key = heap[0];
        signature |= 1 << (key & 63);
        match next((key & 63) as usize) {
            Some(following) => heap[0] = following,
            None => {
                len -= 1;
                heap[0] = heap[len];
            }
        }
        sift_down(&mut heap[..len], 0);
        if len == 0 || heap[0] >> 6 != key >> 6 {
            visit(signature);
            signature = 0;
        }
    }
}

/// Restores the min-heap order of `heap` below `at`.
fn sift_down(heap: &mut [u64], mut at: usize) {
    loop {
        let mut least = at;
        for child in [2 * at + 1, 2 * at + 2] {
            if heap.get(child).is_some_and(|&key| key < heap[least]) {
                least = child;
            }
        }
        if least == at {
            return;
        }
        heap.swap(at, least);
        at = least;
    }
}

/// The levels below `i`, as a bit set.
fn below(i: usize) -> u64 {
    1u64.checked_shl(i as u32).map_or(u64::MAX, |bit| bit - 1)
}

/// Fills `paths[1..=m]` from the free candidates of the `m` requested
/// `lists`, with `classes` as scratch; `None` on overflow.
///
/// A candidate's signature is the set of levels whose list holds it, and
/// levels joined by shared candidates form a component.  A component of one
/// level `l` multiplies every `P_i` past `l` by its free members, which is
/// what walking it would count; every other component is walked over its
/// classes, one per signature with its members.
fn count_classes(
    lists: &[MemoEntry],
    used: &[bool],
    classes: &mut Vec<(u64, u64)>,
    paths: &mut [u64],
) -> Option<()> {
    let m = lists.len();
    // Each level's free candidates that no other level holds, then the
    // classes of those that several levels hold.
    let mut alone = [0u64; MAX_COUNTED];
    signatures(lists, used, |signature| match signature & (signature - 1) {
        0 => alone[signature.trailing_zeros() as usize] += 1,
        _ => classes.push((signature, 1)),
    });
    classes.sort_unstable();
    classes.dedup_by(|later, kept| {
        later.0 == kept.0 && {
            kept.1 += later.1;
            true
        }
    });
    // Components of two or more levels: unions of the shared signatures.
    let mut components = [0u64; MAX_COUNTED / 2];
    let mut walked = 0;
    for &(signature, _) in classes.iter() {
        let mut joined = signature;
        let mut c = 0;
        while c < walked {
            if components[c] & signature == 0 {
                c += 1;
                continue;
            }
            joined |= components[c];
            walked -= 1;
            components[c] = components[walked];
        }
        components[walked] = joined;
        walked += 1;
    }
    let shared = components[..walked].iter().fold(0, |all, &c| all | c);
    let mut levels = shared;
    while levels != 0 {
        let l = levels.trailing_zeros() as usize;
        if alone[l] > 0 {
            classes.push((1 << l, alone[l]));
        }
        levels &= levels - 1;
    }
    paths[1..=m].fill(1);
    let mut rest = &mut classes[..];
    for &component in &components[..walked] {
        // The component's classes first, then the others.
        let mut own = 0;
        for c in 0..rest.len() {
            if rest[c].0 & component != 0 {
                rest.swap(own, c);
                own += 1;
            }
        }
        let (own, others) = std::mem::take(&mut rest).split_at_mut(own);
        rest = others;
        let mut counts = [0u64; MAX_COUNTED + 1];
        walk(0, 1, component, own, &mut counts)?;
        for (i, p) in paths.iter_mut().enumerate().take(m + 1).skip(1) {
            *p = p.checked_mul(counts[(component & below(i)).count_ones() as usize])?;
        }
    }
    // One-level components, each a factor from the next level on: its free
    // members, none for a level whose list holds no free candidate.
    let mut product = 1u64;
    for i in 0..m {
        if shared >> i & 1 == 0 {
            product = product.checked_mul(alone[i])?;
        }
        paths[i + 1] = paths[i + 1].checked_mul(product)?;
    }
    Some(())
}

/// Adds `weight`, the assignments one path through `t` levels stands for,
/// to `counts[t]`, then extends the path by each class that holds the lowest
/// of the `levels` left and has a member left, weighted by the members left.
fn walk(
    t: usize,
    weight: u64,
    levels: u64,
    classes: &mut [(u64, u64)],
    counts: &mut [u64; MAX_COUNTED + 1],
) -> Option<()> {
    counts[t] = counts[t].checked_add(weight)?;
    if levels == 0 {
        return Some(());
    }
    let (level, deeper_levels) = (levels.trailing_zeros(), levels & (levels - 1));
    for c in 0..classes.len() {
        let (signature, left) = classes[c];
        if signature >> level & 1 == 0 || left == 0 {
            continue;
        }
        let weight = weight.checked_mul(left)?;
        classes[c].1 = left - 1;
        let deeper = walk(t + 1, weight, deeper_levels, classes, counts);
        classes[c].1 = left;
        deeper?;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{generators, AdjacencyBitmaps, BitmapConfig, Graph, GraphBuilder};
    use sge_plan::{finish_order, Algorithm, QueryPlan};
    use sge_util::SplitMix64;
    use std::sync::Arc;

    const ROOM: SuffixCount = SuffixCount {
        states: u64::MAX,
        matches: u64::MAX,
    };

    /// What a depth-first walk from one level requested and visited.
    #[derive(Debug, Default, PartialEq)]
    struct Walked {
        /// Requests per level from the first, then the matches: the
        /// walk's `P_0..=P_k`.
        paths: Vec<u64>,
        states: u64,
    }

    /// Walks the tree below `depth` as the enumerating loop does, counting
    /// requests per level from `from` on.
    fn walk(
        ctx: &SearchContext<'_>,
        depth: usize,
        from: usize,
        state: &mut WorkerState,
        w: &mut Walked,
    ) {
        w.paths[depth - from] += 1;
        for v in ctx.candidates(depth, state).to_vec() {
            w.states += 1;
            if !ctx.is_consistent(depth, v, state) {
                continue;
            }
            if depth + 1 == ctx.num_positions() {
                w.paths[depth + 1 - from] += 1;
                continue;
            }
            state.assign(depth, v);
            walk(ctx, depth + 1, from, state, w);
            state.unassign(depth);
        }
    }

    /// The independent suffix by its definition, position by position.
    fn suffix_by_definition(ctx: &SearchContext<'_>) -> usize {
        let steps = &ctx.order().plan.steps;
        let n = steps.len();
        let independent = |c: usize| {
            steps[c..].iter().all(|s| {
                let parents = s.constraints.iter().map(|c| c.parent_pos);
                !s.constraints.is_empty() && s.self_loop.is_none() && parents.max() < Some(c)
            })
        };
        (n.saturating_sub(MAX_COUNTED)..n)
            .find(|&c| independent(c))
            .unwrap_or(n)
    }

    /// Maps every consistent prefix of levels `0..from` in two states in
    /// lockstep; below each, counts the rest in one and walks it in the
    /// other, and checks the count, every `P_i`, and that both states
    /// (mapping, memo, kernel counters) end alike.  `general` counts every
    /// suffix by the class walk, the closed forms' short ones included.
    /// Returns the prefixes checked.
    fn check_counts(ctx: &SearchContext<'_>, from: usize, general: bool) -> usize {
        fn descend(
            ctx: &SearchContext<'_>,
            depth: usize,
            from: usize,
            general: bool,
            states: &mut (WorkerState, WorkerState),
        ) -> usize {
            if depth == from {
                let k = ctx.num_positions() - from;
                let mut paths = vec![0; k + 1];
                let count = match general {
                    true => {
                        paths[0] = 1;
                        let mut requests = Requests {
                            level: from,
                            len: 0,
                            held: 0,
                            before: None,
                        };
                        ctx.class_walk(&mut states.0, &mut requests, &mut paths, ROOM)
                    }
                    false => ctx.count_paths(from, &mut states.0, ROOM, &mut paths),
                };
                let count = count.expect("a count within its room");
                let mut walked = Walked {
                    paths: vec![0; k + 1],
                    states: 0,
                };
                walk(ctx, from, from, &mut states.1, &mut walked);
                let counted = Walked {
                    paths,
                    states: count.states,
                };
                assert_eq!(
                    counted,
                    walked,
                    "levels {from}.. below {:?}",
                    states.0.prefix(from)
                );
                assert_eq!(count.matches, walked.paths[k]);
                assert_eq!(
                    states.0,
                    states.1,
                    "memo and counters below {:?}",
                    states.0.prefix(from)
                );
                return 1;
            }
            let mut checked = 0;
            let list = ctx.candidates(depth, &mut states.0).to_vec();
            assert_eq!(ctx.candidates(depth, &mut states.1), list.as_slice());
            for v in list {
                if ctx.is_consistent(depth, v, &states.0) {
                    states.0.assign(depth, v);
                    states.1.assign(depth, v);
                    checked += descend(ctx, depth + 1, from, general, states);
                    states.0.unassign(depth);
                    states.1.unassign(depth);
                }
            }
            checked
        }
        descend(
            ctx,
            0,
            from,
            general,
            &mut (ctx.new_state(), ctx.new_state()),
        )
    }

    /// A random digraph of `n` nodes with labels below `labels`.
    fn random_target(rng: &mut SplitMix64, n: usize, labels: usize, p: f64) -> Graph {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node(rng.next_below(labels) as u32);
        }
        for u in 0..n as NodeId {
            for v in (0..n as NodeId).filter(|&v| v != u) {
                if rng.next_bool(p) {
                    b.add_edge(u, v, rng.next_below(2) as u32);
                }
            }
        }
        b.build()
    }

    /// Hubs on a directed path, then leaves that each hang off one or two
    /// hubs: identical twins, leaves of different hubs, leaves with two
    /// constraints.  The order keeps hubs first, so the leaves form the
    /// independent suffix.
    fn hub_and_leaves(rng: &mut SplitMix64, labels: usize) -> (Graph, Vec<NodeId>) {
        let (hubs, leaves) = (1 + rng.next_below(3), 1 + rng.next_below(7));
        let mut b = GraphBuilder::new();
        for _ in 0..hubs + leaves {
            b.add_node(rng.next_below(labels) as u32);
        }
        let edge = |b: &mut GraphBuilder, rng: &mut SplitMix64, u: NodeId, v: NodeId| {
            let label = rng.next_below(2) as u32;
            match rng.next_bool(0.5) {
                true => b.add_edge(u, v, label),
                false => b.add_edge(v, u, label),
            };
        };
        for h in 1..hubs as NodeId {
            edge(&mut b, rng, h - 1, h);
        }
        let mut attached: Vec<(NodeId, bool, u32)> = Vec::new();
        for leaf in hubs..hubs + leaves {
            let leaf = leaf as NodeId;
            let (hub, out, label) = match attached.last() {
                // A twin of the previous leaf: the same hub, direction and
                // edge label.
                Some(&twin) if rng.next_bool(0.3) => twin,
                _ => (
                    rng.next_below(hubs) as NodeId,
                    rng.next_bool(0.5),
                    rng.next_below(2) as u32,
                ),
            };
            match out {
                true => b.add_edge(hub, leaf, label),
                false => b.add_edge(leaf, hub, label),
            };
            attached.push((hub, out, label));
            if rng.next_bool(0.25) {
                let other = rng.next_below(hubs) as NodeId;
                edge(&mut b, rng, other, leaf);
            }
        }
        let order = (0..(hubs + leaves) as NodeId).collect();
        (b.build(), order)
    }

    /// A context of `pattern` in `target` under the given order.
    fn context<'a>(
        pattern: &'a Graph,
        target: &'a Graph,
        order: Vec<NodeId>,
        algorithm: Algorithm,
        rows: bool,
    ) -> SearchContext<'a> {
        let mut plan = QueryPlan::new(pattern, target, algorithm);
        plan.order = finish_order(pattern, order);
        let mut ctx = SearchContext::from_plan(pattern, target, plan);
        let maps = match rows {
            true => AdjacencyBitmaps::every_row(target),
            false => AdjacencyBitmaps::build(target, &BitmapConfig::default()),
        };
        ctx.set_bitmaps(Some(Arc::new(maps)));
        ctx
    }

    #[test]
    fn counts_match_a_recorded_walk_on_random_list_families() {
        let algorithms = [Algorithm::Ri, Algorithm::RiDs, Algorithm::RiDsSiFc];
        let (mut prefixes, mut long) = (0, 0);
        for seed in 0..300u64 {
            let mut rng = SplitMix64::new(0x5EED_C0DE ^ seed);
            let labels = 1 + rng.next_below(2);
            let (pattern, order) = hub_and_leaves(&mut rng, labels);
            let n = 4 + rng.next_below(9);
            let p = 0.15 + 0.5 * rng.next_f64();
            let target = random_target(&mut rng, n.max(pattern.num_nodes()), labels, p);
            let algorithm = algorithms[rng.next_below(3)];
            let ctx = context(&pattern, &target, order, algorithm, rng.next_bool(0.3));
            assert_eq!(
                ctx.counted_from(),
                suffix_by_definition(&ctx),
                "seed {seed}"
            );
            if ctx.impossible() || ctx.counted_from() == ctx.num_positions() {
                continue;
            }
            // Count from the suffix's first level or deeper, below prefixes
            // that hold suffix nodes too.
            let from =
                ctx.counted_from() + rng.next_below(ctx.num_positions() - ctx.counted_from());
            long += usize::from(ctx.num_positions() - from > 3);
            prefixes += check_counts(&ctx, from, false);
            prefixes += check_counts(&ctx, from, true);
        }
        assert!(
            prefixes > 1_000 && long > 20,
            "{prefixes} prefixes, {long} long suffixes"
        );
    }

    /// A hub with `leaves` leaves of label 1 in a target whose hubs each
    /// have `shared` label-1 out-neighbors, all the same nodes, and enough
    /// label-2 ones that no degree bound rules a hub out.
    fn crowded(leaves: usize, shared: usize) -> (Graph, Graph) {
        let pattern = generators::star(leaves, 0, 1);
        let mut b = GraphBuilder::new();
        let hubs: Vec<NodeId> = (0..3).map(|_| b.add_node(0)).collect();
        let spokes: Vec<NodeId> = (0..shared).map(|_| b.add_node(1)).collect();
        let spare: Vec<NodeId> = (0..leaves).map(|_| b.add_node(2)).collect();
        for &h in &hubs {
            for &s in spokes.iter().chain(&spare) {
                b.add_edge(h, s, 0);
            }
        }
        (pattern, b.build())
    }

    #[test]
    fn no_list_past_the_first_unreachable_level_is_built() {
        // Every leaf's only candidate is the hub's one spoke: the second
        // leaf is reached (one path), the third is not.
        for leaves in [3usize, 6] {
            let (pattern, target) = crowded(leaves, 1);
            let order = (0..=leaves as NodeId).collect();
            let ctx = context(&pattern, &target, order, Algorithm::Ri, false);
            assert_eq!(ctx.counted_from(), 1);
            let mut state = ctx.new_state();
            state.assign(0, 0);
            let mut paths = vec![0; leaves + 1];
            let count = ctx.count_paths(1, &mut state, ROOM, &mut paths).unwrap();
            assert_eq!(
                count,
                SuffixCount {
                    states: 2,
                    matches: 0
                }
            );
            assert_eq!(paths[..3], [1, 1, 0]);
            let built: Vec<bool> = state.memo.iter().map(|e| e.built).collect();
            assert!(built[1] && built[2], "{built:?}");
            assert!(built[3..].iter().all(|&b| !b), "{built:?}");
            let usage = state.kernel_usage();
            assert_eq!((usage.lists, usage.reused), (2, 0));
            assert_eq!(check_counts(&ctx, 1, false), 3);
            assert_eq!(check_counts(&ctx, 1, true), 3);
        }
    }

    #[test]
    fn a_conflict_zero_is_counted_like_the_walk() {
        // Two spokes shared by three leaves: two leaves fit, the third has
        // no node left.
        let (pattern, target) = crowded(3, 2);
        let ctx = context(
            &pattern,
            &target,
            vec![0, 1, 2, 3],
            Algorithm::RiDsSiFc,
            false,
        );
        assert_eq!(check_counts(&ctx, 1, false), 3);
        assert_eq!(check_counts(&ctx, 1, true), 3);
        let mut state = ctx.new_state();
        state.assign(0, 0);
        let mut paths = vec![0; 4];
        let count = ctx.count_paths(1, &mut state, ROOM, &mut paths).unwrap();
        assert_eq!(paths, [1, 2, 2, 0]);
        assert_eq!(
            count,
            SuffixCount {
                states: 2 + 4 + 4,
                matches: 0
            }
        );
    }

    #[test]
    fn overflowing_or_oversized_counts_decline_and_leave_the_state() {
        // 20 leaves in K30: 29!/9! embeddings below each hub image.
        let pattern = generators::star(20, 0, 0);
        let target = generators::clique(30, 0);
        let ctx = context(&pattern, &target, (0..21).collect(), Algorithm::RiDs, false);
        assert_eq!(ctx.counted_from(), 1);
        let mut state = ctx.new_state();
        state.assign(0, 0);
        let before = state.clone();
        assert_eq!(ctx.count_rest(1, &mut state, ROOM), None);
        // Declining rebuilt the lists but marks them for a rebuild.
        assert_eq!(state.kernel_usage(), before.kernel_usage());
        assert!(state.memo[1..].iter().all(|e| !e.built));
        assert!(state.classes.is_empty());
        // 20 leaves of distinct labels with ten candidates each: one-level
        // components whose running product passes `u64::MAX` at the 20th.
        let mut b = GraphBuilder::new();
        let hub = b.add_node(0);
        let mut t = GraphBuilder::new();
        let image = t.add_node(0);
        for label in 1..=20 {
            let leaf = b.add_node(label);
            b.add_edge(hub, leaf, 0);
            for _ in 0..10 {
                let v = t.add_node(label);
                t.add_edge(image, v, 0);
            }
        }
        let (pattern, target) = (b.build(), t.build());
        let ctx = context(&pattern, &target, (0..21).collect(), Algorithm::RiDs, false);
        let mut state = ctx.new_state();
        state.assign(0, image);
        let before = state.clone();
        assert_eq!(ctx.count_rest(1, &mut state, ROOM), None);
        assert_eq!(state.kernel_usage(), before.kernel_usage());
        assert!(state.memo[1..].iter().all(|e| !e.built));
        assert!(state.classes.is_empty());
        // One leaf fewer: 10^19 fits.
        let mut paths = vec![0; 20];
        let mut short = ctx.new_state();
        short.assign(0, image);
        short.assign(1, 1);
        let count = ctx.count_paths(2, &mut short, ROOM, &mut paths).unwrap();
        assert_eq!(paths, (0..20).map(|i| 10u64.pow(i)).collect::<Vec<_>>());
        assert_eq!(count.matches, 10u64.pow(19));
        // A countable suffix that does not fit the caller's room.
        let pattern = generators::star(3, 0, 0);
        let target = generators::clique(6, 0);
        let ctx = context(&pattern, &target, vec![0, 1, 2, 3], Algorithm::Ri, false);
        let mut state = ctx.new_state();
        state.assign(0, 0);
        let full = ctx.count_rest(1, &mut state.clone(), ROOM).unwrap();
        assert_eq!(
            full,
            SuffixCount {
                states: 5 + 5 * 5 + 20 * 5,
                matches: 60
            }
        );
        let tight = SuffixCount {
            states: full.states - 1,
            ..ROOM
        };
        let before = state.clone();
        assert_eq!(ctx.count_rest(1, &mut state, tight), None);
        assert_eq!(state.kernel_usage(), before.kernel_usage());
        // One level takes the general path when the room is below a whole
        // target, and declines exactly when the count does not fit.
        let mut last = state.clone();
        last.assign(1, 1);
        last.assign(2, 2);
        let one = ctx.count_rest(3, &mut last.clone(), ROOM).unwrap();
        assert_eq!(
            one,
            SuffixCount {
                states: 5,
                matches: 3
            }
        );
        let exact = SuffixCount {
            states: 5,
            matches: 3,
        };
        assert_eq!(ctx.count_rest(3, &mut last.clone(), exact), Some(one));
        let short = SuffixCount {
            matches: 2,
            ..exact
        };
        let before = last.clone();
        assert_eq!(ctx.count_rest(3, &mut last, short), None);
        assert_eq!(last, before);
    }

    /// A hub (label 0) with one out-leaf per entry of `leaves`, labelled by
    /// it, in that order, and a target of three hubs that each point at
    /// `degree(rng, label)` of a pool of four nodes per leaf label, and at
    /// enough nodes of no leaf's label that no degree bound rules a hub out.
    fn labelled_star(
        rng: &mut SplitMix64,
        leaves: &[u32],
        degree: fn(&mut SplitMix64, u32) -> usize,
    ) -> (Graph, Graph) {
        let mut b = GraphBuilder::new();
        let hub = b.add_node(0);
        for &label in leaves {
            let leaf = b.add_node(label);
            b.add_edge(hub, leaf, 0);
        }
        let pattern = b.build();
        let top = leaves.iter().copied().max().unwrap_or(0);
        let mut b = GraphBuilder::new();
        let hubs: Vec<NodeId> = (0..3).map(|_| b.add_node(0)).collect();
        for label in 1..=top {
            let pool: Vec<NodeId> = (0..4).map(|_| b.add_node(label)).collect();
            for &hub in &hubs {
                let (k, start) = (degree(rng, label), rng.next_below(4));
                for j in 0..k {
                    b.add_edge(hub, pool[(start + j) % 4], 0);
                }
            }
        }
        for &hub in &hubs {
            for _ in leaves {
                let spare = b.add_node(top + 1);
                b.add_edge(hub, spare, 0);
            }
        }
        (pattern, b.build())
    }

    /// One to four neighbors per label.
    fn one_to_four(rng: &mut SplitMix64, _: u32) -> usize {
        1 + rng.next_below(4)
    }

    /// Checks the counts of a [`labelled_star`] from its first two leaves
    /// and one drawn at random, below every prefix, against a recorded
    /// walk, by the class walk and by [`SearchContext::count_paths`];
    /// returns the prefixes checked.
    fn check_labelled(
        rng: &mut SplitMix64,
        leaves: &[u32],
        degree: fn(&mut SplitMix64, u32) -> usize,
        algorithm: Algorithm,
    ) -> usize {
        let (pattern, target) = labelled_star(rng, leaves, degree);
        let order = (0..pattern.num_nodes() as NodeId).collect();
        let ctx = context(&pattern, &target, order, algorithm, rng.next_bool(0.3));
        assert_eq!(ctx.counted_from(), 1);
        let deeper = 1 + rng.next_below(ctx.num_positions() - 1);
        [1, 2, deeper]
            .into_iter()
            .map(|from| check_counts(&ctx, from, true) + check_counts(&ctx, from, false))
            .sum()
    }

    const ALGORITHMS: [Algorithm; 3] = [Algorithm::Ri, Algorithm::RiDs, Algorithm::RiDsSiFc];

    #[test]
    fn distinct_labelled_leaves_multiply_one_level_components() {
        // Every leaf its own label: the lists are disjoint, so each level is
        // a component of its own, as in the benchmark's long pattern.
        let mut prefixes = 0;
        for seed in 0..60u64 {
            let mut rng = SplitMix64::new(0x1EAF ^ seed);
            let mut leaves: Vec<u32> = (1..=4 + rng.next_below(6) as u32).collect();
            rng.shuffle(&mut leaves);
            let algorithm = ALGORITHMS[seed as usize % 3];
            prefixes += check_labelled(&mut rng, &leaves, one_to_four, algorithm);
        }
        assert!(prefixes > 1_000, "{prefixes} prefixes");
    }

    #[test]
    fn twins_form_a_walked_component_beside_one_level_ones() {
        // Two or three leaves of label 1 share their lists and are walked;
        // the distinct-labelled leaves around them multiply.
        let mut prefixes = 0;
        for seed in 0..60u64 {
            let mut rng = SplitMix64::new(0x7815 ^ seed);
            let mut leaves = vec![1; 2 + rng.next_below(2)];
            leaves.extend(2..4 + rng.next_below(4) as u32);
            rng.shuffle(&mut leaves);
            let algorithm = ALGORITHMS[seed as usize % 3];
            prefixes += check_labelled(&mut rng, &leaves, one_to_four, algorithm);
        }
        assert!(prefixes > 1_000, "{prefixes} prefixes");
    }

    #[test]
    fn a_level_without_free_candidates_ends_the_product() {
        // Each target hub has one label-1 neighbor.  The first leaf takes
        // it, so below that leaf the second label-1 leaf, between leaves of
        // distinct labels, has no free candidate.
        let mut prefixes = 0;
        for seed in 0..60u64 {
            let mut rng = SplitMix64::new(0xE397 ^ seed);
            let mut leaves: Vec<u32> = (2..6 + rng.next_below(4) as u32).collect();
            rng.shuffle(&mut leaves);
            leaves.insert(1 + rng.next_below(leaves.len() - 1), 1);
            leaves.insert(0, 1);
            let degree = |rng: &mut SplitMix64, label| match label {
                1 => 1,
                _ => 1 + rng.next_below(4),
            };
            let algorithm = ALGORITHMS[seed as usize % 3];
            prefixes += check_labelled(&mut rng, &leaves, degree, algorithm);
        }
        assert!(prefixes > 500, "{prefixes} prefixes");
    }

    #[test]
    fn the_suffix_starts_where_the_definition_says() {
        let cycle = generators::directed_cycle(3, 0);
        let star = generators::star(3, 0, 0);
        let wide = generators::star(70, 0, 0);
        let mut looped = GraphBuilder::new();
        looped.add_nodes(2, 0);
        looped.add_edge(0, 1, 0);
        looped.add_edge(1, 1, 0);
        let looped = looped.build();
        let mut apart = GraphBuilder::new();
        apart.add_nodes(3, 0);
        apart.add_edge(0, 1, 0);
        let apart = apart.build();
        let target = generators::clique(80, 0);
        for (pattern, want) in [
            (&cycle, 2),
            (&star, 1),
            (&wide, 71 - 64),
            (&looped, 2),
            (&apart, 3),
        ] {
            let order = (0..pattern.num_nodes() as NodeId).collect();
            let ctx = context(pattern, &target, order, Algorithm::Ri, false);
            assert_eq!(ctx.counted_from(), want, "{} nodes", pattern.num_nodes());
            assert_eq!(ctx.counted_from(), suffix_by_definition(&ctx));
        }
    }
}
