//! Shared search machinery: candidate generation and consistency checking.
//!
//! Every scheduler of `sge-engine` drives the same [`SearchContext`] through
//! the one depth-first loop of `sge-stealing`, so they all explore exactly
//! the same state-space tree.  A *state* in the paper's terminology is a
//! `(position, candidate target node)` pair for which a consistency check is
//! performed; the caller counts those.
//!
//! A context *executes* a [`QueryPlan`] produced by `sge-plan`: the plan
//! fixes the match order, the back-edge constraint sets and the domains; the
//! context adds the target-graph machinery (adjacency intersection,
//! consistency checks).  [`SearchContext::prepare`] plans with the default
//! RI-greedy strategy; [`SearchContext::prepare_planned`] accepts any
//! [`sge_plan::Strategy`].
//!
//! [`WorkerState`] is the per-worker mutable part: the partial mapping `M`
//! (target node per ordered position), the injectivity flags, the worker's
//! kernel counters and its candidate memo.  In the parallel runtime it is
//! private to a worker and *never copied for private tasks*; only when a
//! task is stolen does the prefix of `M` travel to the thief (Section 3 of
//! the paper).
//!
//! The memo keeps, per position, the last candidate list the worker
//! requested and the images of the step's constraint parents it was built
//! from.  A list depends on nothing else but the static plan, so
//! [`SearchContext::candidates`] rebuilds it only when one of those images
//! changed: on near-tree patterns a position's constraints usually read an
//! image fixed many levels up, and most requests are answered from the
//! memo.

use crate::kernels::{self, GallopRoute, KernelCells, KernelUsage};
use sge_graph::{AdjacencyBitmaps, BitmapConfig, EdgeRef, Graph, GraphStats, NodeId};
use sge_obs::TraceSink;
use sge_plan::ordering::{KernelChoice, MatchOrder, PlanStep, PrefilterSpec};
use sge_plan::{Algorithm, Domains, Planner, QueryPlan, Strategy};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

thread_local! {
    /// Per-thread word buffer for the bitmap kernel's row AND accumulation.
    /// Thread-local so parallel workers sharing one [`SearchContext`] never
    /// contend, and reused across candidate fills so the hot path does not
    /// allocate.
    static BITMAP_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// What the last position contributes below one mapped prefix, counted by
/// [`SearchContext::count_leaves`] instead of enumerated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeafCount {
    /// States the enumerating path would have visited at the last position.
    pub states: u64,
    /// Matches among them (states minus injectivity rejections).
    pub matches: u64,
}

/// Read-only description of one enumeration instance: pattern, target and
/// the [`QueryPlan`] being executed (ordering, domains).
///
/// Domains are held behind an [`Arc`] inside the plan so that prepared
/// instances can be rebuilt against long-lived owned graphs (see
/// [`PreparedParts`]) without re-running or copying the domain computation.
pub struct SearchContext<'a> {
    pattern: &'a Graph,
    target: &'a Graph,
    plan: QueryPlan,
    /// Optional per-run observation sink.  When attached, candidate
    /// generation and consistency checks record per-position counters; when
    /// absent the cost is one predictable branch per call.
    sink: Option<Arc<TraceSink>>,
    /// Optional dense-adjacency bitmap sidecar of the target.  Required for
    /// the bitmap kernel and the candidate prefilter; when absent every
    /// position gallops over CSR and no candidates are prefiltered.
    bitmaps: Option<Arc<AdjacencyBitmaps>>,
    /// Shared kernel-invocation counters (always on).  Candidate fills
    /// accumulate in the [`WorkerState`] that drives them; schedulers fold
    /// each worker's totals in once, when the worker stops
    /// ([`Self::flush_kernels`]).
    kernels: Arc<KernelCells>,
}

impl<'a> SearchContext<'a> {
    /// Runs the preprocessing phase of `algorithm` (domain computation, forward
    /// checking, node ordering) and returns a ready-to-search context using
    /// the default RI-greedy ordering strategy.
    pub fn prepare(pattern: &'a Graph, target: &'a Graph, algorithm: Algorithm) -> Self {
        Self::prepare_planned(pattern, target, algorithm, Strategy::default())
    }

    /// [`Self::prepare`] planned with an explicit ordering `strategy`.
    pub fn prepare_planned(
        pattern: &'a Graph,
        target: &'a Graph,
        algorithm: Algorithm,
        strategy: Strategy,
    ) -> Self {
        let plan = Planner::new(strategy).plan(pattern, target, algorithm);
        let mut ctx = Self::from_plan(pattern, target, plan);
        ctx.ensure_bitmaps();
        ctx
    }

    /// [`Self::prepare_planned`] with precomputed target statistics and an
    /// explicitly supplied bitmap sidecar — the serving path, where the
    /// registry computes [`GraphStats`] and the sidecar once per long-lived
    /// target instead of paying for them on every preparation.
    ///
    /// The context attaches `bitmaps` as given, even when it is row-less
    /// (the registry hit its memory cap): steps routed to the bitmap kernel
    /// then fall back to galloping at run time.
    pub fn prepare_planned_full(
        pattern: &'a Graph,
        target: &'a Graph,
        target_stats: &GraphStats,
        bitmaps: Arc<AdjacencyBitmaps>,
        algorithm: Algorithm,
        strategy: Strategy,
    ) -> Self {
        let plan = Planner::new(strategy).plan_with_stats(pattern, target, target_stats, algorithm);
        let mut ctx = Self::from_plan(pattern, target, plan);
        ctx.bitmaps = Some(bitmaps);
        ctx
    }

    /// Wraps an externally produced [`QueryPlan`].
    ///
    /// The graphs must be the ones the plan was built from (or structurally
    /// identical copies); the ordering and domains reference their node ids
    /// directly.
    pub fn from_plan(pattern: &'a Graph, target: &'a Graph, plan: QueryPlan) -> Self {
        SearchContext {
            pattern,
            target,
            plan,
            sink: None,
            bitmaps: None,
            kernels: Arc::new(KernelCells::default()),
        }
    }

    /// Attaches (or detaches, with `None`) a target bitmap sidecar.
    ///
    /// The sidecar must describe this context's target graph.  Steps routed
    /// to the bitmap kernel fall back to galloping whenever the sidecar (or
    /// a specific row) is missing, so detaching is always safe.
    pub fn set_bitmaps(&mut self, bitmaps: Option<Arc<AdjacencyBitmaps>>) {
        self.bitmaps = bitmaps;
    }

    /// The attached bitmap sidecar, if any.
    pub fn bitmaps(&self) -> Option<&Arc<AdjacencyBitmaps>> {
        self.bitmaps.as_ref()
    }

    /// Builds and attaches a default-configuration sidecar when the plan
    /// routes at least one position to the bitmap kernel and no sidecar is
    /// attached yet.  One-shot enumeration pays the build during its
    /// preprocessing phase; serving callers attach the registry's shared
    /// sidecar instead (see [`Self::prepare_planned_full`]).
    pub fn ensure_bitmaps(&mut self) {
        if self.bitmaps.is_none() && self.plan_wants_bitmaps() {
            self.bitmaps = Some(Arc::new(AdjacencyBitmaps::build(
                self.target,
                &BitmapConfig::default(),
            )));
        }
    }

    fn plan_wants_bitmaps(&self) -> bool {
        self.plan
            .order
            .plan
            .steps
            .iter()
            .any(|s| s.kernel == KernelChoice::Bitmap)
    }

    /// Snapshot of the kernel-invocation counters accumulated through this
    /// context so far (across all workers whose states were flushed with
    /// [`Self::flush_kernels`]).
    pub fn kernel_totals(&self) -> KernelUsage {
        self.kernels.snapshot()
    }

    /// Moves the kernel counters `state` accumulated since its last flush
    /// into this context's shared cells.  Schedulers call it once per worker
    /// when the worker stops, so candidate fills never touch shared memory.
    pub fn flush_kernels(&self, state: &WorkerState) {
        self.kernels.flush(state.kernels.take());
    }

    /// Attaches a [`TraceSink`]: from now on every candidate list generated
    /// and every consistency check performed through this context is
    /// recorded per position.  All schedulers drive the same context, so the
    /// recorded totals are schedule-invariant on complete runs.
    pub fn set_trace_sink(&mut self, sink: Arc<TraceSink>) {
        self.sink = Some(sink);
    }

    /// The attached trace sink, if any.
    pub fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.sink.as_ref()
    }

    /// The pattern graph.
    pub fn pattern(&self) -> &Graph {
        self.pattern
    }

    /// The algorithm variant this context was prepared for.
    pub fn algorithm(&self) -> Algorithm {
        self.plan.algorithm
    }

    /// The target graph.
    pub fn target(&self) -> &Graph {
        self.target
    }

    /// The full query plan this context executes.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// The ordering strategy that planned this context.
    pub fn strategy(&self) -> Strategy {
        self.plan.strategy
    }

    /// The static node ordering.
    pub fn order(&self) -> &MatchOrder {
        &self.plan.order
    }

    /// The domains, when the algorithm uses them.
    pub fn domains(&self) -> Option<&Domains> {
        self.plan.domains.as_deref()
    }

    /// Number of positions to fill (= pattern nodes).
    pub fn num_positions(&self) -> usize {
        self.plan.order.len()
    }

    /// `true` when preprocessing proved there are no matches; the search can be
    /// skipped entirely.
    pub fn impossible(&self) -> bool {
        self.plan.impossible || self.pattern.num_nodes() > self.target.num_nodes()
    }

    /// Creates a fresh per-worker state, with an empty candidate memo.  A
    /// state belongs to the context that created it: its memo holds lists
    /// built from this context's plan and sidecar.
    pub fn new_state(&self) -> WorkerState {
        let mut keys = 0;
        let memo = self
            .plan
            .order
            .plan
            .steps
            .iter()
            .map(|step| {
                let key_at = keys;
                keys += step.constraints.len();
                MemoEntry {
                    list: Vec::new(),
                    key_at,
                    built: false,
                }
            })
            .collect();
        WorkerState {
            mapping: vec![NodeId::MAX; self.num_positions()],
            used: vec![false; self.target.num_nodes()],
            kernels: Cell::default(),
            memo,
            keys: vec![NodeId::MAX; keys],
        }
    }

    /// Raw candidate target nodes for position `depth`, given the current
    /// partial state (all referenced parents' images must already be assigned).
    ///
    /// * positions with ordered neighbors: the sorted intersection of the
    ///   adjacency lists of *every* already-mapped pattern neighbor (starting
    ///   from the smallest list, galloping through the others), filtered
    ///   through the RI-DS domain bitset,
    /// * parentless positions with domains (RI-DS): the domain members,
    /// * parentless positions without domains (RI): every target node.
    ///
    /// Candidates are *raw*: they still need [`Self::is_consistent`].
    ///
    /// The list lives in `state`'s memo and is rebuilt only when the image
    /// of one of the step's constraint parents differs from the one it was
    /// built from, so a parentless position is built once per state.  It
    /// stays readable through [`WorkerState::last_candidates`] while the
    /// caller assigns `depth` and requests deeper positions.  Every request
    /// counts in [`KernelUsage::lists`] and, when attached, the trace sink.
    #[inline]
    pub fn candidates<'s>(&self, depth: usize, state: &'s mut WorkerState) -> &'s [NodeId] {
        let list = self.refresh_candidates(depth, state);
        if let Some(sink) = &self.sink {
            sink.record_candidates(depth, list.len() as u64);
        }
        list
    }

    /// [`Self::candidates`] unseen by the trace sink: the tree-size probe's
    /// request.
    #[inline]
    pub(crate) fn refresh_candidates<'s>(
        &self,
        depth: usize,
        state: &'s mut WorkerState,
    ) -> &'s [NodeId] {
        self.refresh(depth, state);
        &state.memo[depth].list
    }

    /// The consistent members of the list the last request for `depth`
    /// returned, checked unseen by the trace sink.
    pub(crate) fn consistent_candidates<'s>(
        &'s self,
        depth: usize,
        state: &'s WorkerState,
    ) -> impl Iterator<Item = NodeId> + 's {
        let list = state.last_candidates(depth).iter().copied();
        list.filter(move |&vt| self.consistent_candidate(depth, vt, state))
    }

    /// Brings `state`'s memo entry for `depth` up to date: keeps it when
    /// every constraint parent's image equals the key it was built from,
    /// rebuilds it otherwise.
    #[inline]
    fn refresh(&self, depth: usize, state: &mut WorkerState) {
        let step = &self.plan.order.plan.steps[depth];
        let WorkerState {
            mapping,
            kernels,
            memo,
            keys,
            ..
        } = state;
        let entry = &mut memo[depth];
        let key = &mut keys[entry.key_at..entry.key_at + step.constraints.len()];
        let images = step.constraints.iter().map(|c| mapping[c.parent_pos]);
        let usage = kernels.get_mut();
        usage.lists += 1;
        if entry.built && images.clone().eq(key.iter().copied()) {
            usage.reused += 1;
            return;
        }
        for (slot, image) in key.iter_mut().zip(images) {
            *slot = image;
        }
        entry.built = true;
        self.fill_candidates(depth, mapping, &mut entry.list, usage);
    }

    fn fill_candidates(
        &self,
        depth: usize,
        mapping: &[NodeId],
        out: &mut Vec<NodeId>,
        local: &mut KernelUsage,
    ) {
        out.clear();
        let step = &self.plan.order.plan.steps[depth];
        let vp = self.plan.order.positions[depth];
        if step.constraints.is_empty() {
            match &self.plan.domains {
                Some(domains) => {
                    out.extend(domains.set(vp).iter().map(|v| v as NodeId));
                }
                None => out.extend(0..self.target.num_nodes() as NodeId),
            }
            if let Some((maps, spec)) = self.active_prefilter(step) {
                let before = out.len();
                out.retain(|&v| prefilter_pass(maps, spec, self.target, v));
                local.prefilter_rejected += (before - out.len()) as u64;
            }
        } else {
            self.intersect_candidates(vp, step, mapping, out, local);
        }
    }

    /// The prefilter to apply at a position: present only when a sidecar is
    /// attached (signatures live there) and the spec can reject anything.
    #[inline]
    fn active_prefilter<'s>(
        &'s self,
        step: &'s PlanStep,
    ) -> Option<(&'s AdjacencyBitmaps, &'s PrefilterSpec)> {
        let maps = self.bitmaps.as_deref()?;
        if step.prefilter.is_trivial() {
            return None;
        }
        Some((maps, &step.prefilter))
    }

    /// The adjacency list a constraint selects for the current mapping.
    #[inline]
    fn constraint_adjacency(&self, c: &sge_plan::EdgeConstraint, mapping: &[NodeId]) -> &[EdgeRef] {
        let image = mapping[c.parent_pos];
        debug_assert_ne!(image, NodeId::MAX, "constraint parent must be assigned");
        if c.out_from_parent {
            self.target.out_edges(image)
        } else {
            self.target.in_edges(image)
        }
    }

    /// Multi-parent candidate generation, dispatched on the planner's
    /// [`KernelChoice`] for the step.
    ///
    /// The bitmap path ANDs the constraint rows of the target's sidecar
    /// word-by-word (plus the domain bitset) and runs only when every
    /// constraint has a row; otherwise — and always under
    /// [`KernelChoice::Gallop`] — the CSR path seeds `out` from the smallest
    /// adjacency list among the constraints (filtered by edge label, domain /
    /// node-label membership and the prefilter), then intersects with each
    /// remaining list through the width-bucketed
    /// [`kernels::intersect_gallop`].  Both paths produce byte-identical
    /// candidate sets (the oracle matrix walks both against a scalar
    /// reference).
    fn intersect_candidates(
        &self,
        vp: NodeId,
        step: &PlanStep,
        mapping: &[NodeId],
        out: &mut Vec<NodeId>,
        local: &mut KernelUsage,
    ) {
        if step.kernel == KernelChoice::Bitmap
            && self.bitmap_candidates(vp, step, mapping, out, local)
        {
            return;
        }
        // Seed from the smallest adjacency list (smallest-degree-first); every
        // adjacency list is sorted by node id, so the buffer stays sorted
        // through all intersections.
        let mut seed = 0;
        let mut seed_len = usize::MAX;
        for (i, c) in step.constraints.iter().enumerate() {
            let len = self.constraint_adjacency(c, mapping).len();
            if len < seed_len {
                seed_len = len;
                seed = i;
            }
        }
        // The seed fill also applies the domain (or node-label) filter and
        // the prefilter, so later intersections gallop over the smallest
        // possible buffer and `is_consistent` need not re-test membership.
        let c0 = &step.constraints[seed];
        let adj0 = self.constraint_adjacency(c0, mapping);
        let prefilter = self.active_prefilter(step);
        let passes = |v: NodeId, local: &mut KernelUsage| match prefilter {
            Some((maps, spec)) => {
                let pass = prefilter_pass(maps, spec, self.target, v);
                local.prefilter_rejected += !pass as u64;
                pass
            }
            None => true,
        };
        match &self.plan.domains {
            Some(domains) => {
                for e in adj0 {
                    if e.label == c0.label && domains.contains(vp, e.node) && passes(e.node, local)
                    {
                        out.push(e.node);
                    }
                }
            }
            None => {
                let label = self.pattern.label(vp);
                for e in adj0 {
                    if e.label == c0.label
                        && self.target.label(e.node) == label
                        && passes(e.node, local)
                    {
                        out.push(e.node);
                    }
                }
            }
        }
        for (i, c) in step.constraints.iter().enumerate() {
            if i == seed {
                continue;
            }
            if out.is_empty() {
                return;
            }
            let adj = self.constraint_adjacency(c, mapping);
            // Seeded from the shortest list and only ever shrunk, the buffer
            // is never longer than the list it meets.
            debug_assert!(out.len() <= adj.len());
            match kernels::intersect_gallop(out, adj, c.label) {
                GallopRoute::Merge => local.merge += 1,
                GallopRoute::Gallop => local.gallop += 1,
            }
        }
    }

    /// The bitmap row a constraint selects for the current mapping, if
    /// built.
    #[inline]
    fn constraint_row<'m>(
        &self,
        maps: &'m AdjacencyBitmaps,
        c: &sge_plan::EdgeConstraint,
        mapping: &[NodeId],
    ) -> Option<&'m [u64]> {
        let image = mapping[c.parent_pos];
        debug_assert_ne!(image, NodeId::MAX, "constraint parent must be assigned");
        if c.out_from_parent {
            maps.out_row(image, c.label)
        } else {
            maps.in_row(image, c.label)
        }
    }

    /// Bitmap-kernel candidate generation: word-wise AND of every
    /// constraint's sidecar row and the domain bitset, then a single pass
    /// over the set bits (label check when domains are absent, plus the
    /// prefilter).  Returns `false` — leaving `out` empty — when the sidecar
    /// or any row is missing, in which case the caller gallops over CSR.
    fn bitmap_candidates(
        &self,
        vp: NodeId,
        step: &PlanStep,
        mapping: &[NodeId],
        out: &mut Vec<NodeId>,
        local: &mut KernelUsage,
    ) -> bool {
        let Some(maps) = self.bitmaps.as_deref() else {
            return false;
        };
        let words = maps.words_per_row();
        if words == 0 {
            return false;
        }
        // Every constraint needs a row; lookups are cheap binary searches,
        // so verify all of them before touching the scratch buffer.
        for c in &step.constraints {
            if self.constraint_row(maps, c, mapping).is_none() {
                return false;
            }
        }
        BITMAP_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            scratch.resize(words, 0u64);
            let mut first = true;
            for c in &step.constraints {
                let row = self
                    .constraint_row(maps, c, mapping)
                    .expect("row presence checked above");
                if first {
                    scratch.copy_from_slice(row);
                    first = false;
                } else {
                    kernels::and_rows(&mut scratch, row);
                }
                local.bitmap += 1;
            }
            if let Some(domains) = &self.plan.domains {
                kernels::and_rows(&mut scratch, domains.set(vp).words());
            }
            let check_label = self.plan.domains.is_none();
            let label = self.pattern.label(vp);
            let prefilter = self.active_prefilter(step);
            for (w, &word) in scratch.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let v = (w * 64 + bits.trailing_zeros() as usize) as NodeId;
                    bits &= bits - 1;
                    if check_label && self.target.label(v) != label {
                        continue;
                    }
                    if let Some((maps, spec)) = prefilter {
                        if !prefilter_pass(maps, spec, self.target, v) {
                            local.prefilter_rejected += 1;
                            continue;
                        }
                    }
                    out.push(v);
                }
            }
        });
        true
    }

    /// The one leaf-count rule: the states and matches the last position
    /// contributes below the mapped prefix in `state`, counted without
    /// visiting them.  Every scheduler calls it when it would expand into
    /// the last position, and only when nothing observes individual matches
    /// and nothing can interrupt the position part-way (no match budget,
    /// deadline or cancel token).
    ///
    /// At the last depth every pattern edge of the position's node points
    /// back into the mapped prefix, so a constrained candidate provably
    /// passes every remaining per-candidate check except injectivity:
    ///
    /// * domain membership (or the node label) was applied when candidates
    ///   were generated, and the prefilter's degree / signature minimums are
    ///   implied by the satisfied back-edges (one distinct neighbor per
    ///   pattern edge);
    /// * `check_degrees` holds for the same reason.
    ///
    /// So `states` is the candidate count and `matches` subtracts the
    /// candidates already used by the prefix (each would have been visited
    /// and rejected by the injectivity check): byte-identical to
    /// enumerating.  The count reads the memo list that
    /// [`Self::candidates`] would return, in O(candidates), so counting and
    /// enumerating build exactly the same lists and advance the kernel
    /// counters alike.
    ///
    /// `None` — with nothing computed — when a guarantee is missing: an
    /// attached trace sink (which must observe every candidate fill and
    /// consistency check), an unconstrained last position (its candidates
    /// still need the label / domain test of [`Self::is_consistent`]) or a
    /// self-loop.
    #[inline]
    pub fn count_leaves(&self, state: &mut WorkerState) -> Option<LeafCount> {
        let depth = self.num_positions().checked_sub(1)?;
        let step = &self.plan.order.plan.steps[depth];
        if self.sink.is_some() || step.constraints.is_empty() || step.self_loop.is_some() {
            return None;
        }
        self.refresh(depth, state);
        let list = &state.memo[depth].list;
        let states = list.len() as u64;
        let used = list.iter().filter(|&&v| state.used[v as usize]).count() as u64;
        Some(LeafCount {
            states,
            matches: states - used,
        })
    }

    /// Full consistency check for mapping the pattern node at `depth` onto
    /// `vt`, given the already-assigned prefix in `state`.
    ///
    /// Checks are ordered cheap → expensive, as in RI: injectivity, label (or
    /// domain membership), degrees (plain RI only) and the self-loop when the
    /// pattern node carries one.  Edges back into the mapped prefix need no
    /// check: [`Self::candidates`] intersects their adjacency lists, so every
    /// constrained candidate satisfies them by construction.
    #[inline]
    pub fn is_consistent(&self, depth: usize, vt: NodeId, state: &WorkerState) -> bool {
        if let Some(sink) = &self.sink {
            sink.record_state(depth);
        }
        self.consistent_candidate(depth, vt, state)
    }

    /// [`Self::is_consistent`] unseen by the trace sink.
    #[inline]
    pub(crate) fn consistent_candidate(
        &self,
        depth: usize,
        vt: NodeId,
        state: &WorkerState,
    ) -> bool {
        let vp = self.plan.order.positions[depth];
        if state.used[vt as usize] {
            return false;
        }
        let step = &self.plan.order.plan.steps[depth];
        // Constrained candidates were already pushed through the domain /
        // node-label filter by `candidates`; only parentless positions need
        // the test.
        if step.constraints.is_empty() {
            match &self.plan.domains {
                Some(domains) => {
                    if !domains.contains(vp, vt) {
                        return false;
                    }
                }
                None => {
                    if self.pattern.label(vp) != self.target.label(vt) {
                        return false;
                    }
                }
            }
        }
        if self.plan.check_degrees
            && (self.target.out_degree(vt) < self.pattern.out_degree(vp)
                || self.target.in_degree(vt) < self.pattern.in_degree(vp))
        {
            return false;
        }
        match step.self_loop {
            Some(label) => self.target.edge_label(vt, vt) == Some(label),
            None => true,
        }
    }

    /// Extracts the current mapping as `pattern node -> target node`.
    pub fn mapping_by_pattern_node(&self, state: &WorkerState) -> Vec<NodeId> {
        let mut out = vec![NodeId::MAX; self.num_positions()];
        for (pos, &vt) in state.mapping.iter().enumerate() {
            let vp = self.plan.order.positions[pos];
            out[vp as usize] = vt;
        }
        out
    }
}

/// O(1) candidate feasibility test: directed-degree minimums plus the
/// Bloom-style label-signature superset tests of [`PrefilterSpec`].  A
/// failing candidate provably cannot complete to a match (its neighborhood
/// lacks a label some pattern edge requires), so rejections change state
/// counts but never the match set.
#[inline]
fn prefilter_pass(
    maps: &AdjacencyBitmaps,
    spec: &PrefilterSpec,
    target: &Graph,
    v: NodeId,
) -> bool {
    target.out_degree(v) >= spec.min_out_degree as usize
        && target.in_degree(v) >= spec.min_in_degree as usize
        && spec.out_sig & !maps.out_sig(v) == 0
        && spec.in_sig & !maps.in_sig(v) == 0
}

/// The owned outcome of preprocessing, detached from the graph borrows.
///
/// [`SearchContext`] borrows its pattern and target, which is the right shape
/// for one-shot enumeration but not for a serving system that keeps prepared
/// instances alive across queries.  `PreparedParts` captures the executed
/// [`QueryPlan`] (domains shared, not copied) and the bitmap sidecar, so a
/// caller that *owns* the graphs can rebuild an equivalent context at any
/// time without re-running preprocessing:
///
/// ```
/// use sge_graph::generators;
/// use sge_ri::{Algorithm, PreparedParts, SearchContext};
///
/// let pattern = generators::directed_cycle(3, 0);
/// let target = generators::clique(4, 0);
/// let parts = PreparedParts::extract(&SearchContext::prepare(
///     &pattern, &target, Algorithm::RiDsSiFc,
/// ));
/// // Later, against the same (now possibly heap-owned) graphs:
/// let ctx = parts.context(&pattern, &target);
/// assert_eq!(ctx.algorithm(), Algorithm::RiDsSiFc);
/// ```
#[derive(Clone)]
pub struct PreparedParts {
    plan: QueryPlan,
    bitmaps: Option<Arc<AdjacencyBitmaps>>,
}

impl PreparedParts {
    /// Captures the prepared artifacts of `ctx` (domains and the bitmap
    /// sidecar are shared via [`Arc`]; the ordering — including its
    /// [`sge_plan::CandidatePlan`] — is cloned).
    pub fn extract(ctx: &SearchContext<'_>) -> Self {
        PreparedParts {
            plan: ctx.plan.clone(),
            bitmaps: ctx.bitmaps.clone(),
        }
    }

    /// Rebuilds a ready-to-search context against `pattern` and `target`.
    ///
    /// The graphs must be the ones this instance was prepared from (or
    /// structurally identical copies); the ordering and domains reference
    /// their node ids directly.
    pub fn context<'a>(&self, pattern: &'a Graph, target: &'a Graph) -> SearchContext<'a> {
        let mut ctx = SearchContext::from_plan(pattern, target, self.plan.clone());
        ctx.bitmaps = self.bitmaps.clone();
        ctx
    }

    /// The captured bitmap sidecar, if one was attached at preparation time.
    pub fn bitmaps(&self) -> Option<&Arc<AdjacencyBitmaps>> {
        self.bitmaps.as_ref()
    }

    /// The algorithm these parts were prepared for.
    pub fn algorithm(&self) -> Algorithm {
        self.plan.algorithm
    }

    /// The ordering strategy that planned these parts.
    pub fn strategy(&self) -> Strategy {
        self.plan.strategy
    }

    /// The captured query plan (order, domains).
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// `true` when preprocessing already proved there are no matches.
    pub fn impossible(&self) -> bool {
        self.plan.impossible
    }
}

/// Mutable per-worker search state: the partial mapping (indexed by ordered
/// position), the injectivity flags over target nodes, the kernel counters
/// of the candidate requests it drove since its last
/// [`SearchContext::flush_kernels`], and its candidate memo.
#[derive(Clone, Debug)]
pub struct WorkerState {
    mapping: Vec<NodeId>,
    used: Vec<bool>,
    kernels: Cell<KernelUsage>,
    /// One entry per position: the last candidate list built for it.
    memo: Vec<MemoEntry>,
    /// Every entry's key back to back: the images of its step's constraint
    /// parents, one per constraint, that its list was built from.
    keys: Vec<NodeId>,
}

/// One position's memoized candidate list.
#[derive(Clone, Debug)]
struct MemoEntry {
    list: Vec<NodeId>,
    /// Where this position's key starts in [`WorkerState::keys`].
    key_at: usize,
    /// Whether `list` was ever built; until then the key means nothing.
    built: bool,
}

impl WorkerState {
    /// Assigns `vt` to position `depth`.
    #[inline]
    pub fn assign(&mut self, depth: usize, vt: NodeId) {
        debug_assert!(!self.used[vt as usize], "target node already used");
        self.mapping[depth] = vt;
        self.used[vt as usize] = true;
    }

    /// Undoes the assignment at `depth`.
    #[inline]
    pub fn unassign(&mut self, depth: usize) {
        let vt = self.mapping[depth];
        if vt != NodeId::MAX {
            self.used[vt as usize] = false;
            self.mapping[depth] = NodeId::MAX;
        }
    }

    /// The target node assigned at `depth` (`NodeId::MAX` when unassigned).
    #[inline]
    pub fn assigned(&self, depth: usize) -> NodeId {
        self.mapping[depth]
    }

    /// The mapping prefix `[0, depth)` — what must travel with a stolen task.
    pub fn prefix(&self, depth: usize) -> Vec<NodeId> {
        self.mapping[..depth].to_vec()
    }

    /// Clears every assignment at positions `>= depth` (rewinding to an
    /// ancestor task in DFS order).
    pub fn rewind_to(&mut self, depth: usize) {
        for pos in depth..self.mapping.len() {
            self.unassign(pos);
        }
    }

    /// Replaces the whole state with the given prefix (installing a stolen
    /// task's context on the thief).
    pub fn install_prefix(&mut self, prefix: &[NodeId]) {
        self.rewind_to(0);
        for (depth, &vt) in prefix.iter().enumerate() {
            self.assign(depth, vt);
        }
    }

    /// Raw view of the mapping indexed by position.
    pub fn mapping(&self) -> &[NodeId] {
        &self.mapping
    }

    /// The list the last [`SearchContext::candidates`] request for `depth`
    /// returned.  Assigning `depth` and requesting deeper positions leave
    /// it untouched, so a depth-first loop can index it while it recurses.
    #[inline]
    pub fn last_candidates(&self, depth: usize) -> &[NodeId] {
        &self.memo[depth].list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{generators, GraphBuilder};

    #[test]
    fn candidates_from_parent_neighborhood() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::star(3, 0, 0); // center 0 -> leaves 1,2,3
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::Ri);
        let mut state = ctx.new_state();

        let roots = ctx.candidates(0, &mut state).len();
        assert_eq!(roots, target.num_nodes(), "RI roots = all target nodes");

        // Map the first pattern node onto the star center and check the child
        // candidates are exactly the center's out-neighbors.
        let first = ctx.order().positions[0];
        assert!(ctx.is_consistent(0, 0, &state));
        state.assign(0, 0);
        let children = ctx.candidates(1, &mut state).to_vec();
        assert_eq!(ctx.order().plan.steps[1].constraints[0].parent_pos, 0);
        if pattern.has_edge(first, ctx.order().positions[1]) {
            assert_eq!(children, vec![1, 2, 3]);
        } else {
            assert!(children.is_empty());
        }
    }

    #[test]
    fn consistency_rejects_used_and_wrong_labels() {
        let pattern = generators::labeled_triangle(1, 2, 3);
        let mut tb = GraphBuilder::new();
        let a = tb.add_node(1);
        let b = tb.add_node(2);
        let c = tb.add_node(3);
        let d = tb.add_node(2);
        tb.add_edge(a, b, 0);
        tb.add_edge(b, c, 0);
        tb.add_edge(c, a, 0);
        tb.add_edge(a, d, 0);
        let target = tb.build();

        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::Ri);
        let mut state = ctx.new_state();
        let pos0 = ctx.order().positions[0];
        let image0 = match pattern.label(pos0) {
            1 => a,
            2 => b,
            _ => c,
        };
        assert!(ctx.is_consistent(0, image0, &state));
        state.assign(0, image0);
        // Re-using the same target node must fail at any later depth.
        assert!(!ctx.is_consistent(1, image0, &state));
    }

    #[test]
    fn consistency_checks_edges_to_mapped_nodes() {
        // Pattern: directed edge 0 -> 1 (same labels); target: two nodes with
        // the edge the wrong way round.
        let pattern = generators::directed_path(2, 0);
        let mut tb = GraphBuilder::new();
        let t0 = tb.add_node(0);
        let t1 = tb.add_node(0);
        tb.add_edge(t1, t0, 0);
        let target = tb.build();
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::Ri);
        let mut state = ctx.new_state();

        // Whatever the ordering, mapping both nodes must fail somewhere.
        let mut total = 0u32;
        let cands = ctx.candidates(0, &mut state).to_vec();
        for &c0 in &cands {
            if !ctx.is_consistent(0, c0, &state) {
                continue;
            }
            state.assign(0, c0);
            let inner = ctx.candidates(1, &mut state).to_vec();
            for &c1 in &inner {
                if ctx.is_consistent(1, c1, &state) {
                    total += 1;
                }
            }
            state.unassign(0);
        }
        assert_eq!(total, 1, "exactly one directed embedding exists");
    }

    #[test]
    fn self_loop_in_pattern_requires_self_loop_in_target() {
        let mut pb = GraphBuilder::new();
        let p = pb.add_node(0);
        pb.add_edge(p, p, 0);
        let pattern = pb.build();

        let mut tb = GraphBuilder::new();
        let t0 = tb.add_node(0);
        let t1 = tb.add_node(0);
        tb.add_edge(t0, t0, 0);
        tb.add_edge(t0, t1, 0);
        let target = tb.build();

        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::Ri);
        let state = ctx.new_state();
        assert!(ctx.is_consistent(0, t0, &state));
        assert!(!ctx.is_consistent(0, t1, &state));
    }

    #[test]
    fn impossible_when_pattern_larger_than_target() {
        let pattern = generators::clique(4, 0);
        let target = generators::clique(3, 0);
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::Ri);
        assert!(ctx.impossible());
    }

    #[test]
    fn impossible_when_domain_empty() {
        let mut pb = GraphBuilder::new();
        pb.add_node(9);
        let pattern = pb.build();
        let target = generators::clique(3, 0);
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::RiDs);
        assert!(ctx.impossible());
    }

    #[test]
    fn worker_state_prefix_and_rewind() {
        let pattern = generators::directed_path(3, 0);
        let target = generators::directed_path(5, 0);
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::Ri);
        let mut state = ctx.new_state();
        state.assign(0, 2);
        state.assign(1, 3);
        assert_eq!(state.prefix(2), vec![2, 3]);
        assert_eq!(state.assigned(1), 3);

        let mut other = ctx.new_state();
        other.install_prefix(&state.prefix(2));
        assert_eq!(other.assigned(0), 2);
        assert_eq!(other.assigned(1), 3);

        state.rewind_to(1);
        assert_eq!(state.assigned(0), 2);
        assert_eq!(state.assigned(1), NodeId::MAX);
        assert_eq!(state.prefix(1), vec![2]);
        // Target node 3 is free again: re-assigning it must not trip the
        // injectivity debug assertion.
        state.assign(1, 3);
        assert_eq!(state.assigned(1), 3);
    }

    #[test]
    fn domain_candidates_for_parentless_position() {
        // Disconnected pattern: two isolated labeled nodes; RI-DS candidates
        // for the second root come from its domain, not the whole target.
        let mut pb = GraphBuilder::new();
        pb.add_node(1);
        pb.add_node(2);
        let pattern = pb.build();
        let mut tb = GraphBuilder::new();
        tb.add_node(1);
        tb.add_node(2);
        tb.add_node(2);
        tb.add_node(3);
        let target = tb.build();

        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::RiDs);
        let mut state = ctx.new_state();
        let cands = ctx.candidates(0, &mut state).len();
        let vp0 = ctx.order().positions[0];
        let expected = if pattern.label(vp0) == 1 { 1 } else { 2 };
        assert_eq!(cands, expected);
    }

    #[test]
    fn mapping_by_pattern_node_inverts_the_order() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::directed_cycle(3, 0);
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::Ri);
        let mut state = ctx.new_state();
        // Assign positions 0..3 to target nodes equal to the pattern node they
        // represent (the identity embedding exists in a 3-cycle).
        for depth in 0..3 {
            let vp = ctx.order().positions[depth];
            assert!(ctx.is_consistent(depth, vp, &state));
            state.assign(depth, vp);
        }
        let by_node = ctx.mapping_by_pattern_node(&state);
        assert_eq!(by_node, vec![0, 1, 2]);
    }

    /// The candidate set at `depth` re-derived node by node with
    /// `edge_label` probes, for plans without domains or a sidecar.
    fn scalar_candidates(
        ctx: &SearchContext<'_>,
        depth: usize,
        state: &WorkerState,
    ) -> Vec<NodeId> {
        let (step, vp) = (&ctx.order().plan.steps[depth], ctx.order().positions[depth]);
        let target = ctx.target();
        let edge = |c: &sge_plan::EdgeConstraint, v| {
            let parent = state.assigned(c.parent_pos);
            let (from, to) = if c.out_from_parent {
                (parent, v)
            } else {
                (v, parent)
            };
            target.edge_label(from, to) == Some(c.label)
        };
        (0..target.num_nodes() as NodeId)
            .filter(|&v| target.label(v) == ctx.pattern().label(vp))
            .filter(|&v| step.constraints.iter().all(|c| edge(c, v)))
            .collect()
    }

    /// A transitive triangle in K5 under plain RI: the last position is
    /// constrained by both earlier ones.
    fn two_parent_instance() -> (Graph, Graph) {
        let mut pb = GraphBuilder::new();
        pb.add_nodes(3, 0);
        pb.add_edge(0, 1, 0);
        pb.add_edge(0, 2, 0);
        pb.add_edge(1, 2, 0);
        (pb.build(), generators::clique(5, 0))
    }

    fn usage(state: &WorkerState) -> (u64, u64) {
        let usage = state.kernels.get();
        (usage.lists, usage.reused)
    }

    #[test]
    fn a_moved_shallower_parent_rebuilds_the_list() {
        let (pattern, target) = two_parent_instance();
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::Ri);
        let parents: Vec<usize> = ctx.order().plan.steps[2]
            .constraints
            .iter()
            .map(|c| c.parent_pos)
            .collect();
        assert!(parents.contains(&0) && parents.contains(&1), "{parents:?}");
        let mut state = ctx.new_state();
        state.install_prefix(&[0, 1]);
        let first = ctx.candidates(2, &mut state).to_vec();
        assert_eq!(first, scalar_candidates(&ctx, 2, &state));
        // Only the shallower parent moves; the deeper one keeps its image.
        state.rewind_to(0);
        state.assign(0, 2);
        state.assign(1, 1);
        let moved = ctx.candidates(2, &mut state).to_vec();
        assert_eq!(usage(&state), (2, 0), "the moved parent forces a rebuild");
        assert_ne!(moved, first);
        assert_eq!(moved, scalar_candidates(&ctx, 2, &state));
        let mut fresh = ctx.new_state();
        fresh.install_prefix(&[2, 1]);
        assert_eq!(ctx.candidates(2, &mut fresh), moved.as_slice());
        // Re-assigning the same images is a memo hit.
        state.rewind_to(1);
        state.assign(1, 1);
        assert_eq!(ctx.candidates(2, &mut state), moved.as_slice());
        assert_eq!(usage(&state), (3, 1));
    }

    #[test]
    fn install_prefix_to_another_prefix_rebuilds_the_list() {
        let (pattern, target) = two_parent_instance();
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::Ri);
        let mut state = ctx.new_state();
        state.install_prefix(&[0, 1]);
        let before = ctx.candidates(2, &mut state).to_vec();
        state.install_prefix(&[3, 4]);
        let after = ctx.candidates(2, &mut state).to_vec();
        assert_eq!(usage(&state), (2, 0));
        assert_ne!(after, before);
        assert_eq!(after, scalar_candidates(&ctx, 2, &state));
        // Installing the same prefix again keeps the list.
        state.install_prefix(&[3, 4]);
        assert_eq!(ctx.candidates(2, &mut state), after.as_slice());
        assert_eq!(usage(&state), (3, 1));
    }

    #[test]
    fn unconstrained_positions_build_once_per_state() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(4, 0);
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::RiDs);
        assert!(ctx.order().plan.steps[0].constraints.is_empty());
        let mut state = ctx.new_state();
        let roots = ctx.candidates(0, &mut state).to_vec();
        for root in roots.clone() {
            state.assign(0, root);
            ctx.candidates(1, &mut state);
            state.unassign(0);
            assert_eq!(ctx.candidates(0, &mut state), roots.as_slice());
        }
        // One root build and one child build per root; every later root
        // request is a memo hit.
        let n = roots.len() as u64;
        assert_eq!(usage(&state), (1 + 2 * n, n));
        // Another state builds its own.
        let mut other = ctx.new_state();
        assert_eq!(ctx.candidates(0, &mut other), roots.as_slice());
        assert_eq!(usage(&other), (1, 0));
    }

    #[test]
    fn prepared_parts_carry_strategy_and_plan() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(4, 0);
        let ctx = SearchContext::prepare_planned(
            &pattern,
            &target,
            Algorithm::RiDs,
            Strategy::DegreeDescending,
        );
        assert_eq!(ctx.strategy(), Strategy::DegreeDescending);
        assert_eq!(ctx.plan().num_positions(), 3);
        let parts = PreparedParts::extract(&ctx);
        assert_eq!(parts.strategy(), Strategy::DegreeDescending);
        assert_eq!(parts.plan().num_positions(), 3);
        let rebuilt = parts.context(&pattern, &target);
        assert_eq!(rebuilt.order().positions, ctx.order().positions);
        assert_eq!(rebuilt.strategy(), Strategy::DegreeDescending);
    }
}
