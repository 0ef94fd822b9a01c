//! Shared search machinery: candidate generation and consistency checking.
//!
//! The sequential matcher ([`crate::matcher`]) and the parallel schedulers of
//! `sge-engine` drive the same [`SearchContext`], so they explore exactly the
//! same state-space tree.  A *state* in the paper's terminology is a
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
//! (target node per ordered position), the injectivity flags and the
//! worker's kernel counters.  In the parallel runtime it is private to a
//! worker and *never copied for private tasks*; only when a task is stolen
//! does the prefix of `M` travel to the thief (Section 3 of the paper).

use crate::kernels::{self, GallopRoute, KernelCells, KernelUsage};
use crate::matcher::Algorithm;
use sge_graph::{AdjacencyBitmaps, BitmapConfig, EdgeRef, Graph, GraphStats, NodeId};
use sge_obs::TraceSink;
use sge_plan::ordering::{KernelChoice, MatchOrder, PlanStep, PrefilterSpec};
use sge_plan::{Domains, Planner, QueryPlan, Strategy};
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
/// the [`QueryPlan`] being executed (ordering, domains, cost estimates).
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

    /// Creates a fresh per-worker state.
    pub fn new_state(&self) -> WorkerState {
        WorkerState {
            mapping: vec![NodeId::MAX; self.num_positions()],
            used: vec![false; self.target.num_nodes()],
            kernels: Cell::default(),
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
    pub fn candidates(&self, depth: usize, state: &WorkerState, out: &mut Vec<NodeId>) {
        self.fill_candidates(depth, state, out);
        if let Some(sink) = &self.sink {
            sink.record_candidates(depth, out.len() as u64);
        }
    }

    fn fill_candidates(&self, depth: usize, state: &WorkerState, out: &mut Vec<NodeId>) {
        out.clear();
        let step = &self.plan.order.plan.steps[depth];
        let vp = self.plan.order.positions[depth];
        let mut local = state.kernels.get();
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
            self.intersect_candidates(vp, step, state, out, &mut local);
        }
        state.kernels.set(local);
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

    /// The adjacency list a constraint selects for the current state.
    #[inline]
    fn constraint_adjacency(
        &self,
        c: &sge_plan::EdgeConstraint,
        state: &WorkerState,
    ) -> &[EdgeRef] {
        let image = state.mapping[c.parent_pos];
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
        state: &WorkerState,
        out: &mut Vec<NodeId>,
        local: &mut KernelUsage,
    ) {
        if step.kernel == KernelChoice::Bitmap
            && self.bitmap_candidates(vp, step, state, out, local)
        {
            return;
        }
        // Seed from the smallest adjacency list (smallest-degree-first); every
        // adjacency list is sorted by node id, so the buffer stays sorted
        // through all intersections.
        let mut seed = 0;
        let mut seed_len = usize::MAX;
        for (i, c) in step.constraints.iter().enumerate() {
            let len = self.constraint_adjacency(c, state).len();
            if len < seed_len {
                seed_len = len;
                seed = i;
            }
        }
        // The seed fill also applies the domain (or node-label) filter and
        // the prefilter, so later intersections gallop over the smallest
        // possible buffer and `is_consistent` need not re-test membership.
        let c0 = &step.constraints[seed];
        let adj0 = self.constraint_adjacency(c0, state);
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
            match kernels::intersect_gallop(out, self.constraint_adjacency(c, state), c.label) {
                GallopRoute::Merge => local.merge += 1,
                GallopRoute::Gallop | GallopRoute::GallopSwapped => local.gallop += 1,
            }
        }
    }

    /// The bitmap row a constraint selects for the current state, if built.
    #[inline]
    fn constraint_row<'m>(
        &self,
        maps: &'m AdjacencyBitmaps,
        c: &sge_plan::EdgeConstraint,
        state: &WorkerState,
    ) -> Option<&'m [u64]> {
        let image = state.mapping[c.parent_pos];
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
        state: &WorkerState,
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
            if self.constraint_row(maps, c, state).is_none() {
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
                    .constraint_row(maps, c, state)
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
    /// deadline or cancel token); `scratch` receives the candidate list when
    /// one has to be built.
    ///
    /// At the last depth every pattern edge of the position's node points
    /// back into the mapped prefix, so a constrained candidate provably
    /// passes every remaining per-candidate check except injectivity:
    ///
    /// * domain membership (or the node label) was applied when candidates
    ///   were generated, and the prefilter's degree / signature minimums are
    ///   implied by the satisfied back-edges (one distinct neighbor per
    ///   pattern edge), so `prefilter_rejected` stays untouched — exactly
    ///   like enumerating;
    /// * `check_degrees` holds for the same reason.
    ///
    /// So `states` is the candidate count and `matches` subtracts the
    /// candidates already used by the prefix (each would have been visited
    /// and rejected by the injectivity check): byte-identical to
    /// enumerating.  With domains, a bitmap-routed step and a sidecar row
    /// for every constraint, the count comes straight off the popcount of
    /// the rows' AND; otherwise the candidates are filled into `scratch` and
    /// the used ones counted in O(candidates).  Kernel counters advance
    /// exactly as in [`Self::candidates`].
    ///
    /// `None` — with nothing computed — when a guarantee is missing: an
    /// attached trace sink (which must observe every candidate fill and
    /// consistency check), an unconstrained last position (its candidates
    /// still need the label / domain test of [`Self::is_consistent`]) or a
    /// self-loop.
    pub fn count_leaves(
        &self,
        state: &WorkerState,
        scratch: &mut Vec<NodeId>,
    ) -> Option<LeafCount> {
        let depth = self.num_positions().checked_sub(1)?;
        let step = &self.plan.order.plan.steps[depth];
        if self.sink.is_some() || step.constraints.is_empty() || step.self_loop.is_some() {
            return None;
        }
        if let Some(count) = self.count_bitmap_leaves(depth, step, state) {
            return Some(count);
        }
        self.fill_candidates(depth, state, scratch);
        let states = scratch.len() as u64;
        let used = scratch.iter().filter(|&&v| state.used[v as usize]).count() as u64;
        Some(LeafCount {
            states,
            matches: states - used,
        })
    }

    /// The bitmap half of [`Self::count_leaves`]: the popcount of the AND
    /// of every constraint row and the domain bitset, minus the prefix
    /// targets whose bits survived.  `None` unless the step is routed to
    /// the bitmap kernel, domains exist and the sidecar has every row.
    fn count_bitmap_leaves(
        &self,
        depth: usize,
        step: &PlanStep,
        state: &WorkerState,
    ) -> Option<LeafCount> {
        if step.kernel != KernelChoice::Bitmap {
            return None;
        }
        let domains = self.plan.domains.as_ref()?;
        let maps = self.bitmaps.as_deref()?;
        let words = maps.words_per_row();
        if words == 0 {
            return None;
        }
        for c in &step.constraints {
            self.constraint_row(maps, c, state)?;
        }
        let vp = self.plan.order.positions[depth];
        let count = BITMAP_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            scratch.resize(words, 0u64);
            let mut first = true;
            for c in &step.constraints {
                let row = self
                    .constraint_row(maps, c, state)
                    .expect("row presence checked above");
                if first {
                    scratch.copy_from_slice(row);
                    first = false;
                } else {
                    kernels::and_rows(&mut scratch, row);
                }
            }
            kernels::and_rows(&mut scratch, domains.set(vp).words());
            let states: u64 = scratch.iter().map(|w| u64::from(w.count_ones())).sum();
            let used = state.mapping[..depth]
                .iter()
                .filter(|&&vt| scratch[vt as usize / 64] >> (vt % 64) & 1 == 1)
                .count() as u64;
            LeafCount {
                states,
                matches: states - used,
            }
        });
        let mut local = state.kernels.get();
        local.bitmap += step.constraints.len() as u64;
        state.kernels.set(local);
        Some(count)
    }

    /// Full consistency check for mapping the pattern node at `depth` onto
    /// `vt`, given the already-assigned prefix in `state`.
    ///
    /// Checks are ordered cheap → expensive, as in RI: injectivity, label (or
    /// domain membership), degrees (plain RI only) and the self-loop when the
    /// pattern node carries one.  Edges back into the mapped prefix need no
    /// check: [`Self::candidates`] intersects their adjacency lists, so every
    /// constrained candidate satisfies them by construction.
    pub fn is_consistent(&self, depth: usize, vt: NodeId, state: &WorkerState) -> bool {
        if let Some(sink) = &self.sink {
            sink.record_state(depth);
        }
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

    /// The captured query plan (order, domains, cost estimates).
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// `true` when preprocessing already proved there are no matches.
    pub fn impossible(&self) -> bool {
        self.plan.impossible
    }
}

/// Mutable per-worker search state: the partial mapping (indexed by ordered
/// position), the injectivity flags over target nodes and the kernel
/// counters of the candidate fills it drove since its last
/// [`SearchContext::flush_kernels`].
#[derive(Clone, Debug)]
pub struct WorkerState {
    mapping: Vec<NodeId>,
    used: Vec<bool>,
    kernels: Cell<KernelUsage>,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::Algorithm;
    use sge_graph::{generators, GraphBuilder};

    #[test]
    fn candidates_from_parent_neighborhood() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::star(3, 0, 0); // center 0 -> leaves 1,2,3
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::Ri);
        let mut state = ctx.new_state();

        let mut roots = Vec::new();
        ctx.candidates(0, &state, &mut roots);
        assert_eq!(
            roots.len(),
            target.num_nodes(),
            "RI roots = all target nodes"
        );

        // Map the first pattern node onto the star center and check the child
        // candidates are exactly the center's out-neighbors.
        let first = ctx.order().positions[0];
        assert!(ctx.is_consistent(0, 0, &state));
        state.assign(0, 0);
        let mut children = Vec::new();
        ctx.candidates(1, &state, &mut children);
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
        let mut cands = Vec::new();
        ctx.candidates(0, &state, &mut cands);
        for &c0 in &cands {
            if !ctx.is_consistent(0, c0, &state) {
                continue;
            }
            state.assign(0, c0);
            let mut inner = Vec::new();
            ctx.candidates(1, &state, &mut inner);
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
        let state = ctx.new_state();
        let mut cands = Vec::new();
        ctx.candidates(0, &state, &mut cands);
        let vp0 = ctx.order().positions[0];
        let expected = if pattern.label(vp0) == 1 { 1 } else { 2 };
        assert_eq!(cands.len(), expected);
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
        assert_eq!(ctx.plan().cost.positions.len(), 3);
        let parts = PreparedParts::extract(&ctx);
        assert_eq!(parts.strategy(), Strategy::DegreeDescending);
        assert_eq!(parts.plan().num_positions(), 3);
        let rebuilt = parts.context(&pattern, &target);
        assert_eq!(rebuilt.order().positions, ctx.order().positions);
        assert_eq!(rebuilt.strategy(), Strategy::DegreeDescending);
    }
}
