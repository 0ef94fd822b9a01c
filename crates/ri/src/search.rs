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
//! consistency checks).  [`SearchContext::prepare`] plans and prepares in
//! one call; [`SearchContext::from_plan`] wraps a plan the caller built.
//!
//! A context is read-only prepared data, shared by every worker of every
//! run: it records nothing.  [`WorkerState`] is the per-worker mutable
//! part: the partial mapping `M` (target node per ordered position), the
//! injectivity flags, the worker's kernel counters and its candidate memo.
//! In the parallel runtime it is private to a worker and *never copied for
//! private tasks*; only when a task is stolen does the prefix of `M` travel
//! to the thief (Section 3 of the paper).  Whoever drives a state reads its
//! counters ([`WorkerState::kernel_usage`]) when it retires it.
//!
//! A context compiles each step's constraints once, at preparation, into
//! the *probes* its candidate lists intersect: one adjacency list (or
//! bitmap row) of a constraint parent's image per probe.  On a target that
//! stores an undirected graph as symmetric directed pairs
//! ([`Graph::is_symmetric`]) every pattern edge yields an out-constraint
//! and an in-constraint on the same parent, and the parent's in-list is
//! its out-list.  There an in-constraint reads the out-list, and twins with
//! the same parent and label are one probe, so an undirected pattern edge
//! is intersected once, as RI checks it.  On any other target the probes
//! are the plan's constraints.  The plan itself keeps every back-edge.
//!
//! The memo keeps, per position, the last candidate list the worker
//! requested and the images of the step's probe parents it was built
//! from.  A list depends on nothing else but the static plan, so
//! [`SearchContext::candidates`] rebuilds it only when one of those images
//! changed: on near-tree patterns a position's constraints usually read an
//! image fixed many levels up, and most requests are answered from the
//! memo.

use crate::kernels::{self, GallopRoute, KernelUsage};
use crate::suffix;
use sge_graph::{AdjacencyBitmaps, BitmapConfig, EdgeRef, Graph, NodeId};
use sge_plan::ordering::{MatchOrder, PlanStep, PrefilterSpec};
use sge_plan::{Algorithm, Domains, EdgeConstraint, QueryPlan};
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// Per-thread word buffer for the bitmap kernel's row AND accumulation.
    /// Thread-local so parallel workers sharing one [`SearchContext`] never
    /// contend, and reused across candidate fills so the hot path does not
    /// allocate.
    static BITMAP_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Read-only description of one enumeration instance: pattern, target and
/// the [`QueryPlan`] being executed (ordering, domains) with its probes.
///
/// The plan and its probes are held behind one [`Arc`] so that prepared
/// instances can be rebuilt against long-lived owned graphs (see
/// [`PreparedParts`]) without re-running or copying preprocessing.
pub struct SearchContext<'a> {
    pattern: &'a Graph,
    target: &'a Graph,
    compiled: Arc<Compiled>,
    /// Optional dense-adjacency bitmap sidecar of the target.  Its rows
    /// decide where the bitmap AND runs and its signatures drive the
    /// candidate prefilter of plans without domains; when absent every step
    /// intersects CSR lists and no candidates are prefiltered.
    bitmaps: Option<Arc<AdjacencyBitmaps>>,
}

/// What a preparation compiles once and every context rebuilt from it
/// shares: the plan, each step's probes and the suffix start.
struct Compiled {
    plan: QueryPlan,
    /// Per position, the adjacencies its candidate list intersects
    /// ([`compile_probes`]).
    probes: Vec<Vec<EdgeConstraint>>,
    /// The first position of the order's independent suffix
    /// ([`SearchContext::counted_from`]).
    counted_from: usize,
}

/// The probes of every step of `order` on a target that is `symmetric` or
/// not: on a symmetric target an in-constraint reads the parent's out-list
/// (its in-list, entry for entry), and constraints that then coincide, the
/// twins of one undirected pattern edge, are one probe.  On any other
/// target the probes are the step's constraints.
fn compile_probes(order: &MatchOrder, symmetric: bool) -> Vec<Vec<EdgeConstraint>> {
    let compile = |step: &PlanStep| {
        let mut probes: Vec<EdgeConstraint> = Vec::with_capacity(step.constraints.len());
        for &c in &step.constraints {
            let probe = match symmetric {
                true => EdgeConstraint {
                    out_from_parent: true,
                    ..c
                },
                false => c,
            };
            if !probes.contains(&probe) {
                probes.push(probe);
            }
        }
        probes
    };
    order.plan.steps.iter().map(compile).collect()
}

impl<'a> SearchContext<'a> {
    /// Runs the preprocessing phase of `algorithm` (domain computation, forward
    /// checking, node ordering) and returns a ready-to-search context.
    pub fn prepare(pattern: &'a Graph, target: &'a Graph, algorithm: Algorithm) -> Self {
        let plan = QueryPlan::new(pattern, target, algorithm);
        let mut ctx = Self::from_plan(pattern, target, plan);
        ctx.ensure_bitmaps();
        ctx
    }

    /// [`Self::prepare`] with an explicitly supplied bitmap sidecar — the
    /// serving path, where the registry builds the sidecar once per
    /// long-lived target.
    ///
    /// The context attaches `bitmaps` as given, even when it is row-less
    /// (no neighborhood earned a row, or the registry hit its memory cap):
    /// its signatures still drive the prefilter, and every step intersects
    /// CSR lists.
    pub fn prepare_planned_full(
        pattern: &'a Graph,
        target: &'a Graph,
        bitmaps: Arc<AdjacencyBitmaps>,
        algorithm: Algorithm,
    ) -> Self {
        let plan = QueryPlan::new(pattern, target, algorithm);
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
        let compiled = Compiled {
            probes: compile_probes(&plan.order, target.is_symmetric()),
            counted_from: suffix::counted_from(&plan.order),
            plan,
        };
        SearchContext {
            pattern,
            target,
            compiled: Arc::new(compiled),
            bitmaps: None,
        }
    }

    /// Attaches (or detaches, with `None`) a target bitmap sidecar.
    ///
    /// The sidecar must describe this context's target graph.  A step ANDs
    /// rows only where the sidecar holds one for each of its constraints
    /// and intersects CSR lists otherwise, so detaching is always safe.
    pub fn set_bitmaps(&mut self, bitmaps: Option<Arc<AdjacencyBitmaps>>) {
        self.bitmaps = bitmaps;
    }

    /// The attached bitmap sidecar, if any.
    pub fn bitmaps(&self) -> Option<&Arc<AdjacencyBitmaps>> {
        self.bitmaps.as_ref()
    }

    /// Builds and attaches the default sidecar when no sidecar is attached
    /// yet and the default one holds a row
    /// ([`AdjacencyBitmaps::build_if_any_row`]).  One-shot enumeration pays
    /// the build during its preprocessing phase; serving callers attach the
    /// registry's shared sidecar instead (see [`Self::prepare_planned_full`]).
    pub fn ensure_bitmaps(&mut self) {
        if self.bitmaps.is_none() {
            let config = BitmapConfig::default();
            self.bitmaps = AdjacencyBitmaps::build_if_any_row(self.target, &config).map(Arc::new);
        }
    }

    /// The pattern graph.
    pub fn pattern(&self) -> &Graph {
        self.pattern
    }

    /// The algorithm variant this context was prepared for.
    pub fn algorithm(&self) -> Algorithm {
        self.plan().algorithm
    }

    /// The target graph.
    pub fn target(&self) -> &Graph {
        self.target
    }

    /// The full query plan this context executes.
    #[inline]
    pub fn plan(&self) -> &QueryPlan {
        &self.compiled.plan
    }

    /// The static node ordering.
    pub fn order(&self) -> &MatchOrder {
        &self.plan().order
    }

    /// The domains, when the algorithm uses them.
    #[inline]
    pub fn domains(&self) -> Option<&Domains> {
        self.plan().domains.as_deref()
    }

    /// Number of positions to fill (= pattern nodes).
    pub fn num_positions(&self) -> usize {
        self.plan().order.len()
    }

    /// The probes position `depth`'s candidate list intersects: its
    /// constraints, read through out-lists with twins merged on a symmetric
    /// target (see the module doc).
    #[inline]
    pub(crate) fn probes(&self, depth: usize) -> &[EdgeConstraint] {
        &self.compiled.probes[depth]
    }

    /// The first position of the order's independent suffix: every position
    /// from it on is constrained, carries no self-loop and reads all its
    /// constraint parents before it, so below a mapped prefix only
    /// injectivity couples their choices and [`Self::count_rest`] counts
    /// them.  At most 64 positions long; [`Self::num_positions`] when the
    /// last position does not qualify.
    pub fn counted_from(&self) -> usize {
        self.compiled.counted_from
    }

    /// `true` when preprocessing proved there are no matches; the search can be
    /// skipped entirely.
    pub fn impossible(&self) -> bool {
        self.plan().impossible || self.pattern.num_nodes() > self.target.num_nodes()
    }

    /// Creates a fresh per-worker state, with an empty candidate memo.  A
    /// state belongs to the context that created it: its memo holds lists
    /// built from this context's plan and sidecar.
    pub fn new_state(&self) -> WorkerState {
        let mut keys = 0;
        let memo = self
            .compiled
            .probes
            .iter()
            .map(|probes| {
                let key_at = keys;
                keys += probes.len();
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
            kernels: KernelUsage::default(),
            memo,
            keys: vec![NodeId::MAX; keys],
            classes: Vec::new(),
        }
    }

    /// Raw candidate target nodes for position `depth`, given the current
    /// partial state (all referenced parents' images must already be assigned).
    ///
    /// * positions with ordered neighbors: the sorted intersection of the
    ///   adjacency lists of *every* already-mapped pattern neighbor, one per
    ///   probe (starting from the smallest list, galloping through the
    ///   others), filtered through the RI-DS domain bitset,
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
    /// counts in the state's [`KernelUsage::lists`].
    #[inline]
    pub fn candidates<'s>(&self, depth: usize, state: &'s mut WorkerState) -> &'s [NodeId] {
        self.refresh(depth, state);
        &state.memo[depth].list
    }

    /// The consistent members of the list the last request for `depth`
    /// returned.
    pub(crate) fn consistent_candidates<'s>(
        &'s self,
        depth: usize,
        state: &'s WorkerState,
    ) -> impl Iterator<Item = NodeId> + 's {
        let list = state.last_candidates(depth).iter().copied();
        list.filter(move |&vt| self.is_consistent(depth, vt, state))
    }

    /// Answers one request for `depth`'s list from `state`'s memo,
    /// counting it in the state's kernel counters.
    #[inline]
    pub(crate) fn refresh(&self, depth: usize, state: &mut WorkerState) {
        let held = self.update_memo(depth, state);
        state.kernels.lists += 1;
        state.kernels.reused += u64::from(held);
    }

    /// Brings `state`'s memo entry for `depth` up to date: keeps it when
    /// every probe parent's image equals the key it was built from,
    /// rebuilds it otherwise, counting the kernel work in the state's
    /// counters.  Returns `true` when the entry was kept.
    #[inline]
    pub(crate) fn update_memo(&self, depth: usize, state: &mut WorkerState) -> bool {
        let probes = self.probes(depth);
        let WorkerState {
            mapping,
            kernels,
            memo,
            keys,
            ..
        } = state;
        let entry = &mut memo[depth];
        let key = &mut keys[entry.key_at..entry.key_at + probes.len()];
        let images = probes.iter().map(|c| mapping[c.parent_pos]);
        if entry.built && images.clone().eq(key.iter().copied()) {
            return true;
        }
        for (slot, image) in key.iter_mut().zip(images) {
            *slot = image;
        }
        entry.built = true;
        self.fill_candidates(depth, mapping, &mut entry.list, kernels);
        false
    }

    fn fill_candidates(
        &self,
        depth: usize,
        mapping: &[NodeId],
        out: &mut Vec<NodeId>,
        local: &mut KernelUsage,
    ) {
        out.clear();
        let plan = self.plan();
        let (step, probes) = (&plan.order.plan.steps[depth], self.probes(depth));
        let vp = plan.order.positions[depth];
        if probes.is_empty() {
            match &plan.domains {
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
            self.intersect_candidates(vp, step, probes, mapping, out, local);
        }
    }

    /// The prefilter to apply at a position: present only for plans without
    /// domains, when a sidecar is attached (signatures live there) and the
    /// spec can reject anything.  Arc-consistent domains already imply the
    /// spec: a domain member passed the same degree minimums, and it has a
    /// supporting edge, of the pattern edge's label into a node of the
    /// neighbor's label, for every pattern edge, which sets every required
    /// signature bit.
    #[inline]
    fn active_prefilter<'s>(
        &'s self,
        step: &'s PlanStep,
    ) -> Option<(&'s AdjacencyBitmaps, &'s PrefilterSpec)> {
        if self.plan().domains.is_some() || step.prefilter.is_trivial() {
            return None;
        }
        let maps = self.bitmaps.as_deref()?;
        Some((maps, &step.prefilter))
    }

    /// The adjacency list a probe selects for the current mapping.
    #[inline]
    fn constraint_adjacency(&self, c: &EdgeConstraint, mapping: &[NodeId]) -> &[EdgeRef] {
        let image = mapping[c.parent_pos];
        debug_assert_ne!(image, NodeId::MAX, "constraint parent must be assigned");
        if c.out_from_parent {
            self.target.out_edges(image)
        } else {
            self.target.in_edges(image)
        }
    }

    /// Multi-parent candidate generation over a step's `probes`.
    ///
    /// The bitmap path ANDs the probes' rows of the target's sidecar
    /// word-by-word (plus the domain bitset) and runs exactly when every
    /// probe's image has a row; otherwise the CSR path seeds `out` from
    /// the smallest adjacency list among the probes (filtered by edge
    /// label, domain / node-label membership and the prefilter), then
    /// intersects with each remaining list through
    /// [`kernels::intersect_gallop`].  Both paths produce byte-identical
    /// candidate sets (the oracle matrix walks both against a scalar
    /// reference that reads the plan's constraints).
    fn intersect_candidates(
        &self,
        vp: NodeId,
        step: &PlanStep,
        probes: &[EdgeConstraint],
        mapping: &[NodeId],
        out: &mut Vec<NodeId>,
        local: &mut KernelUsage,
    ) {
        if self.bitmap_candidates(vp, step, probes, mapping, out, local) {
            return;
        }
        // Seed from the smallest adjacency list (smallest-degree-first); every
        // adjacency list is sorted by node id, so the buffer stays sorted
        // through all intersections.
        let mut seed = 0;
        let mut seed_len = usize::MAX;
        for (i, c) in probes.iter().enumerate() {
            let len = self.constraint_adjacency(c, mapping).len();
            if len < seed_len {
                seed_len = len;
                seed = i;
            }
        }
        // The seed fill also applies the domain (or node-label) filter and
        // the prefilter, so later intersections gallop over the smallest
        // possible buffer and `is_consistent` need not re-test membership.
        let c0 = &probes[seed];
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
        match &self.plan().domains {
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
        for (i, c) in probes.iter().enumerate() {
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

    /// The bitmap row a probe selects for the current mapping, if built.
    #[inline]
    fn constraint_row<'m>(
        &self,
        maps: &'m AdjacencyBitmaps,
        c: &EdgeConstraint,
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
    /// probe's sidecar row and the domain bitset, then a single pass over
    /// the set bits (label check and prefilter when domains are absent).
    /// Returns `false` — leaving `out` empty — when the sidecar or any row
    /// is missing, in which case the caller gallops over CSR.
    fn bitmap_candidates(
        &self,
        vp: NodeId,
        step: &PlanStep,
        probes: &[EdgeConstraint],
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
        // Every probe needs a row; lookups are cheap binary searches, so
        // verify all of them before touching the scratch buffer.
        for c in probes {
            if self.constraint_row(maps, c, mapping).is_none() {
                return false;
            }
        }
        BITMAP_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            scratch.resize(words, 0u64);
            let mut first = true;
            for c in probes {
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
            if let Some(domains) = self.domains() {
                kernels::and_rows(&mut scratch, domains.set(vp).words());
            }
            let check_label = self.domains().is_none();
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
        let plan = self.plan();
        let vp = plan.order.positions[depth];
        if state.used[vt as usize] {
            return false;
        }
        let step = &plan.order.plan.steps[depth];
        // Constrained candidates were already pushed through the domain /
        // node-label filter by `candidates`; only parentless positions need
        // the test.
        if step.constraints.is_empty() {
            match &plan.domains {
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
        if plan.check_degrees
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
            let vp = self.plan().order.positions[pos];
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
/// [`QueryPlan`] with its probes and the bitmap sidecar, each shared, not
/// copied, so a caller that *owns* the graphs can rebuild an equivalent
/// context at any time without re-running preprocessing:
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
    compiled: Arc<Compiled>,
    bitmaps: Option<Arc<AdjacencyBitmaps>>,
}

impl PreparedParts {
    /// Captures the prepared artifacts of `ctx`: the plan with its probes
    /// and the bitmap sidecar, both shared via [`Arc`].
    pub fn extract(ctx: &SearchContext<'_>) -> Self {
        PreparedParts {
            compiled: Arc::clone(&ctx.compiled),
            bitmaps: ctx.bitmaps.clone(),
        }
    }

    /// Rebuilds a ready-to-search context against `pattern` and `target`,
    /// copying nothing but two [`Arc`]s.
    ///
    /// The graphs must be the ones this instance was prepared from (or
    /// structurally identical copies); the ordering, domains and probes
    /// reference their node ids directly.
    pub fn context<'a>(&self, pattern: &'a Graph, target: &'a Graph) -> SearchContext<'a> {
        SearchContext {
            pattern,
            target,
            compiled: Arc::clone(&self.compiled),
            bitmaps: self.bitmaps.clone(),
        }
    }

    /// The captured bitmap sidecar, if one was attached at preparation time.
    pub fn bitmaps(&self) -> Option<&Arc<AdjacencyBitmaps>> {
        self.bitmaps.as_ref()
    }

    /// The algorithm these parts were prepared for.
    pub fn algorithm(&self) -> Algorithm {
        self.plan().algorithm
    }

    /// The captured query plan (order, domains).
    pub fn plan(&self) -> &QueryPlan {
        &self.compiled.plan
    }

    /// The first position of the plan's independent suffix
    /// ([`SearchContext::counted_from`]).
    pub fn counted_from(&self) -> usize {
        self.compiled.counted_from
    }

    /// `true` when preprocessing already proved there are no matches.
    pub fn impossible(&self) -> bool {
        self.plan().impossible
    }
}

/// Mutable per-worker search state: the partial mapping (indexed by ordered
/// position), the injectivity flags over target nodes, the kernel counters
/// of every candidate request it drove, and its candidate memo.
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub struct WorkerState {
    mapping: Vec<NodeId>,
    pub(crate) used: Vec<bool>,
    pub(crate) kernels: KernelUsage,
    /// One entry per position: the last candidate list built for it.
    pub(crate) memo: Vec<MemoEntry>,
    /// Every entry's key back to back: the images of its step's probe
    /// parents, one per probe, that its list was built from.
    keys: Vec<NodeId>,
    /// The suffix count's class scratch: it grows on the first class walk
    /// and is empty between counts.
    pub(crate) classes: Vec<(u64, u64)>,
}

/// One position's memoized candidate list.
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct MemoEntry {
    pub(crate) list: Vec<NodeId>,
    /// Where this position's key starts in [`WorkerState::keys`].
    key_at: usize,
    /// Whether `list` was ever built; until then the key means nothing.
    pub(crate) built: bool,
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

    /// The list the last [`SearchContext::candidates`] request for `depth`
    /// returned.  Assigning `depth` and requesting deeper positions leave
    /// it untouched, so a depth-first loop can index it while it recurses.
    #[inline]
    pub fn last_candidates(&self, depth: usize) -> &[NodeId] {
        &self.memo[depth].list
    }

    /// The kernel counters of every candidate request this state drove,
    /// counted levels included.
    pub fn kernel_usage(&self) -> KernelUsage {
        self.kernels
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
        let usage = state.kernel_usage();
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

    /// Requests every list of the tree below `depth` from both contexts
    /// in the same order, asserting the lists are equal.
    fn lockstep(ctxs: [&SearchContext<'_>; 2], depth: usize, states: &mut [WorkerState; 2]) {
        let list = ctxs[0].candidates(depth, &mut states[0]).to_vec();
        assert_eq!(
            ctxs[1].candidates(depth, &mut states[1]),
            list,
            "depth {depth}"
        );
        for vt in list {
            if depth + 1 < ctxs[0].num_positions() && ctxs[0].is_consistent(depth, vt, &states[0]) {
                states.iter_mut().for_each(|s| s.assign(depth, vt));
                lockstep(ctxs, depth + 1, states);
                states.iter_mut().for_each(|s| s.unassign(depth));
            }
        }
    }

    #[test]
    fn a_symmetric_target_reads_each_undirected_edge_once() {
        // A 4x4 grid with one node of another label joined to the inner
        // node 5: as an undirected edge, and in a copy as `x -> 5` alone,
        // which no label-0 list can hold and no degree bound of the
        // patterns notices.  Every list of a path and a star is built from
        // one parent, so the symmetric target intersects nothing; the copy
        // intersects each parent's out-list with its in-list, to the same
        // lists.
        let with_spur = |both_ways: bool| {
            let grid = generators::grid(4, 4);
            let mut b = GraphBuilder::new();
            b.add_nodes(grid.num_nodes(), 0);
            for (u, v, l) in grid.edges() {
                b.add_edge(u, v, l);
            }
            let x = b.add_node(1);
            b.add_edge(x, 5, 0);
            if both_ways {
                b.add_edge(5, x, 0);
            }
            b.build()
        };
        let (symmetric, copy) = (with_spur(true), with_spur(false));
        assert!(symmetric.is_symmetric() && !copy.is_symmetric());
        let mut sb = GraphBuilder::new();
        sb.add_nodes(4, 0);
        for leaf in 1..4 {
            sb.add_undirected_edge(0, leaf, 0);
        }
        for pattern in [generators::undirected_path(4, 0), sb.build()] {
            for algorithm in Algorithm::ALL {
                let ctxs =
                    [&symmetric, &copy].map(|t| SearchContext::prepare(&pattern, t, algorithm));
                assert_eq!(ctxs[0].order(), ctxs[1].order(), "{algorithm}");
                let mut states = [ctxs[0].new_state(), ctxs[1].new_state()];
                lockstep([&ctxs[0], &ctxs[1]], 0, &mut states);
                let [plain, twinned] = states.map(|s| s.kernel_usage());
                assert_eq!(plain.intersections() + plain.bitmap, 0, "{algorithm}");
                assert!(twinned.intersections() > 0, "{algorithm}");
                let lists = |u: KernelUsage| (u.lists, u.reused);
                assert_eq!(lists(plain), lists(twinned), "{algorithm}");
            }
        }
    }

    #[test]
    fn domain_members_pass_the_prefilter() {
        // Arc-consistent domains imply every step's prefilter, so a plan
        // with domains runs none: on seeded random instances every domain
        // member passes its position's spec against the target's
        // signatures.
        let mut rng = sge_util::SplitMix64::new(0x00F1_17E2);
        for round in 0..300 {
            let nt = 2 + rng.next_below(30);
            let labels = 1 + rng.next_below(3);
            let mut tb = GraphBuilder::new();
            for _ in 0..nt {
                tb.add_node(rng.next_below(labels) as u32);
            }
            for _ in 0..rng.next_below(4 * nt) {
                let (u, v) = (rng.next_below(nt), rng.next_below(nt));
                tb.add_edge(u as NodeId, v as NodeId, rng.next_below(3) as u32);
            }
            let target = tb.build();
            let mut pb = GraphBuilder::new();
            let np = 1 + rng.next_below(6);
            for _ in 0..np {
                pb.add_node(rng.next_below(labels) as u32);
            }
            for _ in 0..rng.next_below(2 * np + 1) {
                let (u, v) = (rng.next_below(np), rng.next_below(np));
                pb.add_edge(u as NodeId, v as NodeId, rng.next_below(3) as u32);
            }
            let pattern = pb.build();
            let maps = AdjacencyBitmaps::every_row(&target);
            for algorithm in [Algorithm::RiDs, Algorithm::RiDsSi, Algorithm::RiDsSiFc] {
                let plan = QueryPlan::new(&pattern, &target, algorithm);
                let domains = plan.domains.as_deref().expect("the algorithm has domains");
                for (step, &vp) in plan.order.plan.steps.iter().zip(&plan.order.positions) {
                    for vt in domains.set(vp).iter() {
                        assert!(
                            prefilter_pass(&maps, &step.prefilter, &target, vt as NodeId),
                            "round {round}, {algorithm}: {vt} in D({vp})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_parts_carry_the_plan() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(4, 0);
        let ctx = SearchContext::prepare(&pattern, &target, Algorithm::RiDs);
        assert_eq!(ctx.plan().num_positions(), 3);
        let parts = PreparedParts::extract(&ctx);
        assert_eq!(parts.algorithm(), Algorithm::RiDs);
        assert_eq!(parts.plan().num_positions(), 3);
        let rebuilt = parts.context(&pattern, &target);
        assert_eq!(rebuilt.order().positions, ctx.order().positions);
        assert_eq!(rebuilt.algorithm(), Algorithm::RiDs);
    }
}
