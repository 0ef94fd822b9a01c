//! Runs one cell on one instance and diffs it against the VF2 oracle, the
//! plan's complete-run reference and the delivery's own contract.

use crate::cells::{Cell, Delivery, Kernel, Limit};
use crate::instances::Instance;
use sge::graph::io::write_graph;
use sge::graph::{AdjacencyBitmaps, BitmapConfig, Graph, GraphBuilder, GraphStats, NodeId};
use sge::obs::TraceSink;
use sge::prelude::*;
use sge::ri::{check_kernel_parity, KernelUsage, PlanStep};
use sge::ri::{SearchContext, WorkerState};
use sge::service::{StreamHeader, StreamSink};
use sge::util::SplitMix64 as Rng;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Returns `Err(message)` from the enclosing function unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

type Check<T = ()> = Result<T, String>;
type PlanKey = (Algorithm, Strategy, Kernel);
type Rows = Vec<Vec<NodeId>>;
type Positions = (Vec<u64>, Vec<u64>);

/// `Err` naming `what` unless `got == want`.
fn same<T: PartialEq + Debug>(what: &str, got: T, want: T) -> Check {
    match got == want {
        true => Ok(()),
        false => Err(format!("{what}: {got:?}, expected {want:?}")),
    }
}

/// What a plan's complete sequential run observed.
#[derive(Clone)]
struct Reference {
    states: u64,
    /// Candidates and states per position.
    positions: Positions,
    kernels: KernelUsage,
    /// The empty pattern, or a plan preprocessing proved impossible: the
    /// run ends before any deadline matters.
    degenerate: bool,
}

/// What one delivery handed back.
struct Observed {
    outcome: EnumerationOutcome,
    /// The pinned scheduler; `None` when routing picked it.
    pinned: Option<Scheduler>,
    /// Sorted rows, for deliveries that return them.
    rows: Option<Rows>,
    /// The most rows the delivery hands over (a collection's capacity);
    /// `None` when the consumer stopped taking them.
    row_cap: Option<u64>,
    positions: Option<Positions>,
    /// The delivery's cancel flag.
    cancelled: bool,
}

impl Observed {
    fn new(outcome: EnumerationOutcome, pinned: Option<Scheduler>) -> Self {
        let (rows, row_cap, positions) = (None, Some(u64::MAX), None);
        let cancelled = outcome.cancelled;
        Observed {
            outcome,
            pinned,
            rows,
            row_cap,
            positions,
            cancelled,
        }
    }
}

/// One instance with its oracle answer and, built on first use, its
/// engines, complete-run references and service.
pub struct Subject<'a> {
    instance: &'a Instance,
    pattern: Arc<Graph>,
    target: Arc<Graph>,
    oracle: Rows,
    stats: GraphStats,
    sidecars: HashMap<Kernel, Arc<AdjacencyBitmaps>>,
    one_shot: RefCell<HashMap<PlanKey, Arc<Engine<'a>>>>,
    prepared: RefCell<HashMap<PlanKey, Arc<PreparedEngine>>>,
    references: RefCell<HashMap<PlanKey, Check<Reference>>>,
    service: OnceCell<Service>,
}

impl<'a> Subject<'a> {
    pub fn new(instance: &'a Instance) -> Self {
        let (pattern, target) = (&instance.pattern, &instance.target);
        let sidecar = |k| (k, Arc::new(sidecar(target, k)));
        let sidecars = [Kernel::Default, Kernel::RowsPresent, Kernel::Capped];
        Subject {
            instance,
            pattern: Arc::new(pattern.clone()),
            target: Arc::new(target.clone()),
            oracle: sge::vf2::collect_mappings(pattern, target),
            stats: GraphStats::of(target),
            sidecars: sidecars.map(sidecar).into(),
            one_shot: RefCell::default(),
            prepared: RefCell::default(),
            references: RefCell::default(),
            service: OnceCell::new(),
        }
    }

    fn total(&self) -> u64 {
        self.oracle.len() as u64
    }

    /// Runs `cell` with the parameters `cell_seed` draws; a panic anywhere
    /// in the stack fails the cell like a broken check.
    pub fn check(&self, cell: Cell, cell_seed: u64) -> Check {
        let run = std::panic::AssertUnwindSafe(|| self.run(cell, cell_seed));
        std::panic::catch_unwind(run).unwrap_or_else(|panic| {
            let text = panic.downcast_ref::<&str>().map(|s| s.to_string());
            let text = text.or_else(|| panic.downcast_ref::<String>().cloned());
            Err(format!("panicked: {}", text.unwrap_or_default()))
        })
    }

    fn run(&self, cell: Cell, cell_seed: u64) -> Check {
        if cell.delivery == Delivery::Driver {
            return self.drive_forced(cell);
        }
        let reference = self.reference((cell.algorithm, cell.strategy, cell.kernel))?;
        let mut rng = Rng::new(cell_seed);
        let scheduler = cell.sched.draw(&mut rng);
        let mut config = RunConfig::new(scheduler);
        config.seed = rng.next_u64();
        let (total, budgets) = (self.total(), &self.instance.budgets);
        config.max_matches = cell.limit.max_matches(total, budgets, &mut rng);
        config.time_limit = cell.limit.time_limit();
        let seen = match cell.is_service() {
            true => self.serve(cell, config, &mut rng)?,
            false => self.enumerate(cell, config, &mut rng)?,
        };
        self.verify(cell, &config, &reference, &seen)
    }

    /// Runs `f` on the engine of `key`: a cached one-shot engine or a view
    /// of the owned prepared one.  Attaching a sink takes a fresh engine,
    /// so a one-shot plan prepares again.
    fn with_engine<R>(
        &self,
        key: PlanKey,
        sink: Option<Arc<TraceSink>>,
        f: impl FnOnce(&Engine) -> R,
    ) -> R {
        let (algorithm, strategy, kernel) = key;
        let (pattern, target) = (&self.instance.pattern, &self.instance.target);
        let one_shot = || Engine::prepare_planned(pattern, target, algorithm, strategy);
        match (kernel, sink) {
            (Kernel::OneShot, None) => {
                let mut cache = self.one_shot.borrow_mut();
                let engine = cache.entry(key).or_insert_with(|| Arc::new(one_shot()));
                let engine = Arc::clone(engine);
                drop(cache);
                f(&engine)
            }
            (Kernel::OneShot, Some(sink)) => f(&one_shot().with_trace_sink(sink)),
            (_, sink) => {
                let prepared = self.prepared(key);
                let engine = prepared.engine();
                f(&match sink {
                    Some(sink) => engine.with_trace_sink(sink),
                    None => engine,
                })
            }
        }
    }

    fn prepared(&self, key: PlanKey) -> Arc<PreparedEngine> {
        let (algorithm, strategy, kernel) = key;
        let mut prepared = self.prepared.borrow_mut();
        Arc::clone(prepared.entry(key).or_insert_with(|| {
            let (p, t) = (Arc::clone(&self.pattern), Arc::clone(&self.target));
            let (stats, sidecar) = (Some(&self.stats), Arc::clone(&self.sidecars[&kernel]));
            let engine =
                PreparedEngine::prepare_planned_full(p, t, stats, sidecar, algorithm, strategy);
            Arc::new(engine)
        }))
    }

    fn reference(&self, key: PlanKey) -> Check<Reference> {
        if let Some(known) = self.references.borrow().get(&key) {
            return known.clone();
        }
        let computed = self.compute_reference(key);
        self.references.borrow_mut().insert(key, computed.clone());
        computed
    }

    /// The plan's complete sequential run with a trace sink, checked against
    /// VF2, the plan's metadata, the kernel the variant must run, the tree
    /// the default sidecar explores, and preprocessing's verdict.
    fn compute_reference(&self, key: PlanKey) -> Check<Reference> {
        let (algorithm, strategy, kernel) = key;
        let (total, nodes) = (self.total(), self.pattern.num_nodes());
        let sink = Arc::new(TraceSink::new(nodes));
        let ran = self.with_engine(key, Some(Arc::clone(&sink)), |engine| {
            let plan = engine.plan();
            let bitmaps = engine.context().bitmaps().map(|b| &**b);
            let expected = self.bitmap_expectation(plan, bitmaps);
            let metadata = (plan.algorithm, plan.strategy, plan.num_positions());
            let facts = (expected, bitmaps.is_some(), engine.impossible());
            (engine.run(&RunConfig::default()), metadata, facts)
        });
        let (outcome, metadata, (bitmap, sidecar, impossible)) = ran;
        same("plan", metadata, (algorithm, strategy, nodes))?;
        same("reference matches", outcome.matches, total)?;
        let stops = (outcome.timed_out, outcome.limit_hit, outcome.cancelled);
        same("reference stops", stops, (false, false, false))?;
        same("sink states", sink.states_total(), outcome.states)?;
        check_bitmap(kernel, bitmap, &outcome.kernels)?;
        // A pattern larger than its target, or under domains a label no
        // target node has, is impossible; nothing impossible has a match.
        let (labels, pattern) = (self.target.node_labels(), self.pattern.node_labels());
        let absent = pattern.iter().any(|l| !labels.contains(l));
        let larger = nodes > self.target.num_nodes();
        let must = larger || (absent && algorithm.uses_domains());
        ensure!(impossible || !must, "impossible() missed it");
        ensure!(!impossible || total == 0, "impossible() with matches");
        let positions = (sink.candidates_per_position(), sink.states_per_position());
        let (states, kernels, degenerate) = (outcome.states, outcome.kernels, nodes == 0);
        let degenerate = degenerate || impossible;
        let reference = Reference {
            states,
            positions,
            kernels,
            degenerate,
        };
        // Every sidecar carries the same label signatures, so the prefilter
        // and the whole tree are the same under every kernel.
        if kernel != Kernel::Default && sidecar {
            let default = self.reference((algorithm, strategy, Kernel::Default))?;
            let tree = (states, &reference.positions);
            same(
                "tree under the default sidecar",
                tree,
                (default.states, &default.positions),
            )?;
        }
        // Domains only prune.  Scoped to ri-greedy: the other strategies may
        // order RI and RI-DS differently.
        if algorithm == Algorithm::RiDs && strategy == Strategy::RiGreedy {
            let ri = self.reference((Algorithm::Ri, strategy, kernel))?.states;
            ensure!(states <= ri, "RI-DS: {states} states, RI {ri}");
        }
        Ok(reference)
    }

    fn enumerate(&self, cell: Cell, mut config: RunConfig, rng: &mut Rng) -> Check<Observed> {
        let total = self.total();
        let analyze = cell.delivery == Delivery::Analyze;
        let sink = analyze.then(|| Arc::new(TraceSink::new(self.pattern.num_nodes())));
        let cancel_after = (cell.limit == Limit::Cancel).then(|| 1 + rng.next_below(3));
        // Half the collections stop short of the total.
        let short = 1 + rng.next_below(total as usize + 1) as u64;
        let capacity = if rng.next_bool(0.5) { total + 1 } else { short };
        let key = (cell.algorithm, cell.strategy, cell.kernel);
        self.with_engine(key, sink.clone(), |engine| {
            let (mut rows, mut row_cap) = (None, Some(u64::MAX));
            let mut outcome = match cell.delivery {
                Delivery::Count | Delivery::Analyze => engine.run(&config),
                Delivery::Collect => {
                    config.collect_mappings = capacity as usize;
                    row_cap = Some(capacity);
                    engine.run(&config)
                }
                Delivery::Visitor => {
                    let visitor = RowVisitor(Mutex::new(Vec::new()));
                    let outcome = engine.run_with(&config, &visitor);
                    rows = Some(sorted(visitor.0.into_inner().unwrap()));
                    outcome
                }
                _ => {
                    let mut streamed = Vec::new();
                    let outcome = engine.run_streaming(&config, 1, |row| {
                        streamed.push(row);
                        cancel_after.is_none_or(|k| streamed.len() < k)
                    });
                    if let Some(k) = cancel_after {
                        let seen = streamed.len() as u64;
                        same("rows before the cancel", seen, total.min(k as u64))?;
                        // A worker counts at most one match after the
                        // consumer declined row k (its next claim sees the
                        // cancel), so a run with more matches stops short.
                        let ahead = (k + config.scheduler.workers()) as u64;
                        let stopped = outcome.cancelled && outcome.matches < total;
                        ensure!(total <= ahead || stopped, "no cancel after {k} rows");
                        row_cap = None;
                    }
                    rows = Some(sorted(streamed));
                    outcome
                }
            };
            if cell.delivery == Delivery::Collect {
                rows = Some(std::mem::take(&mut outcome.mappings));
            }
            same("uncollected mappings", outcome.mappings.len(), 0)?;
            let preprocessed = engine.preprocess_seconds();
            same("preprocessing", outcome.preprocess_seconds, preprocessed)?;
            let positions = sink.map(|s| (s.candidates_per_position(), s.states_per_position()));
            let mut seen = Observed::new(outcome, Some(config.scheduler));
            (seen.rows, seen.row_cap, seen.positions) = (rows, row_cap, positions);
            Ok(seen)
        })
    }

    /// A service with the instance's target loaded from `.gfd` text once
    /// per sidecar a load can ask for: the default and the zero-byte cap.
    fn service(&self) -> &Service {
        self.service.get_or_init(|| {
            static FILES: AtomicUsize = AtomicUsize::new(0);
            let service = Service::new(ServiceConfig::default());
            let load = |graph: &Graph, load: &dyn Fn(&std::path::Path)| {
                let n = FILES.fetch_add(1, Ordering::Relaxed);
                let file = format!("sge-oracle-{}-{n}.gfd", std::process::id());
                let path = std::env::temp_dir().join(file);
                std::fs::write(&path, write_graph(graph)).unwrap();
                load(&path);
                std::fs::remove_file(&path).ok();
            };
            // The interner numbers labels in first-seen order: loading the
            // ladder 0..=max first keeps every label its own id, so the
            // service plans exactly what the engine plans.
            let mut ladder = GraphBuilder::new();
            let labels = [self.pattern.node_labels(), self.target.node_labels()];
            for label in 0..=labels.concat().into_iter().max().unwrap_or(0) {
                ladder.add_node(label);
            }
            load(&ladder.build(), &|path| {
                service.registry().load_file("labels", path).unwrap();
            });
            load(&self.target, &|path| {
                service.registry().load_file("Default", path).unwrap();
                service.load_target("Capped", path, Some(0)).unwrap();
            });
            service
        })
    }

    fn serve(&self, cell: Cell, mut config: RunConfig, rng: &mut Rng) -> Check<Observed> {
        let (service, total) = (self.service(), self.total());
        let target = format!("{:?}", cell.kernel);
        let text = write_graph(&self.pattern);
        let (algorithm, strategy) = (cell.algorithm, cell.strategy);
        let spec = |run| {
            QuerySpec::new(&text)
                .with_algorithm(algorithm)
                .with_strategy(strategy)
                .with_run(run)
        };
        let failed = |e: sge::service::ServiceError| format!("service error: {e}");
        let pinned = Some(config.scheduler);
        Ok(match cell.delivery {
            Delivery::Pinned | Delivery::Routed => {
                config.collect_mappings = total as usize + 1;
                let routed = cell.delivery == Delivery::Routed;
                let spec = if routed {
                    spec(config).routed()
                } else {
                    spec(config)
                };
                let mut query = service.run_query(&target, &spec).map_err(failed)?;
                same("routed", query.routed, routed)?;
                let rows = std::mem::take(&mut query.outcome.mappings);
                let mut seen = Observed::new(query.outcome, pinned.filter(|_| !routed));
                seen.rows = Some(rows);
                seen
            }
            Delivery::ServiceStream => {
                let width = 1 + rng.next_below(4);
                let refuse_after = (cell.limit == Limit::Cancel).then(|| 1 + rng.next_below(3));
                let mut sink = FrameSink(Vec::new(), refuse_after);
                let spec = spec(config).with_streaming(width);
                let streamed = service.run_query_streaming(&target, &spec, &mut sink);
                let streamed = streamed.map_err(failed)?;
                let sent = sink.0.len() as u64;
                same("rows_sent", streamed.rows_sent, sent)?;
                // The sink refuses frames only once it holds `refuse_after`
                // rows, so a stream is cancelled exactly when rows remain.
                let cancelled = refuse_after.is_some() && sent < total;
                same("stream cancelled", streamed.cancelled, cancelled)?;
                let mut seen = Observed::new(streamed.query.outcome, pinned);
                seen.rows = Some(sorted(sink.0));
                seen.row_cap = refuse_after.is_none().then_some(u64::MAX);
                seen.cancelled = cancelled;
                seen
            }
            _ => {
                let analyzed = service.explain_analyze(&target, &spec(config));
                let analyzed = analyzed.map_err(failed)?;
                let positions = (analyzed.observed_candidates, analyzed.observed_states);
                let mut seen = Observed::new(analyzed.query.outcome, pinned);
                seen.positions = Some(positions);
                seen
            }
        })
    }

    /// The checks every cell makes: the outcome's bookkeeping, the rows
    /// against VF2, then the limit's contract.
    fn verify(&self, cell: Cell, run: &RunConfig, reference: &Reference, seen: &Observed) -> Check {
        let (o, total) = (&seen.outcome, self.total());
        let ran = (o.algorithm, o.strategy);
        same("ran", ran, (cell.algorithm, cell.strategy))?;
        if let Some(scheduler) = seen.pinned {
            same("scheduler", o.scheduler, scheduler)?;
        }
        same("workers", o.workers, o.scheduler.workers())?;
        let worker_states = o.worker_stats.iter().map(|w| w.states).sum();
        same("worker states", worker_states, o.states)?;
        let stealing = matches!(o.scheduler, Scheduler::WorkStealing { stealing: true, .. });
        ensure!(stealing && o.workers > 1 || o.steals == 0, "stole");
        let timing = o.total_seconds() >= o.match_seconds && o.states_per_second() >= 0.0;
        ensure!(timing, "inconsistent timing accessors");
        if let Some(rows) = &seen.rows {
            ensure!(rows.is_sorted(), "rows are not sorted");
            ensure!(rows.windows(2).all(|w| w[0] != w[1]), "a row arrived twice");
            let stray = |row: &&Vec<NodeId>| self.oracle.binary_search(row).is_err();
            let stray = (*rows != self.oracle).then(|| rows.iter().find(stray));
            ensure!(
                stray.flatten().is_none(),
                "row {stray:?} is not a VF2 embedding"
            );
            if let Some(cap) = seen.row_cap {
                same("rows", rows.len() as u64, cap.min(o.matches))?;
            }
        }
        if let Some((_, states)) = &seen.positions {
            same("per-position states", states.iter().sum(), o.states)?;
        }
        let hit = (o.matches, o.limit_hit);
        match run.max_matches {
            Some(n) => same("matches, limit_hit", hit, (n.min(total), n <= total))?,
            None => same("limit_hit", o.limit_hit, false)?,
        }
        let complete = match cell.limit {
            Limit::None | Limit::MaxAbove => true,
            Limit::DeadlineZero => reference.degenerate,
            Limit::Deadline1ms => !o.timed_out,
            Limit::Cancel => !seen.cancelled,
            _ => false,
        };
        if !complete {
            let (bound, states) = (reference.states, o.states);
            ensure!(
                states <= bound,
                "{states} states, above the complete {bound}"
            );
            ensure!(o.matches <= total, "more matches than VF2's {total}");
            same("timed_out", o.timed_out, cell.limit.time_limit().is_some())?;
            if cell.limit == Limit::DeadlineZero {
                same("work before a zero deadline", (o.matches, o.states), (0, 0))?;
            }
            ensure!(!o.cancelled || cell.limit == Limit::Cancel, "cancelled");
            return Ok(());
        }
        same("matches", o.matches, total)?;
        let stops = (o.timed_out, o.cancelled);
        same("timed_out, cancelled", stops, (false, false))?;
        same("states", o.states, reference.states)?;
        same("kernel lists", o.kernels.lists, reference.kernels.lists)?;
        // The other kernel figures count work done: with one worker the
        // candidate memo sees the sequential depth-first order, so they
        // repeat exactly.
        if o.workers == 1 {
            same("kernels", o.kernels, reference.kernels)?;
        }
        if let Some(positions) = &seen.positions {
            same("positions", positions, &reference.positions)?;
        }
        Ok(())
    }

    /// The forced-kernel cells: a sequential engine over a context of the
    /// plan and the kernel's sidecar, count-only and enumerating, and a walk
    /// of the whole tree.
    fn drive_forced(&self, cell: Cell) -> Check {
        let (algorithm, strategy) = (cell.algorithm, cell.strategy);
        let reference = self.reference((algorithm, strategy, Kernel::RowsPresent))?;
        let planner = sge::Planner::new(strategy);
        let graphs = (&*self.pattern, &*self.target);
        let plan = planner.plan_with_stats(graphs.0, graphs.1, Some(&self.stats), algorithm);
        let rows = match cell.kernel {
            Kernel::ForcedBitmap => Kernel::RowsPresent,
            _ => Kernel::Capped,
        };
        let sidecar = &self.sidecars[&rows];
        let bitmap = self.bitmap_expectation(&plan, Some(sidecar));
        let mut ctx = SearchContext::from_plan(graphs.0, graphs.1, plan);
        ctx.set_bitmaps(Some(Arc::clone(sidecar)));
        if ctx.num_positions() > 0 && !ctx.impossible() {
            walk(&ctx, 0, &mut ctx.new_state())?;
        }
        let engine = Engine::from_context(ctx);
        let counted = engine.run(&RunConfig::default());
        let visitor = RowVisitor(Mutex::new(Vec::new()));
        let listed = engine.run_with(&RunConfig::default(), &visitor);
        let rows = sorted(visitor.0.into_inner().unwrap());
        ensure!(rows == self.oracle, "the driver's rows differ");
        let want = (self.total(), reference.states);
        same(
            "count-only matches, states",
            (counted.matches, counted.states),
            want,
        )?;
        same(
            "enumerated matches, states",
            (listed.matches, listed.states),
            want,
        )?;
        let mut usage = counted.kernels;
        usage.add(listed.kernels);
        check_bitmap(cell.kernel, bitmap, &usage)
    }

    /// What the bitmap counter of a complete run of `plan` over `sidecar`
    /// must show: `Some(false)`, zero, when the sidecar holds no row or no
    /// step is constrained; `Some(true)`, positive, when the first VF2
    /// embedding, whose prefixes every complete run expands, meets a
    /// constrained step with a row for each constraint; `None` otherwise.
    fn bitmap_expectation(
        &self,
        plan: &QueryPlan,
        maps: Option<&AdjacencyBitmaps>,
    ) -> Option<bool> {
        let constrained = |s: &&PlanStep| !s.constraints.is_empty();
        let steps = &plan.order.plan.steps;
        let rowed =
            |m: &&AdjacencyBitmaps| m.row_count() > 0 && steps.iter().any(|s| constrained(&s));
        let Some(maps) = maps.filter(rowed) else {
            return Some(false);
        };
        let first = self.oracle.first()?;
        let image = |position: usize| first[plan.order.positions[position] as usize];
        let has_rows = |s: &PlanStep| {
            s.constraints.iter().all(|c| match c.out_from_parent {
                true => maps.out_row(image(c.parent_pos), c.label).is_some(),
                false => maps.in_row(image(c.parent_pos), c.label).is_some(),
            })
        };
        steps
            .iter()
            .filter(constrained)
            .any(has_rows)
            .then_some(true)
    }
}

fn check_bitmap(kernel: Kernel, expected: Option<bool>, usage: &KernelUsage) -> Check {
    let ok = expected.is_none_or(|ran| ran == (usage.bitmap > 0));
    ensure!(
        ok,
        "{kernel:?}: {} bitmap ANDs, expected {expected:?}",
        usage.bitmap
    );
    Ok(())
}

/// The sidecar the prepared engines of `kernel` run over.
fn sidecar(target: &Graph, kernel: Kernel) -> AdjacencyBitmaps {
    match kernel {
        Kernel::RowsPresent => AdjacencyBitmaps::every_row(target),
        Kernel::Capped => AdjacencyBitmaps::build(target, &BitmapConfig { max_bytes: 0 }),
        _ => AdjacencyBitmaps::build(target, &BitmapConfig::default()),
    }
}

/// Walks the tree below `depth` in depth-first order, diffing every
/// candidate set, rebuilt or served from the state's memo, against
/// [`scalar_candidates`].
fn walk(ctx: &SearchContext<'_>, depth: usize, state: &mut WorkerState) -> Check {
    let candidates = ctx.candidates(depth, state).to_vec();
    let scalar = scalar_candidates(ctx, depth, state);
    let parity = check_kernel_parity("kernel-vs-scalar", &scalar, &candidates);
    parity.map_err(|d| format!("depth {depth}: {d}"))?;
    for &vt in &candidates {
        if depth + 1 < ctx.num_positions() && ctx.is_consistent(depth, vt, state) {
            state.assign(depth, vt);
            walk(ctx, depth + 1, state)?;
            state.unassign(depth);
        }
    }
    Ok(())
}

/// The candidate set at `depth` re-derived node by node with `edge_label`
/// probes: no list intersection, no bitmap rows.
fn scalar_candidates(ctx: &SearchContext<'_>, depth: usize, state: &WorkerState) -> Vec<NodeId> {
    let (order, target) = (ctx.order(), ctx.target());
    let (step, vp) = (&order.plan.steps[depth], order.positions[depth]);
    let (maps, spec) = (ctx.bitmaps().unwrap(), &step.prefilter);
    let degrees = |v| (target.out_degree(v) as u32, target.in_degree(v) as u32);
    let mins = (spec.min_out_degree, spec.min_in_degree);
    let signatures = |v| spec.out_sig & !maps.out_sig(v) | spec.in_sig & !maps.in_sig(v);
    let edge = |c: &sge::ri::EdgeConstraint, v| {
        let parent = state.assigned(c.parent_pos);
        let (from, to) = if c.out_from_parent {
            (parent, v)
        } else {
            (v, parent)
        };
        target.edge_label(from, to) == Some(c.label)
    };
    (0..target.num_nodes() as NodeId)
        .filter(|&v| match ctx.domains() {
            Some(domains) => domains.contains(vp, v),
            // Root scans without domains leave labels to `is_consistent`.
            None => step.constraints.is_empty() || target.label(v) == ctx.pattern().label(vp),
        })
        .filter(|&v| {
            let (out, inn) = degrees(v);
            spec.is_trivial() || (out >= mins.0 && inn >= mins.1 && signatures(v) == 0)
        })
        .filter(|&v| step.constraints.iter().all(|c| edge(c, v)))
        .collect()
}

fn sorted(mut rows: Rows) -> Rows {
    rows.sort_unstable();
    rows
}

struct RowVisitor(Mutex<Rows>);

impl MatchVisitor for RowVisitor {
    fn on_match(&self, _worker: usize, mapping: &[NodeId]) {
        self.0.lock().unwrap().push(mapping.to_vec());
    }
}

/// A stream sink keeping its rows that refuses every frame once it holds
/// the given number of them, as a client that hung up does.
struct FrameSink(Rows, Option<usize>);

impl StreamSink for FrameSink {
    fn begin(&mut self, _header: &StreamHeader) -> std::io::Result<()> {
        Ok(())
    }

    fn rows(&mut self, rows: &[Vec<NodeId>]) -> std::io::Result<()> {
        if self.1.is_some_and(|k| self.0.len() >= k) {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        self.0.extend_from_slice(rows);
        Ok(())
    }
}
