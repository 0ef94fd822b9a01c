//! The differential oracle matrix: every configuration cell of the
//! enumeration stack diffed against the independent VF2 oracle
//! (`sge::vf2::collect_mappings`, Cordella et al., 2004).
//!
//! A cell is (algorithm, kernel variant, scheduler, delivery, limit);
//! `cells::all` lists every combination that exists and
//! `Cell::exists` names the ones that do not.  Each family test runs every
//! cell at least once over the family's pinned instances, each cell on the
//! instance a hash of its index picks.  `runner` holds the checks.  A
//! failing cell is shrunk greedily, re-running only that cell, and the
//! report gives the seeds, the cell and both graphs as `.gfd` text; pin the
//! shrunk pair in `instances::REGRESSIONS` and the named-instance test
//! replays it from then on.
//!
//! The swarm draws a start seed from the clock, prints it, and runs fresh
//! seeds for a fixed budget:
//!
//! ```text
//! cargo test --release --test oracle_matrix -- --ignored --nocapture
//! ```

#[path = "oracle_matrix/cells.rs"]
mod cells;
#[path = "oracle_matrix/instances.rs"]
mod instances;
#[path = "oracle_matrix/runner.rs"]
mod runner;
#[path = "oracle_matrix/shrink.rs"]
mod shrink;

use cells::Cell;
use instances::{Family, Instance};
use sge::util::SplitMix64;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Wall-clock budget of one swarm run.
const SWARM_BUDGET: Duration = Duration::from_secs(60);
/// Each swarm instance runs about one cell in this many.
const SWARM_SHARE: usize = 4;

/// The seed a cell draws its parameters from on `instance`: worker count,
/// task-group size, scheduling seed, budget, cancel point.
fn cell_seed(instance: &Instance, index: usize) -> u64 {
    SplitMix64::new(instance.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Runs `cells` on `instance`; the first failure comes back shrunk and
/// reported.
fn run_cells(instance: &Instance, cells: &[(usize, Cell)]) -> Result<usize, String> {
    let subject = runner::Subject::new(instance);
    for &(index, cell) in cells {
        let seed = cell_seed(instance, index);
        if let Err(message) = subject.check(cell, seed) {
            return Err(shrink::report(instance, cell, seed, &message));
        }
    }
    Ok(cells.len())
}

/// The two distinct families a cell runs in, each with a hash that picks
/// the instance within the family: every cell runs twice per `cargo test`,
/// and each of these families sees about two sevenths of the cells.  The
/// `Symmetric` family takes a share of its own ([`symmetric_home`]), so the
/// others kept their cells when it came.
fn homes(index: usize) -> [(Family, u64); 2] {
    let homed: Vec<Family> = Family::ALL
        .into_iter()
        .filter(|&f| f != Family::Symmetric)
        .collect();
    let mut rng = SplitMix64::new(index as u64);
    let n = homed.len();
    let first = rng.next_below(n);
    let second = (first + 1 + rng.next_below(n - 1)) % n;
    let (a, b) = (rng.next_u64(), rng.next_u64());
    [(homed[first], a), (homed[second], b)]
}

/// The hash that picks a cell's `Symmetric` instance, for one cell in
/// three.
fn symmetric_home(index: usize) -> Option<u64> {
    let mut rng = SplitMix64::new(index as u64 ^ 0x5E77_1C00);
    (rng.next_below(3) == 0).then(|| rng.next_u64())
}

/// Every family cell `index` runs in, with the hash that picks its
/// instance there.
fn placements(index: usize) -> impl Iterator<Item = (Family, u64)> {
    let symmetric = symmetric_home(index).map(|hash| (Family::Symmetric, hash));
    homes(index).into_iter().chain(symmetric)
}

/// The cells `keep` accepts, with their indices.
fn select(cells: &[Cell], mut keep: impl FnMut(usize) -> bool) -> Vec<(usize, Cell)> {
    cells
        .iter()
        .copied()
        .enumerate()
        .filter(|&(i, _)| keep(i))
        .collect()
}

/// Runs the cells [`placements`] gives `family` over its pinned instances.
fn run_family(family: Family) {
    let (cells, instances) = (cells::all(), family.pinned());
    let (started, mut ran) = (Instant::now(), 0);
    for (i, instance) in instances.iter().enumerate() {
        let here = |(home, hash): (Family, u64)| (home, hash % instances.len() as u64);
        let share = select(&cells, |index| {
            placements(index).any(|h| here(h) == (family, i as u64))
        });
        match run_cells(instance, &share) {
            Ok(n) => ran += n,
            Err(report) => panic!("oracle matrix, {family:?} family:\n{report}"),
        }
    }
    let (count, elapsed) = (instances.len(), started.elapsed());
    println!("{family:?}: {ran} cells over {count} instances in {elapsed:.1?}");
}

#[test]
fn every_cell_runs_in_two_families() {
    // 4 algorithms x (4 engine kernels x 5 schedulers x 41 engine
    // (delivery, limit) pairs + 2 forced kernels + 2 service kernels x (5
    // schedulers x 25 pinned (delivery, limit) pairs + 8 routed)).
    assert_eq!(cells::all().len(), 4 * (4 * 5 * 41 + 2 + 2 * (5 * 25 + 8)));
    for index in 0..cells::all().len() {
        let [(a, _), (b, _)] = homes(index);
        assert_ne!(a, b);
    }
}

#[test]
fn the_symmetric_share_runs_every_axis_value() {
    let values = |keep: &dyn Fn(usize) -> bool| {
        let cells = cells::all().into_iter().enumerate();
        let kept = cells.filter(|&(i, _)| keep(i)).map(|(_, c)| c);
        kept.flat_map(|c| {
            [
                format!("algorithm {:?}", c.algorithm),
                format!("kernel {:?}", c.kernel),
                format!("sched {:?}", c.sched),
                format!("delivery {:?}", c.delivery),
                format!("limit {:?}", c.limit),
            ]
        })
        .collect::<std::collections::BTreeSet<String>>()
    };
    let every = values(&|_| true);
    assert_eq!(values(&|i| symmetric_home(i).is_some()), every);
}

/// One test per family.
macro_rules! family_tests {
    ($($name:ident: $family:ident),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                run_family(Family::$family);
            }
        )+
    };
}

family_tests! {
    sparse_labelled_digraphs: Sparse,
    dense_targets_above_the_bitmap_bar: Dense,
    random_patterns: RandomPattern,
    degenerate_instances: Degenerate,
    collection_instances: Collection,
    pendant_leaves: Pendant,
    symmetric_targets_and_near_symmetric_copies: Symmetric,
    named_instances_and_regressions: Named,
}

#[test]
#[ignore = "time-boxed swarm: cargo test --release --test oracle_matrix -- --ignored"]
fn swarm() {
    let now = SystemTime::now().duration_since(UNIX_EPOCH);
    let start = now.unwrap().as_nanos() as u64;
    println!("oracle matrix swarm: start seed {start:#x}");
    let (cells, deadline) = (cells::all(), Instant::now() + SWARM_BUDGET);
    let (mut seeds, mut ran) = (0u64, 0);
    while Instant::now() < deadline {
        let seed = start.wrapping_add(seeds);
        // Every family but the named one generates from a seed.
        for &family in &Family::ALL[..Family::ALL.len() - 1] {
            let mut rng = SplitMix64::new(seed ^ family as u64);
            let share = select(&cells, |_| rng.next_below(SWARM_SHARE) == 0);
            match run_cells(&family.generate(seed), &share) {
                Ok(n) => ran += n,
                Err(report) => panic!("oracle matrix swarm, start seed {start:#x}:\n{report}"),
            }
        }
        seeds += 1;
    }
    println!("oracle matrix swarm: {seeds} seeds, {ran} cells, all agree with VF2");
}
