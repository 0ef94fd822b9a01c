//! A streamed row is allocated once: the run builds each mapping and hands
//! it to the consumer by value.  A counting global allocator sees every
//! allocation of the process, so this is the only test in its binary.

use sge_engine::{Engine, RunConfig, Scheduler};
use sge_graph::{generators, NodeId};
use sge_ri::Algorithm;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts allocations and hands them to the system allocator.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations a streamed run makes besides its rows: the run's state,
/// outcome and cancel token (15 when written).
const RUN_ALLOCATIONS: usize = 40;

#[test]
fn a_sequential_stream_allocates_once_per_row() {
    let pattern = generators::directed_cycle(3, 0);
    let target = generators::clique(6, 0);
    let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
    let config = RunConfig::new(Scheduler::Sequential);
    let stream = || {
        let mut rows: Vec<Vec<NodeId>> = Vec::with_capacity(120);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let outcome = engine.run_streaming(&config, 1024, |row| {
            rows.push(row);
            true
        });
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(outcome.matches, 120);
        assert_eq!(rows.len(), 120);
        allocations
    };
    stream();
    let allocations = stream();
    assert!(
        allocations <= 120 + RUN_ALLOCATIONS,
        "{allocations} allocations for 120 rows"
    );
}
