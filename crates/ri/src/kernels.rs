//! Intersection kernels: scalar reference, width-bucketed vectorized
//! gallop, and bitmap word-AND, plus the parity diff tool.
//!
//! All kernels compute the same function — intersect a sorted candidate
//! buffer with a sorted labeled CSR adjacency list — and must produce
//! byte-identical results.  They differ only in the access pattern:
//!
//! * [`intersect_reference`] — the obviously-correct two-pointer scalar
//!   merge.  Never used on the hot path; it is the oracle every other kernel
//!   is diffed against.
//! * [`intersect_gallop`] — the production kernel for CSR lists, bucketed by
//!   the length ratio `|adj| / |out|`:
//!   * comparable lengths take a **branch-light chunked linear merge** whose
//!     inner loop is a branchless count-of-smaller over fixed-size chunks
//!     (the `core::simd`-style shape: a compare-and-sum LLVM auto-vectorizes
//!     under `#![forbid(unsafe_code)]`);
//!   * a much longer `adj` takes **exponential-probe galloping** per
//!     candidate;
//!   * a much *shorter* `adj` swaps iteration direction and gallops through
//!     the candidate buffer instead — the worst case of the old kernel,
//!     which probed a tiny adjacency list once per candidate.
//! * bitmap rows from [`sge_graph::AdjacencyBitmaps`] intersect via
//!   [`and_rows`] / [`collect_row`] — word-wise AND, no per-element work.
//!
//! [`assert_kernel_parity`] / [`check_kernel_parity`] pinpoint the first
//! diverging element between a kernel's output and the reference, in the
//! spirit of a score-matrix parity assert: not just "differs" but *where*
//! and *what*.

use sge_graph::{EdgeRef, Label, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};

const WORD_BITS: usize = 64;

/// Length-ratio at which the gallop kernel switches strategies: `adj` more
/// than `WIDTH_RATIO`× longer than `out` gallops through `adj`; `out` more
/// than `WIDTH_RATIO`× longer than `adj` swaps direction and gallops through
/// `out`; anything in between takes the chunked linear merge.
pub const WIDTH_RATIO: usize = 8;

/// Chunk width of the branchless count-of-smaller scan in the merge bucket.
const CHUNK: usize = 8;

/// Which bucket [`intersect_gallop`] routed one invocation to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GallopRoute {
    /// Comparable lengths: chunked branch-light linear merge.
    Merge,
    /// `adj` much longer: exponential-probe gallop through `adj`.
    Gallop,
    /// `out` much longer: swapped iteration, galloping through `out`.
    GallopSwapped,
}

/// Totals of candidate lists and of the kernel work that built them, for
/// one run.
///
/// `lists` counts the candidate lists handed to the search and `reused`
/// those a worker's memo served without a rebuild.  The other fields count
/// work that actually ran while building the rest: `bitmap` counts bitmap
/// rows ANDed, `gallop`/`merge` count [`intersect_gallop`] invocations per
/// bucket (the swapped bucket counts as `gallop`), and `prefilter_rejected`
/// counts candidates dropped by the label-signature/min-degree prefilter
/// before any kernel ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelUsage {
    /// Bitmap rows intersected via word-wise AND.
    pub bitmap: u64,
    /// Galloping intersections (probe-driven, either direction).
    pub gallop: u64,
    /// Chunked linear-merge intersections.
    pub merge: u64,
    /// Candidates rejected by the prefilter before any kernel ran.
    pub prefilter_rejected: u64,
    /// Candidate lists handed to the search: one per expansion of a
    /// consistent prefix, the root list and counted leaf levels included.
    /// Schedule-invariant on complete runs.
    pub lists: u64,
    /// Lists among `lists` that came from the requesting worker's memo.
    pub reused: u64,
}

impl KernelUsage {
    /// Field-wise sum.
    pub fn add(&mut self, other: KernelUsage) {
        self.bitmap += other.bitmap;
        self.gallop += other.gallop;
        self.merge += other.merge;
        self.prefilter_rejected += other.prefilter_rejected;
        self.lists += other.lists;
        self.reused += other.reused;
    }

    /// Field-wise saturating difference (`self - earlier`), for deriving the
    /// usage of one run from two snapshots of shared cells.
    pub fn since(&self, earlier: &KernelUsage) -> KernelUsage {
        KernelUsage {
            bitmap: self.bitmap.saturating_sub(earlier.bitmap),
            gallop: self.gallop.saturating_sub(earlier.gallop),
            merge: self.merge.saturating_sub(earlier.merge),
            prefilter_rejected: self
                .prefilter_rejected
                .saturating_sub(earlier.prefilter_rejected),
            lists: self.lists.saturating_sub(earlier.lists),
            reused: self.reused.saturating_sub(earlier.reused),
        }
    }

    /// Total kernel invocations across all three paths.
    pub fn intersections(&self) -> u64 {
        self.bitmap + self.gallop + self.merge
    }
}

/// Shared atomic kernel counters of one [`crate::SearchContext`],
/// snapshotted by the engine into `engine.kernel.*` metrics.
///
/// Candidate fills accumulate in the driving [`crate::WorkerState`]; every
/// scheduler flushes each worker's totals here once, when the worker stops
/// ([`crate::SearchContext::flush_kernels`]), so the search itself never
/// touches these cells.
#[derive(Debug, Default)]
pub struct KernelCells {
    bitmap: AtomicU64,
    gallop: AtomicU64,
    merge: AtomicU64,
    prefilter_rejected: AtomicU64,
    lists: AtomicU64,
    reused: AtomicU64,
}

impl KernelCells {
    /// Folds one local accumulation into the shared cells.
    pub fn flush(&self, local: KernelUsage) {
        let cells = [
            (&self.bitmap, local.bitmap),
            (&self.gallop, local.gallop),
            (&self.merge, local.merge),
            (&self.prefilter_rejected, local.prefilter_rejected),
            (&self.lists, local.lists),
            (&self.reused, local.reused),
        ];
        for (cell, value) in cells {
            if value != 0 {
                cell.fetch_add(value, Ordering::Relaxed);
            }
        }
    }

    /// Current totals.
    pub fn snapshot(&self) -> KernelUsage {
        KernelUsage {
            bitmap: self.bitmap.load(Ordering::Relaxed),
            gallop: self.gallop.load(Ordering::Relaxed),
            merge: self.merge.load(Ordering::Relaxed),
            prefilter_rejected: self.prefilter_rejected.load(Ordering::Relaxed),
            lists: self.lists.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
        }
    }
}

/// Scalar reference kernel: in-place two-pointer intersection of the sorted
/// buffer `out` with the sorted adjacency list `adj`, keeping nodes whose
/// supporting edge carries `label`.
pub fn intersect_reference(out: &mut Vec<NodeId>, adj: &[EdgeRef], label: Label) {
    let mut write = 0;
    let mut j = 0;
    for read in 0..out.len() {
        let v = out[read];
        while j < adj.len() && adj[j].node < v {
            j += 1;
        }
        if j >= adj.len() {
            break;
        }
        if adj[j].node == v && adj[j].label == label {
            out[write] = v;
            write += 1;
        }
    }
    out.truncate(write);
}

/// Production CSR kernel: same contract as [`intersect_reference`], bucketed
/// by length ratio (see [`WIDTH_RATIO`]).  Returns the bucket taken so
/// callers can account invocations per path.
pub fn intersect_gallop(out: &mut Vec<NodeId>, adj: &[EdgeRef], label: Label) -> GallopRoute {
    if out.len() > WIDTH_RATIO * adj.len() {
        intersect_swapped(out, adj, label);
        GallopRoute::GallopSwapped
    } else if adj.len() > WIDTH_RATIO * out.len() {
        intersect_probing(out, adj, label);
        GallopRoute::Gallop
    } else {
        intersect_merge(out, adj, label);
        GallopRoute::Merge
    }
}

/// Exponential-probe gallop: iterate `out`, probe `adj`.  Right when `adj`
/// is much longer than the surviving candidate set.
fn intersect_probing(out: &mut Vec<NodeId>, adj: &[EdgeRef], label: Label) {
    let mut write = 0;
    let mut from = 0;
    for read in 0..out.len() {
        let v = out[read];
        from = advance_probing(adj, from, v);
        if from >= adj.len() {
            break;
        }
        if adj[from].node == v && adj[from].label == label {
            out[write] = v;
            write += 1;
        }
    }
    out.truncate(write);
}

/// Swapped gallop: iterate `adj` (the short side), gallop through `out`.
/// Fixes the old kernel's worst case — a tiny adjacency list probed once per
/// element of a huge candidate buffer.
fn intersect_swapped(out: &mut Vec<NodeId>, adj: &[EdgeRef], label: Label) {
    let mut write = 0;
    let mut read = 0;
    for e in adj {
        if e.label != label {
            continue;
        }
        read = advance_ids(out, read.max(write), e.node);
        if read >= out.len() {
            break;
        }
        if out[read] == e.node {
            out[write] = e.node;
            write += 1;
            read += 1;
        }
    }
    out.truncate(write);
}

/// Chunked branch-light linear merge: iterate `out`, advance the `adj`
/// cursor with a branchless count-of-smaller over fixed-width chunks.
fn intersect_merge(out: &mut Vec<NodeId>, adj: &[EdgeRef], label: Label) {
    let mut write = 0;
    let mut from = 0;
    for read in 0..out.len() {
        let v = out[read];
        from = advance_chunked(adj, from, v);
        if from >= adj.len() {
            break;
        }
        if adj[from].node == v && adj[from].label == label {
            out[write] = v;
            write += 1;
        }
    }
    out.truncate(write);
}

/// First index `>= from` with `adj[i].node >= v`, via chunked linear scan.
///
/// The inner loop counts how many of the next [`CHUNK`] entries are still
/// `< v` with a compare-and-sum — no data-dependent branch inside the chunk,
/// which is the shape LLVM turns into vector compares.  Because `adj` is
/// sorted, the count equals the offset of the first entry `>= v` within the
/// chunk.
#[inline]
fn advance_chunked(adj: &[EdgeRef], mut from: usize, v: NodeId) -> usize {
    while from + CHUNK <= adj.len() {
        let below: usize = adj[from..from + CHUNK]
            .iter()
            .map(|e| (e.node < v) as usize)
            .sum();
        from += below;
        if below < CHUNK {
            return from;
        }
    }
    while from < adj.len() && adj[from].node < v {
        from += 1;
    }
    from
}

/// First index `>= from` with `adj[i].node >= v`, via exponential probes
/// bracketing a binary search.
#[inline]
fn advance_probing(adj: &[EdgeRef], from: usize, v: NodeId) -> usize {
    let mut lo = from;
    if lo >= adj.len() || adj[lo].node >= v {
        return lo;
    }
    // Invariant: adj[lo].node < v.
    let mut step = 1;
    while lo + step < adj.len() && adj[lo + step].node < v {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step).min(adj.len());
    lo + 1 + adj[lo + 1..hi].partition_point(|e| e.node < v)
}

/// [`advance_probing`] over a plain sorted id slice (the candidate buffer).
#[inline]
fn advance_ids(ids: &[NodeId], from: usize, v: NodeId) -> usize {
    let mut lo = from;
    if lo >= ids.len() || ids[lo] >= v {
        return lo;
    }
    let mut step = 1;
    while lo + step < ids.len() && ids[lo + step] < v {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step).min(ids.len());
    lo + 1 + ids[lo + 1..hi].partition_point(|&id| id < v)
}

/// Word-wise AND of `row` into `acc` (`acc` keeps only bits set in both).
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn and_rows(acc: &mut [u64], row: &[u64]) {
    assert_eq!(acc.len(), row.len(), "bitmap row width mismatch");
    for (a, &b) in acc.iter_mut().zip(row.iter()) {
        *a &= b;
    }
}

/// Appends the indices of every set bit of `words` to `out`, ascending.
pub fn collect_row(words: &[u64], out: &mut Vec<NodeId>) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let idx = w * WORD_BITS + bits.trailing_zeros() as usize;
            out.push(idx as NodeId);
            bits &= bits - 1;
        }
    }
}

/// The first point where a kernel's output diverges from the scalar
/// reference: the element index, the value each side holds there (`None`
/// once a side is exhausted), and both lengths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelDivergence {
    /// Which kernel diverged (e.g. `"bitmap"`, `"gallop"`).
    pub kernel: &'static str,
    /// Index of the first differing element.
    pub index: usize,
    /// The reference's element at `index`, if any.
    pub expected: Option<NodeId>,
    /// The kernel's element at `index`, if any.
    pub actual: Option<NodeId>,
    /// Total reference output length.
    pub expected_len: usize,
    /// Total kernel output length.
    pub actual_len: usize,
}

impl std::fmt::Display for KernelDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kernel '{}' diverges from the scalar reference at element {}: \
             expected {:?}, got {:?} (reference has {} elements, kernel {})",
            self.kernel, self.index, self.expected, self.actual, self.expected_len, self.actual_len
        )
    }
}

/// Compares a kernel's output against the scalar reference and reports the
/// first diverging element, if any.
pub fn check_kernel_parity(
    kernel: &'static str,
    expected: &[NodeId],
    actual: &[NodeId],
) -> Result<(), KernelDivergence> {
    let limit = expected.len().max(actual.len());
    for index in 0..limit {
        let e = expected.get(index).copied();
        let a = actual.get(index).copied();
        if e != a {
            return Err(KernelDivergence {
                kernel,
                index,
                expected: e,
                actual: a,
                expected_len: expected.len(),
                actual_len: actual.len(),
            });
        }
    }
    Ok(())
}

/// Panicking form of [`check_kernel_parity`] with the focused diff report as
/// the panic message.
///
/// # Panics
/// Panics when `actual` differs from `expected`.
pub fn assert_kernel_parity(kernel: &'static str, expected: &[NodeId], actual: &[NodeId]) {
    if let Err(divergence) = check_kernel_parity(kernel, expected, actual) {
        panic!("{divergence}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{AdjacencyBitmaps, BitmapConfig, GraphBuilder};

    fn adj(entries: &[(NodeId, Label)]) -> Vec<EdgeRef> {
        entries
            .iter()
            .map(|&(node, label)| EdgeRef { node, label })
            .collect()
    }

    fn run(kernel: impl Fn(&mut Vec<NodeId>, &[EdgeRef], Label), seed: &[NodeId]) -> Vec<NodeId> {
        let mut out = seed.to_vec();
        let list = adj(&[(2, 0), (3, 1), (5, 0), (8, 0), (13, 0)]);
        kernel(&mut out, &list, 0);
        out
    }

    #[test]
    fn all_buckets_agree_with_the_reference() {
        let seed: Vec<NodeId> = vec![1, 2, 3, 5, 9, 13];
        let expected = run(intersect_reference, &seed);
        assert_eq!(expected, vec![2, 5, 13]); // 3 present but wrong label
        for kernel in [intersect_merge, intersect_probing, intersect_swapped] {
            assert_kernel_parity("bucket", &expected, &run(kernel, &seed));
        }
        assert_kernel_parity(
            "gallop",
            &expected,
            &run(
                |o, a, l| {
                    intersect_gallop(o, a, l);
                },
                &seed,
            ),
        );
    }

    #[test]
    fn route_follows_the_width_buckets() {
        let long_adj: Vec<EdgeRef> = adj(&(0..1000).map(|i| (i as NodeId, 0)).collect::<Vec<_>>());
        let mut out = vec![500 as NodeId];
        assert_eq!(
            intersect_gallop(&mut out, &long_adj, 0),
            GallopRoute::Gallop
        );
        assert_eq!(out, vec![500]);

        let mut out: Vec<NodeId> = (0..1000).collect();
        let tiny = adj(&[(37, 0)]);
        assert_eq!(
            intersect_gallop(&mut out, &tiny, 0),
            GallopRoute::GallopSwapped
        );
        assert_eq!(out, vec![37]);

        let mut out: Vec<NodeId> = (0..20).collect();
        let medium = adj(&(0..30).map(|i| (i as NodeId, 0)).collect::<Vec<_>>());
        assert_eq!(intersect_gallop(&mut out, &medium, 0), GallopRoute::Merge);
        assert_eq!(out, (0..20).collect::<Vec<NodeId>>());
    }

    #[test]
    fn swapped_gallop_handles_one_element_adjacency_against_huge_buffer() {
        // Regression for the old kernel's worst case: |out| = 10_000 against
        // |adj| = 1 must route to the swapped bucket and intersect correctly.
        let mut out: Vec<NodeId> = (0..10_000).collect();
        let single = adj(&[(9_999, 0)]);
        let mut expected = out.clone();
        intersect_reference(&mut expected, &single, 0);
        assert_eq!(
            intersect_gallop(&mut out, &single, 0),
            GallopRoute::GallopSwapped
        );
        assert_kernel_parity("gallop-swapped", &expected, &out);
        assert_eq!(out, vec![9_999]);

        // Same shape, but the lone edge carries the wrong label.
        let mut out: Vec<NodeId> = (0..10_000).collect();
        let single = adj(&[(9_999, 7)]);
        assert_eq!(
            intersect_gallop(&mut out, &single, 0),
            GallopRoute::GallopSwapped
        );
        assert!(out.is_empty());
    }

    #[test]
    fn empty_sides_are_handled() {
        for kernel in [intersect_merge, intersect_probing, intersect_swapped] {
            let mut out: Vec<NodeId> = Vec::new();
            kernel(&mut out, &adj(&[(1, 0)]), 0);
            assert!(out.is_empty());
            let mut out = vec![1 as NodeId, 2];
            kernel(&mut out, &[], 0);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn bitmap_row_helpers_match_reference() {
        let mut b = GraphBuilder::new();
        for _ in 0..70 {
            b.add_node(0);
        }
        for v in [1u32, 3, 63, 64, 69, 7, 12, 33] {
            b.add_edge(0, v, 0);
        }
        let g = b.build();
        let config = BitmapConfig {
            degree_threshold: 1,
            ..BitmapConfig::default()
        };
        let maps = AdjacencyBitmaps::build(&g, &config);
        let row = maps.out_row(0, 0).expect("forced row");

        let seed: Vec<NodeId> = vec![0, 1, 2, 3, 33, 63, 64, 65, 69];
        let mut expected = seed.clone();
        intersect_reference(&mut expected, g.out_edges(0), 0);

        // AND against a full accumulator, then collect.
        let mut acc = vec![u64::MAX; row.len()];
        and_rows(&mut acc, row);
        let mut dense: Vec<NodeId> = Vec::new();
        collect_row(&acc, &mut dense);
        let bitmap: Vec<NodeId> = seed
            .iter()
            .copied()
            .filter(|v| dense.binary_search(v).is_ok())
            .collect();
        assert_kernel_parity("bitmap", &expected, &bitmap);
    }

    #[test]
    fn parity_reports_pinpoint_the_first_divergence() {
        let expected: Vec<NodeId> = vec![1, 2, 3];
        let err = check_kernel_parity("demo", &expected, &[1, 9, 3]).unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.expected, Some(2));
        assert_eq!(err.actual, Some(9));
        let text = err.to_string();
        assert!(text.contains("demo"));
        assert!(text.contains("element 1"));

        let err = check_kernel_parity("demo", &expected, &[1, 2]).unwrap_err();
        assert_eq!(err.index, 2);
        assert_eq!(err.expected, Some(3));
        assert_eq!(err.actual, None);
        assert_eq!(err.actual_len, 2);

        assert!(check_kernel_parity("demo", &expected, &expected).is_ok());
    }

    #[test]
    fn kernel_cells_accumulate_and_snapshot() {
        let cells = KernelCells::default();
        cells.flush(KernelUsage {
            bitmap: 2,
            gallop: 3,
            merge: 5,
            prefilter_rejected: 7,
            lists: 11,
            reused: 13,
        });
        cells.flush(KernelUsage {
            bitmap: 1,
            ..KernelUsage::default()
        });
        let snap = cells.snapshot();
        assert_eq!(snap.bitmap, 3);
        assert_eq!(snap.gallop, 3);
        assert_eq!(snap.merge, 5);
        assert_eq!(snap.prefilter_rejected, 7);
        assert_eq!((snap.lists, snap.reused), (11, 13));
        assert_eq!(snap.intersections(), 11);
        let earlier = KernelUsage {
            bitmap: 1,
            gallop: 1,
            merge: 1,
            prefilter_rejected: 1,
            lists: 1,
            reused: 1,
        };
        let delta = snap.since(&earlier);
        assert_eq!(delta.bitmap, 2);
        assert_eq!((delta.lists, delta.reused), (10, 12));
        assert_eq!(delta.intersections(), 8);
    }

    /// Deterministic xorshift for the random cross-kernel property test.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn random_lists_keep_all_kernels_byte_identical() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for round in 0..200 {
            let n = 1 + rng.below(120) as usize;
            let labels = 1 + rng.below(3) as u32;
            // Random sorted adjacency with unique node ids.
            let mut nodes: Vec<NodeId> = (0..n as NodeId).filter(|_| rng.below(3) > 0).collect();
            nodes.dedup();
            let list: Vec<EdgeRef> = nodes
                .iter()
                .map(|&node| EdgeRef {
                    node,
                    label: rng.below(labels as u64) as Label,
                })
                .collect();
            // Random sorted candidate buffer.
            let seed: Vec<NodeId> = (0..n as NodeId).filter(|_| rng.below(4) > 1).collect();
            let label = rng.below(labels as u64) as Label;

            let mut expected = seed.clone();
            intersect_reference(&mut expected, &list, label);
            for (name, kernel) in [
                (
                    "merge",
                    intersect_merge as fn(&mut Vec<NodeId>, &[EdgeRef], Label),
                ),
                ("probing", intersect_probing),
                ("swapped", intersect_swapped),
            ] {
                let mut out = seed.clone();
                kernel(&mut out, &list, label);
                assert!(
                    check_kernel_parity(name, &expected, &out).is_ok(),
                    "round {round}: {}",
                    check_kernel_parity(name, &expected, &out).unwrap_err()
                );
            }
            let mut out = seed.clone();
            intersect_gallop(&mut out, &list, label);
            assert_kernel_parity("gallop", &expected, &out);
        }
    }
}
