//! Intersection kernels: the two-pointer merge, exponential-probe
//! galloping and the bitmap word-AND, plus the parity diff tool.
//!
//! All kernels compute the same function — intersect a sorted candidate
//! buffer with a sorted labeled CSR adjacency list — and must produce
//! byte-identical results.  They differ only in the access pattern:
//!
//! * [`intersect_reference`] — the two-pointer scalar merge: the CSR
//!   kernel's comparable-width bucket and the reference the parity tools
//!   diff every other path against.
//! * [`intersect_gallop`] — the one CSR kernel, bucketed by the length
//!   ratio `|adj| / |out|`: comparable lengths take [`intersect_reference`];
//!   an `adj` more than [`WIDTH_RATIO`]× longer takes **exponential-probe
//!   galloping** per candidate.  The search never hands it a buffer longer
//!   than `adj`: it seeds the buffer from the shortest adjacency list of the
//!   step, and every intersection only shrinks it.
//! * bitmap rows from [`sge_graph::AdjacencyBitmaps`] intersect via
//!   [`and_rows`] / [`collect_row`] — word-wise AND, no per-element work.
//!   A step takes this path exactly when the sidecar holds a row for each of
//!   its constraints; the sidecar's row rule decides where rows exist.
//!
//! [`assert_kernel_parity`] / [`check_kernel_parity`] pinpoint the first
//! diverging element between a kernel's output and the reference, in the
//! spirit of a score-matrix parity assert: not just "differs" but *where*
//! and *what*.

use sge_graph::{EdgeRef, Label, NodeId};

const WORD_BITS: usize = 64;

/// Length-ratio at which the gallop kernel switches strategies: `adj` more
/// than `WIDTH_RATIO`× longer than `out` gallops through `adj`; anything
/// shorter takes the two-pointer merge.
pub const WIDTH_RATIO: usize = 8;

/// Which bucket [`intersect_gallop`] routed one invocation to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GallopRoute {
    /// Comparable lengths: the two-pointer merge.
    Merge,
    /// `adj` much longer: exponential-probe gallop through `adj`.
    Gallop,
}

/// Totals of candidate lists and of the kernel work that built them, for
/// one run.
///
/// `lists` counts the candidate lists handed to the search and `reused`
/// those a worker's memo served without a rebuild.  The other fields count
/// work that actually ran while building the rest: `bitmap` counts bitmap
/// rows ANDed, `gallop`/`merge` count [`intersect_gallop`] invocations per
/// bucket, and `prefilter_rejected`
/// counts candidates dropped by the label-signature/min-degree prefilter
/// before any kernel ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelUsage {
    /// Bitmap rows intersected via word-wise AND.
    pub bitmap: u64,
    /// Galloping (probe-driven) intersections.
    pub gallop: u64,
    /// Two-pointer merge intersections.
    pub merge: u64,
    /// Candidates rejected by the prefilter before any kernel ran.
    pub prefilter_rejected: u64,
    /// Candidate lists handed to the search: one per expansion of a
    /// consistent prefix, the root list and counted levels included.
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

    /// Total kernel invocations across all three paths.
    pub fn intersections(&self) -> u64 {
        self.bitmap + self.gallop + self.merge
    }
}

/// Two-pointer kernel: in-place intersection of the sorted buffer `out` with
/// the sorted adjacency list `adj`, keeping nodes whose supporting edge
/// carries `label`.  [`intersect_gallop`]'s merge bucket, and the reference
/// every other path is diffed against.
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

/// The CSR kernel: same contract as [`intersect_reference`], bucketed by
/// length ratio (see [`WIDTH_RATIO`]).  Returns the bucket taken so callers
/// can account invocations per path.
pub fn intersect_gallop(out: &mut Vec<NodeId>, adj: &[EdgeRef], label: Label) -> GallopRoute {
    if adj.len() > WIDTH_RATIO * out.len() {
        intersect_probing(out, adj, label);
        GallopRoute::Gallop
    } else {
        intersect_reference(out, adj, label);
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
    use sge_graph::{AdjacencyBitmaps, GraphBuilder};

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
        assert_kernel_parity("probing", &expected, &run(intersect_probing, &seed));
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

        let mut out: Vec<NodeId> = (0..20).collect();
        let medium = adj(&(0..30).map(|i| (i as NodeId, 0)).collect::<Vec<_>>());
        assert_eq!(intersect_gallop(&mut out, &medium, 0), GallopRoute::Merge);
        assert_eq!(out, (0..20).collect::<Vec<NodeId>>());
    }

    #[test]
    fn empty_sides_are_handled() {
        for kernel in [intersect_reference, intersect_probing] {
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
        let maps = AdjacencyBitmaps::every_row(&g);
        let row = maps.out_row(0, 0).expect("every-row sidecar");

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
    fn kernel_usage_adds_field_wise() {
        let mut total = KernelUsage {
            bitmap: 2,
            gallop: 3,
            merge: 5,
            prefilter_rejected: 7,
            lists: 11,
            reused: 13,
        };
        total.add(KernelUsage {
            bitmap: 1,
            gallop: 1,
            merge: 1,
            prefilter_rejected: 1,
            lists: 1,
            reused: 1,
        });
        total.add(KernelUsage::default());
        let want = KernelUsage {
            bitmap: 3,
            gallop: 4,
            merge: 6,
            prefilter_rejected: 8,
            lists: 12,
            reused: 14,
        };
        assert_eq!(total, want);
        assert_eq!(total.intersections(), 13);
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
            let mut out = seed.clone();
            intersect_probing(&mut out, &list, label);
            assert!(
                check_kernel_parity("probing", &expected, &out).is_ok(),
                "round {round}: {}",
                check_kernel_parity("probing", &expected, &out).unwrap_err()
            );
            let mut out = seed.clone();
            intersect_gallop(&mut out, &list, label);
            assert_kernel_parity("gallop", &expected, &out);
        }
    }
}
