//! Optional u64-bitmap adjacency sidecar for dense neighborhoods.
//!
//! The CSR lists in [`crate::Graph`] suit sparse neighborhoods; on dense
//! ones a word-wise AND of bitmap rows beats walking the lists.  This module
//! builds, *alongside* the CSR arrays, one bitmap row over the target's node
//! ids for every `(node, direction, label)` neighborhood that earns one, and
//! it is the one place that decides where the search ANDs rows: a
//! constrained step ANDs exactly when every one of its constraints has a
//! row, and intersects CSR lists otherwise.
//!
//! **The row rule.**  A neighborhood earns a row when its same-label degree
//! reaches [`row_degree_floor`], `max(8, 4 × words_per_row)`.  A row word and
//! a CSR list entry are both 8 bytes, so a row is then at most a quarter of
//! the list it stands in for: rows add at most a quarter to the adjacency
//! bytes of the neighborhoods that get them, and an AND reads at most a
//! quarter of the words a list walk reads.  The floor of 8 keeps the short
//! lists of small targets on the CSR path.
//!
//! The sidecar also carries a compact Bloom-style **label signature** per
//! node and direction (one bit per `label & 63` of each incident neighbor
//! label and edge label).  Signatures are always built — they cost 16 bytes
//! per node, 8 on a symmetric target — and power the candidate prefilter: a
//! candidate whose signature is missing a required bit cannot possibly
//! satisfy all pattern edges and is rejected before any intersection kernel
//! runs.
//!
//! On a symmetric target ([`Graph::is_symmetric`]) every in-neighborhood
//! equals the out-neighborhood of the same node and label, so the sidecar
//! stores the out side alone and answers in-row and in-signature lookups
//! from it.
//!
//! Total row storage is capped by [`BitmapConfig::max_bytes`]; if a target
//! would exceed the cap the rows are skipped entirely (`capped() == true`)
//! and every step intersects CSR lists.  The cap counts the rows stored, so
//! a symmetric target's rows take half the bytes of its two directions.
//! Signatures survive the cap because they are O(nodes), not O(nodes²).

use crate::graph::{EdgeRef, Graph, Label, NodeId};
use std::sync::Arc;

const WORD_BITS: usize = 64;
const BYTES_PER_WORD: usize = 8;

/// The smallest same-label degree that earns a row on any target.
const MIN_ROW_DEGREE: usize = 8;

/// A neighborhood earns a row once its list is this many times longer than
/// the row's words.
const LIST_ENTRIES_PER_ROW_WORD: usize = 4;

/// Default cap on total bitmap row bytes per target (16 MiB).
pub const DEFAULT_MAX_BITMAP_BYTES: usize = 16 * 1024 * 1024;

/// The Bloom-style signature bit for a label: bit `label & 63`.
///
/// Both sides of the prefilter (pattern-required bits and target-observed
/// bits) hash with this same function, so a superset test
/// `required & !observed == 0` can produce false *passes* (harmless — the
/// kernel still runs) but never false *rejects*.
#[inline]
pub fn label_sig_bit(label: Label) -> u64 {
    1u64 << (label & 63)
}

/// The same-label degree at or above which a neighborhood of a target with
/// `nodes` nodes earns a bitmap row: `max(8, 4 × ceil(nodes / 64))`.
pub fn row_degree_floor(nodes: usize) -> usize {
    MIN_ROW_DEGREE.max(LIST_ENTRIES_PER_ROW_WORD * nodes.div_ceil(WORD_BITS))
}

/// The byte cap of [`AdjacencyBitmaps::build`]; the row rule itself takes
/// no setting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitmapConfig {
    /// Cap on total row bytes; exceeding it skips rows (CSR-only fallback).
    pub max_bytes: usize,
}

impl Default for BitmapConfig {
    fn default() -> Self {
        BitmapConfig {
            max_bytes: DEFAULT_MAX_BITMAP_BYTES,
        }
    }
}

/// Bitmap adjacency view built alongside a [`Graph`]'s CSR arrays.
///
/// Immutable once built; share via `Arc` next to the graph it describes.
#[derive(Clone, Debug)]
pub struct AdjacencyBitmaps {
    nodes: usize,
    words_per_row: usize,
    /// Flat row storage: row `r` occupies `rows[r*wpr .. (r+1)*wpr]`.
    rows: Vec<u64>,
    /// Sorted `(node, label, row_number)` index for out-neighborhood rows.
    out_index: Arc<[(NodeId, Label, u32)]>,
    /// Sorted `(node, label, row_number)` index for in-neighborhood rows:
    /// `out_index` itself on a symmetric graph.
    in_index: Arc<[(NodeId, Label, u32)]>,
    /// Per-node out-direction label signature (neighbor labels ∪ edge labels).
    out_sigs: Arc<[u64]>,
    /// Per-node in-direction label signature: `out_sigs` itself on a
    /// symmetric graph.
    in_sigs: Arc<[u64]>,
    /// Bytes the rows *would* need; equals `rows` bytes unless capped.
    required_row_bytes: usize,
    /// True when `required_row_bytes` exceeded the cap and rows were skipped.
    capped: bool,
}

impl AdjacencyBitmaps {
    /// Builds the sidecar for `graph`: a row for every neighborhood whose
    /// same-label degree reaches [`row_degree_floor`].
    ///
    /// Never fails: when the rows would exceed `config.max_bytes` the result
    /// has `capped() == true`, no rows, and intact signatures.
    pub fn build(graph: &Graph, config: &BitmapConfig) -> AdjacencyBitmaps {
        let floor = row_degree_floor(graph.num_nodes());
        Self::build_with_floor(graph, floor, config.max_bytes)
    }

    /// [`Self::build`] when the sidecar holds at least one row, `None`
    /// otherwise: what a one-shot preparation attaches.  A same-label
    /// degree never exceeds its direction's degree, so when no node's out-
    /// or in-degree reaches the floor this costs O(nodes) and builds
    /// nothing.
    pub fn build_if_any_row(graph: &Graph, config: &BitmapConfig) -> Option<AdjacencyBitmaps> {
        let floor = row_degree_floor(graph.num_nodes());
        let reaches = |v| graph.out_degree(v) >= floor || graph.in_degree(v) >= floor;
        if !graph.nodes().any(reaches) {
            return None;
        }
        Some(Self::build(graph, config)).filter(|maps| maps.row_count() > 0)
    }

    /// A sidecar with a row for every non-empty neighborhood and no byte
    /// cap, so every constrained step ANDs rows: the reference the kernel
    /// tests and the `kernel_comparison` figure time the AND against.
    pub fn every_row(graph: &Graph) -> AdjacencyBitmaps {
        Self::build_with_floor(graph, 1, usize::MAX)
    }

    fn build_with_floor(graph: &Graph, floor: usize, max_bytes: usize) -> AdjacencyBitmaps {
        let n = graph.num_nodes();
        let words_per_row = n.div_ceil(WORD_BITS);
        // On a symmetric target the in side equals the out side: it shares
        // the out side's signatures and rows.
        let symmetric = graph.is_symmetric();
        let sigs = |edges: fn(&Graph, NodeId) -> &[EdgeRef]| -> Arc<[u64]> {
            graph
                .nodes()
                .map(|v| signature(graph, edges(graph, v)))
                .collect()
        };
        let out_sigs = sigs(Graph::out_edges);
        let in_sigs = match symmetric {
            true => Arc::clone(&out_sigs),
            false => sigs(Graph::in_edges),
        };

        // First pass: decide which (node, direction, label) groups earn rows.
        let mut out_specs: Vec<(NodeId, Label)> = Vec::new();
        let mut in_specs: Vec<(NodeId, Label)> = Vec::new();
        let mut scratch: Vec<Label> = Vec::new();
        for v in graph.nodes() {
            dense_labels(graph.out_edges(v), floor, &mut scratch);
            out_specs.extend(scratch.iter().map(|&l| (v, l)));
            if !symmetric {
                dense_labels(graph.in_edges(v), floor, &mut scratch);
                in_specs.extend(scratch.iter().map(|&l| (v, l)));
            }
        }

        let total_rows = out_specs.len() + in_specs.len();
        let required_row_bytes = total_rows * words_per_row * BYTES_PER_WORD;
        if required_row_bytes > max_bytes {
            return AdjacencyBitmaps {
                nodes: n,
                words_per_row,
                rows: Vec::new(),
                out_index: Arc::new([]),
                in_index: Arc::new([]),
                out_sigs,
                in_sigs,
                required_row_bytes,
                capped: true,
            };
        }

        // Second pass: materialize the rows.
        let mut rows = vec![0u64; total_rows * words_per_row];
        let mut out_index = Vec::with_capacity(out_specs.len());
        let mut in_index = Vec::with_capacity(in_specs.len());
        let mut next_row = 0u32;
        for &(v, label) in &out_specs {
            fill_row(
                &mut rows[next_row as usize * words_per_row..],
                graph.out_edges(v),
                label,
            );
            out_index.push((v, label, next_row));
            next_row += 1;
        }
        for &(v, label) in &in_specs {
            fill_row(
                &mut rows[next_row as usize * words_per_row..],
                graph.in_edges(v),
                label,
            );
            in_index.push((v, label, next_row));
            next_row += 1;
        }
        let out_index: Arc<[_]> = out_index.into();
        let in_index = match symmetric {
            true => Arc::clone(&out_index),
            false => in_index.into(),
        };

        AdjacencyBitmaps {
            nodes: n,
            words_per_row,
            rows,
            out_index,
            in_index,
            out_sigs,
            in_sigs,
            required_row_bytes,
            capped: false,
        }
    }

    /// Number of nodes in the graph this sidecar describes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Words in each bitmap row (`ceil(nodes / 64)`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Number of bitmap rows actually stored: a symmetric graph's in-rows
    /// are its out-rows.
    pub fn row_count(&self) -> usize {
        self.rows.len().checked_div(self.words_per_row).unwrap_or(0)
    }

    /// Bytes of row storage actually allocated (0 when capped).
    pub fn row_bytes(&self) -> usize {
        self.rows.len() * BYTES_PER_WORD
    }

    /// Bytes the rows would require without the cap.
    pub fn required_row_bytes(&self) -> usize {
        self.required_row_bytes
    }

    /// True when rows were skipped because they would exceed the cap.
    pub fn capped(&self) -> bool {
        self.capped
    }

    /// Bitmap over node ids of `v`'s out-neighbors along `label`-edges, if a
    /// row was built for that neighborhood.
    #[inline]
    pub fn out_row(&self, v: NodeId, label: Label) -> Option<&[u64]> {
        self.lookup(&self.out_index, v, label)
    }

    /// Bitmap over node ids of `v`'s in-neighbors along `label`-edges, if a
    /// row was built for that neighborhood (its out-row on a symmetric
    /// graph).
    #[inline]
    pub fn in_row(&self, v: NodeId, label: Label) -> Option<&[u64]> {
        self.lookup(&self.in_index, v, label)
    }

    /// Out-direction label signature of `v` (see [`label_sig_bit`]).
    #[inline]
    pub fn out_sig(&self, v: NodeId) -> u64 {
        self.out_sigs[v as usize]
    }

    /// In-direction label signature of `v` (its out-signature on a
    /// symmetric graph).
    #[inline]
    pub fn in_sig(&self, v: NodeId) -> u64 {
        self.in_sigs[v as usize]
    }

    #[inline]
    fn lookup(&self, index: &[(NodeId, Label, u32)], v: NodeId, label: Label) -> Option<&[u64]> {
        let at = index
            .binary_search_by_key(&(v, label), |&(node, l, _)| (node, l))
            .ok()?;
        let row = index[at].2 as usize * self.words_per_row;
        Some(&self.rows[row..row + self.words_per_row])
    }
}

/// OR of the signature bits of every neighbor label and edge label in `edges`.
fn signature(graph: &Graph, edges: &[EdgeRef]) -> u64 {
    let mut sig = 0u64;
    for e in edges {
        sig |= label_sig_bit(graph.label(e.node)) | label_sig_bit(e.label);
    }
    sig
}

/// Fills `labels` with the distinct edge labels in `edges` that occur at
/// least `floor` times.
fn dense_labels(edges: &[EdgeRef], floor: usize, labels: &mut Vec<Label>) {
    labels.clear();
    if edges.len() < floor {
        return;
    }
    let mut sorted: Vec<Label> = edges.iter().map(|e| e.label).collect();
    sorted.sort_unstable();
    let mut run_start = 0;
    for i in 1..=sorted.len() {
        if i == sorted.len() || sorted[i] != sorted[run_start] {
            if i - run_start >= floor {
                labels.push(sorted[run_start]);
            }
            run_start = i;
        }
    }
}

/// Sets bit `e.node` for every edge in `edges` whose label is `label`.
fn fill_row(row: &mut [u64], edges: &[EdgeRef], label: Label) {
    for e in edges {
        if e.label == label {
            let idx = e.node as usize;
            row[idx / WORD_BITS] |= 1u64 << (idx % WORD_BITS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn row_bits(row: &[u64]) -> Vec<usize> {
        let mut out = Vec::new();
        for (w, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w * WORD_BITS + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        out
    }

    #[test]
    fn clique_rows_match_csr_adjacency() {
        let g = generators::clique(12, 0);
        let maps = AdjacencyBitmaps::build(&g, &BitmapConfig::default());
        assert!(!maps.capped());
        // One row per node: the clique is symmetric, so in-rows are out-rows.
        assert_eq!(maps.row_count(), 12);
        for v in g.nodes() {
            let row = maps.out_row(v, 0).expect("dense out row");
            let expect: Vec<usize> = g.out_edges(v).iter().map(|e| e.node as usize).collect();
            assert_eq!(row_bits(row), expect);
            let row = maps.in_row(v, 0).expect("dense in row");
            let expect: Vec<usize> = g.in_edges(v).iter().map(|e| e.node as usize).collect();
            assert_eq!(row_bits(row), expect);
        }
    }

    #[test]
    fn sparse_neighborhoods_get_no_rows_but_keep_signatures() {
        let g = generators::directed_cycle(6, 0);
        let maps = AdjacencyBitmaps::build(&g, &BitmapConfig::default());
        assert!(!maps.capped());
        assert_eq!(maps.row_count(), 0);
        assert_eq!(maps.out_row(0, 0), None);
        // Every node has one out-edge with node label 0 and edge label 0.
        for v in g.nodes() {
            assert_eq!(maps.out_sig(v), label_sig_bit(0));
            assert_eq!(maps.in_sig(v), label_sig_bit(0));
        }
    }

    #[test]
    fn cap_boundary_is_exact() {
        let g = generators::clique(12, 0);
        let probe = AdjacencyBitmaps::build(&g, &BitmapConfig::default());
        let required = probe.required_row_bytes();
        assert!(required > 0);

        // Exactly at the cap: rows are built.
        let at_cap = AdjacencyBitmaps::build(
            &g,
            &BitmapConfig {
                max_bytes: required,
            },
        );
        assert!(!at_cap.capped());
        assert_eq!(at_cap.row_bytes(), required);

        // One byte under: rows skipped, signatures intact.
        let over = AdjacencyBitmaps::build(
            &g,
            &BitmapConfig {
                max_bytes: required - 1,
            },
        );
        assert!(over.capped());
        assert_eq!(over.row_count(), 0);
        assert_eq!(over.row_bytes(), 0);
        assert_eq!(over.required_row_bytes(), required);
        assert_eq!(over.out_row(0, 0), None);
        assert_eq!(over.out_sig(0), probe.out_sig(0));
    }

    #[test]
    fn signatures_mix_node_and_edge_labels() {
        let mut b = crate::GraphBuilder::new();
        let a = b.add_node(2);
        let c = b.add_node(65); // 65 & 63 == 1: collides with label 1's bit
        b.add_edge(a, c, 7);
        let g = b.build();
        let maps = AdjacencyBitmaps::build(&g, &BitmapConfig::default());
        assert_eq!(maps.out_sig(a), label_sig_bit(65) | label_sig_bit(7));
        assert_eq!(maps.out_sig(a) & label_sig_bit(1), label_sig_bit(1));
        assert_eq!(maps.in_sig(c), label_sig_bit(2) | label_sig_bit(7));
        assert_eq!(maps.in_sig(a), 0);
    }

    /// A star whose hub points at `leaves` of `nodes` nodes.
    fn star(nodes: usize, leaves: u32) -> Graph {
        let mut b = crate::GraphBuilder::new();
        for _ in 0..nodes {
            b.add_node(0);
        }
        for leaf in 1..=leaves {
            b.add_edge(0, leaf, 0);
        }
        b.build()
    }

    #[test]
    fn the_row_floor_grows_with_the_row_width() {
        assert_eq!(row_degree_floor(0), 8);
        assert_eq!(row_degree_floor(128), 8);
        assert_eq!(row_degree_floor(129), 12);
        // The benchmark's PPI-like target: 88 words per row.
        assert_eq!(row_degree_floor(5_600), 352);
        // 200 nodes: 4 words per row, a floor of 16 same-label neighbors.
        let below = AdjacencyBitmaps::build(&star(200, 15), &BitmapConfig::default());
        assert_eq!(below.row_count(), 0);
        let at = AdjacencyBitmaps::build(&star(200, 16), &BitmapConfig::default());
        assert_eq!(at.row_count(), 1);
        assert_eq!(at.row_bytes(), 4 * BYTES_PER_WORD);
        assert!(at.out_row(0, 0).is_some() && at.in_row(1, 0).is_none());
    }

    #[test]
    fn one_shot_sidecars_exist_only_with_a_row() {
        let config = BitmapConfig::default();
        assert!(AdjacencyBitmaps::build_if_any_row(&star(200, 15), &config).is_none());
        let built = AdjacencyBitmaps::build_if_any_row(&star(200, 16), &config);
        assert_eq!(built.map(|maps| maps.row_count()), Some(1));
        // The hub's 16 edges reach the floor of 8, but split over three
        // labels no same-label neighborhood does: built, no row, no sidecar.
        let mut b = crate::GraphBuilder::new();
        for _ in 0..17 {
            b.add_node(0);
        }
        for leaf in 1..=16 {
            b.add_edge(0, leaf, leaf % 3);
        }
        let split = b.build();
        assert_eq!(row_degree_floor(split.num_nodes()), 8);
        assert_eq!(AdjacencyBitmaps::build(&split, &config).row_count(), 0);
        assert!(AdjacencyBitmaps::build_if_any_row(&split, &config).is_none());
        let wide = star(300, 12); // floor 20: the hub reaches 12
        assert!(AdjacencyBitmaps::build_if_any_row(&wide, &config).is_none());
        // Rows over the cap leave nothing to attach.
        let capped = BitmapConfig { max_bytes: 0 };
        assert!(AdjacencyBitmaps::build_if_any_row(&star(200, 16), &capped).is_none());
    }

    #[test]
    fn every_row_covers_each_non_empty_neighborhood() {
        let g = generators::directed_cycle(6, 0);
        let maps = AdjacencyBitmaps::every_row(&g);
        assert!(!maps.capped());
        assert_eq!(maps.row_count(), 12);
        for v in g.nodes() {
            let next = (v as usize + 1) % 6;
            assert_eq!(row_bits(maps.out_row(v, 0).unwrap()), vec![next]);
        }
        assert_eq!(maps.out_row(0, 1), None, "no label-1 edges, no row");
    }

    #[test]
    fn empty_graph_builds_degenerate_sidecar() {
        let g = crate::GraphBuilder::new().build();
        let maps = AdjacencyBitmaps::build(&g, &BitmapConfig::default());
        assert!(!maps.capped());
        assert_eq!(maps.row_count(), 0);
        assert_eq!(maps.words_per_row(), 0);
    }
}
