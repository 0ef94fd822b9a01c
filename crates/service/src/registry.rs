//! The target-graph registry: named, process-lifetime owned graphs.

use crate::ServiceError;
use sge_graph::io::parse_graph_with_interner;
use sge_graph::{AdjacencyBitmaps, BitmapConfig, Graph, GraphStats};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

// The summary struct itself is wire-plane vocabulary now (LOAD responses
// are built from it); the registry re-exports it so existing
// `registry::GraphInfo` paths keep working.
pub use sge_wire::GraphInfo;

/// Loads and owns named target graphs for the lifetime of the process.
///
/// All graphs funneled through [`GraphRegistry::load_file`] and all query
/// patterns parsed with [`GraphRegistry::parse_pattern`] share **one** label
/// interner, so a pattern's `C`/`N`/`O` labels mean the same dense ids as the
/// target's — the invariant the RI family's label comparisons rely on.
/// Graphs inserted programmatically via [`GraphRegistry::insert`] bypass the
/// interner and must already use consistent integer labels.
struct TargetEntry {
    graph: Arc<Graph>,
    /// Label-frequency statistics, computed by the first plan that reads
    /// them and kept for the next: recomputing them per preparation would
    /// put a full O(V + E log E) target pass on the serving hot path.
    stats: Arc<TargetStats>,
    /// Bitmap adjacency sidecar, built once at registration by the row rule
    /// and shared by every prepared engine against this target.  When the
    /// configured byte cap was exceeded the sidecar is *capped*: it carries
    /// the per-node label signatures (the candidate prefilter keeps working)
    /// but no rows, so every step intersects CSR lists.
    bitmaps: Arc<AdjacencyBitmaps>,
}

/// A registered target's label-frequency statistics, computed on first
/// read.  Only a plan that orders by them reads them
/// ([`sge_ri::Strategy::reads_target_stats`]: a least-frequent-label
/// order without domains), so a `LOAD` does not sort every edge label.
#[derive(Debug, Default)]
pub struct TargetStats(OnceLock<GraphStats>);

impl TargetStats {
    /// The statistics of `target`, the graph registered beside them,
    /// computed by the first call.
    pub fn get(&self, target: &Graph) -> &GraphStats {
        self.0.get_or_init(|| GraphStats::of(target))
    }

    /// Whether a plan has read them yet.
    pub fn computed(&self) -> bool {
        self.0.get().is_some()
    }
}

/// See module docs; holds one [`TargetEntry`] per registered name.
pub struct GraphRegistry {
    graphs: RwLock<HashMap<String, TargetEntry>>,
    /// The label interner shared by every graph and pattern parsed through
    /// this registry.
    interner: Mutex<HashMap<String, u32>>,
}

impl Default for GraphRegistry {
    fn default() -> Self {
        GraphRegistry::new()
    }
}

impl GraphRegistry {
    /// Creates an empty registry with its own label interner.
    pub fn new() -> Self {
        GraphRegistry {
            graphs: RwLock::new(HashMap::new()),
            interner: Mutex::new(HashMap::new()),
        }
    }

    /// Loads a `.gfu`/`.gfd` file and registers it under `name` with the
    /// default [`BitmapConfig`], replacing any previous graph of that name.
    /// A file that fails to parse leaves the label table as it found it.
    pub fn load_file(&self, name: &str, path: impl AsRef<Path>) -> Result<GraphInfo, ServiceError> {
        self.load_file_with_config(name, path, &BitmapConfig::default())
    }

    /// [`GraphRegistry::load_file`] with an explicit sidecar byte cap (the
    /// wire protocol's `LOAD ... bitmap_cap=<bytes>`).
    pub fn load_file_with_config(
        &self,
        name: &str,
        path: impl AsRef<Path>,
        config: &BitmapConfig,
    ) -> Result<GraphInfo, ServiceError> {
        // Read before locking: the interner gates every concurrent query's
        // pattern parse and must not wait on disk I/O.
        let text = std::fs::read_to_string(path).map_err(ServiceError::Io)?;
        let graph = self.parse_interned(&text, true)?;
        Ok(self.insert_with_config(name, graph, config))
    }

    /// Registers an in-memory graph under `name` (labels must already be
    /// consistent with the registry's numbering).
    pub fn insert(&self, name: &str, graph: Graph) -> GraphInfo {
        self.insert_with_config(name, graph, &BitmapConfig::default())
    }

    /// [`GraphRegistry::insert`] with an explicit sidecar byte cap.
    pub fn insert_with_config(&self, name: &str, graph: Graph, config: &BitmapConfig) -> GraphInfo {
        // The bitmap sidecar is built outside the write lock so concurrent
        // lookups never wait on the row-building pass.
        let bitmaps = Arc::new(AdjacencyBitmaps::build(&graph, config));
        let info = graph_info(name, &graph, &bitmaps);
        let entry = TargetEntry {
            stats: Arc::default(),
            graph: Arc::new(graph),
            bitmaps,
        };
        self.graphs
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(name.to_string(), entry);
        info
    }

    /// Looks a target up by name.
    pub fn get(&self, name: &str) -> Option<Arc<Graph>> {
        self.get_full(name).map(|(graph, _, _)| graph)
    }

    /// Looks a target up by name together with its statistics and its bitmap
    /// adjacency sidecar — everything a cached preparation needs.
    pub fn get_full(
        &self,
        name: &str,
    ) -> Option<(Arc<Graph>, Arc<TargetStats>, Arc<AdjacencyBitmaps>)> {
        self.graphs
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(name)
            .map(|entry| {
                (
                    Arc::clone(&entry.graph),
                    Arc::clone(&entry.stats),
                    Arc::clone(&entry.bitmaps),
                )
            })
    }

    /// Parses a query pattern through the shared label interner.
    ///
    /// Labels no loaded graph carries get ids for this parse only: the
    /// table drops them again afterwards, on success and on error, so
    /// queries never grow it.  Within the pattern they keep distinct ids,
    /// and they match no loaded node either way.
    pub fn parse_pattern(&self, text: &str) -> Result<Graph, ServiceError> {
        self.parse_interned(text, false)
    }

    /// Parses `text` through the shared label interner.  The ids the parse
    /// added stay only when it succeeded and `keep_new_labels` is set (a
    /// `LOAD`), so a failed load leaves the table as it found it.
    fn parse_interned(&self, text: &str, keep_new_labels: bool) -> Result<Graph, ServiceError> {
        let mut interner = self
            .interner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let known = interner.len();
        let parsed = parse_graph_with_interner(text, &mut interner);
        if (parsed.is_err() || !keep_new_labels) && interner.len() > known {
            // Ids are dense, so the parse added exactly the ids >= known.
            interner.retain(|_, id| (*id as usize) < known);
        }
        Ok(parsed?)
    }

    /// Summaries of every registered graph, sorted by name.
    pub fn list(&self) -> Vec<GraphInfo> {
        let graphs = self
            .graphs
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut infos: Vec<GraphInfo> = graphs
            .iter()
            .map(|(name, entry)| graph_info(name, &entry.graph, &entry.bitmaps))
            .collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.graphs
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .len()
    }

    /// `true` when no graph is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn graph_info(name: &str, graph: &Graph, bitmaps: &AdjacencyBitmaps) -> GraphInfo {
    GraphInfo {
        name: name.to_string(),
        nodes: graph.num_nodes(),
        edges: graph.num_edges(),
        bitmap_rows: bitmaps.row_count(),
        bitmap_bytes: bitmaps.row_bytes(),
        bitmap_capped: bitmaps.capped(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::generators;
    use sge_graph::io::write_graph;

    #[test]
    fn insert_get_and_list() {
        let registry = GraphRegistry::new();
        assert!(registry.is_empty());
        let info = registry.insert("k4", generators::clique(4, 0));
        assert_eq!(info.nodes, 4);
        assert_eq!(info.edges, 12);
        registry.insert("path", generators::directed_path(3, 0));
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.get("k4").unwrap().num_nodes(), 4);
        assert!(registry.get("missing").is_none());
        // Stats are computed on first read, once.
        let (graph, stats, _) = registry.get_full("k4").unwrap();
        assert!(!stats.computed());
        assert_eq!(stats.get(&graph).nodes, graph.num_nodes());
        assert_eq!(stats.get(&graph).edge_label_count(0), graph.num_edges());
        assert!(registry.get_full("k4").unwrap().1.computed());
        let names: Vec<_> = registry.list().into_iter().map(|i| i.name).collect();
        assert_eq!(names, vec!["k4", "path"]);
    }

    #[test]
    fn file_loading_shares_the_interner_with_patterns() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sge-registry-test-{}.gfu", std::process::id()));
        // Target with string labels: C, N, C.
        std::fs::write(&path, "#mol\n3\nC\nN\nC\n2\n0 1\n1 2\n").unwrap();
        let registry = GraphRegistry::new();
        let info = registry.load_file("mol", &path).unwrap();
        assert_eq!(info.nodes, 3);
        std::fs::remove_file(&path).ok();

        // A pattern using label N must intern to the same id the target got.
        let pattern = registry.parse_pattern("1\nN\n0\n").unwrap();
        let target = registry.get("mol").unwrap();
        assert_eq!(pattern.label(0), target.label(1));
        assert_ne!(pattern.label(0), target.label(0));
    }

    #[test]
    fn query_patterns_leave_the_interner_as_loads_left_it() {
        let registry = GraphRegistry::new();
        let path = std::env::temp_dir().join(format!("sge-interner-{}.gfu", std::process::id()));
        std::fs::write(&path, "2\nC\nN\n1\n0 1\n").unwrap();
        registry.load_file("mol", &path).unwrap();
        std::fs::remove_file(&path).ok();
        let size = || registry.interner.lock().unwrap().len();
        assert_eq!(size(), 2, "LOAD interns");

        for i in 0..1_000 {
            let pattern = registry
                .parse_pattern(&format!("1\nfresh{i}\n0\n"))
                .unwrap();
            assert_eq!(
                pattern.label(0),
                2,
                "a fresh label sits past every loaded one"
            );
        }
        assert_eq!(size(), 2);
        let pair = registry.parse_pattern("3\nX\nY\nN\n0\n").unwrap();
        assert_ne!(pair.label(0), pair.label(1), "fresh labels stay distinct");
        assert_eq!(pair.label(2), 1, "loaded labels keep their ids");
        // The edge names a node the pattern lacks, after both labels were
        // interned.
        assert!(registry.parse_pattern("2\nZ\nW\n1\n0 5\n").is_err());
        assert_eq!(size(), 2);
    }

    #[test]
    fn a_failed_load_leaves_the_interner_as_it_was() {
        let registry = GraphRegistry::new();
        let path = std::env::temp_dir().join(format!("sge-failed-load-{}.gfu", std::process::id()));
        std::fs::write(&path, "2\nC\nN\n1\n0 1\n").unwrap();
        registry.load_file("mol", &path).unwrap();
        let size = || registry.interner.lock().unwrap().len();
        assert_eq!(size(), 2);

        // Three fresh labels are interned before the edge count overruns
        // the file.
        std::fs::write(&path, "3\nzzz\nyyy\nxxx\n5\n0 1\n").unwrap();
        assert!(registry.load_file("bad", &path).is_err());
        assert_eq!(size(), 2, "the failed load's labels are dropped");
        // A bad edge line after a known and a fresh label.
        std::fs::write(&path, "2\nN\nO\n1\n0 x\n").unwrap();
        assert!(registry.load_file("bad", &path).is_err());
        assert_eq!(size(), 2);
        std::fs::remove_file(&path).ok();
        assert!(registry.get("bad").is_none());
        assert_eq!(registry.parse_pattern("1\nN\n0\n").unwrap().label(0), 1);
    }

    #[test]
    fn the_crlf_clique_loads_as_the_plain_one() {
        let registry = GraphRegistry::new();
        let testdata = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata");
        registry
            .load_file("plain", testdata.join("clique5.gfd"))
            .unwrap();
        registry
            .load_file("crlf", testdata.join("clique5_crlf.gfd"))
            .unwrap();
        assert_eq!(registry.get("plain"), registry.get("crlf"));
    }

    #[test]
    fn load_file_missing_is_an_error() {
        let registry = GraphRegistry::new();
        assert!(registry
            .load_file("x", "/nonexistent/definitely-missing.gfu")
            .is_err());
    }

    #[test]
    fn registration_builds_the_bitmap_sidecar() {
        let registry = GraphRegistry::new();
        let info = registry.insert("k12", generators::clique(12, 0));
        // clique(12): every node's 11-neighborhood clears the default
        // threshold in both directions.
        assert_eq!(info.bitmap_rows, 24);
        assert!(info.bitmap_bytes > 0);
        assert!(!info.bitmap_capped);
        let (_, _, bitmaps) = registry.get_full("k12").unwrap();
        assert_eq!(bitmaps.row_count(), 24);

        // A sparse path earns no rows but the sidecar (and its signatures)
        // still exists.
        let sparse = registry.insert("p3", generators::directed_path(3, 0));
        assert_eq!(sparse.bitmap_rows, 0);
        assert!(!sparse.bitmap_capped);
    }

    #[test]
    fn byte_cap_falls_back_to_csr_only() {
        let registry = GraphRegistry::new();
        let config = BitmapConfig {
            max_bytes: 1, // no row fits
        };
        let info = registry.insert_with_config("k12", generators::clique(12, 0), &config);
        assert!(info.bitmap_capped);
        assert_eq!(info.bitmap_rows, 0);
        assert_eq!(info.bitmap_bytes, 0);
        // Signatures survive the cap: the prefilter still works.
        let (_, _, bitmaps) = registry.get_full("k12").unwrap();
        assert!(bitmaps.capped());
        assert_ne!(bitmaps.out_sig(0), 0);
    }

    #[test]
    fn the_benchmark_ppi_target_registers_without_rows() {
        // 5,600 nodes, so a row is 88 words and a neighborhood needs 352
        // same-label neighbors to earn one; the widest has 160.
        let seed = 20170525;
        let spec = sge_datasets::ppis32_like(8.0, seed);
        let target = sge_datasets::generate_target(
            &spec.targets[2],
            seed.wrapping_add(2 * 7919),
            "ppis32-t2",
        );
        let info = GraphRegistry::new().insert("ppi", target);
        let rows = (info.bitmap_rows, info.bitmap_bytes, info.bitmap_capped);
        assert_eq!(rows, (0, 0, false));
    }

    #[test]
    fn reload_replaces() {
        let registry = GraphRegistry::new();
        registry.insert("g", generators::clique(3, 0));
        registry.insert("g", generators::clique(5, 0));
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.get("g").unwrap().num_nodes(), 5);
        // Round-trip sanity: the stored graph serializes like the original.
        let text = write_graph(&generators::clique(5, 0));
        assert_eq!(text, write_graph(&registry.get("g").unwrap()));
    }
}
