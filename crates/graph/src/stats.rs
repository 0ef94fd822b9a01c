//! Graph statistics in the shape of the paper's Table 1.

use crate::graph::Graph;
use sge_util::RunningStats;

/// Summary statistics of one graph: node/edge counts, the mean / standard
/// deviation of the total degree and the number of distinct node labels.
/// Table 1 of the paper reports these quantities per collection.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Minimum total degree.
    pub degree_min: usize,
    /// Maximum total degree.
    pub degree_max: usize,
    /// Mean total degree.
    pub degree_mean: f64,
    /// Population standard deviation of the total degree.
    pub degree_stddev: f64,
    /// Number of distinct node labels.
    pub distinct_labels: usize,
}

impl GraphStats {
    /// Computes statistics for one graph.
    pub fn of(graph: &Graph) -> Self {
        let mut deg = RunningStats::new();
        for v in graph.nodes() {
            deg.push(graph.degree(v) as f64);
        }
        let mut labels = graph.node_labels().to_vec();
        labels.sort_unstable();
        labels.dedup();
        GraphStats {
            nodes: graph.num_nodes(),
            edges: graph.num_edges(),
            degree_min: deg.min().unwrap_or(0.0) as usize,
            degree_max: deg.max().unwrap_or(0.0) as usize,
            degree_mean: deg.mean(),
            degree_stddev: deg.stddev(),
            distinct_labels: labels.len(),
        }
    }
}

/// Aggregate statistics over a collection of graphs: the min/max node and edge
/// counts and the degree mean/σ pooled over all nodes of all graphs, matching
/// how Table 1 summarizes each data collection.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectionStats {
    /// Number of graphs in the collection.
    pub graphs: usize,
    /// Minimum node count over the graphs.
    pub nodes_min: usize,
    /// Maximum node count over the graphs.
    pub nodes_max: usize,
    /// Minimum edge count over the graphs.
    pub edges_min: usize,
    /// Maximum edge count over the graphs.
    pub edges_max: usize,
    /// Mean total degree pooled over every node of every graph.
    pub degree_mean: f64,
    /// Standard deviation of the pooled total degree.
    pub degree_stddev: f64,
}

impl CollectionStats {
    /// Computes pooled statistics over `graphs`.
    pub fn of<'a>(graphs: impl IntoIterator<Item = &'a Graph>) -> Self {
        let mut nodes_min = usize::MAX;
        let mut nodes_max = 0usize;
        let mut edges_min = usize::MAX;
        let mut edges_max = 0usize;
        let mut count = 0usize;
        let mut deg = RunningStats::new();
        for g in graphs {
            count += 1;
            nodes_min = nodes_min.min(g.num_nodes());
            nodes_max = nodes_max.max(g.num_nodes());
            edges_min = edges_min.min(g.num_edges());
            edges_max = edges_max.max(g.num_edges());
            for v in g.nodes() {
                deg.push(g.degree(v) as f64);
            }
        }
        if count == 0 {
            nodes_min = 0;
            edges_min = 0;
        }
        CollectionStats {
            graphs: count,
            nodes_min,
            nodes_max,
            edges_min,
            edges_max,
            degree_mean: deg.mean(),
            degree_stddev: deg.stddev(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn stats_of_clique() {
        let g = generators::clique(5, 0);
        let s = GraphStats::of(&g);
        assert_eq!(s.nodes, 5);
        assert_eq!(s.edges, 20);
        assert_eq!(s.degree_min, 8);
        assert_eq!(s.degree_max, 8);
        assert!((s.degree_mean - 8.0).abs() < 1e-12);
        assert!(s.degree_stddev.abs() < 1e-12);
        assert_eq!(s.distinct_labels, 1);
    }

    #[test]
    fn stats_of_star_have_spread() {
        let g = generators::star(6, 1, 2);
        let s = GraphStats::of(&g);
        assert_eq!(s.degree_max, 6);
        assert_eq!(s.degree_min, 1);
        assert!(s.degree_stddev > 0.0);
        assert_eq!(s.distinct_labels, 2);
    }

    #[test]
    fn collection_stats_pool_over_graphs() {
        let graphs = [generators::clique(3, 0), generators::clique(5, 0)];
        let s = CollectionStats::of(graphs.iter());
        assert_eq!(s.graphs, 2);
        assert_eq!(s.nodes_min, 3);
        assert_eq!(s.nodes_max, 5);
        assert_eq!(s.edges_min, 6);
        assert_eq!(s.edges_max, 20);
        // 3 nodes of degree 4 and 5 nodes of degree 8.
        let expected_mean = (3.0 * 4.0 + 5.0 * 8.0) / 8.0;
        assert!((s.degree_mean - expected_mean).abs() < 1e-12);
    }

    #[test]
    fn empty_collection_is_zeroed() {
        let s = CollectionStats::of(std::iter::empty());
        assert_eq!(s.graphs, 0);
        assert_eq!(s.nodes_min, 0);
        assert_eq!(s.nodes_max, 0);
    }
}
