//! The three synthetic data collections and their instance sets.

use crate::pattern_gen::{extract_pattern, DensityClass};
use crate::target_gen::{generate_target, LabelDistribution, TargetSpec};
use sge_graph::stats::CollectionStats;
use sge_graph::Graph;

/// Which of the paper's collections a synthetic collection emulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectionKind {
    /// Dense protein–protein interaction networks, 32 normally-distributed labels.
    Ppis32,
    /// Microbial networks, 32 uniformly-distributed labels.
    Graemlin32,
    /// Very sparse RNA/DNA/protein graphs.
    PdbsV1,
}

impl CollectionKind {
    /// The collection name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            CollectionKind::Ppis32 => "PPIS32",
            CollectionKind::Graemlin32 => "GRAEMLIN32",
            CollectionKind::PdbsV1 => "PDBSv1",
        }
    }

    /// All three collections.
    pub const ALL: [CollectionKind; 3] = [
        CollectionKind::Ppis32,
        CollectionKind::Graemlin32,
        CollectionKind::PdbsV1,
    ];
}

impl std::fmt::Display for CollectionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full description of a synthetic collection: target specs plus the pattern
/// extraction plan.
#[derive(Clone, Debug)]
pub struct CollectionSpec {
    /// Which paper collection this emulates.
    pub kind: CollectionKind,
    /// One spec per target graph.
    pub targets: Vec<TargetSpec>,
    /// Pattern sizes, in directed edges (the paper uses 4, 8, …, 256).
    pub pattern_edges: Vec<usize>,
    /// Patterns extracted per (target, size) combination.
    pub patterns_per_size: usize,
    /// Master seed.
    pub seed: u64,
}

/// One query instance: a pattern plus the index of the target it is matched
/// against.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Stable identifier (collection / target / size / replica).
    pub id: String,
    /// Index into [`Collection::targets`].
    pub target_index: usize,
    /// Requested pattern size in edges.
    pub requested_edges: usize,
    /// Density class of the extracted pattern.
    pub class: DensityClass,
    /// The pattern graph.
    pub pattern: Graph,
}

/// A generated collection: targets plus instances.
#[derive(Clone, Debug)]
pub struct Collection {
    /// Which paper collection this emulates.
    pub kind: CollectionKind,
    /// Target graphs.
    pub targets: Vec<Graph>,
    /// Query instances.
    pub instances: Vec<Instance>,
}

impl Collection {
    /// Generates the collection described by `spec` (deterministic in
    /// `spec.seed`).
    pub fn generate(spec: &CollectionSpec) -> Collection {
        let mut targets = Vec::with_capacity(spec.targets.len());
        for (i, target_spec) in spec.targets.iter().enumerate() {
            let name = format!("{}-target-{i}", spec.kind.name());
            targets.push(generate_target(
                target_spec,
                spec.seed.wrapping_add(i as u64 * 7919),
                &name,
            ));
        }

        let mut instances = Vec::new();
        for (t_idx, target) in targets.iter().enumerate() {
            for &edges in &spec.pattern_edges {
                for replica in 0..spec.patterns_per_size {
                    let seed = spec
                        .seed
                        .wrapping_mul(31)
                        .wrapping_add((t_idx * 1000 + edges * 10 + replica) as u64);
                    if let Some(pattern) = extract_pattern(target, edges, seed) {
                        instances.push(Instance {
                            id: format!("{}/t{}/e{}/r{}", spec.kind.name(), t_idx, edges, replica),
                            target_index: t_idx,
                            requested_edges: edges,
                            class: DensityClass::of(&pattern),
                            pattern,
                        });
                    }
                }
            }
        }

        Collection {
            kind: spec.kind,
            targets,
            instances,
        }
    }

    /// The target graph an instance is matched against.
    pub fn target_of(&self, instance: &Instance) -> &Graph {
        &self.targets[instance.target_index]
    }

    /// Table 1-style aggregate statistics of the target graphs.
    pub fn stats(&self) -> CollectionStats {
        CollectionStats::of(self.targets.iter())
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// `true` when the collection has no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(8)
}

/// Spec emulating PPIS32: few large dense targets, 32 normally-distributed
/// node labels, heavy-tailed degrees.  `scale` multiplies the node counts
/// (1.0 ≈ a laptop-friendly reduction of the original sizes).
pub fn ppis32_like(scale: f64, seed: u64) -> CollectionSpec {
    let sizes = [400usize, 550, 700, 900];
    CollectionSpec {
        kind: CollectionKind::Ppis32,
        targets: sizes
            .iter()
            .map(|&n| TargetSpec {
                nodes: scaled(n, scale),
                avg_out_degree: 10.0,
                weight_sigma: 1.1,
                labels: 32,
                label_distribution: LabelDistribution::Normal,
                edge_labels: 1,
            })
            .collect(),
        pattern_edges: vec![4, 8, 16, 32, 64],
        patterns_per_size: 2,
        seed,
    }
}

/// Spec emulating GRAEMLIN32: medium dense microbial networks, 32 uniform
/// labels.
pub fn graemlin32_like(scale: f64, seed: u64) -> CollectionSpec {
    let sizes = [250usize, 400, 550, 700];
    CollectionSpec {
        kind: CollectionKind::Graemlin32,
        targets: sizes
            .iter()
            .map(|&n| TargetSpec {
                nodes: scaled(n, scale),
                avg_out_degree: 14.0,
                weight_sigma: 0.9,
                labels: 32,
                label_distribution: LabelDistribution::Uniform,
                edge_labels: 1,
            })
            .collect(),
        pattern_edges: vec![4, 8, 16, 32, 64],
        patterns_per_size: 2,
        seed,
    }
}

/// Spec emulating PDBSv1: many very sparse targets of widely varying size,
/// a small label alphabet.
pub fn pdbsv1_like(scale: f64, seed: u64) -> CollectionSpec {
    let sizes = [150usize, 300, 600, 1000, 1600, 2400];
    CollectionSpec {
        kind: CollectionKind::PdbsV1,
        targets: sizes
            .iter()
            .map(|&n| TargetSpec {
                nodes: scaled(n, scale),
                avg_out_degree: 1.6,
                weight_sigma: 0.4,
                labels: 8,
                label_distribution: LabelDistribution::Uniform,
                edge_labels: 1,
            })
            .collect(),
        pattern_edges: vec![4, 8, 16, 32],
        patterns_per_size: 2,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = graemlin32_like(0.2, 99);
        let a = Collection::generate(&spec);
        let b = Collection::generate(&spec);
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn all_kinds_generate_nonempty_collections() {
        for (kind, spec) in [
            (CollectionKind::Ppis32, ppis32_like(0.15, 1)),
            (CollectionKind::Graemlin32, graemlin32_like(0.15, 2)),
            (CollectionKind::PdbsV1, pdbsv1_like(0.15, 3)),
        ] {
            let collection = Collection::generate(&spec);
            assert_eq!(collection.kind, kind);
            assert!(!collection.targets.is_empty());
            assert!(!collection.is_empty(), "{kind} has no instances");
            let stats = collection.stats();
            assert!(stats.nodes_max >= stats.nodes_min);
            assert!(stats.degree_mean > 0.0);
        }
    }

    #[test]
    fn ppis_is_denser_than_pdbs() {
        let ppis = Collection::generate(&ppis32_like(0.2, 5));
        let pdbs = Collection::generate(&pdbsv1_like(0.2, 5));
        assert!(
            ppis.stats().degree_mean > 2.0 * pdbs.stats().degree_mean,
            "PPIS32-like targets must be much denser than PDBSv1-like ones"
        );
    }

    #[test]
    fn instances_reference_valid_targets_and_embed() {
        let collection = Collection::generate(&graemlin32_like(0.15, 7));
        for instance in collection.instances.iter().take(6) {
            assert!(instance.target_index < collection.targets.len());
            let target = collection.target_of(instance);
            let matches = sge_vf2::enumerate_limited(&instance.pattern, target, Some(1)).matches;
            assert!(matches >= 1, "instance {} does not embed", instance.id);
        }
    }

    #[test]
    fn instance_ids_are_unique() {
        let collection = Collection::generate(&pdbsv1_like(0.2, 11));
        let mut ids: Vec<&str> = collection.instances.iter().map(|i| i.id.as_str()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn scale_changes_target_sizes() {
        let small = Collection::generate(&ppis32_like(0.1, 17));
        let large = Collection::generate(&ppis32_like(0.3, 17));
        assert!(large.stats().nodes_max > small.stats().nodes_max);
    }
}
