//! The row rule on the targets the benchmarks and figures use: dense
//! targets get a bitmap row for every neighborhood, so every constrained
//! step ANDs rows; sparse ones get none and intersect CSR lists.

use sge_datasets::{generate_modular, generate_target, ppis32_like, ModularSpec};
use sge_graph::{generators, row_degree_floor, AdjacencyBitmaps, BitmapConfig, Graph};

/// The default sidecar of `target`.
fn rows(target: &Graph) -> AdjacencyBitmaps {
    AdjacencyBitmaps::build(target, &BitmapConfig::default())
}

#[test]
fn dense_targets_get_a_row_for_every_neighborhood() {
    let targets = [
        // 32 nodes, one word per row: every neighborhood of 31 reaches 8.
        generators::clique(32, 0),
        // The modular figure targets: 512 nodes (floor 32) in 64-cliques
        // and 192 nodes (floor 12) in 24-cliques.
        generate_modular(&ModularSpec::cliques(64), 0x0DA7_A5E7, "modular"),
        generate_modular(&ModularSpec::cliques(24), 0x0DA7_A5E7, "modular-smoke"),
    ];
    for target in &targets {
        let (maps, every, name) = (
            rows(target),
            AdjacencyBitmaps::every_row(target),
            target.name(),
        );
        assert!(!maps.capped(), "{name}");
        // The default rows are a subset of the every-row sidecar's.  Each
        // target is symmetric, so one row per node serves both directions.
        assert!(target.is_symmetric(), "{name}");
        assert_eq!(maps.row_count(), every.row_count(), "{name}");
        assert_eq!(maps.row_count(), target.num_nodes(), "{name}");
        let one_shot = AdjacencyBitmaps::build_if_any_row(target, &BitmapConfig::default());
        assert!(one_shot.is_some(), "{name}");
    }
}

#[test]
fn sparse_targets_get_no_rows() {
    // The PPIS32-like base target of the repository benchmark: 5,600 nodes,
    // 88 words per row, a floor of 352 that no neighborhood reaches.
    let ppi_seed = 20170525;
    let ppi = generate_target(
        &ppis32_like(8.0, ppi_seed).targets[2],
        ppi_seed.wrapping_add(2 * 7919),
        "ppis32-t2",
    );
    assert_eq!(row_degree_floor(ppi.num_nodes()), 352);
    for target in [generators::grid(8, 8), generators::clique(5, 0), ppi] {
        let maps = rows(&target);
        assert_eq!(maps.row_count(), 0, "{}", target.name());
        assert!(!maps.capped(), "{}", target.name());
        let one_shot = AdjacencyBitmaps::build_if_any_row(&target, &BitmapConfig::default());
        assert!(one_shot.is_none(), "{}", target.name());
    }
}
