//! The matcher's behaviour through [`Engine`], one worker on the calling
//! thread: counts, labels, limits and mappings on small instances.

mod tests {
    use crate::{Engine, EnumerationOutcome, RunConfig};
    use sge_graph::{generators, Graph, GraphBuilder, NodeId};
    use sge_ri::{Algorithm, MatchVisitor};
    use sge_util::CancelToken;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    fn run(
        pattern: &Graph,
        target: &Graph,
        algorithm: Algorithm,
        config: &RunConfig,
    ) -> EnumerationOutcome {
        Engine::prepare(pattern, target, algorithm).run(config)
    }

    fn count(pattern: &Graph, target: &Graph, algorithm: Algorithm) -> u64 {
        run(pattern, target, algorithm, &RunConfig::default()).matches
    }

    /// A visitor calling `F` for every match.
    struct Calls<F>(F);

    impl<F: Fn(&[NodeId]) + Sync> MatchVisitor for Calls<F> {
        fn on_match(&self, _worker_id: usize, mapping: &[NodeId]) {
            (self.0)(mapping)
        }
    }

    #[test]
    fn directed_edge_in_clique() {
        // K4 with symmetric directed edges: every ordered pair is an embedding
        // of a single directed edge.
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(4, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 12, "{algo}");
        }
    }

    #[test]
    fn triangle_in_clique() {
        // Directed 3-cycles in K4: choose 3 of 4 vertices (4 ways), each
        // triangle hosts 3! = 6 cyclic node assignments (both rotations of both
        // orientations exist since edges are symmetric).
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(4, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 24, "{algo}");
        }
    }

    #[test]
    fn path_in_path() {
        let pattern = generators::directed_path(3, 0);
        let target = generators::directed_path(6, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 4, "{algo}");
        }
    }

    #[test]
    fn labels_restrict_matches() {
        let pattern = generators::labeled_triangle(1, 2, 3);
        // Target contains two labeled triangles, one with matching labels, one
        // rotated (labels 2,3,1 — which is the same cyclic labeling, so it also
        // matches with a rotated mapping) and one with a wrong label set.
        let mut tb = GraphBuilder::new();
        let a = tb.add_node(1);
        let b = tb.add_node(2);
        let c = tb.add_node(3);
        tb.add_edge(a, b, 0);
        tb.add_edge(b, c, 0);
        tb.add_edge(c, a, 0);
        let d = tb.add_node(1);
        let e = tb.add_node(2);
        let f = tb.add_node(2);
        tb.add_edge(d, e, 0);
        tb.add_edge(e, f, 0);
        tb.add_edge(f, d, 0);
        let target = tb.build();
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 1, "{algo}");
        }
    }

    #[test]
    fn edge_labels_must_match() {
        let mut pb = GraphBuilder::new();
        let p0 = pb.add_node(0);
        let p1 = pb.add_node(0);
        pb.add_edge(p0, p1, 7);
        let pattern = pb.build();

        let mut tb = GraphBuilder::new();
        let t0 = tb.add_node(0);
        let t1 = tb.add_node(0);
        let t2 = tb.add_node(0);
        tb.add_edge(t0, t1, 7);
        tb.add_edge(t1, t2, 8);
        let target = tb.build();
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 1, "{algo}");
        }
    }

    #[test]
    fn no_match_when_pattern_too_large() {
        let pattern = generators::clique(5, 0);
        let target = generators::clique(4, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 0, "{algo}");
        }
    }

    #[test]
    fn empty_pattern_has_one_embedding() {
        let pattern = GraphBuilder::new().build();
        let target = generators::clique(3, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 1, "{algo}");
        }
    }

    #[test]
    fn zero_match_instance_with_wrong_labels() {
        let mut pb = GraphBuilder::new();
        pb.add_node(99);
        let pattern = pb.build();
        let target = generators::clique(6, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 0, "{algo}");
        }
    }

    #[test]
    fn disconnected_pattern_counts_ordered_pairs() {
        // Two isolated pattern nodes in a 4-node edgeless target: 4*3 = 12
        // injective assignments.
        let mut pb = GraphBuilder::new();
        pb.add_nodes(2, 0);
        let pattern = pb.build();
        let mut tb = GraphBuilder::new();
        tb.add_nodes(4, 0);
        let target = tb.build();
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 12, "{algo}");
        }
    }

    #[test]
    fn max_matches_truncates_enumeration() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(6, 0);
        let config = RunConfig::default().with_max_matches(5);
        let result = run(&pattern, &target, Algorithm::Ri, &config);
        assert_eq!(result.matches, 5);
        assert!(result.limit_hit);
    }

    #[test]
    fn collected_mappings_are_valid_embeddings() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(4, 0);
        let engine = Engine::prepare(&pattern, &target, Algorithm::RiDsSiFc);
        let mappings = Mutex::new(Vec::new());
        let visitor = Calls(|mapping: &[NodeId]| mappings.lock().unwrap().push(mapping.to_vec()));
        engine.run_with(&RunConfig::default(), &visitor);
        let mappings = mappings.into_inner().unwrap();
        assert_eq!(mappings.len(), 24);
        for mapping in &mappings {
            assert_eq!(mapping.len(), pattern.num_nodes());
            // Injective.
            let mut sorted = mapping.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), mapping.len());
            // Edge-preserving.
            for (u, v, l) in pattern.edges() {
                assert_eq!(
                    target.edge_label(mapping[u as usize], mapping[v as usize]),
                    Some(l)
                );
            }
        }
    }

    #[test]
    fn search_space_is_reported_and_nonzero() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(5, 0);
        let result = run(&pattern, &target, Algorithm::Ri, &RunConfig::default());
        assert!(result.states > 0);
        assert!(result.match_seconds >= 0.0);
        assert!(!result.timed_out);
    }

    #[test]
    fn domain_variants_never_visit_more_states_than_ri_ds() {
        // The SI/FC improvements only prune; on a fixed instance their search
        // space must not exceed RI-DS's.
        let pattern = generators::undirected_cycle(4, 0);
        let target = generators::grid(4, 4);
        let config = RunConfig::default();
        let ds = run(&pattern, &target, Algorithm::RiDs, &config);
        let si = run(&pattern, &target, Algorithm::RiDsSi, &config);
        let fc = run(&pattern, &target, Algorithm::RiDsSiFc, &config);
        assert_eq!(ds.matches, si.matches);
        assert_eq!(ds.matches, fc.matches);
        assert!(
            fc.states <= ds.states.max(si.states) * 2,
            "FC should not blow up the search space"
        );
    }

    #[test]
    fn timeout_flag_set_for_tiny_deadline() {
        // A 6-cycle in a 6x6 grid is enough work that a zero time limit fires.
        let pattern = generators::undirected_cycle(6, 0);
        let target = generators::grid(6, 6);
        let config = RunConfig::default().with_time_limit(Duration::from_nanos(1));
        let result = run(&pattern, &target, Algorithm::Ri, &config);
        assert!(result.timed_out || result.match_seconds < 0.05);
    }

    #[test]
    fn cancel_token_stops_the_search_early() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(12, 0); // 132 embeddings
        let engine = Engine::prepare(&pattern, &target, Algorithm::Ri);
        let cancel = Arc::new(CancelToken::new());
        let seen = AtomicU64::new(0);
        let visitor = Calls(|_: &[NodeId]| {
            if seen.fetch_add(1, Ordering::Relaxed) + 1 == 3 {
                cancel.cancel();
            }
        });
        let run = engine.execute(&RunConfig::default(), Some(&visitor), Some(&cancel));
        assert!(run.cancelled);
        assert_eq!(run.matches, 3, "the search stops at the next match");
        assert!(!run.timed_out);
        assert!(!run.limit_hit);
        // A token that never fires changes nothing.
        let untouched = Arc::new(CancelToken::new());
        let full = engine.execute(&RunConfig::default(), None, Some(&untouched));
        assert!(!full.cancelled);
        assert_eq!(full.matches, 132);
    }

    #[test]
    fn single_node_pattern_counts_label_occurrences() {
        let mut pb = GraphBuilder::new();
        pb.add_node(3);
        let pattern = pb.build();
        let mut tb = GraphBuilder::new();
        tb.add_node(3);
        tb.add_node(3);
        tb.add_node(4);
        let target = tb.build();
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 2, "{algo}");
        }
    }
}
