//! End-to-end service tests over the in-process API (the acceptance path:
//! registry load → repeated query → cache hit → identical mappings).

use sge_engine::{EnumerationOutcome, RunConfig, Scheduler};
use sge_graph::{generators, io::write_graph};
use sge_ri::Algorithm;
use sge_service::{QuerySet, QuerySpec, Service, ServiceConfig};

fn temp_path(stem: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("{stem}-{}", std::process::id()))
}

/// The ISSUE acceptance scenario: load a target file into the registry,
/// submit the same pattern twice, observe a PreparedCache hit (preprocessing
/// runs once) and byte-identical sorted mappings from both queries and
/// across schedulers.
#[test]
fn repeated_pattern_hits_cache_with_identical_mappings() {
    let service = Service::new(ServiceConfig::default());

    // Load the target from a real file, as a server deployment would.
    let target_path = temp_path("sge-e2e-k5.gfd");
    std::fs::write(&target_path, write_graph(&generators::clique(5, 0))).unwrap();
    let info = service.registry().load_file("k5", &target_path).unwrap();
    std::fs::remove_file(&target_path).ok();
    assert_eq!(info.nodes, 5);
    assert_eq!(info.edges, 20);

    let pattern = write_graph(&generators::directed_cycle(3, 0));
    let spec = QuerySpec::new(&pattern)
        .with_run(RunConfig::new(Scheduler::Sequential).with_collected_mappings(1000));

    let first = service.run_query("k5", &spec).unwrap();
    let second = service.run_query("k5", &spec).unwrap();

    // Preprocessing ran once: miss then hit.
    assert!(!first.cache_hit);
    assert!(second.cache_hit);
    let cache = service.cache().stats();
    assert_eq!(cache.misses, 1);
    assert_eq!(cache.hits, 1);
    assert_eq!(first.pattern_hash, second.pattern_hash);

    // Byte-identical sorted mappings from both queries…
    assert_eq!(first.outcome.matches, 60);
    assert_eq!(second.outcome.matches, 60);
    assert_eq!(first.outcome.mappings.len(), 60);
    assert_eq!(first.outcome.mappings, second.outcome.mappings);
    // …and the cached preprocessing cost is reported unchanged.
    assert_eq!(
        first.outcome.preprocess_seconds,
        second.outcome.preprocess_seconds
    );

    // …and across every scheduler, all served by the same cached engine.
    for scheduler in [
        Scheduler::work_stealing(2),
        Scheduler::work_stealing(4),
        Scheduler::WorkStealing {
            workers: 3,
            task_group_size: 1,
            stealing: false,
        },
    ] {
        let run = RunConfig::new(scheduler).with_collected_mappings(1000);
        let outcome = service
            .run_query("k5", &QuerySpec::new(&pattern).with_run(run))
            .unwrap();
        assert!(outcome.cache_hit, "{scheduler}");
        assert_eq!(
            outcome.outcome.mappings, first.outcome.mappings,
            "{scheduler}"
        );
    }
    assert_eq!(service.cache().stats().misses, 1, "preprocessing ran once");

    let stats = service.stats();
    assert_eq!(stats.queries_served, 5);
    assert_eq!(stats.total_matches, 5 * 60);
    assert_eq!(stats.errors, 0);
    assert!(stats.latency_max_seconds > 0.0);
}

#[test]
fn algorithms_agree_through_the_service() {
    let service = Service::new(ServiceConfig::default());
    service.registry().insert("grid", generators::grid(4, 4));
    let pattern = write_graph(&generators::undirected_cycle(4, 0));
    let mut reference = None;
    for algorithm in Algorithm::ALL {
        let spec = QuerySpec::new(&pattern)
            .with_algorithm(algorithm)
            .with_run(RunConfig::default().with_collected_mappings(10_000));
        let outcome = service.run_query("grid", &spec).unwrap();
        let mappings = outcome.outcome.mappings.clone();
        match &reference {
            None => reference = Some(mappings),
            Some(expected) => assert_eq!(&mappings, expected, "{algorithm}"),
        }
    }
    // Four distinct cache entries: the algorithm is part of the key.
    assert_eq!(service.cache().stats().entries, 4);
}

#[test]
fn batch_through_the_service_matches_single_queries() {
    let service = Service::new(ServiceConfig {
        cache_capacity: 8,
        batch_workers: 4,
        max_in_flight: 3,
        ..ServiceConfig::default()
    });
    service.registry().insert("k6", generators::clique(6, 0));

    let patterns = [
        write_graph(&generators::directed_cycle(3, 0)),
        write_graph(&generators::directed_path(2, 0)),
        write_graph(&generators::clique(3, 0)),
    ];
    let singles: Vec<u64> = patterns
        .iter()
        .map(|p| {
            service
                .run_query("k6", &QuerySpec::new(p))
                .unwrap()
                .outcome
                .matches
        })
        .collect();

    let mut set = QuerySet::new("k6");
    for (i, pattern) in patterns.iter().cycle().take(30).enumerate() {
        let scheduler = match i % 3 {
            0 => Scheduler::Sequential,
            1 => Scheduler::work_stealing(2),
            _ => Scheduler::WorkStealing {
                workers: 2,
                task_group_size: 1,
                stealing: false,
            },
        };
        set.push(QuerySpec::new(pattern).with_run(RunConfig::new(scheduler)));
    }
    let outcome = service.run_batch(&set);
    assert_eq!(outcome.succeeded(), 30);
    for (i, result) in outcome.results.iter().enumerate() {
        assert_eq!(
            result.as_ref().unwrap().outcome.matches,
            singles[i % 3],
            "query {i}"
        );
    }
    // Every batched query reused one of the three prepared engines.
    assert_eq!(outcome.cache_hits(), 30);
    assert_eq!(service.cache().stats().misses, 3);
}

#[test]
fn unknown_target_and_bad_pattern_are_clean_errors() {
    let service = Service::new(ServiceConfig::default());
    service.registry().insert("k3", generators::clique(3, 0));
    let good = write_graph(&generators::directed_path(2, 0));
    assert!(service
        .run_query("missing", &QuerySpec::new(&good))
        .is_err());
    assert!(service
        .run_query("k3", &QuerySpec::new("3\n0\n0\n"))
        .is_err());
    assert_eq!(service.stats().errors, 2);
    assert_eq!(service.stats().queries_served, 0);
}

#[test]
fn reloading_a_target_serves_fresh_results_not_the_cached_engine() {
    let service = Service::new(ServiceConfig::default());
    service.registry().insert("t", generators::clique(5, 0));
    let pattern = write_graph(&generators::directed_cycle(3, 0));

    let before = service.run_query("t", &QuerySpec::new(&pattern)).unwrap();
    assert_eq!(before.outcome.matches, 60);

    // Replace the target under the same name (what a LOAD does on reload).
    service.registry().insert("t", generators::clique(4, 0));
    let after = service.run_query("t", &QuerySpec::new(&pattern)).unwrap();
    assert!(!after.cache_hit, "stale engine must be invalidated");
    assert_eq!(after.outcome.matches, 24, "answers come from the new graph");

    let again = service.run_query("t", &QuerySpec::new(&pattern)).unwrap();
    assert!(again.cache_hit, "the fresh engine is cached");
    assert_eq!(again.outcome.matches, 24);
}

#[test]
fn time_and_match_limits_flow_through() {
    let service = Service::new(ServiceConfig::default());
    service.registry().insert("k6", generators::clique(6, 0));
    let pattern = write_graph(&generators::directed_cycle(3, 0));
    let limited = service
        .run_query(
            "k6",
            &QuerySpec::new(&pattern).with_run(RunConfig::default().with_max_matches(7)),
        )
        .unwrap();
    assert_eq!(limited.outcome.matches, 7);
    assert!(limited.outcome.limit_hit);
}

#[test]
fn explain_counts_errors_and_reports_the_cached_plan() {
    let service = Service::new(ServiceConfig::default());
    service
        .registry()
        .insert("k5", sge_graph::generators::clique(5, 0));
    let pattern = sge_graph::io::write_graph(&sge_graph::generators::directed_cycle(3, 0));

    // Every explain failure mode increments the error counter, exactly as
    // run_query failures do.
    assert!(service.explain("ghost", &QuerySpec::new(&pattern)).is_err());
    assert!(service
        .explain("k5", &QuerySpec::new("not a graph"))
        .is_err());
    assert_eq!(service.stats().errors, 2);

    // A successful explain reports the plan and warms the cache for the
    // identical query.
    let explained = service.explain("k5", &QuerySpec::new(&pattern)).unwrap();
    assert!(!explained.cache_hit);
    assert_eq!(explained.engine.plan().num_positions(), 3);
    assert_eq!(explained.engine.estimate().est_total_states, 85.0);
    let query = service.run_query("k5", &QuerySpec::new(&pattern)).unwrap();
    assert!(query.cache_hit, "explain must warm the prepared cache");
    assert_eq!(query.outcome.matches, 60);
    // Explains do not count as served queries.
    assert_eq!(service.stats().queries_served, 1);
}

/// A [`StreamSink`] over plain vectors, optionally failing after a number of
/// frames to emulate a client that disconnects mid-stream.
struct VecSink {
    header: Option<sge_service::StreamHeader>,
    rows: Vec<Vec<sge_graph::NodeId>>,
    frames: usize,
    fail_after_frames: Option<usize>,
}

impl VecSink {
    fn new() -> Self {
        VecSink {
            header: None,
            rows: Vec::new(),
            frames: 0,
            fail_after_frames: None,
        }
    }

    fn failing_after(frames: usize) -> Self {
        VecSink {
            fail_after_frames: Some(frames),
            ..VecSink::new()
        }
    }
}

impl sge_service::StreamSink for VecSink {
    fn begin(&mut self, header: &sge_service::StreamHeader) -> std::io::Result<()> {
        self.header = Some(header.clone());
        Ok(())
    }

    fn rows(&mut self, rows: &[Vec<sge_graph::NodeId>]) -> std::io::Result<()> {
        if self
            .fail_after_frames
            .is_some_and(|limit| self.frames >= limit)
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "client gone",
            ));
        }
        self.frames += 1;
        self.rows.extend(rows.iter().cloned());
        Ok(())
    }
}

#[test]
fn streamed_rows_match_buffered_collection_for_every_scheduler() {
    let service = Service::new(ServiceConfig::default());
    service.registry().insert("k5", generators::clique(5, 0));
    let pattern = write_graph(&generators::directed_cycle(3, 0));

    let reference = service
        .run_query(
            "k5",
            &QuerySpec::new(&pattern).with_run(RunConfig::default().with_collected_mappings(1000)),
        )
        .unwrap();
    assert_eq!(reference.outcome.mappings.len(), 60);

    for scheduler in [
        Scheduler::Sequential,
        Scheduler::work_stealing(3),
        Scheduler::WorkStealing {
            workers: 2,
            task_group_size: 1,
            stealing: false,
        },
    ] {
        for chunk in [1usize, 7, 1000] {
            let mut sink = VecSink::new();
            let streamed = service
                .run_query_streaming(
                    "k5",
                    &QuerySpec::new(&pattern)
                        .with_run(RunConfig::new(scheduler))
                        .with_streaming(chunk),
                    &mut sink,
                )
                .unwrap();
            assert_eq!(streamed.query.outcome.matches, 60, "{scheduler} {chunk}");
            assert_eq!(streamed.rows_sent, 60, "{scheduler} {chunk}");
            assert!(!streamed.cancelled, "{scheduler} {chunk}");
            assert!(
                streamed.query.outcome.mappings.is_empty(),
                "rows go to the sink, not the outcome"
            );
            let header = sink.header.expect("header delivered before rows");
            assert_eq!(header.chunk, chunk.min(65_536));
            let mut rows = sink.rows;
            assert_eq!(rows.len(), 60, "{scheduler} {chunk}");
            rows.sort_unstable();
            assert_eq!(rows, reference.outcome.mappings, "{scheduler} {chunk}");
        }
    }
    // Streamed queries show up in the aggregate stream counters.
    let stats = service.stats();
    assert_eq!(stats.streams_served, 9);
    assert_eq!(stats.rows_streamed, 9 * 60);
    assert_eq!(stats.streams_cancelled, 0);
}

#[test]
fn failing_sink_cancels_enumeration_and_is_counted() {
    let service = Service::new(ServiceConfig::default());
    service.registry().insert("k16", generators::clique(16, 0));
    let pattern = write_graph(&generators::directed_path(2, 0)); // 240 matches

    let mut sink = VecSink::failing_after(2);
    let streamed = service
        .run_query_streaming(
            "k16",
            &QuerySpec::new(&pattern).with_streaming(4),
            &mut sink,
        )
        .unwrap();
    assert!(streamed.cancelled);
    assert_eq!(streamed.rows_sent, 8, "two 4-row frames were delivered");
    assert!(
        streamed.query.outcome.matches < 240,
        "enumeration stopped early, got {}",
        streamed.query.outcome.matches
    );
    let stats = service.stats();
    assert_eq!(stats.streams_served, 1);
    assert_eq!(stats.streams_cancelled, 1);
    assert_eq!(stats.rows_streamed, 8);
}

#[test]
fn explain_analyze_reports_observed_counts_and_spans() {
    let service = Service::new(ServiceConfig::default());
    service.registry().insert("k5", generators::clique(5, 0));
    let pattern = write_graph(&generators::directed_cycle(3, 0));

    let analyzed = service
        .explain_analyze("k5", &QuerySpec::new(&pattern))
        .unwrap();
    assert_eq!(analyzed.query.outcome.matches, 60);
    assert!(
        analyzed.query.outcome.mappings.is_empty(),
        "collection disabled"
    );

    // Observed arrays line up position-for-position with the estimates.
    let plan = analyzed.engine.plan();
    assert_eq!(analyzed.observed_candidates.len(), plan.num_positions());
    assert_eq!(analyzed.observed_states.len(), plan.num_positions());
    let estimate = &analyzed.engine.estimate().positions;
    assert_eq!(estimate.len(), plan.num_positions());
    assert!(analyzed.observed_candidates[0] > 0);
    assert_eq!(
        analyzed.observed_states.iter().sum::<u64>(),
        analyzed.query.outcome.states,
        "per-position checks sum to the outcome's state count"
    );

    // The span breakdown covers the documented phases, in order, with
    // offsets relative to the query start.
    let names: Vec<&str> = analyzed.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["plan", "admission_wait", "enumeration"]);
    for span in &analyzed.spans {
        assert!(span.start_seconds >= 0.0, "{}", span.name);
        assert!(span.duration_seconds >= 0.0, "{}", span.name);
        assert!(
            span.start_seconds + span.duration_seconds <= analyzed.query.latency_seconds + 1e-9
        );
    }

    // An analyze counts as a served query and warms the cache.
    assert_eq!(service.stats().queries_served, 1);
    let query = service.run_query("k5", &QuerySpec::new(&pattern)).unwrap();
    assert!(query.cache_hit, "analyze must warm the prepared cache");

    // Observed counts are schedule-invariant: a parallel analyze of the
    // same query reports identical per-position arrays.
    let parallel = service
        .explain_analyze(
            "k5",
            &QuerySpec::new(&pattern).with_run(RunConfig::new(Scheduler::work_stealing(4))),
        )
        .unwrap();
    assert_eq!(parallel.observed_candidates, analyzed.observed_candidates);
    assert_eq!(parallel.observed_states, analyzed.observed_states);
}

#[test]
fn a_counted_query_reports_the_states_analyze_observes() {
    // A centre with three out-leaves in K5: every leaf reads only the
    // centre, so a count-only QUERY counts positions 1.. below each centre
    // image, while EXPLAIN ANALYZE, which traces, enumerates them.
    let service = Service::new(ServiceConfig::default());
    service.registry().insert("k5", generators::clique(5, 0));
    let pattern = write_graph(&generators::star(3, 0, 0));
    let query = service.run_query("k5", &QuerySpec::new(&pattern)).unwrap();
    let analyzed = service
        .explain_analyze("k5", &QuerySpec::new(&pattern))
        .unwrap();
    assert_eq!(analyzed.engine.counted_from(), 1);
    assert_eq!(analyzed.observed_states, [5, 20, 80, 240]);
    assert_eq!(query.outcome.matches, 120);
    assert_eq!(analyzed.query.outcome.matches, 120);
    assert_eq!(query.outcome.states, 345);
    assert_eq!(analyzed.query.outcome.states, 345);
    let lists = |o: &EnumerationOutcome| (o.kernels.lists, o.kernels.reused);
    assert_eq!(lists(&query.outcome), lists(&analyzed.query.outcome));
}

#[test]
fn metrics_snapshot_covers_the_catalogue_and_agrees_with_stats() {
    use sge_obs::MetricValue;

    let service = Service::new(ServiceConfig {
        cache_capacity: 8,
        batch_workers: 2,
        max_in_flight: 2,
        ..ServiceConfig::default()
    });
    service.registry().insert("k5", generators::clique(5, 0));
    let pattern = write_graph(&generators::directed_cycle(3, 0));
    service.run_query("k5", &QuerySpec::new(&pattern)).unwrap();
    service.run_query("k5", &QuerySpec::new(&pattern)).unwrap();
    service.run_query("missing", &QuerySpec::new(&pattern)).ok();

    let snapshot = service.metrics_snapshot();
    let get = |name: &str| {
        snapshot
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("metric {name} missing from snapshot"))
    };
    assert_eq!(get("service.queries_served"), MetricValue::Counter(2));
    assert_eq!(get("service.total_matches"), MetricValue::Counter(120));
    assert_eq!(get("service.errors"), MetricValue::Counter(1));
    assert_eq!(get("service.admissions"), MetricValue::Counter(2));
    assert_eq!(get("cache.hits"), MetricValue::Counter(1));
    assert_eq!(get("cache.misses"), MetricValue::Counter(1));
    assert_eq!(get("cache.inserts"), MetricValue::Counter(1));
    assert_eq!(get("cache.evictions"), MetricValue::Counter(0));
    assert_eq!(get("cache.entries"), MetricValue::Gauge(1));
    assert_eq!(get("cache.capacity"), MetricValue::Gauge(8));
    // Engine totals accumulate across served queries (two identical runs).
    match get("engine.states") {
        MetricValue::Counter(states) => assert!(states > 0 && states % 2 == 0),
        other => panic!("engine.states: {other:?}"),
    }
    match get("service.latency_seconds") {
        MetricValue::Histogram(summary) => assert_eq!(summary.count, 2),
        other => panic!("service.latency_seconds: {other:?}"),
    }

    // Snapshots are idempotent: the cache mirror uses deltas, so a second
    // snapshot reports the same counts, not doubled ones.
    let again = service.metrics_snapshot();
    assert_eq!(snapshot, again);
    // STATS and METRICS read the same cells.
    assert_eq!(service.stats().queries_served, 2);
}

#[test]
fn zero_max_in_flight_is_clamped_not_deadlocked() {
    // Regression: admission with zero permits used to block the first query
    // forever.  The semaphore now clamps to one permit.
    let service = Service::new(ServiceConfig {
        cache_capacity: 4,
        batch_workers: 2,
        max_in_flight: 0,
        ..ServiceConfig::default()
    });
    service.registry().insert("k5", generators::clique(5, 0));
    let pattern = write_graph(&generators::directed_cycle(3, 0));
    let outcome = service.run_query("k5", &QuerySpec::new(&pattern)).unwrap();
    assert_eq!(outcome.outcome.matches, 60);
}

// ---------------------------------------------------------------------------
// Routed scheduling
// ---------------------------------------------------------------------------

/// Routed and pinned-scheduler runs of the same query return byte-identical
/// sorted mappings — routing changes *where* the tree is enumerated, never
/// *what* comes back.
#[test]
fn routed_and_pinned_schedulers_agree_on_sorted_mappings() {
    use sge_engine::RoutingConfig;
    // Threshold 1 state: every routed query fans out to work-stealing, so
    // the parity below crosses scheduler families even on a 1-core host.
    let service = Service::new(ServiceConfig {
        routing: RoutingConfig::pinned(1.0, 100.0, 4),
        ..ServiceConfig::default()
    });
    service.registry().insert("k6", generators::clique(6, 0));
    let pattern = write_graph(&generators::directed_cycle(3, 0));
    let collect = RunConfig::default().with_collected_mappings(10_000);

    let routed = service
        .run_query("k6", &QuerySpec::new(&pattern).with_run(collect).routed())
        .unwrap();
    assert!(routed.routed);
    assert!(
        matches!(routed.outcome.scheduler, Scheduler::WorkStealing { .. }),
        "threshold 1 must route to work-stealing, got {}",
        routed.outcome.scheduler
    );

    for scheduler in [Scheduler::Sequential, Scheduler::work_stealing(4)] {
        let pinned = service
            .run_query(
                "k6",
                &QuerySpec::new(&pattern)
                    .with_run(RunConfig::new(scheduler).with_collected_mappings(10_000)),
            )
            .unwrap();
        assert!(!pinned.routed, "{scheduler}");
        assert_eq!(pinned.outcome.scheduler, scheduler);
        assert_eq!(
            pinned.outcome.mappings, routed.outcome.mappings,
            "routed vs pinned {scheduler}: sorted mappings must be identical"
        );
        assert_eq!(pinned.outcome.matches, routed.outcome.matches);
    }
}

/// The dispatch counters split routed traffic by scheduler family, and
/// EXPLAIN surfaces the routing decision without executing anything.
#[test]
fn dispatch_counters_and_explain_report_routing() {
    use sge_engine::RoutingConfig;
    let service = Service::new(ServiceConfig {
        routing: RoutingConfig::pinned(50_000.0, 25_000.0, 4),
        ..ServiceConfig::default()
    });
    service.registry().insert("k5", generators::clique(5, 0));
    let pattern = write_graph(&generators::directed_cycle(3, 0));

    let outcome = service.run_query("k5", &QuerySpec::new(&pattern)).unwrap();
    assert!(outcome.routed);
    // 60 matches in a 5-clique sits far under the 50k threshold.
    assert_eq!(outcome.outcome.scheduler, Scheduler::Sequential);
    let (sequential, work_stealing) = service.dispatch_counts();
    assert_eq!((sequential, work_stealing), (1, 0));

    // A pinned run is not *routed*, but its dispatch is still counted.
    service
        .run_query(
            "k5",
            &QuerySpec::new(&pattern).with_run(RunConfig::new(Scheduler::work_stealing(2))),
        )
        .unwrap();
    assert_eq!(service.dispatch_counts(), (1, 1));

    let explain = service.explain("k5", &QuerySpec::new(&pattern)).unwrap();
    assert!(explain.routed);
    assert_eq!(explain.routing.scheduler, Scheduler::Sequential);
    // One counted level: the count-only price is the whole tree's.
    assert_eq!(explain.routing.price, 85.0);
    assert!(explain.routing.threshold == 50_000.0);
    // EXPLAIN plans only: the dispatch counters did not move.
    assert_eq!(service.dispatch_counts(), (1, 1));
}

/// A count-only query is priced by the work its run does: below each of
/// the 30 centres of `star(5)` in K30 the five leaves are counted, each
/// count scanning five lists of 29, so the buffered, unlimited run is
/// priced at 30 + 30 · 29 · 5 = 4,380 states, not at the 515,727,330 of its
/// tree.  A match limit or a stream makes the run walk the tree, and
/// routing prices all of it.
#[test]
fn a_count_only_query_is_priced_by_its_count() {
    use sge_engine::RoutingConfig;
    use sge_service::EmitMode;
    let service = Service::new(ServiceConfig {
        routing: RoutingConfig::pinned(50_000.0, 25_000.0, 4),
        ..ServiceConfig::default()
    });
    service.registry().insert("k30", generators::clique(30, 0));
    let spec = QuerySpec::new(write_graph(&generators::star(5, 0, 0)));
    let counted = service.explain("k30", &spec).unwrap();
    assert_eq!(counted.engine.estimate().est_total_states, 515_727_330.0);
    assert_eq!(counted.engine.counted_from(), 1);
    assert_eq!(counted.routing.price, 4_380.0);
    assert_eq!(counted.effective_scheduler, Scheduler::Sequential);
    // The wire reports the price beside the threshold it was compared with.
    let wire = sge_service::protocol::explain_response(&counted).render();
    assert!(
        wire.contains(
            "\"routing\":{\"chosen_scheduler\":\"sequential\",\"routed\":true,\
             \"threshold\":50000.0,\"price\":4380.0}"
        ),
        "{wire}"
    );
    let mut limited = spec.clone();
    limited.run.max_matches = Some(10);
    let mut streamed = spec.clone();
    streamed.emit = EmitMode::Stream;
    for walked in [limited, streamed] {
        let explain = service.explain("k30", &walked).unwrap();
        assert_eq!(explain.routing.price, 515_727_330.0);
        assert_eq!(explain.effective_scheduler, Scheduler::work_stealing(4));
    }
}

/// A `LOAD` whose sidecar trips the byte cap records a `bitmap_cap_fallback`
/// event, and a dense query afterwards still answers correctly (the gallop
/// kernels serve it) while an uncapped load ticks the bitmap counter.
#[test]
fn bitmap_cap_fallback_is_logged_and_counted() {
    let service = Service::new(ServiceConfig::default());
    let log = std::sync::Arc::new(sge_obs::EventLog::new(16));
    service.set_event_log(std::sync::Arc::clone(&log));

    let target_path = temp_path("sge-e2e-k16.gfd");
    std::fs::write(&target_path, write_graph(&generators::clique(16, 0))).unwrap();

    // Capped: rows are dropped, the event log says so with the numbers.
    let capped = service.load_target("k16", &target_path, Some(1)).unwrap();
    assert!(capped.bitmap_capped);
    assert_eq!(capped.bitmap_rows, 0);
    let events = log.recent();
    let warning = events
        .iter()
        .find(|line| line.contains("bitmap_cap_fallback"))
        .expect("cap fallback event recorded");
    assert!(warning.contains("\"target\":\"k16\""), "{warning}");
    assert!(warning.contains("\"cap_bytes\":1"), "{warning}");

    let pattern = write_graph(&generators::directed_cycle(4, 0));
    let spec = QuerySpec::new(&pattern).with_algorithm(Algorithm::RiDs);
    let capped_run = service.run_query("k16", &spec).unwrap();
    assert_eq!(capped_run.outcome.matches, 43_680);
    assert_eq!(capped_run.outcome.kernels.bitmap, 0, "no rows, no bitmap");
    assert!(capped_run.outcome.kernels.intersections() > 0);

    // Uncapped reload: same answer, now over the bitmap kernel, and the
    // service-level counter moved.
    let full = service.load_target("k16", &target_path, None).unwrap();
    std::fs::remove_file(&target_path).ok();
    assert!(!full.bitmap_capped);
    // K16 is symmetric: one row per node serves both directions.
    assert_eq!(full.bitmap_rows, 16);
    let full_run = service.run_query("k16", &spec).unwrap();
    assert_eq!(full_run.outcome.matches, 43_680);
    assert!(full_run.outcome.kernels.bitmap > 0);
    let snapshot = service.metrics_snapshot();
    let bitmap_counter = snapshot
        .iter()
        .find(|(name, _)| name.as_str() == "engine.kernel.bitmap")
        .map(|(_, value)| match value {
            sge_obs::MetricValue::Counter(v) => *v,
            other => panic!("unexpected metric kind {other:?}"),
        })
        .expect("engine.kernel.bitmap registered");
    assert_eq!(bitmap_counter, full_run.outcome.kernels.bitmap);
    // Exactly one cap warning was emitted: the clean reload logged nothing.
    assert_eq!(
        log.recent()
            .iter()
            .filter(|line| line.contains("bitmap_cap_fallback"))
            .count(),
        1
    );
}

// ---------------------------------------------------------------------------
// Per-verb accounting
// ---------------------------------------------------------------------------

/// What a request moved in the service's books: the STATS counters, the
/// dispatch counts and METRICS `engine.states`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Books {
    queries_served: u64,
    errors: u64,
    streams_served: u64,
    rows_streamed: u64,
    streams_cancelled: u64,
    admissions: u64,
    dispatch: (u64, u64),
    engine_states: u64,
}

/// The value of the METRICS counter `name`.
fn counter(service: &Service, name: &str) -> u64 {
    service
        .metrics_snapshot()
        .into_iter()
        .find(|(metric, _)| metric == name)
        .map(|(_, value)| match value {
            sge_obs::MetricValue::Counter(count) => count,
            other => panic!("{name}: {other:?}"),
        })
        .unwrap_or_else(|| panic!("{name} not registered"))
}

impl Books {
    fn read(service: &Service) -> Books {
        let stats = service.stats();
        Books {
            queries_served: stats.queries_served,
            errors: stats.errors,
            streams_served: stats.streams_served,
            rows_streamed: stats.rows_streamed,
            streams_cancelled: stats.streams_cancelled,
            admissions: stats.admissions,
            dispatch: service.dispatch_counts(),
            engine_states: counter(service, "engine.states"),
        }
    }

    fn since(self, before: Books) -> Books {
        Books {
            queries_served: self.queries_served - before.queries_served,
            errors: self.errors - before.errors,
            streams_served: self.streams_served - before.streams_served,
            rows_streamed: self.rows_streamed - before.rows_streamed,
            streams_cancelled: self.streams_cancelled - before.streams_cancelled,
            admissions: self.admissions - before.admissions,
            dispatch: (
                self.dispatch.0 - before.dispatch.0,
                self.dispatch.1 - before.dispatch.1,
            ),
            engine_states: self.engine_states - before.engine_states,
        }
    }
}

/// A sink whose header write fails: the client left before the stream began.
struct GoneBeforeHeader;

impl sge_service::StreamSink for GoneBeforeHeader {
    fn begin(&mut self, _: &sge_service::StreamHeader) -> std::io::Result<()> {
        Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "client gone",
        ))
    }

    fn rows(&mut self, _: &[Vec<sge_graph::NodeId>]) -> std::io::Result<()> {
        unreachable!("no rows after a failed header")
    }
}

/// How one accounting case calls the service.
#[derive(Clone, Copy, Debug)]
enum Verb {
    Query,
    /// A streamed QUERY in 4-row frames; `Some(n)` fails the sink after
    /// `n` frames.
    Stream(Option<usize>),
    /// A streamed QUERY whose header write fails.
    StreamGone,
    Explain,
    Analyze,
}

/// Sentinel for a cancelled stream's `engine.states`: it stops at a
/// schedule-dependent state, so the change must equal the count the call
/// itself reported.
const AS_REPORTED: u64 = u64::MAX;

/// Calls `verb` and returns the states its run reported (0 when nothing
/// ran), or the error.
fn call(service: &Service, verb: Verb, target: &str, pattern: &str) -> Result<u64, String> {
    let spec = QuerySpec::new(pattern);
    let failed = |err: sge_service::ServiceError| err.to_string();
    match verb {
        Verb::Query => service
            .run_query(target, &spec)
            .map(|query| query.outcome.states)
            .map_err(failed),
        Verb::Stream(fail_after) => {
            let mut sink = match fail_after {
                Some(frames) => VecSink::failing_after(frames),
                None => VecSink::new(),
            };
            service
                .run_query_streaming(target, &spec.with_streaming(4), &mut sink)
                .map(|streamed| streamed.query.outcome.states)
                .map_err(failed)
        }
        Verb::StreamGone => service
            .run_query_streaming(target, &spec, &mut GoneBeforeHeader)
            .map(|streamed| streamed.query.outcome.states)
            .map_err(failed),
        Verb::Explain => service.explain(target, &spec).map(|_| 0).map_err(failed),
        Verb::Analyze => service
            .explain_analyze(target, &spec)
            .map(|analyzed| analyzed.observed_states.iter().sum())
            .map_err(failed),
    }
}

/// Every query verb's accounting, success and failure alike: which STATS
/// counters, dispatch counts and engine totals one request moves.
#[test]
fn every_verb_moves_exactly_its_own_counters() {
    use sge_engine::RoutingConfig;
    let service = Service::new(ServiceConfig {
        routing: RoutingConfig::pinned(50_000.0, 25_000.0, 4),
        ..ServiceConfig::default()
    });
    service.registry().insert("k5", generators::clique(5, 0));
    let triangle = write_graph(&generators::directed_cycle(3, 0));
    let (triangle, garbage) = (triangle.as_str(), "not a graph");
    // The 5-clique's 60 directed triangles take 85 states; the planner
    // routes that small tree to the sequential scheduler.
    let ran = |streamed: u64, rows: u64, cancelled: u64, states: u64| Books {
        queries_served: 1,
        streams_served: streamed,
        rows_streamed: rows,
        streams_cancelled: cancelled,
        admissions: 1,
        dispatch: (1, 0),
        engine_states: states,
        ..Books::default()
    };
    let error = Books {
        errors: 1,
        ..Books::default()
    };
    let mut cases = vec![
        (
            "QUERY",
            Verb::Query,
            "k5",
            triangle,
            Ok(()),
            ran(0, 0, 0, 85),
        ),
        (
            "stream",
            Verb::Stream(None),
            "k5",
            triangle,
            Ok(()),
            ran(1, 60, 0, 85),
        ),
        // Two 4-row frames land, the third write fails and cancels the run.
        (
            "stream cut mid-way",
            Verb::Stream(Some(2)),
            "k5",
            triangle,
            Ok(()),
            ran(1, 8, 1, AS_REPORTED),
        ),
        (
            "stream without header",
            Verb::StreamGone,
            "k5",
            triangle,
            Err(()),
            error,
        ),
        (
            "EXPLAIN",
            Verb::Explain,
            "k5",
            triangle,
            Ok(()),
            Books::default(),
        ),
        (
            "EXPLAIN ANALYZE",
            Verb::Analyze,
            "k5",
            triangle,
            Ok(()),
            ran(0, 0, 0, 85),
        ),
    ];
    for verb in [
        Verb::Query,
        Verb::Stream(None),
        Verb::Explain,
        Verb::Analyze,
    ] {
        cases.push(("unknown target", verb, "ghost", triangle, Err(()), error));
        cases.push(("unparsable pattern", verb, "k5", garbage, Err(()), error));
    }

    for (case, verb, target, pattern, succeeds, mut expected) in cases {
        let before = Books::read(&service);
        let result = call(&service, verb, target, pattern);
        let moved = Books::read(&service).since(before);
        assert_eq!(
            result.is_ok(),
            succeeds.is_ok(),
            "{case} {verb:?}: {result:?}"
        );
        if expected.engine_states == AS_REPORTED {
            expected.engine_states = result.clone().unwrap();
        }
        assert_eq!(moved, expected, "{case} {verb:?}");
    }
}

/// A sink that panics on its first frame, as a query that hits a bug
/// mid-run does.
struct PanickingSink;

impl sge_service::StreamSink for PanickingSink {
    fn begin(&mut self, _: &sge_service::StreamHeader) -> std::io::Result<()> {
        Ok(())
    }

    fn rows(&mut self, _: &[Vec<sge_graph::NodeId>]) -> std::io::Result<()> {
        panic!("sink exploded")
    }
}

/// A panicking query answers a structured internal error, is counted once
/// in `errors` and in `service.panics`, is logged, and gives its admission
/// permit back: with one permit, the next query would otherwise block.
#[test]
fn a_panicking_query_is_contained_and_the_service_keeps_serving() {
    let service = Service::new(ServiceConfig {
        max_in_flight: 1,
        ..ServiceConfig::default()
    });
    let log = std::sync::Arc::new(sge_obs::EventLog::new(16));
    service.set_event_log(std::sync::Arc::clone(&log));
    service.registry().insert("k5", generators::clique(5, 0));
    let pattern = write_graph(&generators::directed_cycle(3, 0));
    assert_eq!(counter(&service, "service.panics"), 0);

    let err = service
        .run_query_streaming("k5", &QuerySpec::new(&pattern), &mut PanickingSink)
        .expect_err("the panic comes back as an error");
    assert_eq!(
        sge_service::protocol::error_response(&err).render(),
        "{\"ok\":false,\"error\":\"internal error: sink exploded\"}"
    );
    assert_eq!(counter(&service, "service.errors"), 1);
    assert_eq!(counter(&service, "service.panics"), 1);
    let events = log.recent();
    let event = events
        .iter()
        .find(|line| line.contains("\"event\":\"query_panic\""))
        .expect("query_panic event recorded");
    assert!(event.contains("\"target\":\"k5\""), "{event}");
    assert!(event.contains("sink exploded"), "{event}");

    let next = service.run_query("k5", &QuerySpec::new(&pattern)).unwrap();
    assert_eq!(next.outcome.matches, 60);
    assert_eq!(counter(&service, "service.errors"), 1);
    assert_eq!(counter(&service, "service.panics"), 1);
}
