//! Workload inputs, made from the seed.
//!
//! Each workload has a fixed base instance; the seed permutes the target's
//! node ids (an isomorphic copy, so embedding and state counts do not
//! move).  Re-drawing the instance per seed would not do: two 128-edge PPI
//! patterns inside one embedding-count band ran 1.8-2.1 s and 3.2-3.5 s
//! sequentially, a spread no 25% bound survives.
//!
//! A permutation does change which embeddings a search meets first, so
//! every timed operation enumerates completely.

use sge::datasets::{extract_pattern, generate_target, ppis32_like};
use sge::graph::{io, Graph};
use sge::plan::Algorithm;
use sge::wire::protocol::encode_inline_pattern;
use sge::{Engine, RunConfig, Scheduler};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;

/// Generator seed of the PPIS32-like base target (both PPI workloads).
pub const PPI_BASE_SEED: u64 = 20170525;
/// Pattern size of the selected instances, in directed edges.
pub const SELECTED_EDGES: usize = 128;
/// Embedding-count band `enum_long`'s instance is selected by (inclusive).
pub const LONG_BAND: (u64, u64) = (6_000_000, 9_000_000);
/// Embedding-count band of `serve_ppi`'s medium query (inclusive).
pub const MEDIUM_BAND: (u64, u64) = (300_000, 800_000);
/// Distinct patterns of the `serve_ppi` mix.
pub const PPI_PATTERNS: usize = 20;
/// Most embeddings a `serve_ppi` pattern may have.
pub const PPI_MAX_MATCHES: u64 = 500;

/// SplitMix64: the harness's own seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A query pattern: its text, its inline wire form (carrying the label
/// strings the server interns), the same pattern parsed in-process, and its
/// embedding count.
pub struct Pattern {
    pub text: String,
    pub inline: String,
    pub graph: Graph,
    pub expected: u64,
}

/// A target with its patterns, parsed through one label interner so the
/// in-process graphs agree on labels the way the server's registry does.
pub struct Instance {
    pub target_text: String,
    pub target: Graph,
    pub patterns: Vec<Pattern>,
    interner: HashMap<String, u32>,
}

impl Instance {
    pub fn new(target_text: String) -> Instance {
        let mut interner = HashMap::new();
        let target = io::parse_graph_with_interner(&target_text, &mut interner)
            .expect("generated target parses");
        Instance {
            target_text,
            target,
            patterns: Vec::new(),
            interner,
        }
    }

    /// Parses `text` against this instance's labels, with a known
    /// embedding count.
    pub fn pattern(&mut self, text: String, expected: u64) -> Pattern {
        let graph =
            io::parse_graph_with_interner(&text, &mut self.interner).expect("pattern parses");
        Pattern {
            expected,
            inline: encode_inline_pattern(&text),
            graph,
            text,
        }
    }

    /// [`Instance::pattern`], counting embeddings with the VF2 oracle.
    pub fn counted_pattern(&mut self, text: String) -> Pattern {
        let mut pattern = self.pattern(text, 0);
        pattern.expected = sge::vf2::count_matches(&pattern.graph, &self.target);
        pattern
    }
}

/// The PPIS32-like base target: `ppis32_like(8.0, PPI_BASE_SEED)` target 2
/// (5.6k nodes, 55.6k directed edges, 32 labels).
pub fn ppi_base_target() -> Graph {
    let spec = ppis32_like(8.0, PPI_BASE_SEED);
    generate_target(
        &spec.targets[2],
        PPI_BASE_SEED.wrapping_add(2 * 7919),
        "ppis32-t2",
    )
}

/// `graph` in the exchange format with its node ids permuted by `seed` in
/// blocks of `block` consecutive ids: the blocks trade places and the ids
/// inside each are shuffled (a block of the whole graph is a free
/// permutation).  Labels and edges follow their nodes.
///
/// # Panics
///
/// When `block` does not divide the node count.
pub fn permuted_text(graph: &Graph, seed: u64, block: usize) -> String {
    let n = graph.num_nodes();
    assert!(
        block > 0 && n.is_multiple_of(block),
        "{block} does not divide {n}"
    );
    let mut rng = Rng::new(seed ^ 0x5EED_0F1D);
    let mut slots: Vec<usize> = (0..n / block).collect();
    rng.shuffle(&mut slots);
    let mut new_of_old: Vec<u32> = Vec::with_capacity(n);
    for slot in slots {
        let mut ids: Vec<u32> = ((slot * block) as u32..((slot + 1) * block) as u32).collect();
        rng.shuffle(&mut ids);
        new_of_old.extend(ids);
    }
    let mut old_of_new = vec![0u32; n];
    for (old, &new) in new_of_old.iter().enumerate() {
        old_of_new[new as usize] = old as u32;
    }
    let mut text = String::with_capacity(16 * graph.num_edges() + 4 * n);
    let _ = writeln!(text, "#{}\n{n}", graph.name());
    for &old in &old_of_new {
        let _ = writeln!(text, "{}", graph.label(old));
    }
    let _ = writeln!(text, "{}", graph.num_edges());
    for (u, v, label) in graph.edges() {
        let _ = writeln!(
            text,
            "{} {} {label}",
            new_of_old[u as usize], new_of_old[v as usize]
        );
    }
    text
}

/// `serve_ppi` (and the short queries of `enum_long`): the first
/// [`PPI_PATTERNS`] distinct 3-8-edge patterns extracted from `base` with
/// 1..=[`PPI_MAX_MATCHES`] embeddings, against the seed's free permutation
/// of `base`.
pub fn ppi_serving(base: &Graph, seed: u64) -> Instance {
    let mut instance = Instance::new(permuted_text(base, seed, base.num_nodes()));
    let mut seen = HashSet::new();
    for i in 0..2000u64 {
        if instance.patterns.len() == PPI_PATTERNS {
            break;
        }
        let extraction = PPI_BASE_SEED.wrapping_mul(31).wrapping_add(10_000 + i);
        let Some(pattern) = extract_pattern(base, 3 + (i % 6) as usize, extraction) else {
            continue;
        };
        let text = io::write_graph_body(&pattern);
        if seen.insert(text.clone()) {
            let pattern = instance.counted_pattern(text);
            if (1..=PPI_MAX_MATCHES).contains(&pattern.expected) {
                instance.patterns.push(pattern);
            }
        }
    }
    instance
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn candidate(base: &Graph, index: u64) -> Option<Graph> {
    extract_pattern(
        base,
        SELECTED_EDGES,
        PPI_BASE_SEED.wrapping_mul(31).wrapping_add(index),
    )
}

/// The text of the first extracted [`SELECTED_EDGES`]-edge pattern of the
/// base target whose embedding count lies in `band`, with that count.
/// Embedding counts do not depend on the implementation, so every version
/// of the program selects the same pattern.
///
/// Counting stops at the band's upper edge, yet a selection can still cost
/// ~10 s, so its result is cached at `cache`; the cache is trusted only
/// while the pattern it names re-extracts to the same text.
pub fn select_pattern(base: &Graph, band: (u64, u64), cache: &Path) -> (String, u64) {
    let key = format!(
        "base={PPI_BASE_SEED} edges={SELECTED_EDGES} band={}-{}",
        band.0, band.1
    );
    if let Ok(saved) = std::fs::read_to_string(cache) {
        let fields: Vec<&str> = saved.trim().rsplitn(4, ' ').collect();
        if let [hash, count, index, saved_key] = fields[..] {
            let text = index
                .parse()
                .ok()
                .and_then(|index| candidate(base, index))
                .map(|pattern| io::write_graph_body(&pattern));
            if let (Some(text), Ok(count)) = (text, count.parse()) {
                if saved_key == key && fnv1a(&text).to_string() == hash {
                    return (text, count);
                }
            }
        }
    }
    for index in 0..1000u64 {
        let Some(pattern) = candidate(base, index) else {
            continue;
        };
        let count = Engine::prepare(&pattern, base, Algorithm::RiDsSiFc)
            .run(&RunConfig::new(Scheduler::Sequential).with_max_matches(band.1 + 1))
            .matches;
        if (band.0..=band.1).contains(&count) {
            let text = io::write_graph_body(&pattern);
            let _ = std::fs::write(cache, format!("{key} {index} {count} {}\n", fnv1a(&text)));
            return (text, count);
        }
    }
    panic!("no {SELECTED_EDGES}-edge pattern with {band:?} embeddings");
}
