//! Streaming match observation shared by every scheduler.
//!
//! The unified `sge::Engine` supports streaming matches out of a run instead
//! of (or in addition to) collecting them.  A one-worker run calls the
//! visitor from the calling thread; a parallel run calls it concurrently
//! from the calling thread and the pooled helpers that joined it, so
//! implementations must be [`Sync`] and do their own interior-mutable
//! aggregation (an atomic counter, a mutexed vec, …).  `Engine::run_streaming`
//! is such a visitor: it hands each mapping to its consumer under one lock.

use sge_graph::NodeId;

/// Observer invoked once per discovered embedding, from whichever worker
/// thread found it.
///
/// `mapping[p]` is the target node the pattern node `p` is mapped to (indexed
/// by *pattern node id*, not by search position — the order every scheduler
/// agrees on).  The slice is only valid for the duration of the call; copy it
/// if it must outlive the callback, or take it by value through
/// [`MatchVisitor::on_match_owned`].
pub trait MatchVisitor: Sync {
    /// Called for every match.  `worker_id` identifies the finding worker
    /// (always 0 in a one-worker run).
    fn on_match(&self, worker_id: usize, mapping: &[NodeId]);

    /// Called instead of [`MatchVisitor::on_match`] when the run built the
    /// mapping for this visitor alone, so a visitor that keeps mappings can
    /// take it without a copy.  By default it lends the mapping to
    /// `on_match`.
    fn on_match_owned(&self, worker_id: usize, mapping: Vec<NodeId>) {
        self.on_match(worker_id, &mapping);
    }
}

/// Collects mappings under a mutex, up to a limit — the building block of
/// `collect_mappings` support in the parallel schedulers.
///
/// Once full, further matches are ignored without taking the lock, so the
/// collector stays off the hot path after the limit is reached; callers can
/// also consult [`CollectingVisitor::is_full`] to skip building the mapping
/// at all.
#[derive(Debug, Default)]
pub struct CollectingVisitor {
    limit: usize,
    collected: std::sync::Mutex<Vec<Vec<NodeId>>>,
    full: std::sync::atomic::AtomicBool,
}

impl CollectingVisitor {
    /// Collects at most `limit` mappings (0 = collect nothing).
    pub fn new(limit: usize) -> Self {
        CollectingVisitor {
            limit,
            collected: std::sync::Mutex::new(Vec::new()),
            full: std::sync::atomic::AtomicBool::new(limit == 0),
        }
    }

    /// `true` once the limit is reached: further `on_match` calls are no-ops,
    /// so callers need not materialize mappings for this collector anymore.
    pub fn is_full(&self) -> bool {
        self.full.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Takes the collected mappings out of the visitor.
    pub fn take(&self) -> Vec<Vec<NodeId>> {
        std::mem::take(&mut *self.collected.lock().expect("collector mutex poisoned"))
    }
}

impl MatchVisitor for CollectingVisitor {
    fn on_match(&self, worker_id: usize, mapping: &[NodeId]) {
        if !self.is_full() {
            self.on_match_owned(worker_id, mapping.to_vec());
        }
    }

    fn on_match_owned(&self, _worker_id: usize, mapping: Vec<NodeId>) {
        if self.is_full() {
            return;
        }
        let mut guard = self.collected.lock().expect("collector mutex poisoned");
        if guard.len() < self.limit {
            guard.push(mapping);
        }
        if guard.len() >= self.limit {
            self.full.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_visitor_respects_limit() {
        let visitor = CollectingVisitor::new(2);
        assert!(!visitor.is_full());
        for i in 0..5u32 {
            visitor.on_match(0, &[i, i + 1]);
        }
        assert!(visitor.is_full());
        let collected = visitor.take();
        assert_eq!(collected, vec![vec![0, 1], vec![1, 2]]);
        assert!(visitor.take().is_empty(), "take drains the collector");
    }

    #[test]
    fn zero_limit_collects_nothing() {
        let visitor = CollectingVisitor::new(0);
        visitor.on_match(1, &[4, 5, 6]);
        assert!(visitor.take().is_empty());
    }
}
