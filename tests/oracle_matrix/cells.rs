//! The configuration axes and the list of cells that exist.

use sge::prelude::*;
use sge::util::SplitMix64;
use std::time::Duration;

/// An axis: a fieldless enum and the list of its values.
macro_rules! axis {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $value:ident),+ $(,)? }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum $name { $($(#[$vdoc])* $value),+ }

        impl $name {
            pub const ALL: &'static [$name] = &[$($name::$value),+];
        }
    };
}

axis! {
    /// How the instance is prepared and which sidecar it runs over.  The
    /// sidecar decides the kernel: a constrained step ANDs bitmap rows
    /// exactly when the sidecar holds a row for each of its constraints.
    Kernel {
        /// `Engine::prepare_planned`: the default sidecar only when it holds
        /// a row, so targets without one run without the prefilter.
        OneShot,
        /// `PreparedEngine::prepare_planned_full` with the registry-default
        /// sidecar.
        Default,
        /// The same over `AdjacencyBitmaps::every_row`: every constrained
        /// step ANDs rows.
        RowsPresent,
        /// The same with a zero-byte cap: signatures and no row, so every
        /// step intersects CSR lists.
        Capped,
        /// `SearchContext::from_plan` over the zero-byte-cap sidecar: CSR
        /// intersection at every step.
        ForcedGallop,
        /// The same over the every-row sidecar: the bitmap AND at every
        /// constrained step.
        ForcedBitmap,
    }
}

axis! {
    /// The scheduler; worker counts, task-group sizes (1-8) and the
    /// scheduling seed are drawn per cell.
    Sched {
        Sequential,
        Ws1,
        Ws2,
        /// `ws:3` or `ws:4`.
        WsN,
        /// `ws:N:g:nosteal`, the frozen initial partition.
        NoSteal,
    }
}

axis! {
    /// Where the matches go.
    Delivery {
        /// `Engine::run` with no observer: without a limit, every scheduler
        /// counts the independent suffix by the suffix-count rule.
        Count,
        /// `Engine::run` collecting mappings, to capacity or short of it.
        Collect,
        /// `Engine::run_with` and a visitor keeping every row.
        Visitor,
        /// `Engine::run_streaming`, rows handed to the consumer on the
        /// workers, under one lock.
        Stream,
        /// `Engine::run` with a `TraceSink` attached.
        Analyze,
        /// The forced kernels: `Engine::from_context` over a context of the
        /// plan and the kernel's sidecar, sequential count-only and
        /// enumerating, plus a walk of the whole tree diffing every
        /// candidate set against a scalar reference.
        Driver,
        /// `Service::run_query`, scheduler pinned, collecting rows.
        Pinned,
        /// The same with the scheduler picked by routing.
        Routed,
        /// `Service::run_query_streaming` in chunks of 1-4.
        ServiceStream,
        /// `Service::explain_analyze`.
        ServiceAnalyze,
    }
}

axis! {
    /// How the run is cut short.
    Limit {
        None,
        MaxZero,
        MaxOne,
        /// A budget below the total, or one the instance pins.
        MaxBelow,
        MaxEqual,
        MaxAbove,
        DeadlineZero,
        Deadline1ms,
        /// The consumer stops after 1-3 rows.
        Cancel,
    }
}

impl Sched {
    /// The scheduler, with the task-group size drawn from 1-8 and `N` from
    /// 1-4 (3-4 for `WsN`).
    pub fn draw(self, rng: &mut SplitMix64) -> Scheduler {
        let task_group_size = 1 + rng.next_below(8);
        let n = 1 + rng.next_below(4);
        let ws = |workers, stealing| Scheduler::WorkStealing {
            workers,
            task_group_size,
            stealing,
        };
        match self {
            Sched::Sequential => Scheduler::Sequential,
            Sched::Ws1 => ws(1, true),
            Sched::Ws2 => ws(2, true),
            Sched::WsN => ws(3 + n % 2, true),
            Sched::NoSteal => ws(n, false),
        }
    }
}

impl Limit {
    /// The `max_matches` budget against `total` matches; `MaxBelow` draws
    /// from the instance's pinned `budgets` when it has any.
    pub fn max_matches(self, total: u64, budgets: &[u64], rng: &mut SplitMix64) -> Option<u64> {
        Some(match self {
            Limit::MaxZero => 0,
            Limit::MaxOne => 1,
            Limit::MaxBelow if !budgets.is_empty() => budgets[rng.next_below(budgets.len())],
            Limit::MaxBelow if total >= 2 => 1 + rng.next_below(total as usize - 1) as u64,
            Limit::MaxBelow => total.saturating_sub(1),
            Limit::MaxEqual => total,
            Limit::MaxAbove => total + 1,
            _ => return None,
        })
    }

    pub fn time_limit(self) -> Option<Duration> {
        match self {
            Limit::DeadlineZero => Some(Duration::ZERO),
            Limit::Deadline1ms => Some(Duration::from_millis(1)),
            _ => None,
        }
    }
}

/// One configuration of the enumeration stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Cell {
    pub algorithm: Algorithm,
    pub strategy: Strategy,
    pub kernel: Kernel,
    pub sched: Sched,
    pub delivery: Delivery,
    pub limit: Limit,
}

impl Cell {
    /// Whether the combination exists.  The ones that do not:
    /// - a cancel without a stream: only a streaming consumer stops early;
    /// - a forced kernel outside the driver, or the driver with anything
    ///   but a forced kernel, `Sequential` and no limit: the driver cells
    ///   are the kernel-parity walk and run to completion;
    /// - a service delivery over any sidecar but the default and the
    ///   capped one: the registry builds its own by the row rule, and a
    ///   byte cap is all a load can set;
    /// - a routed query under any scheduler but one: routing picks it.
    pub fn exists(&self) -> bool {
        let forced = matches!(self.kernel, Kernel::ForcedGallop | Kernel::ForcedBitmap);
        let stream = matches!(self.delivery, Delivery::Stream | Delivery::ServiceStream);
        if self.limit == Limit::Cancel && !stream {
            return false;
        }
        if forced || self.delivery == Delivery::Driver {
            return forced
                && self.delivery == Delivery::Driver
                && self.sched == Sched::Sequential
                && self.limit == Limit::None;
        }
        let registry = matches!(self.kernel, Kernel::Default | Kernel::Capped);
        (registry || !self.is_service())
            && (self.delivery != Delivery::Routed || self.sched == Sched::Sequential)
    }

    pub fn is_service(&self) -> bool {
        matches!(
            self.delivery,
            Delivery::Pinned
                | Delivery::Routed
                | Delivery::ServiceStream
                | Delivery::ServiceAnalyze
        )
    }

    /// Whether a failure may depend on the thread interleaving.
    pub fn is_parallel(&self) -> bool {
        self.sched != Sched::Sequential || self.delivery == Delivery::Routed
    }
}

/// Every cell that exists, in a stable order.
pub fn all() -> Vec<Cell> {
    let mut cells = Vec::new();
    for algorithm in Algorithm::ALL {
        for strategy in Strategy::ALL {
            for &kernel in Kernel::ALL {
                for &sched in Sched::ALL {
                    for &delivery in Delivery::ALL {
                        for &limit in Limit::ALL {
                            let cell = Cell {
                                algorithm,
                                strategy,
                                kernel,
                                sched,
                                delivery,
                                limit,
                            };
                            if cell.exists() {
                                cells.push(cell);
                            }
                        }
                    }
                }
            }
        }
    }
    cells
}
