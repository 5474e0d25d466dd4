//! Zero-overhead-when-disabled instrumentation for the netsim cluster:
//! hierarchical spans, counters, histograms and message events keyed to
//! the *virtual clock* — the cumulative seconds a rank has been charged
//! across every timer category (really-measured on-node work plus
//! modeled wire and wait terms). Each simulated rank owns a [`Recorder`]; a finished
//! rank yields a [`Timeline`] that attributes its time to the paper's
//! phases (`pack`, `unpack`, `copy`, `wire`, `wait`, `compute`), can be
//! exported as Chrome-trace/Perfetto JSON, and feeds the straggler
//! critical-path analyzer.
//!
//! Design invariants, tested property-style from the workspace root:
//!
//! * **Clock/timer agreement** — every leaf charge advances the virtual
//!   clock by exactly the seconds billed to the engine's timers, so the
//!   per-phase sums of a timeline equal the engine's reported totals to
//!   rounding.
//! * **Well-nesting** — spans form a forest per rank: scopes are opened
//!   and closed stack-wise and leaf charges always land inside the
//!   innermost open scope, so intervals are properly nested and start
//!   times are monotone in virtual time.
//! * **Zero overhead when disabled** — a disabled [`Recorder`] never
//!   allocates and every hot-path call is one branch on a bool.

#![warn(missing_docs)]

mod critical;
mod export;
mod hist;
mod mapping;
mod migrate;
mod timeline;

pub use critical::{critical_path, CriticalPath, OverlapStats, Segment};
pub use export::chrome_trace;
pub use hist::Histogram;
pub use mapping::MappingStats;
pub use migrate::{BrickCosts, MigrationStats};
pub use timeline::{PhaseBreakdown, Timeline};

/// Histogram name under which [`Recorder::charge_brick`] buckets each
/// per-brick charge, in nanoseconds (the log2 buckets resolve <1.0 to
/// bucket 0, so seconds would flatten every realistic kernel).
pub const BRICK_COST_HIST: &str = "brick_cost_ns";

/// Where a slice of virtual time went. Leaf spans carry exactly one
/// phase; the per-phase sums are the paper's stacked-bar breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Gathering strided data into a contiguous send buffer (YASK-style
    /// explicit packing).
    Pack,
    /// Scattering a received buffer back into strided storage.
    Unpack,
    /// On-node staging copies that are neither pack nor unpack (e.g.
    /// view maintenance).
    Copy,
    /// Wire-facing CPU time: send/receive posting overhead (`o` per
    /// message) and library-internal datatype walks.
    Wire,
    /// Modeled time blocked on the fabric (LogGP latency/gap/bandwidth
    /// terms and injected delay faults).
    Wait,
    /// Stencil computation.
    Compute,
}

impl Phase {
    /// All phases, in the order tables and exports render them.
    pub const ALL: [Phase; 6] =
        [Phase::Pack, Phase::Unpack, Phase::Copy, Phase::Wire, Phase::Wait, Phase::Compute];

    /// Lower-case display/export name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Pack => "pack",
            Phase::Unpack => "unpack",
            Phase::Copy => "copy",
            Phase::Wire => "wire",
            Phase::Wait => "wait",
            Phase::Compute => "compute",
        }
    }
}

/// One interval on a rank's virtual-time axis. `phase: Some(_)` marks a
/// leaf charge; `None` marks a hierarchical scope opened by an engine.
#[derive(Clone, Debug)]
pub struct Span {
    /// Scope name (engines use `"exchange:layout"`-style names) or the
    /// phase name for leaf charges.
    pub name: &'static str,
    /// Leaf phase, or `None` for scopes.
    pub phase: Option<Phase>,
    /// Virtual start time (seconds).
    pub start: f64,
    /// Virtual end time (seconds).
    pub end: f64,
    /// Index of the enclosing scope in the timeline's span list, or -1
    /// for roots.
    pub parent: i32,
    /// Nesting depth (roots are 0).
    pub depth: u16,
}

impl Span {
    /// Span duration in virtual seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// One message a rank posted or completed, as a profiled run records it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsgEvent {
    /// `true` for a send, `false` for a completed receive.
    pub send: bool,
    /// Peer rank.
    pub peer: usize,
    /// Message tag.
    pub tag: u64,
    /// Payload bytes.
    pub bytes: usize,
}

/// Per-rank span/counter/histogram/message recorder. Disabled by default:
/// every method early-returns on one branch and nothing is allocated.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    rank: usize,
    now: f64,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Most recent leaf span eligible for coalescing, or -1.
    last_leaf: i32,
    counters: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, Histogram)>,
    /// Dense per-brick compute-cost totals (seconds), grown on demand by
    /// [`Recorder::charge_brick`]. Empty unless a brick-aware engine
    /// attributed its charges.
    brick_costs: Vec<f64>,
    msgs: Vec<MsgEvent>,
}

impl Recorder {
    /// A disabled recorder (the cluster default). Never allocates.
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// Start recording for `rank`, clearing any prior state.
    pub fn enable(&mut self, rank: usize) {
        self.reset();
        self.enabled = true;
        self.rank = rank;
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Rewind the virtual clock and drop recorded state, keeping the
    /// enabled flag (drivers reset after warmup, like timers).
    pub fn reset(&mut self) {
        self.now = 0.0;
        self.spans.clear();
        self.stack.clear();
        self.last_leaf = -1;
        self.counters.clear();
        self.hists.clear();
        self.brick_costs.clear();
        self.msgs.clear();
    }

    /// Record `secs` of `phase` work ending the current virtual instant
    /// and advance the clock. Adjacent same-phase leaves under the same
    /// scope coalesce into one span, so per-message posting overhead
    /// does not explode the span count.
    #[inline]
    pub fn charge(&mut self, phase: Phase, secs: f64) {
        if !self.enabled || secs <= 0.0 {
            return;
        }
        let parent = self.stack.last().map(|&i| i as i32).unwrap_or(-1);
        if self.last_leaf >= 0 {
            let prev = &mut self.spans[self.last_leaf as usize];
            if prev.parent == parent && prev.phase == Some(phase) && prev.end == self.now {
                prev.end += secs;
                self.now += secs;
                return;
            }
        }
        let depth = self.stack.len() as u16;
        self.last_leaf = self.spans.len() as i32;
        self.spans.push(Span {
            name: phase.name(),
            phase: Some(phase),
            start: self.now,
            end: self.now + secs,
            parent,
            depth,
        });
        self.now += secs;
    }

    /// Open a hierarchical scope at the current virtual instant. Must be
    /// balanced by [`Recorder::close`]; prefer driving this through the
    /// cluster's closure-scoped helper so nesting holds by construction.
    #[inline]
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().map(|&i| i as i32).unwrap_or(-1);
        let depth = self.stack.len() as u16;
        let idx = self.spans.len() as u32;
        self.spans.push(Span { name, phase: None, start: self.now, end: self.now, parent, depth });
        self.stack.push(idx);
        self.last_leaf = -1;
    }

    /// Close the innermost open scope at the current virtual instant.
    #[inline]
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(idx) = self.stack.pop() {
            self.spans[idx as usize].end = self.now;
        }
        // A later leaf belongs to the outer scope; never merge across
        // a closed boundary.
        self.last_leaf = -1;
    }

    /// Add `delta` to the named counter.
    #[inline]
    pub fn count(&mut self, name: &'static str, delta: u64) {
        if !self.enabled {
            return;
        }
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += delta,
            None => self.counters.push((name, delta)),
        }
    }

    /// Attribute `secs` of compute cost to `brick`: accumulates the
    /// per-brick total and buckets the charge (in nanoseconds) into the
    /// [`BRICK_COST_HIST`] histogram. Unlike [`Recorder::charge`] this
    /// advances no clock and opens no span — it is a *cost attribution*,
    /// recorded alongside whichever timer already billed the seconds —
    /// so load-balancer signals and timelines agree on where compute
    /// went without double-counting the virtual time axis.
    #[inline]
    pub fn charge_brick(&mut self, brick: u32, secs: f64) {
        if !self.enabled || secs <= 0.0 {
            return;
        }
        let idx = brick as usize;
        if idx >= self.brick_costs.len() {
            self.brick_costs.resize(idx + 1, 0.0);
        }
        self.brick_costs[idx] += secs;
        self.observe(BRICK_COST_HIST, secs * 1e9);
    }

    /// Record one observation in the named log2-bucketed histogram.
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: f64) {
        if !self.enabled {
            return;
        }
        match self.hists.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => h.observe(value),
            None => {
                let mut h = Histogram::default();
                h.observe(value);
                self.hists.push((name, h));
            }
        }
    }

    /// Record one posted or completed message.
    #[inline]
    pub fn message(&mut self, e: MsgEvent) {
        if self.enabled {
            self.msgs.push(e);
        }
    }

    /// Finish recording: close any still-open scopes at the current
    /// instant and drain everything into a [`Timeline`]. The recorder
    /// stays enabled with an empty, rewound state.
    pub fn take_timeline(&mut self) -> Timeline {
        while !self.stack.is_empty() {
            self.close();
        }
        let t = Timeline {
            rank: self.rank,
            end: self.now,
            spans: std::mem::take(&mut self.spans),
            counters: std::mem::take(&mut self.counters),
            hists: std::mem::take(&mut self.hists),
            brick_costs: std::mem::take(&mut self.brick_costs),
            msgs: std::mem::take(&mut self.msgs),
        };
        self.now = 0.0;
        self.last_leaf = -1;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = Recorder::disabled();
        r.charge(Phase::Pack, 1.0);
        r.open("exchange");
        r.charge(Phase::Wire, 2.0);
        r.close();
        r.count("msgs", 3);
        r.observe("bytes", 512.0);
        assert_eq!(r.now(), 0.0);
        let t = r.take_timeline();
        assert!(t.spans.is_empty() && t.counters.is_empty() && t.hists.is_empty());
    }

    #[test]
    fn charges_advance_clock_and_coalesce() {
        let mut r = Recorder::disabled();
        r.enable(0);
        r.open("exchange");
        r.charge(Phase::Wire, 1.0);
        r.charge(Phase::Wire, 2.0); // coalesces with the previous leaf
        r.charge(Phase::Wait, 4.0);
        r.close();
        assert_eq!(r.now(), 7.0);
        let t = r.take_timeline();
        assert_eq!(t.spans.len(), 3); // scope + wire + wait
        let b = t.phase_breakdown();
        assert_eq!(b.wire, 3.0);
        assert_eq!(b.wait, 4.0);
        assert_eq!(b.total(), 7.0);
        t.validate().unwrap();
    }

    #[test]
    fn zero_charges_add_no_spans() {
        let mut r = Recorder::disabled();
        r.enable(0);
        r.charge(Phase::Wire, 0.0);
        assert_eq!(r.take_timeline().spans.len(), 0);
    }

    #[test]
    fn scopes_nest() {
        let mut r = Recorder::disabled();
        r.enable(1);
        r.open("step");
        r.open("exchange");
        r.charge(Phase::Wire, 1.0);
        r.close();
        r.open("compute");
        r.charge(Phase::Compute, 2.0);
        r.close();
        r.close();
        let t = r.take_timeline();
        t.validate().unwrap();
        assert_eq!(t.rank, 1);
        let step = &t.spans[0];
        assert_eq!(step.name, "step");
        assert_eq!(step.dur(), 3.0);
        assert_eq!(t.spans.iter().filter(|s| s.depth == 0).count(), 1);
    }

    #[test]
    fn counters_and_hists_accumulate() {
        let mut r = Recorder::disabled();
        r.enable(0);
        r.count("msgs", 2);
        r.count("msgs", 3);
        r.observe("bytes", 100.0);
        r.observe("bytes", 1000.0);
        let t = r.take_timeline();
        assert_eq!(t.counters, vec![("msgs", 5)]);
        assert_eq!(t.hists[0].1.count, 2);
        assert_eq!(t.hists[0].1.sum, 1100.0);
    }

    #[test]
    fn brick_charges_accumulate_without_advancing_the_clock() {
        let mut r = Recorder::disabled();
        r.enable(0);
        r.charge_brick(2, 0.25);
        r.charge_brick(2, 0.25);
        r.charge_brick(5, 1.0);
        assert_eq!(r.now(), 0.0, "brick attribution must not move the virtual clock");
        let t = r.take_timeline();
        assert_eq!(t.brick_costs.len(), 6);
        assert_eq!(t.brick_costs[2], 0.5);
        assert_eq!(t.brick_costs[5], 1.0);
        assert_eq!(t.brick_costs[0], 0.0);
        let (_, h) = t.hists.iter().find(|(n, _)| *n == BRICK_COST_HIST).expect("cost hist");
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1.5e9);
    }

    #[test]
    fn disabled_recorder_ignores_brick_charges() {
        let mut r = Recorder::disabled();
        r.charge_brick(7, 3.0);
        let t = r.take_timeline();
        assert!(t.brick_costs.is_empty() && t.hists.is_empty());
    }

    #[test]
    fn take_timeline_closes_open_scopes() {
        let mut r = Recorder::disabled();
        r.enable(0);
        r.open("dangling");
        r.charge(Phase::Compute, 1.5);
        let t = r.take_timeline();
        t.validate().unwrap();
        assert_eq!(t.spans[0].end, 1.5);
    }
}
