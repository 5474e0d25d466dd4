//! Critical-path analysis over the per-rank span forest. The exchanges
//! are bulk-synchronous (every step ends at a barrier), so the run's
//! critical path is the straggler chain: the rank whose virtual clock
//! finishes last, decomposed into its top-level scopes and each scope's
//! dominant phase.

use crate::{Phase, PhaseBreakdown, Timeline};

/// One top-level segment on the critical path.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Top-level scope name (or a phase name for uncovered leaf time).
    pub name: &'static str,
    /// Virtual start of the segment on the straggler rank.
    pub start: f64,
    /// Virtual end of the segment.
    pub end: f64,
    /// Phase contributing the most leaf time inside this segment.
    pub dominant: Phase,
    /// Fraction of the segment's leaf time in the dominant phase.
    pub dominant_frac: f64,
}

/// Communication/computation overlap accounting for one run: how much
/// of the modeled wire time (`call + wait`) was hidden behind interior
/// compute by an overlap scheduler. The spans on a rank's timeline stay
/// well-nested on a single virtual clock, so overlap is expressed
/// through this metric (and the step-time model), never through
/// overlapping spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OverlapStats {
    /// Seconds of wire time hidden behind concurrent compute,
    /// `min(hidden compute, total wire)` per step summed over steps.
    pub hidden_wire: f64,
    /// Total modeled wire seconds (`call + wait`) the overlap window
    /// competed against.
    pub total_wire: f64,
    /// Payload bytes shipped early through partitioned channels
    /// (`pready` fragments that left before the owning message's
    /// injection point). Zero for non-partitioned runs.
    pub early_bytes: u64,
    /// Total payload bytes routed through partitioned channels.
    pub partition_bytes: u64,
}

impl OverlapStats {
    /// Overlap efficiency: hidden wire time as a fraction of total wire
    /// time (0 = fully exposed, 1 = fully hidden). Zero when no wire
    /// time was modeled.
    pub fn efficiency(&self) -> f64 {
        if self.total_wire > 0.0 {
            (self.hidden_wire / self.total_wire).min(1.0)
        } else {
            0.0
        }
    }

    /// Fraction of partitioned payload that left the rank before the
    /// owning message's injection point (0 when the run used no
    /// partitioned channels).
    pub fn early_shipped_fraction(&self) -> f64 {
        if self.partition_bytes > 0 {
            self.early_bytes as f64 / self.partition_bytes as f64
        } else {
            0.0
        }
    }

    /// Whether any payload was routed through partitioned channels.
    pub fn partitioned(&self) -> bool {
        self.partition_bytes > 0
    }

    /// Accumulate another run's (or rank's) overlap totals.
    pub fn merge(&mut self, o: &OverlapStats) {
        self.hidden_wire += o.hidden_wire;
        self.total_wire += o.total_wire;
        self.early_bytes += o.early_bytes;
        self.partition_bytes += o.partition_bytes;
    }
}

/// The straggler chain for one run.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Rank whose virtual clock finished last.
    pub rank: usize,
    /// Its virtual end time (the run's makespan).
    pub total: f64,
    /// Phase breakdown of the straggler rank.
    pub breakdown: PhaseBreakdown,
    /// Top-level segments, in time order.
    pub segments: Vec<Segment>,
    /// How far the fastest rank finished ahead of the straggler, as a
    /// fraction of the makespan (0 = perfectly balanced).
    pub imbalance: f64,
}

/// Analyze rank timelines and return the straggler chain, or `None`
/// when no rank recorded anything.
pub fn critical_path(timelines: &[Timeline]) -> Option<CriticalPath> {
    let straggler = timelines
        .iter()
        .max_by(|a, b| a.end.partial_cmp(&b.end).unwrap_or(std::cmp::Ordering::Equal))?;
    let min_end = timelines
        .iter()
        .map(|t| t.end)
        .fold(f64::INFINITY, f64::min);
    let total = straggler.end;
    let imbalance = if total > 0.0 { (total - min_end) / total } else { 0.0 };

    // Leaf time per phase inside each top-level span, keyed by the
    // top-level span's index.
    let mut root_of = vec![usize::MAX; straggler.spans.len()];
    for (i, s) in straggler.spans.iter().enumerate() {
        root_of[i] = if s.parent < 0 { i } else { root_of[s.parent as usize] };
    }
    let mut per_root: Vec<(usize, PhaseBreakdown)> = Vec::new();
    for (i, s) in straggler.spans.iter().enumerate() {
        if let Some(p) = s.phase {
            let root = root_of[i];
            match per_root.iter_mut().find(|(r, _)| *r == root) {
                Some((_, b)) => *b.get_mut(p) += s.dur(),
                None => {
                    let mut b = PhaseBreakdown::default();
                    *b.get_mut(p) += s.dur();
                    per_root.push((root, b));
                }
            }
        }
    }

    let segments = per_root
        .iter()
        .map(|&(root, ref b)| {
            let s = &straggler.spans[root];
            let dominant = Phase::ALL
                .iter()
                .copied()
                .max_by(|&x, &y| {
                    b.get(x).partial_cmp(&b.get(y)).unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(Phase::Wait);
            let leaf_total = b.total();
            Segment {
                name: s.name,
                start: s.start,
                end: s.end,
                dominant,
                dominant_frac: if leaf_total > 0.0 { b.get(dominant) / leaf_total } else { 0.0 },
            }
        })
        .collect();

    Some(CriticalPath {
        rank: straggler.rank,
        total,
        breakdown: straggler.phase_breakdown(),
        segments,
        imbalance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn rank_timeline(rank: usize, wait: f64) -> Timeline {
        let mut r = Recorder::disabled();
        r.enable(rank);
        r.open("exchange:layout");
        r.charge(Phase::Wire, 1.0);
        r.charge(Phase::Wait, wait);
        r.close();
        r.open("kernel");
        r.charge(Phase::Compute, 2.0);
        r.close();
        r.take_timeline()
    }

    #[test]
    fn straggler_is_slowest_rank() {
        let tl = vec![rank_timeline(0, 1.0), rank_timeline(1, 5.0), rank_timeline(2, 0.5)];
        let cp = critical_path(&tl).unwrap();
        assert_eq!(cp.rank, 1);
        assert_eq!(cp.total, 8.0);
        assert_eq!(cp.segments.len(), 2);
        assert_eq!(cp.segments[0].name, "exchange:layout");
        assert_eq!(cp.segments[0].dominant, Phase::Wait);
        assert!(cp.segments[0].dominant_frac > 0.8);
        assert_eq!(cp.segments[1].dominant, Phase::Compute);
        let expect_imbalance = (8.0 - 3.5) / 8.0;
        assert!((cp.imbalance - expect_imbalance).abs() < 1e-12);
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(critical_path(&[]).is_none());
    }

    #[test]
    fn overlap_efficiency_clamps_and_merges() {
        let mut a = OverlapStats { hidden_wire: 3.0, total_wire: 4.0, ..Default::default() };
        assert!((a.efficiency() - 0.75).abs() < 1e-12);
        a.merge(&OverlapStats { hidden_wire: 1.0, total_wire: 0.0, ..Default::default() });
        assert_eq!(a.total_wire, 4.0);
        assert_eq!(a.efficiency(), 1.0, "hidden beyond total clamps to 1");
        assert_eq!(OverlapStats::default().efficiency(), 0.0, "no wire = nothing to hide");
    }

    #[test]
    fn early_shipped_fraction_tracks_partition_bytes() {
        let mut a = OverlapStats::default();
        assert!(!a.partitioned());
        assert_eq!(a.early_shipped_fraction(), 0.0, "no partitioned traffic = 0");
        a.merge(&OverlapStats { early_bytes: 600, partition_bytes: 1000, ..Default::default() });
        a.merge(&OverlapStats { early_bytes: 200, partition_bytes: 1000, ..Default::default() });
        assert!(a.partitioned());
        assert!((a.early_shipped_fraction() - 0.4).abs() < 1e-12);
    }
}
