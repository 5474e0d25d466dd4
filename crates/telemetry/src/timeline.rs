//! Finished per-rank timelines and their phase-breakdown / validation
//! queries.

use crate::hist::Histogram;
use crate::{MsgEvent, Phase, Span};

/// Everything one rank recorded for a run: a well-nested span forest on
/// the virtual-time axis plus named counters and histograms.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Rank that recorded this timeline.
    pub rank: usize,
    /// Virtual end time of the rank (seconds).
    pub end: f64,
    /// Spans in creation order; parents always precede children.
    pub spans: Vec<Span>,
    /// Named monotone counters.
    pub counters: Vec<(&'static str, u64)>,
    /// Named log2 histograms.
    pub hists: Vec<(&'static str, Histogram)>,
    /// Per-brick compute-cost totals in seconds, indexed by brick id
    /// (empty unless the engine attributed charges via
    /// [`crate::Recorder::charge_brick`]).
    pub brick_costs: Vec<f64>,
    /// Every message the rank posted or completed, in order.
    pub msgs: Vec<MsgEvent>,
}

/// Seconds attributed to each phase — the paper's stacked-bar columns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Seconds gathering strided data into send buffers.
    pub pack: f64,
    /// Seconds scattering received buffers back into strided storage.
    pub unpack: f64,
    /// Seconds in other on-node staging copies.
    pub copy: f64,
    /// Seconds of wire-facing CPU overhead.
    pub wire: f64,
    /// Seconds blocked on the modeled fabric.
    pub wait: f64,
    /// Seconds computing the stencil.
    pub compute: f64,
}

impl PhaseBreakdown {
    /// Seconds for one phase.
    pub fn get(&self, p: Phase) -> f64 {
        match p {
            Phase::Pack => self.pack,
            Phase::Unpack => self.unpack,
            Phase::Copy => self.copy,
            Phase::Wire => self.wire,
            Phase::Wait => self.wait,
            Phase::Compute => self.compute,
        }
    }

    /// Mutable seconds for one phase.
    pub fn get_mut(&mut self, p: Phase) -> &mut f64 {
        match p {
            Phase::Pack => &mut self.pack,
            Phase::Unpack => &mut self.unpack,
            Phase::Copy => &mut self.copy,
            Phase::Wire => &mut self.wire,
            Phase::Wait => &mut self.wait,
            Phase::Compute => &mut self.compute,
        }
    }

    /// Sum across all phases.
    pub fn total(&self) -> f64 {
        Phase::ALL.iter().map(|&p| self.get(p)).sum()
    }

    /// Seconds of on-node data movement (the quantity the paper's
    /// layouts eliminate): pack + unpack + copy.
    pub fn movement(&self) -> f64 {
        self.pack + self.unpack + self.copy
    }

    /// Accumulate another breakdown into this one.
    pub fn add(&mut self, other: &PhaseBreakdown) {
        for p in Phase::ALL {
            *self.get_mut(p) += other.get(p);
        }
    }
}

impl Timeline {
    /// The `k` most expensive bricks as `(brick id, seconds)`, cost
    /// descending (ties broken by brick id so the ordering is total).
    /// Empty when no engine attributed per-brick charges.
    pub fn top_brick_costs(&self, k: usize) -> Vec<(u32, f64)> {
        let mut out: Vec<(u32, f64)> = self
            .brick_costs
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0.0)
            .map(|(b, &c)| (b as u32, c))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// Sum leaf-span durations per phase. Only leaves contribute, so
    /// scopes never double-count their children.
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        let mut b = PhaseBreakdown::default();
        for s in &self.spans {
            if let Some(p) = s.phase {
                *b.get_mut(p) += s.dur();
            }
        }
        b
    }

    /// Leaf time attributed to each top-level scope, in first-seen
    /// order, as `(scope name, breakdown)`. Leaves outside any scope
    /// land under `"(root)"`. Root scopes whose leaves all charged zero
    /// time still appear (with an all-zero breakdown) — a pack-free
    /// exchange on an instant fabric is a result, not an omission.
    pub fn scope_breakdown(&self) -> Vec<(&'static str, PhaseBreakdown)> {
        // Map every span to the root of its tree, walking parents.
        let mut root_of = vec![-1i32; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            root_of[i] = if s.parent < 0 { i as i32 } else { root_of[s.parent as usize] };
        }
        fn slot(
            out: &mut Vec<(&'static str, PhaseBreakdown)>,
            name: &'static str,
        ) -> usize {
            match out.iter().position(|(n, _)| *n == name) {
                Some(i) => i,
                None => {
                    out.push((name, PhaseBreakdown::default()));
                    out.len() - 1
                }
            }
        }
        let mut out: Vec<(&'static str, PhaseBreakdown)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent < 0 && s.phase.is_none() {
                slot(&mut out, s.name);
            }
            if let Some(p) = s.phase {
                let root = root_of[i] as usize;
                let name = if root == i { "(root)" } else { self.spans[root].name };
                let k = slot(&mut out, name);
                *out[k].1.get_mut(p) += s.dur();
            }
        }
        out
    }

    /// Check the structural invariants the recorder promises:
    /// monotone non-negative intervals, children inside their parents,
    /// parents preceding children, siblings non-overlapping in creation
    /// order, and leaf time covered by the rank's end time.
    pub fn validate(&self) -> Result<(), String> {
        let mut last_start = f64::NEG_INFINITY;
        for (i, s) in self.spans.iter().enumerate() {
            if !(s.start.is_finite() && s.end.is_finite()) || s.end < s.start {
                return Err(format!("span {i} `{}` has bad interval [{}, {}]", s.name, s.start, s.end));
            }
            if s.start < last_start {
                return Err(format!("span {i} `{}` starts before its predecessor", s.name));
            }
            last_start = s.start;
            if s.end > self.end + 1e-9 {
                return Err(format!("span {i} `{}` ends after the rank end time", s.name));
            }
            if s.parent >= 0 {
                let pi = s.parent as usize;
                if pi >= i {
                    return Err(format!("span {i} `{}` parent {pi} does not precede it", s.name));
                }
                let p = &self.spans[pi];
                if p.phase.is_some() {
                    return Err(format!("span {i} `{}` has a leaf parent", s.name));
                }
                if s.depth != p.depth + 1 {
                    return Err(format!("span {i} `{}` depth disagrees with parent", s.name));
                }
                if s.start < p.start - 1e-12 || s.end > p.end + 1e-12 {
                    return Err(format!(
                        "span {i} `{}` [{}, {}] escapes parent `{}` [{}, {}]",
                        s.name, s.start, s.end, p.name, p.start, p.end
                    ));
                }
            } else if s.depth != 0 {
                return Err(format!("root span {i} `{}` has nonzero depth", s.name));
            }
        }
        // Siblings never overlap: spans with the same parent are created
        // in time order and each opens at or after the previous closes.
        for (i, s) in self.spans.iter().enumerate() {
            for (j, t) in self.spans.iter().enumerate().skip(i + 1) {
                if t.parent == s.parent && t.start < s.end - 1e-12 && s.start < t.end - 1e-12 {
                    return Err(format!("siblings {i} `{}` and {j} `{}` overlap", s.name, t.name));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample() -> Timeline {
        let mut r = Recorder::disabled();
        r.enable(0);
        r.open("exchange:yask");
        r.charge(Phase::Pack, 2.0);
        r.charge(Phase::Wire, 1.0);
        r.charge(Phase::Wait, 3.0);
        r.charge(Phase::Unpack, 2.5);
        r.close();
        r.open("kernel");
        r.charge(Phase::Compute, 4.0);
        r.close();
        r.take_timeline()
    }

    #[test]
    fn breakdown_sums_leaves_only() {
        let t = sample();
        let b = t.phase_breakdown();
        assert_eq!(b.pack, 2.0);
        assert_eq!(b.unpack, 2.5);
        assert_eq!(b.wire, 1.0);
        assert_eq!(b.wait, 3.0);
        assert_eq!(b.compute, 4.0);
        assert_eq!(b.movement(), 4.5);
        assert_eq!(b.total(), t.end);
    }

    #[test]
    fn scope_breakdown_groups_by_root() {
        let t = sample();
        let by_scope = t.scope_breakdown();
        assert_eq!(by_scope.len(), 2);
        assert_eq!(by_scope[0].0, "exchange:yask");
        assert_eq!(by_scope[0].1.total(), 8.5);
        assert_eq!(by_scope[1].0, "kernel");
        assert_eq!(by_scope[1].1.compute, 4.0);
    }

    #[test]
    fn validate_accepts_recorder_output() {
        sample().validate().unwrap();
    }

    #[test]
    fn validate_rejects_escaping_child() {
        let mut t = sample();
        t.spans[1].end = 100.0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_overlapping_siblings() {
        let mut t = sample();
        // Stretch the first root scope over the second.
        t.end = 100.0;
        t.spans[0].end = 9.0;
        assert!(t.validate().is_err());
    }
}
