//! Topology-aware mapping telemetry: where a run's exchange traffic
//! lands (same node vs across the fabric) under the chosen rank
//! permutation, and how that compares to MPI's default lexicographic
//! placement.
//!
//! Unlike per-rank timers these are *model-side* observations: the
//! driver extracts the communication-volume graph once, evaluates it
//! under the chosen and baseline mappings, and attaches the result to
//! the run report — every rank would report identical numbers, so
//! nothing is merged.

/// On/off-node traffic accounting for one mapped run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MappingStats {
    /// Hierarchical-model preset name (`"shm"`-tier presets report the
    /// fabric name, e.g. `"aries"`; flat runs report the wire model).
    pub topology: &'static str,
    /// Ranks sharing a node (1 = flat, every message crosses the
    /// fabric).
    pub ranks_per_node: usize,
    /// Mapping policy label (`"lex"`, `"bisect"`).
    pub policy: &'static str,
    /// Per-exchange payload bytes whose endpoints share a node.
    pub on_bytes: u64,
    /// Per-exchange payload bytes crossing the fabric.
    pub off_bytes: u64,
    /// Per-exchange messages whose endpoints share a node.
    pub on_msgs: u64,
    /// Per-exchange messages crossing the fabric.
    pub off_msgs: u64,
    /// Off-node bytes the lexicographic baseline would move under the
    /// same topology — the denominator of the mapping-quality ratio.
    pub lex_off_bytes: u64,
    /// Modeled bottleneck exchange time under the chosen mapping
    /// (seconds; the comm-graph evaluation, not the simulated run).
    pub modeled_time: f64,
    /// Modeled bottleneck exchange time under lexicographic placement.
    pub lex_modeled_time: f64,
}

impl MappingStats {
    /// Fraction of exchanged bytes kept on-node (0.0 when no traffic).
    pub fn on_node_fraction(&self) -> f64 {
        let total = self.on_bytes + self.off_bytes;
        if total == 0 {
            return 0.0;
        }
        self.on_bytes as f64 / total as f64
    }

    /// Off-node bytes relative to the lexicographic baseline (1.0 =
    /// no better, <1.0 = fabric traffic removed). 1.0 when the
    /// baseline moves nothing off-node.
    pub fn off_bytes_vs_lex(&self) -> f64 {
        if self.lex_off_bytes == 0 {
            return 1.0;
        }
        self.off_bytes as f64 / self.lex_off_bytes as f64
    }

    /// Modeled speedup of the chosen mapping over lexicographic
    /// placement (>1.0 = faster). 1.0 when the baseline models to
    /// zero time.
    pub fn modeled_speedup(&self) -> f64 {
        if self.lex_modeled_time <= 0.0 || self.modeled_time <= 0.0 {
            return 1.0;
        }
        self.lex_modeled_time / self.modeled_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MappingStats {
        MappingStats {
            topology: "aries",
            ranks_per_node: 8,
            policy: "bisect",
            on_bytes: 3000,
            off_bytes: 1000,
            on_msgs: 30,
            off_msgs: 10,
            lex_off_bytes: 2000,
            modeled_time: 0.5e-3,
            lex_modeled_time: 1.0e-3,
        }
    }

    #[test]
    fn ratios_compare_against_the_lex_baseline() {
        let s = sample();
        assert_eq!(s.on_node_fraction(), 0.75);
        assert_eq!(s.off_bytes_vs_lex(), 0.5);
        assert_eq!(s.modeled_speedup(), 2.0);
    }

    #[test]
    fn empty_stats_degrade_to_neutral_ratios() {
        let s = MappingStats::default();
        assert_eq!(s.on_node_fraction(), 0.0);
        assert_eq!(s.off_bytes_vs_lex(), 1.0);
        assert_eq!(s.modeled_speedup(), 1.0);
    }
}
