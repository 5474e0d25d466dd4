//! LogGP-style wire cost model.
//!
//! The reproduction's contract (see DESIGN.md): everything that happens
//! *on the node* — packing, unpacking, view construction, computation —
//! is really executed and really timed. Only the network fabric, which we
//! do not have, is replaced by this model. It charges:
//!
//! * `o`   seconds of CPU per posted send/recv (`call` time: descriptor
//!   setup, matching, rendezvous handshakes),
//! * `α`   seconds of one-way latency per exchange,
//! * `g`   seconds of inter-message gap (injection-rate limit),
//! * `1/β` seconds per byte of injection bandwidth.
//!
//! A rank that posts `m` messages totalling `B` bytes and then waits sees
//! `call = o·m` and `wait = α + (m−1)·g + B/β` — the standard LogGP
//! completion time for back-to-back messages. This reproduces the paper's
//! observed regimes: small subdomains are startup-bound (flat in Figure
//! 9), large ones bandwidth-bound, and extra messages (Layout's 42 vs 26)
//! or extra bytes (MemMap's padding) cost exactly what Table 2/Figure 18
//! show.

/// Fabric model parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Human-readable fabric name.
    pub name: &'static str,
    /// Per-message CPU posting overhead `o` (seconds).
    pub overhead: f64,
    /// One-way latency `α` (seconds).
    pub latency: f64,
    /// Inter-message injection gap `g` (seconds).
    pub gap: f64,
    /// Injection bandwidth `β` (bytes/second) per rank.
    pub bandwidth: f64,
}

impl NetworkModel {
    /// Cray Aries (Theta): ~1.3 µs latency, ~8 GB/s effective per-rank
    /// injection, sub-µs per-message costs.
    pub fn theta_aries() -> NetworkModel {
        NetworkModel {
            name: "aries",
            overhead: 0.45e-6,
            latency: 1.3e-6,
            gap: 0.40e-6,
            bandwidth: 8.0e9,
        }
    }

    /// Mellanox EDR 100 Gb InfiniBand (Summit): 12.5 GB/s line rate.
    pub fn summit_edr() -> NetworkModel {
        NetworkModel {
            name: "edr",
            overhead: 0.55e-6,
            latency: 1.1e-6,
            gap: 0.50e-6,
            bandwidth: 12.5e9,
        }
    }

    /// An idealized instantaneous fabric (for functional tests).
    pub fn instant() -> NetworkModel {
        NetworkModel { name: "instant", overhead: 0.0, latency: 0.0, gap: 0.0, bandwidth: f64::INFINITY }
    }

    /// This model slowed down by `factor` (≥ 1): latency, gap and
    /// per-message overhead stretch, bandwidth shrinks. Fault
    /// injection's per-rank jitter hands every rank a slowed copy, so a
    /// straggler NIC is a property of the rank, not of individual
    /// messages.
    pub fn slowed(&self, factor: f64) -> NetworkModel {
        assert!(factor >= 1.0, "slowdown factor must be >= 1");
        NetworkModel {
            name: self.name,
            overhead: self.overhead * factor,
            latency: self.latency * factor,
            gap: self.gap * factor,
            bandwidth: self.bandwidth / factor,
        }
    }

    /// `call`-side CPU time for posting `m` messages.
    #[inline]
    pub fn call_time(&self, messages: usize) -> f64 {
        self.overhead * messages as f64
    }

    /// `wait`-side completion time for `m` messages totalling `bytes`.
    #[inline]
    pub fn wait_time(&self, messages: usize, bytes: usize) -> f64 {
        if messages == 0 {
            return 0.0;
        }
        self.latency + (messages - 1) as f64 * self.gap + bytes as f64 / self.bandwidth
    }

    /// Total wire time for one exchange (`call + wait`); the paper's
    /// `Network` floor uses this with the minimal message count and no
    /// padding.
    #[inline]
    pub fn exchange_time(&self, messages: usize, bytes: usize) -> f64 {
        self.call_time(messages) + self.wait_time(messages, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dominates_small_messages() {
        let m = NetworkModel::theta_aries();
        // 26 tiny messages vs 26 large ones: the small exchange is
        // startup-bound, i.e. nearly independent of size.
        let t_small = m.exchange_time(26, 26 * 512);
        let t_smaller = m.exchange_time(26, 26 * 64);
        assert!((t_small - t_smaller) / t_small < 0.08);
        // Large messages are bandwidth-bound.
        let t_large = m.exchange_time(26, 200 << 20);
        assert!(t_large > 10.0 * t_small);
    }

    #[test]
    fn more_messages_cost_more() {
        let m = NetworkModel::theta_aries();
        let bytes = 1 << 20;
        assert!(m.exchange_time(98, bytes) > m.exchange_time(42, bytes));
        assert!(m.exchange_time(42, bytes) > m.exchange_time(26, bytes));
    }

    #[test]
    fn padding_costs_bandwidth() {
        let m = NetworkModel::summit_edr();
        let t = m.exchange_time(26, 100 << 20);
        let t_padded = m.exchange_time(26, 190 << 20);
        assert!(t_padded > 1.5 * t);
    }

    #[test]
    fn zero_messages_free() {
        let m = NetworkModel::theta_aries();
        assert_eq!(m.exchange_time(0, 0), 0.0);
    }

    #[test]
    fn instant_fabric_is_free() {
        let m = NetworkModel::instant();
        assert_eq!(m.exchange_time(1000, 1 << 30), 0.0);
    }

    #[test]
    fn slowed_scales_every_term() {
        let m = NetworkModel::theta_aries();
        let s = m.slowed(1.5);
        assert_eq!(s.overhead, m.overhead * 1.5);
        assert_eq!(s.latency, m.latency * 1.5);
        assert_eq!(s.gap, m.gap * 1.5);
        assert_eq!(s.bandwidth, m.bandwidth / 1.5);
        assert!(s.exchange_time(26, 1 << 20) > m.exchange_time(26, 1 << 20));
        // Factor 1 is the identity; instant stays free.
        assert_eq!(m.slowed(1.0), m);
        assert_eq!(NetworkModel::instant().slowed(2.0).exchange_time(10, 100), 0.0);
    }
}
