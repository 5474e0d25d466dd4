//! CPU↔GPU interconnect models.

/// A host-device link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// Link name.
    pub name: &'static str,
    /// Per-transfer latency (seconds): driver + DMA setup.
    pub latency: f64,
    /// Sustained bandwidth (bytes/s) per direction.
    pub bandwidth: f64,
}

impl LinkModel {
    /// NVLink 2.0 between Power9 and V100 on Summit (3 bricks, 50 GB/s
    /// per direction per GPU).
    pub fn nvlink2() -> LinkModel {
        LinkModel { name: "NVLink2", latency: 4.0e-6, bandwidth: 50.0e9 }
    }

    /// PCIe gen3 x16 (the staging path on commodity nodes).
    #[cfg(test)]
    pub(crate) fn pcie_gen3() -> LinkModel {
        LinkModel { name: "PCIe3x16", latency: 10.0e-6, bandwidth: 12.0e9 }
    }

    /// Time to move `bytes` in one DMA transfer.
    #[cfg(test)]
    pub(crate) fn transfer_time(&self, bytes: usize) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency + bytes as f64 / self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_free() {
        assert_eq!(LinkModel::nvlink2().transfer_time(0), 0.0);
    }

    #[test]
    fn many_small_transfers_cost_latency() {
        let l = LinkModel::pcie_gen3();
        let one = l.transfer_time(1 << 20);
        let many = 98.0 * l.transfer_time((1 << 20) / 98);
        assert!(many > one + 90.0 * l.latency);
    }

    #[test]
    fn nvlink_faster_than_pcie() {
        let b = 64 << 20;
        assert!(LinkModel::nvlink2().transfer_time(b) < LinkModel::pcie_gen3().transfer_time(b));
    }
}
