//! Minimal collectives over the point-to-point layer: the artifact's
//! per-timestep metrics are reported as `[minimum, average, maximum]`
//! across ranks, which requires a reduction at the end of a run; and the
//! rank-0 fence the resilient drivers synchronize with, which — unlike
//! [`RankCtx::barrier`] — reports a crashed peer instead of returning.
//!
//! Collectives are control-plane traffic: their tags carry
//! [`CTRL_TAG_BIT`], so fault injection never drops or corrupts them.
//! A chaos run's final timer reduction must report the damage, not
//! suffer it.

use crate::cluster::RankCtx;
use crate::error::NetsimError;
use crate::fault::CTRL_TAG_BIT;
use crate::timers::Timers;

/// Reserved tag namespace for collectives (fault-exempt control plane).
const COLL_TAG: u64 = CTRL_TAG_BIT | 0xC0_11_00_00;

impl<'a> RankCtx<'a> {
    /// Gather one f64 from every rank to rank 0 (returns `Some(values)`
    /// on rank 0, `None` elsewhere). Collectives use a reserved tag
    /// space and must be called by all ranks.
    pub(crate) fn gather_to_root(&mut self, value: f64) -> Result<Option<Vec<f64>>, NetsimError> {
        let size = self.size();
        if self.rank() == 0 {
            let mut out = vec![0.0; size];
            out[0] = value;
            let handles = (1..size)
                .map(|src| self.irecv(src, COLL_TAG))
                .collect::<Result<Vec<_>, _>>()?;
            let mut bufs: Vec<[f64; 1]> = vec![[0.0]; size - 1];
            {
                let mut slices: Vec<&mut [f64]> =
                    bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                self.waitall_into(&handles, &mut slices)?;
            }
            for (i, b) in bufs.iter().enumerate() {
                out[i + 1] = b[0];
            }
            Ok(Some(out))
        } else {
            self.isend(0, COLL_TAG, &[value])?;
            Ok(None)
        }
    }

    /// Fence rooted at rank 0: every other rank checks in with a token
    /// tagged `join`, and rank 0, once it holds them all, releases each
    /// with a token tagged `rel`. Collective; the waits report a revoked
    /// communicator as [`NetsimError::RankFailed`]. Leaves the send epoch
    /// open: the tokens are billed with whatever the caller posts next,
    /// or at its [`RankCtx::flush_epoch`].
    pub fn fence(&mut self, join: u64, rel: u64) -> Result<(), NetsimError> {
        self.rooted_fence(join, rel, false)
    }

    /// [`RankCtx::fence`]; with `acknowledge`, rank 0 acknowledges the
    /// pending failure between the check-ins and the release (the
    /// recovery epoch's release fence).
    pub(crate) fn rooted_fence(&mut self, join: u64, rel: u64, acknowledge: bool) -> Result<(), NetsimError> {
        let n = self.size();
        if self.rank() == 0 {
            for src in 1..n {
                let h = self.irecv(src, join)?;
                self.recv_blocking(h)?;
            }
            if acknowledge {
                self.acknowledge_failure();
            }
            for dst in 1..n {
                self.isend(dst, rel, &[1.0])?;
            }
        } else {
            self.isend(0, join, &[1.0])?;
            let h = self.irecv(0, rel)?;
            self.recv_blocking(h)?;
        }
        Ok(())
    }

    /// All-reduce maximum of one f64 (root gathers, then broadcasts).
    pub fn allreduce_max(&mut self, value: f64) -> Result<f64, NetsimError> {
        let size = self.size();
        if let Some(vals) = self.gather_to_root(value)? {
            let m = vals.into_iter().fold(f64::NEG_INFINITY, f64::max);
            for dst in 1..size {
                self.isend(dst, COLL_TAG + 1, &[m])?;
            }
            Ok(m)
        } else {
            let h = self.irecv(0, COLL_TAG + 1)?;
            let mut buf = [0.0];
            self.waitall_into(&[h], &mut [&mut buf[..]])?;
            Ok(buf[0])
        }
    }

    /// Reduce a full timer set to rank 0 as `(min, avg, max)` per
    /// category — the artifact's reporting format.
    pub fn reduce_timers(&mut self, t: &Timers) -> Result<Option<TimerSummary>, NetsimError> {
        let fields = [t.calc, t.pack, t.call, t.wait];
        let mut mins = [0.0f64; 4];
        let mut avgs = [0.0f64; 4];
        let mut maxs = [0.0f64; 4];
        let mut root = true;
        for (i, &v) in fields.iter().enumerate() {
            match self.gather_to_root(v)? {
                Some(vals) => {
                    let n = vals.len() as f64;
                    mins[i] = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                    maxs[i] = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    avgs[i] = vals.iter().sum::<f64>() / n;
                }
                None => root = false,
            }
        }
        Ok(if root {
            Some(TimerSummary {
                calc: (mins[0], avgs[0], maxs[0]),
                pack: (mins[1], avgs[1], maxs[1]),
                call: (mins[2], avgs[2], maxs[2]),
                wait: (mins[3], avgs[3], maxs[3]),
            })
        } else {
            None
        })
    }
}

/// `(min, avg, max)` of each timer category across ranks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimerSummary {
    /// Computation.
    pub calc: (f64, f64, f64),
    /// Packing.
    pub pack: (f64, f64, f64),
    /// MPI posting.
    pub call: (f64, f64, f64),
    /// MPI completion.
    pub wait: (f64, f64, f64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{run_cluster, run_cluster_faulty};
    use crate::fault::FaultConfig;
    use crate::model::NetworkModel;
    use crate::topo::CartTopo;

    #[test]
    fn gather_collects_in_rank_order() {
        let topo = CartTopo::new(&[4], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            ctx.gather_to_root((ctx.rank() * 10) as f64).unwrap()
        });
        assert_eq!(out[0], Some(vec![0.0, 10.0, 20.0, 30.0]));
        assert_eq!(out[1], None);
    }

    #[test]
    fn allreduce_max_everywhere() {
        let topo = CartTopo::new(&[5], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            ctx.allreduce_max(if ctx.rank() == 3 { 99.0 } else { ctx.rank() as f64 }).unwrap()
        });
        assert!(out.iter().all(|&v| v == 99.0));
    }

    #[test]
    fn timer_summary_bounds() {
        let topo = CartTopo::new(&[3], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let t = Timers { calc: ctx.rank() as f64 + 1.0, ..Timers::default() };
            ctx.reduce_timers(&t).unwrap()
        });
        let s = out[0].unwrap();
        assert_eq!(s.calc, (1.0, 2.0, 3.0));
        assert_eq!(s.pack, (0.0, 0.0, 0.0));
        assert!(out[1].is_none());
    }

    #[test]
    fn collectives_survive_full_packet_loss() {
        // Control-plane tags carry CTRL_TAG_BIT: even drop=1.0 cannot
        // touch them, so the final reduction of a chaos run is safe.
        let topo = CartTopo::new(&[4], true);
        let cfg = FaultConfig { seed: 11, drop: 1.0, ..FaultConfig::off() };
        let out = run_cluster_faulty(&topo, NetworkModel::instant(), cfg, |ctx| {
            ctx.allreduce_max(ctx.rank() as f64).unwrap()
        });
        assert!(out.iter().all(|&v| v == 3.0));
    }
}
