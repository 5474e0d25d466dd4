//! Per-rank timing in the artifact's categories.
//!
//! The paper's artifact reports, per timestep: `calc` (stencil compute),
//! `pack` (packing/unpacking), `call` (MPI_Isend/Irecv posting) and
//! `wait` (MPI_Waitall). We keep the same taxonomy; `calc` and `pack`
//! are real measured wall time, `call` and `wait` come from the wire
//! model.

use std::time::Instant;

/// Accumulated times (seconds) and traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timers {
    /// Stencil computation (really measured).
    pub calc: f64,
    /// Packing/unpacking (really measured).
    pub pack: f64,
    /// Message posting overhead (modeled: `o * messages`).
    pub call: f64,
    /// Completion wait (modeled LogGP term).
    pub wait: f64,
    /// Messages sent.
    pub msgs: u64,
    /// Bytes put on the wire (including any padding).
    pub wire_bytes: u64,
    /// Payload bytes (excluding padding), set by callers that know it.
    pub payload_bytes: u64,
    /// Of the bytes flushed through partitioned channels, those shipped
    /// early by `pready` (before the owning message's flush).
    pub early_bytes: u64,
    /// Payload bytes flushed through partitioned channels.
    pub partition_bytes: u64,
}

impl Timers {
    /// Total communication time (`pack + call + wait`), the paper's
    /// `Comm`.
    pub fn comm(&self) -> f64 {
        self.pack + self.call + self.wait
    }

    /// Total time (`Comm + calc`).
    pub fn total(&self) -> f64 {
        self.comm() + self.calc
    }

    /// Element-wise sum.
    pub fn merge(&mut self, o: &Timers) {
        self.calc += o.calc;
        self.pack += o.pack;
        self.call += o.call;
        self.wait += o.wait;
        self.msgs += o.msgs;
        self.wire_bytes += o.wire_bytes;
        self.payload_bytes += o.payload_bytes;
        self.early_bytes += o.early_bytes;
        self.partition_bytes += o.partition_bytes;
    }

    /// Scale all times and counters by `1/n` (per-timestep averaging).
    pub fn per_step(&self, n: usize) -> Timers {
        let inv = 1.0 / n as f64;
        Timers {
            calc: self.calc * inv,
            pack: self.pack * inv,
            call: self.call * inv,
            wait: self.wait * inv,
            msgs: self.msgs / n as u64,
            wire_bytes: self.wire_bytes / n as u64,
            payload_bytes: self.payload_bytes / n as u64,
            early_bytes: self.early_bytes / n as u64,
            partition_bytes: self.partition_bytes / n as u64,
        }
    }

    /// Zero everything.
    pub fn reset(&mut self) {
        *self = Timers::default();
    }
}

/// Measure a closure's wall time in seconds, returning `(result, secs)`.
#[inline]
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_per_step() {
        let mut a = Timers {
            calc: 1.0,
            pack: 2.0,
            call: 0.5,
            wait: 0.5,
            msgs: 10,
            wire_bytes: 100,
            payload_bytes: 80,
            early_bytes: 48,
            partition_bytes: 64,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.calc, 2.0);
        assert_eq!(a.msgs, 20);
        assert_eq!((a.early_bytes, a.partition_bytes), (96, 128));
        let p = a.per_step(2);
        assert_eq!(p.calc, 1.0);
        assert_eq!(p.msgs, 10);
        assert_eq!((p.early_bytes, p.partition_bytes), (48, 64));
        assert_eq!(p.comm(), 2.0 + 0.5 + 0.5);
        assert_eq!(p.total(), 4.0);
        a.reset();
        assert_eq!(a, Timers::default());
    }

    #[test]
    fn timed_measures_something() {
        let (v, t) = timed(|| {
            let mut s = 0u64;
            for i in 0..100_000u64 {
                s = s.wrapping_add(i * i);
            }
            s
        });
        assert!(v > 0);
        assert!(t >= 0.0);
    }
}
