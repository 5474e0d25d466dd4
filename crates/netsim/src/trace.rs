//! The fault log: every fault injected by a [`crate::fault::FaultPlan`]
//! is appended as a [`FaultEvent`], unconditionally — a chaos run must
//! never lose its injection record (determinism tests and the CI artifact
//! both replay it). Message events are recorded by the rank's
//! [`telemetry::Recorder`] when profiling is on.

use crate::fault::FaultEvent;

/// A per-rank fault log.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    faults: Vec<FaultEvent>,
}

impl Trace {
    /// Record an injected fault (always kept: the fault log is the chaos
    /// run's artifact).
    pub(crate) fn record_fault(&mut self, e: FaultEvent) {
        self.faults.push(e);
    }

    /// Injected faults recorded so far.
    pub fn faults(&self) -> &[FaultEvent] {
        &self.faults
    }

    /// Drain the recorded fault events.
    pub(crate) fn take_faults(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.faults)
    }

    /// Render a fault log as a JSON array (the CI chaos artifact).
    pub fn faults_json(rank: usize, faults: &[FaultEvent]) -> String {
        let mut out = String::from("[");
        for (i, f) in faults.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"rank\": {rank}, \"kind\": \"{}\", \"src\": {}, \"dest\": {}, \
                 \"tag\": {}, \"attempt\": {}, \"bytes\": {}}}",
                f.kind.name(),
                f.src,
                f.dest,
                f.tag,
                f.attempt,
                f.bytes
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One rank's self-send through the mailbox: its message events, as
    /// the rank's timeline hands them out.
    fn self_send_events(profile: bool) -> Vec<telemetry::MsgEvent> {
        use crate::{run_cluster, CartTopo, NetworkModel};
        let topo = CartTopo::new(&[1], true);
        let mut out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            if profile {
                ctx.enable_profiling();
            }
            let h = ctx.irecv(0, 1).unwrap();
            ctx.isend(0, 1, &[1.0, 2.0]).unwrap();
            let mut buf = [0.0; 2];
            ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            ctx.take_timeline().msgs
        });
        out.pop().unwrap()
    }

    #[test]
    fn disabled_trace_records_nothing() {
        assert!(self_send_events(false).is_empty(), "message events need profiling");
    }

    #[test]
    fn faults_recorded_even_when_disabled() {
        use crate::fault::FaultKind;
        let mut t = Trace::default();
        let e = FaultEvent { kind: FaultKind::Drop, src: 0, dest: 1, tag: 7, attempt: 3, bytes: 64 };
        t.record_fault(e);
        assert_eq!(t.faults(), &[e]);
        let json = Trace::faults_json(2, t.faults());
        assert!(json.starts_with('['));
        assert!(json.contains("\"kind\": \"drop\""));
        assert!(json.contains("\"rank\": 2"));
        assert_eq!(t.take_faults().len(), 1);
        assert!(t.faults().is_empty());
    }

    #[test]
    fn totals() {
        let events = self_send_events(true);
        let sends: Vec<_> = events.iter().filter(|e| e.send).collect();
        assert_eq!(sends.len(), 1);
        assert_eq!(events.len() - sends.len(), 1);
        assert!(events.iter().all(|e| e.peer == 0 && e.tag == 1 && e.bytes == 16));
    }
}
