//! Message tracing: record every posted message for schedule
//! inspection — the tool behind `ext_message_trace`, which verifies the
//! 42-message structure of the Layout exchange at the wire level.
//!
//! The trace also carries the **fault log**: every fault injected by a
//! [`crate::fault::FaultPlan`] is appended as a [`FaultEvent`],
//! unconditionally (message events stay opt-in and zero-cost when
//! disabled, but a chaos run must never lose its injection record —
//! determinism tests and the CI artifact both replay it).

use crate::fault::FaultEvent;

/// One traced message event.
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

/// A per-rank event log (enabled explicitly; zero cost otherwise).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<MsgEvent>,
    faults: Vec<FaultEvent>,
}

impl Trace {
    /// Start recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Record an event if recording.
    pub fn record(&mut self, e: MsgEvent) {
        if self.enabled {
            self.events.push(e);
        }
    }

    /// Drain the recorded events.
    pub fn take(&mut self) -> Vec<MsgEvent> {
        std::mem::take(&mut self.events)
    }

    /// Events recorded so far.
    pub fn events(&self) -> &[MsgEvent] {
        &self.events
    }

    /// Record an injected fault (always kept, independent of
    /// [`Trace::enable`]: the fault log is the chaos run's artifact).
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

    /// Summaries: `(sends, recvs, send_bytes)`.
    pub fn totals(&self) -> (usize, usize, usize) {
        let sends = self.events.iter().filter(|e| e.send).count();
        let recvs = self.events.len() - sends;
        let bytes = self.events.iter().filter(|e| e.send).map(|e| e.bytes).sum();
        (sends, recvs, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::default();
        t.record(MsgEvent { send: true, peer: 0, tag: 1, bytes: 8 });
        assert!(t.events().is_empty());
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
        let mut t = Trace::default();
        t.enable();
        t.record(MsgEvent { send: true, peer: 1, tag: 0, bytes: 100 });
        t.record(MsgEvent { send: true, peer: 2, tag: 0, bytes: 50 });
        t.record(MsgEvent { send: false, peer: 1, tag: 0, bytes: 100 });
        assert_eq!(t.totals(), (2, 1, 150));
        assert_eq!(t.take().len(), 3);
        assert!(t.events().is_empty());
    }
}
