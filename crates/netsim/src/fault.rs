//! Seeded, deterministic fault injection for the simulated fabric.
//!
//! A [`FaultConfig`] names a `u64` seed plus per-fault probabilities;
//! each rank derives a [`FaultPlan`] from it and consults the plan at
//! every `isend`. Faults are decided by hashing
//! `(seed, rank, dest, tag, attempt)` with a splitmix64 chain, so the
//! schedule is a pure function of the seed and the (deterministic)
//! send sequence: replaying a run with the same seed injects exactly
//! the same drops, duplicates, corruptions and delays — which is what
//! makes chaos tests reproducible and shrinkable.
//!
//! The fault taxonomy mirrors what a real fabric does between NIC and
//! NIC:
//!
//! * **drop** — the message never arrives;
//! * **duplicate** — the message arrives twice;
//! * **corrupt** — one payload word is bit-flipped in flight;
//! * **delay** — the message arrives, but extra modeled latency is
//!   charged (congestion);
//! * **slowdown/jitter** — a per-rank multiplicative factor on the wire
//!   model (a straggler NIC), applied via
//!   [`crate::model::NetworkModel::slowed`].
//!
//! Control-plane traffic (tags carrying [`CTRL_TAG_BIT`]) and loopback
//! copies are exempt: recovery protocols need a reliable ack channel,
//! exactly like the transport-level credit/ack messaging real NICs
//! keep out of band.

/// Tag bit marking reliable control-plane messages, which are never
/// fault-injected (retry protocols use them to re-request lost data).
pub const CTRL_TAG_BIT: u64 = 1 << 62;

/// One scheduled process-level fault: a crash-stop kill or a fail-slow
/// stall, pinned to a deterministic point in the run — the `op`-th
/// data-plane transport operation rank `rank` performs inside timestep
/// `step`. Counting transport operations (sends, receive posts, waits)
/// instead of wall-clock time keeps process faults exactly replayable
/// on both execution backends, and lets a schedule land mid-overlap
/// window or between two `pready` calls.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcFault {
    /// The rank that fails.
    pub rank: usize,
    /// The timestep (driver-defined, counted from 0 incl. warmup) the
    /// fault fires in.
    pub step: u64,
    /// Data-plane transport operations to let pass within the step
    /// before firing (0 = fire on the first operation).
    pub op: u64,
    /// Fail-slow only: modeled seconds of stall billed to the rank's
    /// wait timer. Zero for a crash-stop kill.
    pub stall_secs: f64,
}

impl ProcFault {
    fn parse_at(name: &str, at: &str) -> Result<ProcFault, String> {
        let (rank, rest) = at
            .split_once('@')
            .ok_or_else(|| format!("--faults {name} spec must be RANK@STEP[+OP]"))?;
        let rank = rank.parse::<usize>().map_err(|e| format!("--faults {name} rank: {e}"))?;
        let (step, op) = match rest.split_once('+') {
            Some((s, o)) => (
                s.parse::<u64>().map_err(|e| format!("--faults {name} step: {e}"))?,
                o.parse::<u64>().map_err(|e| format!("--faults {name} op: {e}"))?,
            ),
            None => (rest.parse::<u64>().map_err(|e| format!("--faults {name} step: {e}"))?, 0),
        };
        Ok(ProcFault { rank, step, op, stall_secs: 0.0 })
    }
}

/// Fault probabilities plus the seed that makes them deterministic.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Seed for the per-message hash chain.
    pub seed: u64,
    /// P(message dropped).
    pub drop: f64,
    /// P(one payload word bit-flipped).
    pub corrupt: f64,
    /// P(message delivered twice).
    pub dup: f64,
    /// P(extra modeled latency charged).
    pub delay: f64,
    /// Per-rank wire slowdown spread: each rank's model is scaled by a
    /// factor in `[1, 1 + jitter]` drawn from the seed.
    pub jitter: f64,
    /// Crash-stop process fault: the named rank dies at the scheduled
    /// point. In-flight messages to and from it vanish; survivors
    /// observe [`crate::NetsimError::RankFailed`] instead of a hang.
    pub kill: Option<ProcFault>,
    /// Fail-slow process fault: the named rank bills `stall_secs` of
    /// modeled wait time at the scheduled point, once.
    pub stall: Option<ProcFault>,
}

impl FaultConfig {
    /// A fault-free configuration (the default).
    pub fn off() -> FaultConfig {
        FaultConfig::default()
    }

    /// Whether any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0
            || self.corrupt > 0.0
            || self.dup > 0.0
            || self.delay > 0.0
            || self.jitter > 0.0
            || self.proc_active()
    }

    /// Whether a process-level fault (kill or stall) is scheduled.
    pub fn proc_active(&self) -> bool {
        self.kill.is_some() || self.stall.is_some()
    }

    /// Whether data can be lost or damaged in flight. Delay and jitter
    /// only stretch modeled time — every payload still arrives intact —
    /// so exchange engines only need the reliable retry protocol when
    /// this is true.
    pub fn lossy(&self) -> bool {
        self.drop > 0.0 || self.corrupt > 0.0 || self.dup > 0.0
    }

    /// Parse the CLI form `seed[,drop[,corrupt[,dup[,delay[,jitter]]]]]`,
    /// e.g. `--faults 42,0.1,0.05`. Process-fault tokens may appear
    /// anywhere in the comma list: `kill:RANK@STEP[+OP]` schedules a
    /// crash-stop kill and `stall:RANK@STEP[+OP]:SECS` a fail-slow
    /// stall (`+OP` pins the data-plane transport operation within the
    /// step; default 0, the step's first). A spec of only process
    /// faults needs no seed: `--faults kill:1@3`.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        if spec.is_empty() {
            return Err("--faults needs at least a seed or a kill:/stall: spec".into());
        }
        let mut cfg = FaultConfig::default();
        let mut positional: Vec<&str> = Vec::new();
        for tok in spec.split(',') {
            if let Some(at) = tok.strip_prefix("kill:") {
                if cfg.kill.is_some() {
                    return Err("--faults takes at most one kill: spec".into());
                }
                cfg.kill = Some(ProcFault::parse_at("kill", at)?);
            } else if let Some(body) = tok.strip_prefix("stall:") {
                if cfg.stall.is_some() {
                    return Err("--faults takes at most one stall: spec".into());
                }
                let (at, secs) = body
                    .rsplit_once(':')
                    .ok_or("--faults stall spec must be RANK@STEP[+OP]:SECS")?;
                let mut st = ProcFault::parse_at("stall", at)?;
                st.stall_secs =
                    secs.parse::<f64>().map_err(|e| format!("--faults stall secs: {e}"))?;
                if !st.stall_secs.is_finite() || st.stall_secs <= 0.0 {
                    return Err("--faults stall secs must be positive".into());
                }
                cfg.stall = Some(st);
            } else {
                positional.push(tok);
            }
        }
        let mut parts = positional.into_iter();
        match parts.next() {
            Some(s) if !s.is_empty() => {
                cfg.seed = s.parse::<u64>().map_err(|e| format!("--faults seed: {e}"))?;
            }
            // `kill:`/`stall:`-only specs carry no seed token.
            None | Some("") if cfg.proc_active() => {}
            _ => return Err("--faults needs at least a seed or a kill:/stall: spec".into()),
        }
        let fields: [(&str, &mut f64); 5] = [
            ("drop", &mut cfg.drop),
            ("corrupt", &mut cfg.corrupt),
            ("dup", &mut cfg.dup),
            ("delay", &mut cfg.delay),
            ("jitter", &mut cfg.jitter),
        ];
        for (name, slot) in fields {
            match parts.next() {
                None => break,
                Some(v) => {
                    let p = v.parse::<f64>().map_err(|e| format!("--faults {name}: {e}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("--faults {name} must be in [0, 1], got {p}"));
                    }
                    *slot = p;
                }
            }
        }
        if parts.next().is_some() {
            return Err("--faults takes at most seed,drop,corrupt,dup,delay,jitter".into());
        }
        Ok(cfg)
    }
}

/// The kind of an injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Message silently discarded.
    Drop,
    /// One payload word bit-flipped.
    Corrupt,
    /// Message delivered twice.
    Duplicate,
    /// Extra modeled latency charged to the sender's wait timer.
    Delay,
    /// Crash-stop process fault: the rank died. `src` and `dest` name
    /// the victim, `tag` the timestep, `attempt` the operation index.
    Kill,
    /// Fail-slow process fault: the rank stalled for modeled seconds.
    Stall,
}

impl FaultKind {
    /// Stable lowercase name (used in the JSON trace dump).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Delay => "delay",
            FaultKind::Kill => "kill",
            FaultKind::Stall => "stall",
        }
    }
}

/// One injected fault, recorded in the [`crate::trace::Trace`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// What was injected.
    pub kind: FaultKind,
    /// Sending rank.
    pub src: usize,
    /// Destination rank.
    pub dest: usize,
    /// Message tag.
    pub tag: u64,
    /// The sender's monotone send-attempt counter when the fault fired.
    pub attempt: u64,
    /// Payload bytes of the affected message.
    pub bytes: usize,
}

/// Per-rank running totals of injected faults (always maintained,
/// independent of profiling) and of the retry protocol's responses to
/// them ([`crate::reliable`]). They
/// live on the rank, not in the exchange plans, so a plan rebuilt after a
/// recovery epoch does not take them with it; a respawned rank starts its
/// own.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped.
    pub drops: u64,
    /// Messages corrupted.
    pub corrupts: u64,
    /// Messages duplicated.
    pub dups: u64,
    /// Messages delayed.
    pub delays: u64,
    /// Frames re-sent by the retry protocol after the first attempt.
    pub retries: u64,
    /// Frames discarded as duplicates (redelivery, stale sequence number,
    /// or mailbox leftovers evicted after convergence).
    pub duplicates_discarded: u64,
    /// Frames rejected by the checksum or length check.
    pub corrupt_detected: u64,
    /// Exchanges that spent their whole retry budget and fell back to
    /// fault-bypassed resends (graceful degradation).
    pub degraded_exchanges: u64,
}

impl FaultStats {
    /// Total injected faults (the protocol's responses are not faults).
    pub fn total(&self) -> u64 {
        self.drops + self.corrupts + self.dups + self.delays
    }

    /// Accumulate another rank's totals.
    pub fn merge(&mut self, o: &FaultStats) {
        self.drops += o.drops;
        self.corrupts += o.corrupts;
        self.dups += o.dups;
        self.delays += o.delays;
        self.retries += o.retries;
        self.duplicates_discarded += o.duplicates_discarded;
        self.corrupt_detected += o.corrupt_detected;
        self.degraded_exchanges += o.degraded_exchanges;
    }
}

/// What the plan decided for one concrete send.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultDecision {
    /// Discard instead of delivering.
    pub drop: bool,
    /// Deliver twice.
    pub dup: bool,
    /// `(word index, xor mask)` to flip in the delivered payload.
    pub corrupt: Option<(usize, u64)>,
    /// Extra modeled seconds of latency to charge.
    pub delay_secs: f64,
    /// The attempt counter this decision was drawn at.
    pub attempt: u64,
}

impl FaultDecision {
    /// Whether any fault fired.
    pub fn any(&self) -> bool {
        self.drop || self.dup || self.corrupt.is_some() || self.delay_secs > 0.0
    }
}

/// One rank's deterministic fault schedule.
///
/// The plan keeps a monotone per-rank attempt counter; every decision
/// is `hash(seed, rank, dest, tag, attempt, salt)`, so resends of the
/// same `(dest, tag)` draw fresh rolls (retries eventually get
/// through) while a replay of the whole run reproduces the schedule
/// bit for bit.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rank: usize,
    attempt: u64,
    /// Injection totals, and the responses the rank notes beside them.
    pub(crate) stats: FaultStats,
    slowdown: f64,
}

// Distinct salts per fault kind so the rolls are independent.
const SALT_DROP: u64 = 0xD709;
const SALT_CORRUPT: u64 = 0xC0FF;
const SALT_CORRUPT_WORD: u64 = 0xC0FE;
const SALT_DUP: u64 = 0xD0BB;
const SALT_DELAY: u64 = 0xDE1A;
const SALT_DELAY_MAG: u64 = 0xDE1B;
const SALT_SLOWDOWN: u64 = 0x510;

impl FaultPlan {
    /// Derive rank `rank`'s plan from a shared configuration.
    pub fn new(cfg: FaultConfig, rank: usize) -> FaultPlan {
        let slowdown = if cfg.jitter > 0.0 {
            1.0 + cfg.jitter * u01(mix3(cfg.seed, rank as u64, SALT_SLOWDOWN))
        } else {
            1.0
        };
        FaultPlan { cfg, rank, attempt: 0, stats: FaultStats::default(), slowdown }
    }

    /// The configuration this plan was derived from.
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    /// This rank's wire slowdown factor in `[1, 1 + jitter]`.
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Injection totals so far (and the responses noted beside them).
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// This rank's scheduled crash-stop kill, if any.
    pub fn kill(&self) -> Option<ProcFault> {
        self.cfg.kill.filter(|k| k.rank == self.rank)
    }

    /// This rank's scheduled fail-slow stall, if any.
    pub fn stall(&self) -> Option<ProcFault> {
        self.cfg.stall.filter(|s| s.rank == self.rank)
    }

    /// Decide the fate of one outgoing message. Control-plane tags
    /// (carrying [`CTRL_TAG_BIT`]) are exempt and do not advance the
    /// attempt counter, so the data-message fault schedule is identical
    /// across protocol variants that send the same data messages but
    /// different amounts of control traffic.
    pub fn decide(&mut self, dest: usize, tag: u64, payload_words: usize) -> FaultDecision {
        if tag & CTRL_TAG_BIT != 0 {
            return FaultDecision::default();
        }
        let attempt = self.attempt;
        self.attempt += 1;
        let base = mix3(self.cfg.seed, self.rank as u64, dest as u64)
            ^ mix3(tag, attempt, 0x9E37_79B9);
        let roll = |salt: u64| u01(splitmix64(base ^ splitmix64(salt)));
        let mut d = FaultDecision { attempt, ..FaultDecision::default() };
        if roll(SALT_DROP) < self.cfg.drop {
            d.drop = true;
            self.stats.drops += 1;
            // A dropped message can't also be duplicated or corrupted.
            return d;
        }
        if payload_words > 0 && roll(SALT_CORRUPT) < self.cfg.corrupt {
            let h = splitmix64(base ^ splitmix64(SALT_CORRUPT_WORD));
            let word = (h as usize) % payload_words;
            // Guaranteed-nonzero mask: always flips at least one bit.
            let mask = h | 1;
            d.corrupt = Some((word, mask));
            self.stats.corrupts += 1;
        }
        if roll(SALT_DUP) < self.cfg.dup {
            d.dup = true;
            self.stats.dups += 1;
        }
        if roll(SALT_DELAY) < self.cfg.delay {
            // 1x–10x the base latency of a theta-class fabric; purely
            // modeled time, scaled below by the caller's network model.
            let mag = 1.0 + 9.0 * u01(splitmix64(base ^ splitmix64(SALT_DELAY_MAG)));
            d.delay_secs = mag * 1.5e-6;
            self.stats.delays += 1;
        }
        d
    }
}

/// The per-message checksum the reliable exchange and the buddy
/// checkpoints append to their frames: a multiply-rotate hash over the
/// payload's 64-bit words, bound to `(tag, seq)`.
///
/// Word `i` goes to lane `i % 4`; the lanes are independent, so the
/// dependent xor-multiply-rotate chain is paid once per four words and
/// a grid-sized frame hashes at memory bandwidth. Every lane step is a
/// bijection of the lane state and of the word, and so is every fold
/// step, so damage confined to one word (what a `Corrupt` fault does)
/// always changes the sum. The length is folded in: a frame cannot
/// gain or lose trailing zero words unnoticed.
pub fn frame_checksum(payload: &[f64], tag: u64, seq: u64) -> u64 {
    // Odd multipliers (splitmix64 / wyhash constants): odd = invertible mod 2^64.
    const MUL: [u64; 4] = [
        0x9E37_79B9_7F4A_7C15,
        0xBF58_476D_1CE4_E5B9,
        0x94D0_49BB_1331_11EB,
        0xA076_1D64_78BD_642F,
    ];
    let mut lanes = MUL;
    for quad in payload.chunks(4) {
        for ((h, w), mul) in lanes.iter_mut().zip(quad).zip(MUL) {
            // The rotation carries a word's high bits, which a multiply
            // only moves upward, down into the next step's multiply.
            *h = (*h ^ w.to_bits()).wrapping_mul(mul).rotate_left(29);
        }
    }
    let mut sum = payload.len() as u64;
    for (i, h) in lanes.iter().enumerate() {
        sum = (sum ^ h.rotate_left(16 * i as u32)).wrapping_mul(MUL[0]);
    }
    splitmix64(sum) ^ splitmix64(tag) ^ splitmix64(seq.wrapping_add(0x5EED))
}

/// splitmix64 — the standard 64-bit finalizer chain (public domain
/// constants), strong enough to decorrelate the per-message rolls.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn mix3(a: u64, b: u64, c: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(a) ^ b) ^ c)
}

/// Map a hash to `[0, 1)`.
fn u01(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_and_partial() {
        let c = FaultConfig::parse("42,0.1,0.05,0.02,0.3,0.2").unwrap();
        assert_eq!(c.seed, 42);
        assert_eq!(c.drop, 0.1);
        assert_eq!(c.corrupt, 0.05);
        assert_eq!(c.dup, 0.02);
        assert_eq!(c.delay, 0.3);
        assert_eq!(c.jitter, 0.2);
        let c = FaultConfig::parse("7,0.25").unwrap();
        assert_eq!((c.seed, c.drop, c.corrupt), (7, 0.25, 0.0));
        let c = FaultConfig::parse("9").unwrap();
        assert!(!c.is_active());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultConfig::parse("").is_err());
        assert!(FaultConfig::parse("x").is_err());
        assert!(FaultConfig::parse("1,2.0").is_err());
        assert!(FaultConfig::parse("1,0.1,0.1,0.1,0.1,0.1,0.1").is_err());
        assert!(FaultConfig::parse("1,-0.5").is_err());
    }

    #[test]
    fn parse_process_faults() {
        let c = FaultConfig::parse("kill:1@3").unwrap();
        assert_eq!(c.kill, Some(ProcFault { rank: 1, step: 3, op: 0, stall_secs: 0.0 }));
        assert!(c.is_active() && c.proc_active() && !c.lossy());
        assert_eq!(c.seed, 0);

        let c = FaultConfig::parse("42,0.1,kill:2@5+7").unwrap();
        assert_eq!(c.seed, 42);
        assert_eq!(c.drop, 0.1);
        assert_eq!(c.kill, Some(ProcFault { rank: 2, step: 5, op: 7, stall_secs: 0.0 }));

        let c = FaultConfig::parse("stall:0@2+1:0.5").unwrap();
        let st = c.stall.unwrap();
        assert_eq!((st.rank, st.step, st.op), (0, 2, 1));
        assert_eq!(st.stall_secs, 0.5);
        assert!(!c.lossy(), "stall must stay data-safe");

        assert!(FaultConfig::parse("kill:1").is_err());
        assert!(FaultConfig::parse("kill:x@3").is_err());
        assert!(FaultConfig::parse("stall:1@3").is_err());
        assert!(FaultConfig::parse("stall:1@3:0").is_err());
        assert!(FaultConfig::parse("kill:1@2,kill:2@2").is_err());
    }

    #[test]
    fn proc_faults_bind_to_their_rank() {
        let cfg = FaultConfig {
            kill: Some(ProcFault { rank: 2, step: 1, op: 0, stall_secs: 0.0 }),
            stall: Some(ProcFault { rank: 3, step: 1, op: 0, stall_secs: 0.1 }),
            ..FaultConfig::off()
        };
        assert!(FaultPlan::new(cfg, 2).kill().is_some());
        assert!(FaultPlan::new(cfg, 0).kill().is_none());
        assert!(FaultPlan::new(cfg, 3).stall().is_some());
        assert!(FaultPlan::new(cfg, 2).stall().is_none());
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig { seed: 99, drop: 0.3, corrupt: 0.2, dup: 0.2, delay: 0.2, ..FaultConfig::off() };
        let mut a = FaultPlan::new(cfg, 1);
        let mut b = FaultPlan::new(cfg, 1);
        for i in 0..200 {
            let tag = (i % 7) as u64;
            assert_eq!(a.decide(2, tag, 64), b.decide(2, tag, 64));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            let cfg = FaultConfig { seed, drop: 0.5, ..FaultConfig::off() };
            let mut p = FaultPlan::new(cfg, 0);
            (0..64).map(|i| p.decide(1, i, 8).drop).collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn retries_draw_fresh_rolls() {
        // Same (dest, tag) resent repeatedly must not be dropped forever.
        let cfg = FaultConfig { seed: 5, drop: 0.5, ..FaultConfig::off() };
        let mut p = FaultPlan::new(cfg, 0);
        let outcomes: Vec<bool> = (0..32).map(|_| p.decide(1, 7, 8).drop).collect();
        assert!(outcomes.iter().any(|&d| d));
        assert!(outcomes.iter().any(|&d| !d));
    }

    #[test]
    fn rates_are_roughly_honored() {
        let cfg = FaultConfig { seed: 123, drop: 0.2, ..FaultConfig::off() };
        let mut p = FaultPlan::new(cfg, 3);
        let n = 5000;
        let drops = (0..n).filter(|&i| p.decide(0, i, 16).drop).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.03, "drop rate {rate}");
    }

    #[test]
    fn control_tags_are_exempt() {
        let cfg = FaultConfig { seed: 1, drop: 1.0, corrupt: 1.0, dup: 1.0, delay: 1.0, ..FaultConfig::off() };
        let mut p = FaultPlan::new(cfg, 0);
        let d = p.decide(1, CTRL_TAG_BIT | 5, 8);
        assert!(!d.any());
        // Data tags under the same config always fault.
        assert!(p.decide(1, 5, 8).any());
    }

    #[test]
    fn jitter_bounds_slowdown() {
        let cfg = FaultConfig { seed: 11, jitter: 0.25, ..FaultConfig::off() };
        for rank in 0..16 {
            let s = FaultPlan::new(cfg, rank).slowdown();
            assert!((1.0..1.25).contains(&s), "slowdown {s}");
        }
        let off = FaultPlan::new(FaultConfig::off(), 0);
        assert_eq!(off.slowdown(), 1.0);
    }

    #[test]
    fn corrupt_mask_is_nonzero_and_in_bounds() {
        let cfg = FaultConfig { seed: 2, corrupt: 1.0, ..FaultConfig::off() };
        let mut p = FaultPlan::new(cfg, 0);
        for i in 0..100 {
            let d = p.decide(1, i, 13);
            let (w, m) = d.corrupt.expect("corrupt probability 1");
            assert!(w < 13);
            assert_ne!(m, 0);
        }
    }

    /// Lengths that end in every lane and in every remainder shape;
    /// 4099 also covers a long run of full quads.
    const CHECKSUM_LENS: [usize; 8] = [0, 1, 3, 4, 5, 8, 9, 4099];

    fn checksum_payload(len: usize) -> Vec<f64> {
        (0..len).map(|i| i as f64 * 0.5 - 3.0).collect()
    }

    #[test]
    fn checksum_detects_a_flip_in_every_word() {
        for len in CHECKSUM_LENS {
            let payload = checksum_payload(len);
            let h = frame_checksum(&payload, 9, 0);
            assert_eq!(h, frame_checksum(&payload, 9, 0), "deterministic");
            for i in 0..len {
                // Low, high (sign) and a middle bit: a multiply alone
                // would only carry the high ones upward.
                for bit in [0, 31, 63] {
                    let mut bad = payload.clone();
                    bad[i] = f64::from_bits(bad[i].to_bits() ^ (1 << bit));
                    assert_ne!(h, frame_checksum(&bad, 9, 0), "len {len}, word {i}, bit {bit}");
                }
            }
        }
    }

    #[test]
    fn checksum_binds_length_tag_and_seq() {
        for len in CHECKSUM_LENS {
            let mut payload = checksum_payload(len);
            let h = frame_checksum(&payload, 9, 0);
            assert_ne!(h, frame_checksum(&payload, 10, 0), "tag-bound, len {len}");
            assert_ne!(h, frame_checksum(&payload, 9, 1), "seq-bound, len {len}");
            payload.push(0.0);
            assert_ne!(h, frame_checksum(&payload, 9, 0), "trailing-zero-bound, len {len}");
        }
    }

    /// Two sign flips four words apart meet in the same lane; without
    /// the per-step rotation their differences would cancel.
    #[test]
    fn checksum_sees_same_lane_sign_flips() {
        let payload = checksum_payload(64);
        let negated: Vec<f64> = payload.iter().map(|v| -v).collect();
        assert_ne!(frame_checksum(&payload, 9, 0), frame_checksum(&negated, 9, 0));
        let mut two = payload.clone();
        two[8] = -two[8];
        two[12] = -two[12];
        assert_ne!(frame_checksum(&payload, 9, 0), frame_checksum(&two, 9, 0));
    }
}
