//! Seeded, deterministic fault injection for the remoting stack.
//!
//! A [`FaultPlan`] is plain data: a schedule of API-server kills plus a set
//! of link-level misbehaviours (drop the k-th message, drop/delay messages
//! with some probability, blackhole the link over an interval). The plan is
//! compiled into a [`LinkFaults`] runtime attached to a [`crate::NetLink`];
//! every RPC message crossing the link asks it for a [`MsgFate`].
//!
//! Determinism: fault decisions draw from a **dedicated** `StdRng` seeded by
//! the plan — never from the simulation's RNG — so installing an (empty)
//! fault plan does not perturb arrival processes or jitter draws, and two
//! runs with the same seed take byte-identical fault decisions. Everything
//! is keyed off the virtual clock and a per-link message counter, both of
//! which are reproducible by construction.

use std::rc::Rc;

use dgsf_sim::{Dur, SimCell, SimHandle, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded, declarative chaos schedule for one GPU server.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    kills: Vec<(u32, SimTime)>,
    drop_messages: Vec<u64>,
    drop_probability: f64,
    delay_probability: f64,
    delay_max: Dur,
    blackholes: Vec<(SimTime, SimTime)>,
    migration_drops: Vec<u64>,
    migration_drop_probability: f64,
    migration_delay_probability: f64,
    migration_delay_max: Dur,
    migration_kills: Vec<(u32, u64)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the RNG stream fixed by `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            kills: Vec::new(),
            drop_messages: Vec::new(),
            drop_probability: 0.0,
            delay_probability: 0.0,
            delay_max: Dur::ZERO,
            blackholes: Vec::new(),
            migration_drops: Vec::new(),
            migration_drop_probability: 0.0,
            migration_delay_probability: 0.0,
            migration_delay_max: Dur::ZERO,
            migration_kills: Vec::new(),
        }
    }

    /// Kill API server `server` at virtual time `at`: from then on it never
    /// responds, never heartbeats, and silently discards anything it
    /// receives. A kill dated before the server starts (an autoscaled
    /// server spawns later than the provisioned fleet) takes effect when it
    /// starts.
    pub fn kill_server(mut self, server: u32, at: SimTime) -> Self {
        self.kills.push((server, at));
        self
    }

    /// Drop the `index`-th message (0-based, counting every RPC request and
    /// response crossing the link; a `repeat`-aggregated transfer advances
    /// the counter by `repeat`).
    pub fn drop_message(mut self, index: u64) -> Self {
        self.drop_messages.push(index);
        self
    }

    /// Drop each message independently with probability `p` (clamped to
    /// `[0, 1]`), drawn from the plan's dedicated RNG.
    pub fn drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Delay each message with probability `p` by a uniform extra latency in
    /// `[0, max)`.
    pub fn delay_probability(mut self, p: f64, max: Dur) -> Self {
        self.delay_probability = p.clamp(0.0, 1.0);
        self.delay_max = max;
        self
    }

    /// Blackhole the link over `[from, until)`: every message sent in the
    /// window is silently dropped.
    pub fn blackhole(mut self, from: SimTime, until: SimTime) -> Self {
        self.blackholes.push((from, until));
        self
    }

    /// Drop the `index`-th migration state-transfer (0-based, counting every
    /// migration transfer crossing the link, in virtual-time order). The
    /// migration aborts and the API server stays on its source GPU.
    pub fn drop_migration(mut self, index: u64) -> Self {
        self.migration_drops.push(index);
        self
    }

    /// Drop each migration state-transfer independently with probability `p`
    /// (clamped to `[0, 1]`), drawn from a dedicated migration RNG stream so
    /// enabling it never perturbs ordinary link-fault decisions.
    pub fn migration_drop_probability(mut self, p: f64) -> Self {
        self.migration_drop_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Delay each migration state-transfer with probability `p` by a uniform
    /// extra latency in `[0, max)`.
    pub fn migration_delay_probability(mut self, p: f64, max: Dur) -> Self {
        self.migration_delay_probability = p.clamp(0.0, 1.0);
        self.migration_delay_max = max;
        self
    }

    /// Kill API server `server` in the middle of its `nth` migration
    /// (0-based): the state transfer completes on the wire but the server
    /// dies before re-binding, so the migration never commits and the
    /// monitor's lease machinery must clean up.
    pub fn kill_on_migration(mut self, server: u32, nth: u64) -> Self {
        self.migration_kills.push((server, nth));
        self
    }

    /// The scheduled API-server kills.
    pub fn kills(&self) -> &[(u32, SimTime)] {
        &self.kills
    }

    /// True if the plan injects link-level faults (the per-message fate
    /// machinery is only engaged when this holds or a seeded stream could
    /// matter).
    pub fn has_link_faults(&self) -> bool {
        !self.drop_messages.is_empty()
            || self.drop_probability > 0.0
            || self.delay_probability > 0.0
            || !self.blackholes.is_empty()
    }

    /// True if the plan targets migration state-transfers (drop/delay/kill
    /// mid-migration). These draw from a separate RNG stream and counter, so
    /// they never disturb [`FaultPlan::has_link_faults`] decisions.
    pub fn has_migration_faults(&self) -> bool {
        !self.migration_drops.is_empty()
            || self.migration_drop_probability > 0.0
            || self.migration_delay_probability > 0.0
            || !self.migration_kills.is_empty()
    }
}

/// What happens to one message (or one `repeat`-aggregate of messages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFate {
    /// The message arrives, possibly after an injected extra delay.
    Deliver {
        /// Extra latency added on top of the link's modelled latency.
        extra_delay: Dur,
    },
    /// The message is lost in the network; the sender still pays the send.
    Drop,
}

/// Counters the fault layer keeps, for chaos-run reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages (counting aggregates by their repeat factor) observed.
    pub messages: u64,
    /// Transfers dropped (an aggregate counts once).
    pub dropped: u64,
    /// Transfers delayed.
    pub delayed: u64,
    /// Migration state-transfers observed.
    pub migration_transfers: u64,
    /// Migration state-transfers dropped (each aborts one migration).
    pub migration_dropped: u64,
    /// Migration state-transfers delayed.
    pub migration_delayed: u64,
}

struct FaultRt {
    rng: StdRng,
    msg_index: u64,
    mig_rng: StdRng,
    mig_index: u64,
    stats: FaultStats,
}

/// Runtime fault state attached to one [`crate::NetLink`].
pub struct LinkFaults {
    plan: FaultPlan,
    rt: SimCell<FaultRt>,
}

impl LinkFaults {
    /// Compile a plan into runtime state of the simulation `h` belongs to.
    pub fn new(h: &SimHandle, plan: &FaultPlan) -> Rc<LinkFaults> {
        Rc::new(LinkFaults {
            rt: SimCell::new(
                h,
                FaultRt {
                    rng: StdRng::seed_from_u64(plan.seed ^ 0x9e37_79b9_7f4a_7c15),
                    msg_index: 0,
                    // A distinct stream: migration-fate draws must not advance
                    // the ordinary link-fault RNG, or adding migration chaos to
                    // an existing plan would reshuffle every message fate.
                    mig_rng: StdRng::seed_from_u64(plan.seed ^ 0x2545_f491_4f6c_dd1d),
                    mig_index: 0,
                    stats: FaultStats::default(),
                },
            ),
            plan: plan.clone(),
        })
    }

    /// Decide the fate of the next transfer: `repeat` back-to-back messages
    /// sent at virtual time `now`. An aggregate is dropped as a unit — in
    /// the modelled un-batched call pattern the round trips are sequential,
    /// so losing any one of them stalls the whole run.
    pub fn fate(&self, now: SimTime, repeat: u32) -> MsgFate {
        let repeat = repeat.max(1) as u64;
        let mut rt = self.rt.lock();
        let start = rt.msg_index;
        rt.msg_index += repeat;
        rt.stats.messages += repeat;
        if self
            .plan
            .blackholes
            .iter()
            .any(|(a, b)| now >= *a && now < *b)
        {
            rt.stats.dropped += 1;
            return MsgFate::Drop;
        }
        if self
            .plan
            .drop_messages
            .iter()
            .any(|i| *i >= start && *i < start + repeat)
        {
            rt.stats.dropped += 1;
            return MsgFate::Drop;
        }
        if self.plan.drop_probability > 0.0 {
            // Probability that at least one of `repeat` independent sends is
            // lost: 1 − (1 − p)^repeat, decided with a single draw so the
            // stream cost is one draw per transfer regardless of repeat.
            let p_any = 1.0 - (1.0 - self.plan.drop_probability).powi(repeat.min(1 << 30) as i32);
            if rt.rng.gen::<f64>() < p_any {
                rt.stats.dropped += 1;
                return MsgFate::Drop;
            }
        }
        let mut extra = Dur::ZERO;
        if self.plan.delay_probability > 0.0
            && self.plan.delay_max > Dur::ZERO
            && rt.rng.gen::<f64>() < self.plan.delay_probability
        {
            let nanos = rt.rng.gen_range(0..self.plan.delay_max.as_nanos().max(1));
            extra = Dur(nanos);
            rt.stats.delayed += 1;
        }
        MsgFate::Deliver { extra_delay: extra }
    }

    /// Decide the fate of the next migration state-transfer, sent at virtual
    /// time `now`. Draws come from the dedicated migration stream and advance
    /// a dedicated counter, so interleaving migrations with RPC traffic
    /// leaves the ordinary [`LinkFaults::fate`] sequence untouched.
    pub fn migration_fate(&self, now: SimTime) -> MsgFate {
        let mut rt = self.rt.lock();
        let index = rt.mig_index;
        rt.mig_index += 1;
        rt.stats.migration_transfers += 1;
        if self
            .plan
            .blackholes
            .iter()
            .any(|(a, b)| now >= *a && now < *b)
        {
            rt.stats.migration_dropped += 1;
            return MsgFate::Drop;
        }
        if self.plan.migration_drops.contains(&index) {
            rt.stats.migration_dropped += 1;
            return MsgFate::Drop;
        }
        if self.plan.migration_drop_probability > 0.0
            && rt.mig_rng.gen::<f64>() < self.plan.migration_drop_probability
        {
            rt.stats.migration_dropped += 1;
            return MsgFate::Drop;
        }
        let mut extra = Dur::ZERO;
        if self.plan.migration_delay_probability > 0.0
            && self.plan.migration_delay_max > Dur::ZERO
            && rt.mig_rng.gen::<f64>() < self.plan.migration_delay_probability
        {
            let nanos = rt
                .mig_rng
                .gen_range(0..self.plan.migration_delay_max.as_nanos().max(1));
            extra = Dur(nanos);
            rt.stats.migration_delayed += 1;
        }
        MsgFate::Deliver { extra_delay: extra }
    }

    /// True if the plan kills `server` during its `nth` migration. Plain
    /// data, no RNG: the caller consults it after the state transfer and
    /// before re-binding the session.
    pub fn migration_kill_due(&self, server: u32, nth: u64) -> bool {
        self.plan.migration_kills.contains(&(server, nth))
    }

    /// Snapshot of the fault counters.
    pub fn stats(&self) -> FaultStats {
        self.rt.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link_faults(plan: &FaultPlan) -> Rc<LinkFaults> {
        LinkFaults::new(&dgsf_sim::Sim::new(0).handle(), plan)
    }

    fn fates(plan: &FaultPlan, n: u64) -> Vec<MsgFate> {
        let lf = link_faults(plan);
        (0..n)
            .map(|i| lf.fate(SimTime::ZERO + Dur::from_millis(i), 1))
            .collect()
    }

    #[test]
    fn empty_plan_delivers_everything_undelayed() {
        let plan = FaultPlan::new(7);
        assert!(!plan.has_link_faults());
        for f in fates(&plan, 100) {
            assert_eq!(
                f,
                MsgFate::Deliver {
                    extra_delay: Dur::ZERO
                }
            );
        }
    }

    #[test]
    fn same_seed_same_fates() {
        let plan = FaultPlan::new(42)
            .drop_probability(0.3)
            .delay_probability(0.5, Dur::from_millis(10));
        let a = fates(&plan, 500);
        let b = fates(&plan, 500);
        assert_eq!(a, b, "fault decisions are a pure function of the seed");
        assert!(a.contains(&MsgFate::Drop));
        assert!(a
            .iter()
            .any(|f| matches!(f, MsgFate::Deliver { extra_delay } if *extra_delay > Dur::ZERO)));
    }

    #[test]
    fn different_seeds_diverge() {
        let a = fates(&FaultPlan::new(1).drop_probability(0.5), 200);
        let b = fates(&FaultPlan::new(2).drop_probability(0.5), 200);
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_drop_hits_exactly_that_message() {
        let plan = FaultPlan::new(0).drop_message(3);
        let got = fates(&plan, 6);
        for (i, f) in got.iter().enumerate() {
            if i == 3 {
                assert_eq!(*f, MsgFate::Drop);
            } else {
                assert!(matches!(f, MsgFate::Deliver { .. }));
            }
        }
    }

    #[test]
    fn indexed_drop_covers_aggregates() {
        // Messages 0..10 cross as one repeat=10 aggregate; index 7 is inside.
        let lf = link_faults(&FaultPlan::new(0).drop_message(7));
        assert_eq!(lf.fate(SimTime::ZERO, 10), MsgFate::Drop);
        assert!(matches!(
            lf.fate(SimTime::ZERO, 10),
            MsgFate::Deliver { .. }
        ));
        assert_eq!(lf.stats().messages, 20);
        assert_eq!(lf.stats().dropped, 1);
    }

    #[test]
    fn blackhole_drops_only_inside_the_window() {
        let t = |s: u64| SimTime::ZERO + Dur::from_secs(s);
        let lf = link_faults(&FaultPlan::new(0).blackhole(t(2), t(4)));
        assert!(matches!(lf.fate(t(1), 1), MsgFate::Deliver { .. }));
        assert_eq!(lf.fate(t(2), 1), MsgFate::Drop);
        assert_eq!(lf.fate(t(3), 1), MsgFate::Drop);
        assert!(matches!(lf.fate(t(4), 1), MsgFate::Deliver { .. }));
    }

    #[test]
    fn migration_faults_are_a_separate_stream() {
        // Same link traffic, with and without migration chaos interleaved:
        // the ordinary fate sequence must be identical either way.
        let base = FaultPlan::new(42)
            .drop_probability(0.3)
            .delay_probability(0.5, Dur::from_millis(10));
        let chaotic = base
            .clone()
            .migration_drop_probability(0.5)
            .migration_delay_probability(0.5, Dur::from_millis(5));
        assert!(!base.has_migration_faults());
        assert!(chaotic.has_migration_faults());

        let plain = link_faults(&base);
        let mixed = link_faults(&chaotic);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..200u64 {
            let t = SimTime::ZERO + Dur::from_millis(i);
            a.push(plain.fate(t, 1));
            b.push(mixed.fate(t, 1));
            if i % 3 == 0 {
                mixed.migration_fate(t); // interleaved migration traffic
            }
        }
        assert_eq!(a, b, "migration draws must not perturb link fates");
        let stats = mixed.stats();
        assert_eq!(stats.migration_transfers, 67);
        assert!(stats.migration_dropped > 0);
    }

    #[test]
    fn migration_fates_are_deterministic() {
        let plan = FaultPlan::new(9)
            .migration_drop_probability(0.4)
            .migration_delay_probability(0.4, Dur::from_millis(8));
        let run = || {
            let lf = link_faults(&plan);
            (0..100u64)
                .map(|i| lf.migration_fate(SimTime::ZERO + Dur::from_millis(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn indexed_migration_drop_hits_exactly_that_transfer() {
        let lf = link_faults(&FaultPlan::new(0).drop_migration(2));
        for i in 0..5u64 {
            let fate = lf.migration_fate(SimTime::ZERO + Dur::from_millis(i));
            if i == 2 {
                assert_eq!(fate, MsgFate::Drop);
            } else {
                assert_eq!(
                    fate,
                    MsgFate::Deliver {
                        extra_delay: Dur::ZERO
                    }
                );
            }
        }
        assert_eq!(lf.stats().migration_dropped, 1);
        assert_eq!(lf.stats().messages, 0, "no link traffic was counted");
    }

    #[test]
    fn migration_kill_is_plain_data() {
        let plan = FaultPlan::new(0).kill_on_migration(3, 1);
        assert!(plan.has_migration_faults());
        assert!(!plan.has_link_faults());
        let lf = link_faults(&plan);
        assert!(!lf.migration_kill_due(3, 0));
        assert!(lf.migration_kill_due(3, 1));
        assert!(!lf.migration_kill_due(2, 1));
    }

    #[test]
    fn kill_schedule_round_trips() {
        let t = SimTime::ZERO + Dur::from_secs(3);
        let plan = FaultPlan::new(0).kill_server(2, t);
        assert_eq!(plan.kills(), &[(2, t)]);
        assert!(!plan.has_link_faults(), "kills are not link faults");
    }
}
