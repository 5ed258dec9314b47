//! # noc-traffic — workload and attack models for the DL2Fence reproduction
//!
//! This crate provides everything that *injects packets* into the
//! [`noc_sim`] substrate:
//!
//! * the six **synthetic traffic patterns** (STP) used in the paper's
//!   evaluation — uniform random, tornado, shuffle, neighbor, bit rotation
//!   and bit complement ([`SyntheticPattern`]),
//! * **PARSEC-like workload models** ([`ParsecWorkload`]) — phase-structured
//!   generators that reproduce the low-communication-density,
//!   computation-heavy Region-of-Interest behaviour of blackscholes,
//!   bodytrack and x264 (a documented substitution for gem5 full-system
//!   traces),
//! * the **refined DoS model** ([`DosAttack`]) with a finely adjustable
//!   Flooding Injection Rate (FIR) that overlays protocol-legal malicious
//!   packets on top of benign traffic, in three families ([`AttackKind`]):
//!   classic **flooding** (`Fdos`), coordinated multi-source **distributed
//!   DoS** (`Ddos`, after Weerasena et al. 2025) and **stealthy duty-cycle /
//!   ramp-up** flooding that stays under the FIR threshold (`Stealth`), and
//! * [`AttackScenario`], which combines a benign workload with zero or more
//!   attackers and drives a simulation on any [`noc_sim::Topology`].
//!
//! ## Quick example
//!
//! ```
//! use noc_sim::{NocConfig, NodeId};
//! use noc_traffic::{AttackKind, AttackScenario, DosAttack, SyntheticPattern};
//!
//! let mut scenario = AttackScenario::builder(NocConfig::mesh(8, 8))
//!     .benign(SyntheticPattern::UniformRandom, 0.02)
//!     .attack(DosAttack::new(AttackKind::Fdos, vec![NodeId(63)], NodeId(0), 0.8))
//!     .seed(7)
//!     .build();
//! scenario.run(1_000);
//! assert!(scenario.network().stats().malicious_packets_received > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dos;
pub mod generator;
pub mod parsec;
pub mod pattern;
pub mod scenario;

pub use dos::{AttackKind, DosAttack};
pub use generator::{BernoulliInjector, TrafficGenerator};
pub use parsec::{ParsecPhase, ParsecWorkload};
pub use pattern::SyntheticPattern;
pub use scenario::{AttackScenario, AttackScenarioBuilder, BenignWorkload};

// Unit tests of `DosAttack`, one module per attack family, each named as
// the family is on the campaign grid's `attack` axis, so test paths read
// `fdos::tests::…`, `ddos::tests::…` and `stealth::tests::…`.
#[cfg(test)]
mod fdos {
    mod tests {
        use crate::{AttackKind, DosAttack, TrafficGenerator};
        use noc_sim::{Network, NocConfig, NodeId, Topology};

        fn fdos(attackers: Vec<NodeId>, victim: NodeId, fir: f64) -> DosAttack {
            DosAttack::new(AttackKind::Fdos, attackers, victim, fir)
        }

        #[test]
        fn fir_zero_injects_nothing() {
            let mut net = Network::new(NocConfig::mesh(4, 4));
            let mut attack = fdos(vec![NodeId(15)], NodeId(0), 0.0);
            for c in 0..500 {
                attack.inject(&mut net, c);
                net.step();
            }
            assert_eq!(net.stats().packets_created, 0);
        }

        #[test]
        fn fir_one_injects_every_cycle() {
            let mut net = Network::new(NocConfig::mesh(4, 4));
            let mut attack = fdos(vec![NodeId(15)], NodeId(0), 1.0);
            for c in 0..100 {
                attack.inject(&mut net, c);
                net.step();
            }
            assert_eq!(net.stats().packets_created, 100);
        }

        #[test]
        fn higher_fir_floods_more() {
            let run = |fir| {
                let mut net = Network::new(NocConfig::mesh(8, 8));
                let mut attack = fdos(vec![NodeId(63)], NodeId(0), fir).with_seed(1);
                for c in 0..2_000 {
                    attack.inject(&mut net, c);
                    net.step();
                }
                net.stats().packets_created
            };
            let low = run(0.1);
            let high = run(0.8);
            assert!(
                high > 3 * low,
                "FIR 0.8 ({high}) should flood far more than 0.1 ({low})"
            );
        }

        #[test]
        fn rpv_excludes_attacker_and_includes_victim() {
            let mesh = Topology::mesh(4, 4);
            let attack = fdos(vec![NodeId(3)], NodeId(0), 0.5);
            let rpv = attack.routing_path_victims(&mesh);
            assert_eq!(rpv, vec![NodeId(0), NodeId(1), NodeId(2)]);
        }

        #[test]
        fn rpv_merges_multiple_attackers() {
            let mesh = Topology::mesh(4, 4);
            // Attackers at opposite row ends of victim 5.
            let attack = fdos(vec![NodeId(7), NodeId(4)], NodeId(5), 0.5);
            let rpv = attack.routing_path_victims(&mesh);
            assert!(rpv.contains(&NodeId(5)));
            assert!(rpv.contains(&NodeId(6)));
            assert!(!rpv.contains(&NodeId(7)));
            assert!(!rpv.contains(&NodeId(4)));
        }

        #[test]
        fn rpv_follows_wrap_links_on_torus() {
            let torus = Topology::torus(4, 4);
            // On the torus, 3 -> 0 is one wrap hop: only the victim is an RPV.
            let attack = fdos(vec![NodeId(3)], NodeId(0), 0.5);
            assert_eq!(attack.routing_path_victims(&torus), vec![NodeId(0)]);
        }

        #[test]
        fn malicious_packets_reach_the_victim() {
            let mut net = Network::new(NocConfig::mesh(4, 4));
            let mut attack = fdos(vec![NodeId(12)], NodeId(3), 0.5).with_seed(2);
            for c in 0..1_000 {
                attack.inject(&mut net, c);
                net.step();
            }
            net.run(500);
            assert!(net.stats().malicious_packets_received > 100);
            assert!(net.stats().received_per_node[3] > 100);
        }

        #[test]
        #[should_panic(expected = "FIR")]
        fn invalid_fir_panics() {
            fdos(vec![NodeId(1)], NodeId(0), 1.2);
        }

        #[test]
        #[should_panic(expected = "victim cannot also be an attacker")]
        fn victim_as_attacker_panics() {
            fdos(vec![NodeId(0)], NodeId(0), 0.5);
        }
    }
}

#[cfg(test)]
mod ddos {
    mod tests {
        use crate::{AttackKind, DosAttack, TrafficGenerator};
        use noc_sim::{Network, NocConfig, NodeId};

        fn ddos(attackers: Vec<NodeId>, victim: NodeId, fir: f64) -> DosAttack {
            DosAttack::new(AttackKind::Ddos, attackers, victim, fir)
        }

        #[test]
        fn aggregate_rate_matches_single_source_fdos() {
            let cycles = 20_000u64;
            let mut net = Network::new(NocConfig::mesh(8, 8));
            let mut attack =
                ddos(vec![NodeId(7), NodeId(56), NodeId(63)], NodeId(0), 0.6).with_seed(5);
            for c in 0..cycles {
                attack.inject(&mut net, c);
            }
            let created = net.stats().packets_created as f64;
            let expected = 0.6 * cycles as f64;
            assert!(
                (created - expected).abs() < 0.05 * expected,
                "aggregate {created} should be near {expected}"
            );
        }

        #[test]
        fn sources_take_turns_and_all_contribute() {
            let mut net = Network::new(NocConfig::mesh(4, 4));
            let sources = vec![NodeId(3), NodeId(12)];
            let mut attack = ddos(sources.clone(), NodeId(0), 1.0);
            for c in 0..100 {
                attack.inject(&mut net, c);
                net.step();
            }
            net.run(2_000);
            // FIR 1.0: one packet per cycle alternating between the two sources.
            assert_eq!(net.stats().packets_created, 100);
            assert!(net.stats().malicious_packets_received > 0);
        }

        #[test]
        fn per_source_rate_stays_under_threshold() {
            // 4 sources at aggregate FIR 0.8: each fires ~0.2/cycle, i.e. each
            // source alone looks like a modest FDoS well under the aggregate.
            let cycles = 40_000u64;
            let sources = vec![NodeId(15), NodeId(48), NodeId(51), NodeId(60)];
            let mut per_source = [0u64; 4];
            let mut attack = ddos(sources.clone(), NodeId(0), 0.8).with_seed(9);
            let mut net = Network::new(NocConfig::mesh(8, 8));
            for c in 0..cycles {
                let before = net.stats().packets_created;
                attack.inject(&mut net, c);
                if net.stats().packets_created > before {
                    per_source[(c % 4) as usize] += 1;
                }
            }
            for (i, &count) in per_source.iter().enumerate() {
                let rate = count as f64 / cycles as f64;
                assert!(
                    (rate - 0.2).abs() < 0.02,
                    "source {i} rate {rate} should be near 0.2"
                );
            }
        }

        #[test]
        fn deterministic_under_fixed_seed() {
            let run = |seed| {
                let mut net = Network::new(NocConfig::mesh(4, 4));
                let mut a = ddos(vec![NodeId(3), NodeId(12)], NodeId(0), 0.5).with_seed(seed);
                for c in 0..1_000 {
                    a.inject(&mut net, c);
                    net.step();
                }
                net.stats().packets_created
            };
            assert_eq!(run(7), run(7));
            assert_ne!(run(7), run(8));
        }

        #[test]
        #[should_panic(expected = "at least one attacker")]
        fn empty_sources_panic() {
            ddos(vec![], NodeId(0), 0.5);
        }
    }
}

#[cfg(test)]
mod stealth {
    mod tests {
        use crate::{AttackKind, DosAttack, TrafficGenerator};
        use noc_sim::{Network, NocConfig, NodeId};

        fn stealth(attackers: Vec<NodeId>, victim: NodeId, fir: f64) -> DosAttack {
            DosAttack::new(AttackKind::Stealth, attackers, victim, fir)
        }

        #[test]
        fn effective_fir_ramps_then_pulses() {
            let a = stealth(vec![NodeId(15)], NodeId(0), 0.8)
                .with_ramp(1_000)
                .with_duty(200, 100);
            assert_eq!(a.effective_fir(0), 0.0); // ramp starts at zero
            assert!((a.effective_fir(50) - 0.8 * 0.05).abs() < 1e-9);
            assert_eq!(a.effective_fir(150), 0.0); // duty off-phase
            assert!((a.effective_fir(2_000) - 0.8).abs() < 1e-9); // fully ramped, on-phase
            assert_eq!(a.effective_fir(2_150), 0.0);
        }

        #[test]
        fn average_rate_stays_under_peak() {
            let cycles = 40_000u64;
            let mut net = Network::new(NocConfig::mesh(8, 8));
            let mut attack = stealth(vec![NodeId(63)], NodeId(0), 0.8)
                .with_ramp(1_000)
                .with_duty(200, 100)
                .with_seed(3);
            for c in 0..cycles {
                attack.inject(&mut net, c);
            }
            let rate = net.stats().packets_created as f64 / cycles as f64;
            // Long-run average ≈ 0.4 (half the peak), clearly under FIR 0.8.
            assert!(rate < 0.45, "stealth rate {rate} should stay under 0.45");
            assert!(rate > 0.3, "stealth rate {rate} should still flood");
        }

        #[test]
        fn zero_ramp_starts_at_peak() {
            let a = stealth(vec![NodeId(1)], NodeId(0), 0.5).with_ramp(0);
            assert_eq!(a.effective_fir(0), 0.5);
        }

        #[test]
        fn packets_are_labelled_malicious() {
            let mut net = Network::new(NocConfig::mesh(4, 4));
            let mut attack = stealth(vec![NodeId(3)], NodeId(0), 1.0)
                .with_ramp(0)
                .with_duty(10, 10);
            for c in 0..200 {
                attack.inject(&mut net, c);
                net.step();
            }
            net.run(1_000);
            assert!(net.stats().malicious_packets_received > 100);
        }

        #[test]
        #[should_panic(expected = "on-time cannot exceed")]
        fn invalid_duty_panics() {
            stealth(vec![NodeId(1)], NodeId(0), 0.5).with_duty(10, 11);
        }
    }
}
