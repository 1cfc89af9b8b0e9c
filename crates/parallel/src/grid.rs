//! Grid simulator for Table 1.
//!
//! The paper ran DBLP-BIG on a 30-machine Hadoop grid and observed an
//! ~11× speedup — far from 30× because of (a) per-round job setup
//! overhead and (b) statistical skew from randomly assigning
//! neighborhoods to machines ("some nodes get multiple bigger than
//! average neighborhoods"). Both effects are structural, not
//! Hadoop-specific, so they can be simulated faithfully: replay the
//! measured per-neighborhood costs of a real sharded run onto `m`
//! virtual machines with random assignment per round; the round's wall
//! time is the maximum machine load plus the setup overhead.
//!
//! A round is one epoch of the sharded runtime: the evaluations between
//! two evidence fences. Within an epoch a shard drains to local
//! quiescence, so one epoch may hold several visits of a neighborhood
//! and a run needs fewer epochs than strict one-visit-per-round rounds
//! would.

use em_core::framework::EvalTrace;
use em_core::properties::SplitMix64;
use std::time::Duration;

/// How neighborhoods are placed onto virtual machines within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Assignment {
    /// Uniform random placement — the paper's setting ("neighborhoods
    /// are randomly assigned to nodes"), and the source of its reported
    /// skew.
    #[default]
    Random,
    /// Longest-processing-time greedy: neighborhoods sorted by
    /// descending cost (ties by id), each placed on the currently
    /// least-loaded machine. The balancing discipline `em-shard` uses
    /// for components; simulating it here is the validation path
    /// between the simulator and real shard runs.
    Lpt,
}

/// Grid simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct GridParams {
    /// Number of virtual machines.
    pub machines: usize,
    /// Map/Reduce job setup overhead charged once per round.
    pub per_round_overhead: Duration,
    /// Assignment RNG seed (used by [`Assignment::Random`] only).
    pub seed: u64,
    /// Placement policy.
    pub assignment: Assignment,
}

impl Default for GridParams {
    fn default() -> Self {
        Self {
            machines: 30,
            // The paper's rounds are minutes long; Hadoop-era job setup
            // was tens of seconds.
            per_round_overhead: Duration::from_secs(20),
            seed: 0x6121D,
            assignment: Assignment::Random,
        }
    }
}

/// Result of a grid simulation.
#[derive(Debug, Clone, Copy)]
pub struct GridReport {
    /// Number of rounds replayed (epochs that evaluated anything).
    pub rounds: usize,
    /// Simulated wall-clock time on the grid.
    pub makespan: Duration,
    /// Total matcher work (= single-machine time, no overhead).
    pub total_work: Duration,
    /// `total_work / makespan`.
    pub speedup: f64,
    /// Mean over rounds of `max machine load / mean machine load`
    /// (1.0 = perfectly balanced).
    pub mean_skew: f64,
}

/// Replay per-epoch evaluation traces (one slice per epoch, as in
/// `ShardReport::epoch_traces`) onto a simulated grid. Empty epochs
/// cost nothing: no job is launched for them.
pub fn simulate(epochs: &[EvalTrace], params: &GridParams) -> GridReport {
    assert!(params.machines > 0, "at least one machine");
    let mut rng = SplitMix64::new(params.seed);
    let mut makespan = Duration::ZERO;
    let mut total_work = Duration::ZERO;
    let mut skew_sum = 0.0;
    let mut rounds = 0usize;
    let mut skew_rounds = 0usize;
    for epoch in epochs {
        if epoch.is_empty() {
            continue;
        }
        rounds += 1;
        let mut loads = vec![Duration::ZERO; params.machines];
        match params.assignment {
            Assignment::Random => {
                for &(_, cost) in epoch {
                    // Random assignment, as in the paper ("neighborhoods
                    // are randomly assigned to nodes").
                    let machine = rng.below(params.machines);
                    loads[machine] += cost;
                }
            }
            Assignment::Lpt => {
                let mut order = epoch.clone();
                order.sort_by_key(|&(id, cost)| (std::cmp::Reverse(cost), id));
                for (_, cost) in order {
                    let machine = loads
                        .iter()
                        .enumerate()
                        .min_by_key(|&(i, load)| (*load, i))
                        .map(|(i, _)| i)
                        .expect("at least one machine");
                    loads[machine] += cost;
                }
            }
        }
        let max = loads.iter().copied().max().unwrap_or(Duration::ZERO);
        let total: Duration = loads.iter().copied().sum();
        let mean = total / params.machines as u32;
        if mean > Duration::ZERO {
            skew_sum += max.as_secs_f64() / mean.as_secs_f64();
            skew_rounds += 1;
        }
        total_work += total;
        makespan += max + params.per_round_overhead;
    }
    GridReport {
        rounds,
        makespan,
        total_work,
        speedup: if makespan > Duration::ZERO {
            total_work.as_secs_f64() / makespan.as_secs_f64()
        } else {
            1.0
        },
        mean_skew: if skew_rounds > 0 {
            skew_sum / skew_rounds as f64
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::cover::NeighborhoodId;

    fn trace(rounds: Vec<Vec<u64>>) -> Vec<EvalTrace> {
        rounds
            .into_iter()
            .map(|costs| {
                costs
                    .into_iter()
                    .enumerate()
                    .map(|(i, ms)| (NeighborhoodId(i as u32), Duration::from_millis(ms)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn single_machine_makespan_is_total_plus_overhead() {
        let t = trace(vec![vec![10, 20, 30]]);
        let report = simulate(
            &t,
            &GridParams {
                machines: 1,
                per_round_overhead: Duration::from_millis(5),
                seed: 1,
                assignment: Assignment::Random,
            },
        );
        assert_eq!(report.makespan, Duration::from_millis(65));
        assert_eq!(report.total_work, Duration::from_millis(60));
        assert!((report.mean_skew - 1.0).abs() < 1e-9);
    }

    #[test]
    fn many_machines_reduce_makespan_imperfectly() {
        // 600 equal neighborhoods over 30 machines: near-perfect split,
        // but skew keeps speedup below machine count.
        let t = trace(vec![(0..600).map(|_| 10).collect()]);
        let report = simulate(
            &t,
            &GridParams {
                machines: 30,
                per_round_overhead: Duration::ZERO,
                seed: 2,
                assignment: Assignment::Random,
            },
        );
        assert!(report.speedup > 10.0, "speedup {}", report.speedup);
        assert!(report.speedup < 30.0, "skew must cost something");
        assert!(report.mean_skew > 1.0);
    }

    #[test]
    fn overhead_penalizes_many_rounds() {
        let one_round = trace(vec![vec![10, 10, 10, 10]]);
        let four_rounds = trace(vec![vec![10], vec![10], vec![10], vec![10]]);
        let params = GridParams {
            machines: 4,
            per_round_overhead: Duration::from_millis(100),
            seed: 3,
            assignment: Assignment::Random,
        };
        let a = simulate(&one_round, &params);
        let b = simulate(&four_rounds, &params);
        assert!(b.makespan > a.makespan);
        assert_eq!(b.rounds, 4);
    }

    #[test]
    fn lpt_balances_no_worse_than_random() {
        // Mixed costs over many machines: the greedy balancer's makespan
        // is within 4/3 of optimal (Graham), so it beats a random
        // placement on any skew-prone trace.
        let t = trace(vec![(0..200).map(|i| (i % 23) + 1).collect()]);
        let base = GridParams {
            machines: 10,
            per_round_overhead: Duration::ZERO,
            seed: 5,
            assignment: Assignment::Random,
        };
        let random = simulate(&t, &base);
        let lpt = simulate(
            &t,
            &GridParams {
                assignment: Assignment::Lpt,
                ..base
            },
        );
        assert!(
            lpt.makespan <= random.makespan,
            "LPT {:?} vs random {:?}",
            lpt.makespan,
            random.makespan
        );
        assert!(lpt.mean_skew <= random.mean_skew);
        assert!(lpt.mean_skew >= 1.0 - 1e-9);
        // LPT lower bound: makespan at least total / machines.
        assert!(lpt.makespan * 10 >= lpt.total_work);
    }

    #[test]
    fn lpt_is_deterministic_and_seed_independent() {
        let t = trace(vec![(0..50).map(|i| (i * 7) % 13 + 1).collect()]);
        let a = simulate(
            &t,
            &GridParams {
                machines: 7,
                per_round_overhead: Duration::ZERO,
                seed: 1,
                assignment: Assignment::Lpt,
            },
        );
        let b = simulate(
            &t,
            &GridParams {
                machines: 7,
                per_round_overhead: Duration::ZERO,
                seed: 999,
                assignment: Assignment::Lpt,
            },
        );
        assert_eq!(a.makespan, b.makespan, "seed must not matter for LPT");
        assert!((a.mean_skew - b.mean_skew).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let t = trace(vec![(0..100).map(|i| i % 17 + 1).collect()]);
        let params = GridParams::default();
        let a = simulate(&t, &params);
        let b = simulate(&t, &params);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_rejected() {
        let t = trace(vec![vec![1]]);
        let _ = simulate(
            &t,
            &GridParams {
                machines: 0,
                per_round_overhead: Duration::ZERO,
                seed: 0,
                assignment: Assignment::Random,
            },
        );
    }
}
