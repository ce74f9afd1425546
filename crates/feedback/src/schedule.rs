//! Energy scheduling: dividing a round's budget across the reachable states.
//!
//! Two signals rank a state ("A Survey of Protocol Fuzzing" catalogues both
//! as the policies that matter): *under-visitation* — states fuzzed less so
//! far deserve more energy — and *depth* — states behind a long witness
//! prelude (from [`analysis::fuzz_plans`]) are expensive to reach, so once
//! reached they should be exercised proportionally harder.  The weight is
//! plain integer arithmetic and the division uses largest-remainder
//! apportionment with canonical-order tie-breaks, so a schedule is a pure
//! function of `(link, visit counts, budget)` — no floating point, no
//! iteration-order dependence.

use std::collections::BTreeMap;

use btcore::LinkType;
use l2cap::state::ChannelState;
use serde::{Deserialize, Serialize};

/// Fixed-point scale for the integer weights.
const SCALE: u64 = 1_000;

/// One state's share of a round's transmission budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnergyAllocation {
    /// The state to park in.
    pub state: ChannelState,
    /// Malformed packets to spend there this round.
    pub packets: u64,
}

/// A deterministic division of one round's packet budget across the states
/// reachable on a link, in canonical state order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnergySchedule {
    allocations: Vec<EnergyAllocation>,
}

impl EnergySchedule {
    /// Plans one round: `visits` counts how often each state has been fuzzed
    /// so far (absent = never), `budget` is the round's malformed-packet
    /// pool.  The returned allocations are in canonical state order
    /// ([`ChannelState::initiator_walk`], the dictionary engine's walk);
    /// the energy weighting shapes how much each state gets, not when it is
    /// visited.
    pub fn plan(
        link: LinkType,
        visits: &BTreeMap<ChannelState, u64>,
        budget: u64,
    ) -> EnergySchedule {
        let states = ChannelState::initiator_walk(link);
        let plans = analysis::fuzz_plans(link);
        // weight = (1 + prelude_len) * SCALE / (1 + visits): depth in the
        // numerator, visitation in the denominator.
        let weights: Vec<u64> = states
            .iter()
            .map(|s| {
                let prelude = plans.get(s).map(|p| p.prelude.len() as u64).unwrap_or(0);
                let visited = visits.get(s).copied().unwrap_or(0);
                (1 + prelude) * SCALE / (1 + visited)
            })
            .collect();
        let total: u128 = weights.iter().map(|w| u128::from(*w)).sum();
        if total == 0 || budget == 0 {
            return EnergySchedule::default();
        }
        // Largest-remainder apportionment: floor shares first, then one
        // extra packet each to the largest remainders (canonical order
        // breaking ties), so the shares sum exactly to the budget.
        let mut allocations: Vec<(usize, u64, u128)> = states
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let exact = u128::from(budget) * u128::from(weights[i]);
                (i, (exact / total) as u64, exact % total)
            })
            .collect();
        let assigned: u64 = allocations.iter().map(|(_, p, _)| *p).sum();
        let mut leftover = budget - assigned;
        let mut by_remainder: Vec<usize> = (0..allocations.len()).collect();
        by_remainder.sort_by(|a, b| allocations[*b].2.cmp(&allocations[*a].2).then(a.cmp(b)));
        for i in by_remainder {
            if leftover == 0 {
                break;
            }
            allocations[i].1 += 1;
            leftover -= 1;
        }
        // Present in canonical state order — the dictionary engine's walk
        // order, so shallow states are still exercised before the guide
        // spends transitions parking deep (the energy *split*, not the walk
        // order, is what favours depth).  Drop states that got nothing.
        allocations.sort_by_key(|a| a.0);
        EnergySchedule {
            allocations: allocations
                .into_iter()
                .filter(|(_, packets, _)| *packets > 0)
                .map(|(i, packets, _)| EnergyAllocation {
                    state: states[i],
                    packets,
                })
                .collect(),
        }
    }

    /// The planned allocations, in canonical state order.
    pub fn allocations(&self) -> &[EnergyAllocation] {
        &self.allocations
    }

    /// Total packets across all allocations (equals the planned budget).
    pub fn total(&self) -> u64 {
        self.allocations.iter().map(|a| a.packets).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spends_the_whole_budget() {
        let visits = BTreeMap::new();
        for budget in [1, 13, 100, 997] {
            let schedule = EnergySchedule::plan(LinkType::BrEdr, &visits, budget);
            assert_eq!(schedule.total(), budget, "budget {budget}");
        }
        let schedule = EnergySchedule::plan(LinkType::Le, &visits, 50);
        assert_eq!(schedule.total(), 50);
    }

    #[test]
    fn deep_states_outrank_shallow_ones_when_unvisited() {
        let schedule = EnergySchedule::plan(LinkType::BrEdr, &BTreeMap::new(), 1000);
        let packets_for = |state: ChannelState| {
            schedule
                .allocations()
                .iter()
                .find(|a| a.state == state)
                .map(|a| a.packets)
                .unwrap_or(0)
        };
        // OPEN sits behind a three-command prelude, CLOSED behind none.
        assert!(packets_for(ChannelState::Open) > packets_for(ChannelState::Closed));
        // The walk order stays canonical even though the split favours depth.
        assert_eq!(schedule.allocations()[0].state, ChannelState::Closed);
    }

    #[test]
    fn visited_states_lose_energy_to_unvisited_ones() {
        let budget = 1000;
        let fresh = EnergySchedule::plan(LinkType::BrEdr, &BTreeMap::new(), budget);
        let mut visits = BTreeMap::new();
        visits.insert(ChannelState::Open, 9u64);
        let tired = EnergySchedule::plan(LinkType::BrEdr, &visits, budget);
        let packets = |s: &EnergySchedule, state: ChannelState| {
            s.allocations()
                .iter()
                .find(|a| a.state == state)
                .map(|a| a.packets)
                .unwrap_or(0)
        };
        assert!(packets(&tired, ChannelState::Open) < packets(&fresh, ChannelState::Open));
        assert!(packets(&tired, ChannelState::Closed) > packets(&fresh, ChannelState::Closed));
        assert_eq!(tired.total(), budget);
    }

    #[test]
    fn schedule_is_a_pure_function_of_its_inputs() {
        let mut visits = BTreeMap::new();
        visits.insert(ChannelState::WaitConfig, 3u64);
        let a = EnergySchedule::plan(LinkType::BrEdr, &visits, 321);
        let b = EnergySchedule::plan(LinkType::BrEdr, &visits, 321);
        assert_eq!(a, b);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let schedule = EnergySchedule::plan(LinkType::BrEdr, &BTreeMap::new(), 64);
        let json = serde_json::to_string_pretty_streamed(&schedule);
        let back: EnergySchedule = serde_json::from_str_streamed(&json).unwrap();
        assert_eq!(back, schedule);
        assert_eq!(serde_json::to_string_pretty_streamed(&back), json);
    }
}
