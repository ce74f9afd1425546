//! Fuzzing configuration.

/// Configuration of an L2Fuzz campaign.
///
/// The defaults correspond to the technique described in the paper; the
/// boolean switches exist for the ablation experiments (disabling state
/// guiding, mutating every field instead of only core fields, or dropping
/// the garbage tail).  State-guided test packets always draw from the
/// paper's "slightly more generous" valid-command boundaries (§III-C).
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzConfig {
    /// Number of malformed packets generated per valid command and state
    /// (the `n` of Algorithm 1).
    pub packets_per_command: usize,
    /// Use state guiding: transition the target into each reachable state and
    /// pick only the commands valid for its job.  When disabled the fuzzer
    /// sends mutated packets of random commands from the closed state only.
    pub state_guiding: bool,
    /// Mutate only the mutable-core fields (PSM/CIDP).  When disabled, every
    /// field including the dependent length/code fields is mutated, mimicking
    /// the dumb mutation of the baseline tools.
    pub core_fields_only: bool,
    /// Append a garbage tail to each malformed packet.
    pub append_garbage: bool,
    /// Maximum garbage tail length in bytes (kept below the signalling MTU so
    /// the packet is not rejected outright).
    pub max_garbage_len: usize,
    /// Mutate Configuration Request options on BR/EDR links: append a
    /// retransmission-and-flow-control option selecting ERTM or streaming
    /// mode with abnormal parameters (zero transmit window, zero MPS).
    /// This goes beyond the paper's technique — which leaves every
    /// mutable-application field at its default — so it is off by default
    /// and the default packet streams are byte-identical to the paper
    /// reproduction.
    pub mutate_config_options: bool,
    /// Stop the campaign as soon as one vulnerability is detected (the
    /// paper's Table VI methodology).  When `false` the campaign keeps going
    /// until the packet budget is exhausted (used by the comparison
    /// experiments).
    pub stop_at_first_vulnerability: bool,
    /// Maximum number of packets to transmit before giving up (0 = no limit).
    pub max_packets: usize,
    /// RNG seed for the whole campaign.  When the config runs under a
    /// campaign (via `L2FuzzTool`), this seed is mixed with the campaign's
    /// per-target stream rather than used verbatim, so campaigns stay
    /// reproducible from their own seed while distinct config seeds still
    /// produce distinct runs.
    pub seed: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            packets_per_command: 12,
            state_guiding: true,
            core_fields_only: true,
            append_garbage: true,
            max_garbage_len: 16,
            mutate_config_options: false,
            stop_at_first_vulnerability: true,
            max_packets: 0,
            seed: 0x4c32_4675,
        }
    }
}

impl FuzzConfig {
    /// Configuration used for the comparison experiments: never stop early,
    /// bounded by an explicit packet budget.
    pub fn comparison(max_packets: usize, seed: u64) -> Self {
        FuzzConfig {
            max_packets,
            seed,
            ..FuzzConfig::budget_driven()
        }
    }

    /// The paper's technique with early stopping disabled — the base for
    /// every budget-driven run (comparison and ablation experiments), where
    /// the campaign's `TxBudget` decides when to stop.
    pub fn budget_driven() -> Self {
        FuzzConfig {
            stop_at_first_vulnerability: false,
            ..FuzzConfig::default()
        }
    }

    /// Ablation: disable state guiding.
    pub fn without_state_guiding(mut self) -> Self {
        self.state_guiding = false;
        self
    }

    /// Ablation: mutate every field rather than only the core fields.
    pub fn without_core_field_restriction(mut self) -> Self {
        self.core_fields_only = false;
        self
    }

    /// Ablation: do not append garbage tails.
    pub fn without_garbage(mut self) -> Self {
        self.append_garbage = false;
        self
    }

    /// Extension: also mutate Configuration Request options (ERTM/streaming
    /// retransmission modes with abnormal parameters) on BR/EDR links.
    pub fn with_config_option_mutation(mut self) -> Self {
        self.mutate_config_options = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_paper_technique() {
        let c = FuzzConfig::default();
        assert!(c.state_guiding);
        assert!(c.core_fields_only);
        assert!(c.append_garbage);
        assert!(c.stop_at_first_vulnerability);
        assert!(c.packets_per_command > 0);
        assert!(c.max_garbage_len > 0);
    }

    #[test]
    fn comparison_config_never_stops_early() {
        let c = FuzzConfig::comparison(100_000, 7);
        assert!(!c.stop_at_first_vulnerability);
        assert_eq!(c.max_packets, 100_000);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn ablation_builders_flip_exactly_one_switch() {
        let base = FuzzConfig::default();
        let a = base.clone().without_state_guiding();
        assert!(!a.state_guiding && a.core_fields_only && a.append_garbage);
        let b = base.clone().without_core_field_restriction();
        assert!(b.state_guiding && !b.core_fields_only && b.append_garbage);
        let c = base.clone().without_garbage();
        assert!(c.state_guiding && c.core_fields_only && !c.append_garbage);
    }
}
