//! Job clustering of L2CAP states and the valid-command map
//! (paper Tables I and III).
//!
//! The paper clusters the 19 states into seven *jobs* — groups of states that
//! receive the same events, run the same kind of internal function and emit
//! the same actions — and maps the commands that are *valid* (not rejected)
//! in each job.  State guiding uses this map twice: to pick the command that
//! transitions the target into a desired state, and to pick which commands to
//! mutate once it is there.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::code::CommandCode;
use crate::state::ChannelState;

/// The seven jobs of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Job {
    /// `{CLOSED}`
    Closed,
    /// `{WAIT_CONNECT, WAIT_CONNECT_RSP}`
    Connection,
    /// `{WAIT_CREATE, WAIT_CREATE_RSP}`
    Creation,
    /// The eight configuration-related states.
    Configuration,
    /// `{WAIT_DISCONNECT}`
    Disconnection,
    /// The four move-related states.
    Move,
    /// `{OPEN}`
    Open,
}

impl Job {
    /// All seven jobs in the order Table I lists them.
    pub const ALL: [Job; 7] = [
        Job::Closed,
        Job::Connection,
        Job::Creation,
        Job::Configuration,
        Job::Disconnection,
        Job::Move,
        Job::Open,
    ];

    /// Returns the states belonging to this job (Table I).
    pub fn states(&self) -> &'static [ChannelState] {
        match self {
            Job::Closed => &[ChannelState::Closed],
            Job::Connection => &[ChannelState::WaitConnect, ChannelState::WaitConnectRsp],
            Job::Creation => &[ChannelState::WaitCreate, ChannelState::WaitCreateRsp],
            Job::Configuration => &[
                ChannelState::WaitConfig,
                ChannelState::WaitConfigRsp,
                ChannelState::WaitConfigReq,
                ChannelState::WaitConfigReqRsp,
                ChannelState::WaitSendConfig,
                ChannelState::WaitIndFinalRsp,
                ChannelState::WaitFinalRsp,
                ChannelState::WaitControlInd,
            ],
            Job::Disconnection => &[ChannelState::WaitDisconnect],
            Job::Move => &[
                ChannelState::WaitMove,
                ChannelState::WaitMoveRsp,
                ChannelState::WaitMoveConfirm,
                ChannelState::WaitConfirmRsp,
            ],
            Job::Open => &[ChannelState::Open],
        }
    }

    /// Returns the commands that are valid for this job (Table III).
    ///
    /// For the `Closed` and `Open` jobs every command is valid; for the other
    /// jobs only the request/response pair(s) belonging to the job are.
    pub fn valid_commands(&self) -> Vec<CommandCode> {
        match self {
            Job::Closed | Job::Open => CommandCode::ALL.to_vec(),
            Job::Connection => vec![
                CommandCode::ConnectionRequest,
                CommandCode::ConnectionResponse,
            ],
            Job::Creation => {
                vec![
                    CommandCode::CreateChannelRequest,
                    CommandCode::CreateChannelResponse,
                ]
            }
            Job::Configuration => {
                vec![
                    CommandCode::ConfigureRequest,
                    CommandCode::ConfigureResponse,
                ]
            }
            Job::Disconnection => {
                vec![
                    CommandCode::DisconnectionRequest,
                    CommandCode::DisconnectionResponse,
                ]
            }
            Job::Move => vec![
                CommandCode::MoveChannelRequest,
                CommandCode::MoveChannelResponse,
                CommandCode::MoveChannelConfirmationRequest,
                CommandCode::MoveChannelConfirmationResponse,
            ],
        }
    }

    /// The paper sets the valid-command boundaries "slightly more generously"
    /// (§III-C) because real devices deviate from the specification: the
    /// generous set adds the echo and information commands (valid everywhere
    /// in practice) and keeps response commands even in request states.
    pub fn generous_valid_commands(&self) -> Vec<CommandCode> {
        let mut cmds = self.valid_commands();
        for extra in [
            CommandCode::EchoRequest,
            CommandCode::EchoResponse,
            CommandCode::InformationRequest,
            CommandCode::InformationResponse,
        ] {
            if !cmds.contains(&extra) {
                cmds.push(extra);
            }
        }
        cmds
    }

    /// Returns the commands valid for this job on a link of the given type.
    ///
    /// The BR/EDR arm is exactly [`Job::valid_commands`] (Table III).  On an
    /// LE link the connection job maps to the credit-based connect pairs,
    /// the configuration job to the enhanced reconfigure pair plus the
    /// flow-control credit indication, and the creation/move jobs are empty
    /// (AMP does not exist on LE).
    pub fn valid_commands_on(&self, link: btcore::LinkType) -> Vec<CommandCode> {
        match link {
            btcore::LinkType::BrEdr => self.valid_commands(),
            btcore::LinkType::Le => match self {
                Job::Closed | Job::Open => CommandCode::ALL
                    .iter()
                    .copied()
                    .filter(|c| c.valid_on(btcore::LinkType::Le))
                    .collect(),
                Job::Connection => vec![
                    CommandCode::LeCreditBasedConnectionRequest,
                    CommandCode::LeCreditBasedConnectionResponse,
                    CommandCode::CreditBasedConnectionRequest,
                    CommandCode::CreditBasedConnectionResponse,
                ],
                Job::Creation | Job::Move => Vec::new(),
                Job::Configuration => vec![
                    CommandCode::FlowControlCreditInd,
                    CommandCode::CreditBasedReconfigureRequest,
                    CommandCode::CreditBasedReconfigureResponse,
                ],
                Job::Disconnection => vec![
                    CommandCode::DisconnectionRequest,
                    CommandCode::DisconnectionResponse,
                ],
            },
        }
    }

    /// Link-aware variant of [`Job::generous_valid_commands`]: on BR/EDR the
    /// generous extras are the echo/information commands; on LE they are the
    /// connection-parameter-update pair, which every LE stack processes in
    /// any state.
    pub fn generous_valid_commands_on(&self, link: btcore::LinkType) -> Vec<CommandCode> {
        match link {
            btcore::LinkType::BrEdr => self.generous_valid_commands(),
            btcore::LinkType::Le => {
                let mut cmds = self.valid_commands_on(link);
                for extra in [
                    CommandCode::ConnectionParameterUpdateRequest,
                    CommandCode::ConnectionParameterUpdateResponse,
                ] {
                    if !cmds.contains(&extra) {
                        cmds.push(extra);
                    }
                }
                cmds
            }
        }
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Job::Closed => "Closed",
            Job::Connection => "Connection",
            Job::Creation => "Creation",
            Job::Configuration => "Configuration",
            Job::Disconnection => "Disconnection",
            Job::Move => "Move",
            Job::Open => "Open",
        };
        f.write_str(s)
    }
}

/// Returns the job a state belongs to (Table I).
pub fn job_of(state: ChannelState) -> Job {
    for job in Job::ALL {
        if job.states().contains(&state) {
            return job;
        }
    }
    unreachable!("every state belongs to a job")
}

/// Returns the commands valid in a given state (the job-level map of
/// Table III applied to the state's job).
pub fn valid_commands_for_state(state: ChannelState) -> Vec<CommandCode> {
    job_of(state).valid_commands()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn jobs_partition_all_19_states() {
        let mut seen = BTreeSet::new();
        let mut total = 0usize;
        for job in Job::ALL {
            for s in job.states() {
                assert!(seen.insert(*s), "{s} appears in more than one job");
                total += 1;
            }
        }
        assert_eq!(total, 19);
        assert_eq!(seen.len(), 19);
    }

    #[test]
    fn table1_job_sizes() {
        assert_eq!(Job::Closed.states().len(), 1);
        assert_eq!(Job::Connection.states().len(), 2);
        assert_eq!(Job::Creation.states().len(), 2);
        assert_eq!(Job::Configuration.states().len(), 8);
        assert_eq!(Job::Disconnection.states().len(), 1);
        assert_eq!(Job::Move.states().len(), 4);
        assert_eq!(Job::Open.states().len(), 1);
    }

    #[test]
    fn job_of_matches_table1_examples() {
        assert_eq!(job_of(ChannelState::Closed), Job::Closed);
        assert_eq!(job_of(ChannelState::WaitConnect), Job::Connection);
        assert_eq!(job_of(ChannelState::WaitConnectRsp), Job::Connection);
        assert_eq!(job_of(ChannelState::WaitCreate), Job::Creation);
        assert_eq!(job_of(ChannelState::WaitConfigReqRsp), Job::Configuration);
        assert_eq!(job_of(ChannelState::WaitControlInd), Job::Configuration);
        assert_eq!(job_of(ChannelState::WaitDisconnect), Job::Disconnection);
        assert_eq!(job_of(ChannelState::WaitMoveConfirm), Job::Move);
        assert_eq!(job_of(ChannelState::Open), Job::Open);
    }

    #[test]
    fn table3_valid_commands() {
        assert_eq!(Job::Closed.valid_commands().len(), 26);
        assert_eq!(Job::Open.valid_commands().len(), 26);
        assert_eq!(
            Job::Connection.valid_commands(),
            vec![
                CommandCode::ConnectionRequest,
                CommandCode::ConnectionResponse
            ]
        );
        assert_eq!(
            Job::Creation.valid_commands(),
            vec![
                CommandCode::CreateChannelRequest,
                CommandCode::CreateChannelResponse
            ]
        );
        assert_eq!(
            Job::Configuration.valid_commands(),
            vec![
                CommandCode::ConfigureRequest,
                CommandCode::ConfigureResponse
            ]
        );
        assert_eq!(
            Job::Disconnection.valid_commands(),
            vec![
                CommandCode::DisconnectionRequest,
                CommandCode::DisconnectionResponse
            ]
        );
        assert_eq!(Job::Move.valid_commands().len(), 4);
    }

    #[test]
    fn generous_commands_superset_of_strict() {
        for job in Job::ALL {
            let strict: BTreeSet<_> = job.valid_commands().into_iter().collect();
            let generous: BTreeSet<_> = job.generous_valid_commands().into_iter().collect();
            assert!(
                generous.is_superset(&strict),
                "{job}: generous must contain strict"
            );
            assert!(generous.contains(&CommandCode::EchoRequest));
        }
        // For Closed/Open the generous set adds nothing (already all 26).
        assert_eq!(Job::Open.generous_valid_commands().len(), 26);
        assert_eq!(Job::Configuration.generous_valid_commands().len(), 6);
    }

    #[test]
    fn valid_commands_for_state_delegates_to_job() {
        assert_eq!(
            valid_commands_for_state(ChannelState::WaitConfigRsp),
            Job::Configuration.valid_commands()
        );
        assert_eq!(valid_commands_for_state(ChannelState::Open).len(), 26);
    }

    #[test]
    fn job_display_names_match_paper() {
        let names: Vec<String> = Job::ALL.iter().map(|j| j.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "Closed",
                "Connection",
                "Creation",
                "Configuration",
                "Disconnection",
                "Move",
                "Open"
            ]
        );
    }
}
