//! The Bluetooth 5.2 L2CAP channel state machine (paper Fig. 2).
//!
//! L2CAP channels move through 19 states.  This module provides:
//!
//! * [`ChannelState`] — the 19 states.
//! * [`spec_transition`] — the acceptor-side event/action table (the paper's
//!   Table II generalised to every state): given the current state and a
//!   received signalling command, what a spec-conformant device responds
//!   with and which state it moves to.
//! * [`StateMachine`] — a per-channel instance that applies the table,
//!   implements the *eager configuration* behaviour real stacks exhibit
//!   (sending their own Configuration Request as soon as the channel becomes
//!   configurable), and records every state visited.  Both the simulated
//!   target stacks and the trace-based state-coverage analysis replay traffic
//!   through this one implementation, so there is a single source of truth
//!   for what "covering a state" means.
//!
//! # Reachability from an initiator
//!
//! A fuzzer acts as the connection initiator (master).  Six of the 19 states
//! can only be entered when the *target* initiates a request of its own
//! (`WAIT_CONNECT_RSP`, `WAIT_CREATE_RSP`, `WAIT_MOVE_RSP`) or during
//! lockstep/ERTM configuration internals (`WAIT_IND_FINAL_RSP`,
//! `WAIT_FINAL_RSP`, `WAIT_CONTROL_IND`); the remaining 13 are reachable,
//! which matches the paper's observation that L2Fuzz covers 13 of 19 states
//! (Fig. 10/11) while noting responder-only states as a limitation (§V).

use std::fmt;

use btcore::LinkType;
use serde::{Deserialize, Serialize};

use crate::code::CommandCode;
use crate::consts::RejectReason;

/// The 19 L2CAP channel states of Bluetooth 5.2 (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ChannelState {
    Closed,
    WaitConnect,
    WaitConnectRsp,
    WaitCreate,
    WaitCreateRsp,
    WaitConfig,
    WaitSendConfig,
    WaitConfigReqRsp,
    WaitConfigReq,
    WaitConfigRsp,
    WaitIndFinalRsp,
    WaitFinalRsp,
    WaitControlInd,
    Open,
    WaitDisconnect,
    WaitMove,
    WaitMoveRsp,
    WaitMoveConfirm,
    WaitConfirmRsp,
}

impl ChannelState {
    /// All 19 states.
    pub const ALL: [ChannelState; 19] = [
        ChannelState::Closed,
        ChannelState::WaitConnect,
        ChannelState::WaitConnectRsp,
        ChannelState::WaitCreate,
        ChannelState::WaitCreateRsp,
        ChannelState::WaitConfig,
        ChannelState::WaitSendConfig,
        ChannelState::WaitConfigReqRsp,
        ChannelState::WaitConfigReq,
        ChannelState::WaitConfigRsp,
        ChannelState::WaitIndFinalRsp,
        ChannelState::WaitFinalRsp,
        ChannelState::WaitControlInd,
        ChannelState::Open,
        ChannelState::WaitDisconnect,
        ChannelState::WaitMove,
        ChannelState::WaitMoveRsp,
        ChannelState::WaitMoveConfirm,
        ChannelState::WaitConfirmRsp,
    ];

    /// The five states an initiator-side fuzzer can drive a target's LE-U
    /// channel into: LE credit-based channels have no configuration
    /// handshake, so a successful connect passes straight through
    /// `WAIT_CONNECT` to `OPEN`, an enhanced reconfigure dips through
    /// `WAIT_CONFIG`, and disconnection passes `WAIT_DISCONNECT`.
    pub const REACHABLE_FROM_INITIATOR_LE: [ChannelState; 5] = [
        ChannelState::Closed,
        ChannelState::WaitConnect,
        ChannelState::WaitConfig,
        ChannelState::Open,
        ChannelState::WaitDisconnect,
    ];

    /// The 13 states an initiator-side fuzzer can drive a target into.
    pub const REACHABLE_FROM_INITIATOR: [ChannelState; 13] = [
        ChannelState::Closed,
        ChannelState::WaitConnect,
        ChannelState::WaitCreate,
        ChannelState::WaitConfig,
        ChannelState::WaitSendConfig,
        ChannelState::WaitConfigReqRsp,
        ChannelState::WaitConfigReq,
        ChannelState::WaitConfigRsp,
        ChannelState::Open,
        ChannelState::WaitDisconnect,
        ChannelState::WaitMove,
        ChannelState::WaitMoveConfirm,
        ChannelState::WaitConfirmRsp,
    ];

    /// Specification name of the state (e.g. `WAIT_CONFIG_REQ_RSP`).
    pub const fn spec_name(&self) -> &'static str {
        match self {
            ChannelState::Closed => "CLOSED",
            ChannelState::WaitConnect => "WAIT_CONNECT",
            ChannelState::WaitConnectRsp => "WAIT_CONNECT_RSP",
            ChannelState::WaitCreate => "WAIT_CREATE",
            ChannelState::WaitCreateRsp => "WAIT_CREATE_RSP",
            ChannelState::WaitConfig => "WAIT_CONFIG",
            ChannelState::WaitSendConfig => "WAIT_SEND_CONFIG",
            ChannelState::WaitConfigReqRsp => "WAIT_CONFIG_REQ_RSP",
            ChannelState::WaitConfigReq => "WAIT_CONFIG_REQ",
            ChannelState::WaitConfigRsp => "WAIT_CONFIG_RSP",
            ChannelState::WaitIndFinalRsp => "WAIT_IND_FINAL_RSP",
            ChannelState::WaitFinalRsp => "WAIT_FINAL_RSP",
            ChannelState::WaitControlInd => "WAIT_CONTROL_IND",
            ChannelState::Open => "OPEN",
            ChannelState::WaitDisconnect => "WAIT_DISCONNECT",
            ChannelState::WaitMove => "WAIT_MOVE",
            ChannelState::WaitMoveRsp => "WAIT_MOVE_RSP",
            ChannelState::WaitMoveConfirm => "WAIT_MOVE_CONFIRM",
            ChannelState::WaitConfirmRsp => "WAIT_CONFIRM_RSP",
        }
    }

    /// Returns `true` if an initiator-side fuzzer can drive a target channel
    /// into this state (see module docs).
    pub fn reachable_from_initiator(&self) -> bool {
        ChannelState::REACHABLE_FROM_INITIATOR.contains(self)
    }

    /// The states an initiator can drive a target channel into on `link`,
    /// in canonical order: the walk of every fuzzing round, which the
    /// session loop and the energy schedule share.
    pub fn initiator_walk(link: LinkType) -> &'static [ChannelState] {
        match link {
            LinkType::BrEdr => &ChannelState::REACHABLE_FROM_INITIATOR,
            LinkType::Le => &ChannelState::REACHABLE_FROM_INITIATOR_LE,
        }
    }

    /// Returns `true` if an initiator can drive a target channel into this
    /// state on the given link type.
    pub fn reachable_from_initiator_on(&self, link: LinkType) -> bool {
        ChannelState::initiator_walk(link).contains(self)
    }

    /// Position of this state in [`ChannelState::ALL`] (0..19); used as the
    /// bit index of the visited-state mask.
    pub const fn index(&self) -> u32 {
        *self as u32
    }
}

impl fmt::Display for ChannelState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec_name())
    }
}

/// An event driving the channel state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateEvent {
    /// A signalling command addressed to this channel was received.
    Recv(CommandCode),
    /// The local upper layer refused an incoming connection or creation
    /// request (e.g. unsupported PSM).
    Refuse,
}

/// What the device does in reaction to an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Send the given response command.
    Respond(CommandCode),
    /// Send a Command Reject with the given reason.
    Reject(RejectReason),
    /// Send a self-initiated request (e.g. the device's own Configuration
    /// Request).
    Initiate(CommandCode),
    /// Silently ignore the event.
    Ignore,
}

/// One entry of the acceptor-side event/action table.
///
/// The pass-through lists are constant tables (`'static` slices), so looking
/// a transition up never allocates — the device endpoints and the coverage
/// replay consult this table per packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// What the device sends back.
    pub action: Action,
    /// Short-lived states passed through while handling the event, in order.
    pub passes_through: &'static [ChannelState],
    /// The state the channel ends up in.
    pub next: ChannelState,
}

impl Transition {
    fn stay(state: ChannelState, action: Action) -> Transition {
        Transition {
            action,
            passes_through: &[],
            next: state,
        }
    }

    fn reject(state: ChannelState, reason: RejectReason) -> Transition {
        Transition::stay(state, Action::Reject(reason))
    }
}

/// The acceptor-side event/action table: how a spec-conformant device in
/// `state` reacts to a received signalling command addressed to one of its
/// channels on a link of type `link` (the paper's Table II, generalised to
/// both transports).
///
/// The table is two-sided and symmetric about the link type: on a BR/EDR
/// link the connection-less commands (echo, information) are accepted in
/// every state and LE-only commands are rejected as "command not
/// understood"; on an LE link the classic-only commands are rejected the
/// same way and the credit-based channel flows take the place of the
/// connect/configure handshake.
pub fn spec_transition(state: ChannelState, code: CommandCode, link: LinkType) -> Transition {
    match link {
        LinkType::BrEdr => spec_transition_bredr(state, code),
        LinkType::Le => spec_transition_le(state, code),
    }
}

/// The BR/EDR (ACL-U) side of the table — exactly the paper's Table II.
fn spec_transition_bredr(state: ChannelState, code: CommandCode) -> Transition {
    use ChannelState as S;
    use CommandCode as C;

    // Link-level commands are state-independent.
    match code {
        C::EchoRequest => return Transition::stay(state, Action::Respond(C::EchoResponse)),
        C::InformationRequest => {
            return Transition::stay(state, Action::Respond(C::InformationResponse))
        }
        C::CommandReject | C::EchoResponse | C::InformationResponse => {
            return Transition::stay(state, Action::Ignore)
        }
        c if c.is_le_only() => {
            return Transition::reject(state, RejectReason::CommandNotUnderstood)
        }
        _ => {}
    }

    match (state, code) {
        // ----- CLOSED: only connection establishment is meaningful.
        (S::Closed, C::ConnectionRequest) => Transition {
            action: Action::Respond(C::ConnectionResponse),
            passes_through: &[S::WaitConnect, S::WaitConfig],
            next: S::WaitConfig,
        },
        (S::Closed, C::CreateChannelRequest) => Transition {
            action: Action::Respond(C::CreateChannelResponse),
            passes_through: &[S::WaitCreate, S::WaitConfig],
            next: S::WaitConfig,
        },
        (S::Closed, C::DisconnectionRequest) => {
            Transition::reject(S::Closed, RejectReason::InvalidCidInRequest)
        }
        (S::Closed, _) => Transition::reject(S::Closed, RejectReason::CommandNotUnderstood),

        // ----- WAIT_CONNECT / WAIT_CREATE: Table II — only the matching
        // request is valid; everything else is rejected.
        //
        // Dead rows, pinned intentional: an initiator-driven machine only
        // ever *passes through* WAIT_CONNECT / WAIT_CREATE (and, below,
        // WAIT_DISCONNECT / WAIT_MOVE / WAIT_CONFIRM_RSP) — it never rests
        // there, so these handling rows can never execute.  They are kept deliberately:
        // they are the paper's Table II rows verbatim, and defensive
        // completeness for responder-initiated flows a future acceptor-side
        // model would rest in.  The model checker certifies exactly this
        // set via `analysis::Allowlist::default()`; removing a row here
        // without updating the allowlist fails `l2fuzz-analyze`.
        (S::WaitConnect, C::ConnectionRequest) => Transition {
            action: Action::Respond(C::ConnectionResponse),
            passes_through: &[S::WaitConfig],
            next: S::WaitConfig,
        },
        (S::WaitConnect, _) => {
            Transition::reject(S::WaitConnect, RejectReason::CommandNotUnderstood)
        }
        (S::WaitCreate, C::CreateChannelRequest) => Transition {
            action: Action::Respond(C::CreateChannelResponse),
            passes_through: &[S::WaitConfig],
            next: S::WaitConfig,
        },
        (S::WaitCreate, _) => Transition::reject(S::WaitCreate, RejectReason::CommandNotUnderstood),

        // ----- Configuration job.
        (S::WaitConfig, C::ConfigureRequest) => Transition {
            action: Action::Respond(C::ConfigureResponse),
            passes_through: &[S::WaitSendConfig],
            next: S::WaitSendConfig,
        },
        (S::WaitConfig, C::DisconnectionRequest) => Transition {
            action: Action::Respond(C::DisconnectionResponse),
            passes_through: &[S::WaitDisconnect],
            next: S::Closed,
        },
        (S::WaitConfig, _) => Transition::reject(S::WaitConfig, RejectReason::CommandNotUnderstood),

        (S::WaitConfigReqRsp, C::ConfigureRequest) => Transition {
            action: Action::Respond(C::ConfigureResponse),
            passes_through: &[],
            next: S::WaitConfigRsp,
        },
        (S::WaitConfigReqRsp, C::ConfigureResponse) => Transition {
            action: Action::Ignore,
            passes_through: &[],
            next: S::WaitConfigReq,
        },
        (S::WaitConfigReqRsp, C::DisconnectionRequest) => Transition {
            action: Action::Respond(C::DisconnectionResponse),
            passes_through: &[S::WaitDisconnect],
            next: S::Closed,
        },
        (S::WaitConfigReqRsp, _) => {
            Transition::reject(S::WaitConfigReqRsp, RejectReason::CommandNotUnderstood)
        }

        (S::WaitConfigReq, C::ConfigureRequest) => Transition {
            action: Action::Respond(C::ConfigureResponse),
            passes_through: &[],
            next: S::Open,
        },
        (S::WaitConfigReq, C::DisconnectionRequest) => Transition {
            action: Action::Respond(C::DisconnectionResponse),
            passes_through: &[S::WaitDisconnect],
            next: S::Closed,
        },
        (S::WaitConfigReq, _) => {
            Transition::reject(S::WaitConfigReq, RejectReason::CommandNotUnderstood)
        }

        (S::WaitConfigRsp, C::ConfigureResponse) => Transition {
            action: Action::Ignore,
            passes_through: &[],
            next: S::Open,
        },
        (S::WaitConfigRsp, C::ConfigureRequest) => Transition {
            action: Action::Respond(C::ConfigureResponse),
            passes_through: &[],
            next: S::WaitConfigRsp,
        },
        (S::WaitConfigRsp, C::DisconnectionRequest) => Transition {
            action: Action::Respond(C::DisconnectionResponse),
            passes_through: &[S::WaitDisconnect],
            next: S::Closed,
        },
        (S::WaitConfigRsp, _) => {
            Transition::reject(S::WaitConfigRsp, RejectReason::CommandNotUnderstood)
        }

        (S::WaitSendConfig, C::ConfigureResponse) => Transition {
            action: Action::Ignore,
            passes_through: &[],
            next: S::Open,
        },
        (S::WaitSendConfig, C::DisconnectionRequest) => Transition {
            action: Action::Respond(C::DisconnectionResponse),
            passes_through: &[S::WaitDisconnect],
            next: S::Closed,
        },
        (S::WaitSendConfig, _) => {
            Transition::reject(S::WaitSendConfig, RejectReason::CommandNotUnderstood)
        }

        // ----- OPEN: reconfiguration, move and disconnection are valid.
        (S::Open, C::ConfigureRequest) => Transition {
            action: Action::Respond(C::ConfigureResponse),
            passes_through: &[S::WaitSendConfig],
            next: S::WaitConfigRsp,
        },
        (S::Open, C::MoveChannelRequest) => Transition {
            action: Action::Respond(C::MoveChannelResponse),
            passes_through: &[S::WaitMove],
            next: S::WaitMoveConfirm,
        },
        (S::Open, C::DisconnectionRequest) => Transition {
            action: Action::Respond(C::DisconnectionResponse),
            passes_through: &[S::WaitDisconnect],
            next: S::Closed,
        },
        (S::Open, _) => Transition::reject(S::Open, RejectReason::CommandNotUnderstood),

        // ----- Disconnection job.
        (S::WaitDisconnect, C::DisconnectionRequest) => Transition {
            action: Action::Respond(C::DisconnectionResponse),
            passes_through: &[],
            next: S::Closed,
        },
        (S::WaitDisconnect, _) => {
            Transition::reject(S::WaitDisconnect, RejectReason::CommandNotUnderstood)
        }

        // ----- Move job.
        (S::WaitMove, C::MoveChannelRequest) => Transition {
            action: Action::Respond(C::MoveChannelResponse),
            passes_through: &[],
            next: S::WaitMoveConfirm,
        },
        (S::WaitMove, _) => Transition::reject(S::WaitMove, RejectReason::CommandNotUnderstood),
        (S::WaitMoveConfirm, C::MoveChannelConfirmationRequest) => Transition {
            action: Action::Respond(C::MoveChannelConfirmationResponse),
            passes_through: &[S::WaitConfirmRsp],
            next: S::Open,
        },
        (S::WaitMoveConfirm, C::DisconnectionRequest) => Transition {
            action: Action::Respond(C::DisconnectionResponse),
            passes_through: &[S::WaitDisconnect],
            next: S::Closed,
        },
        (S::WaitMoveConfirm, _) => {
            Transition::reject(S::WaitMoveConfirm, RejectReason::CommandNotUnderstood)
        }
        (S::WaitConfirmRsp, C::MoveChannelConfirmationResponse) => Transition {
            action: Action::Ignore,
            passes_through: &[],
            next: S::Open,
        },
        (S::WaitConfirmRsp, _) => {
            Transition::reject(S::WaitConfirmRsp, RejectReason::CommandNotUnderstood)
        }

        // ----- Responder-initiated / lockstep states: nothing an initiator
        // sends is expected there; reject.
        (s, _) => Transition::reject(s, RejectReason::CommandNotUnderstood),
    }
}

/// The LE (LE-U) side of the table: credit-based channel flows.
///
/// LE credit-based channels have no configuration phase — a successful
/// connection request passes through `WAIT_CONNECT` straight to `OPEN`.  The
/// enhanced reconfigure (`0x19`) renegotiates MTU/MPS on an open channel,
/// dipping through `WAIT_CONFIG`; the flow-control credit indication
/// (`0x16`) is consumed silently on an open channel.
///
/// Cross-arm asymmetries, pinned intentional: the enhanced credit-based
/// family (`0x16`–`0x1A`) is nominally valid on both transports
/// ([`CommandCode::valid_on`]), but this model serves it only on LE — the
/// BR/EDR arm rejects it as "command not understood".  That mirrors the
/// deployed stacks the paper fuzzes (none of the Table V devices expose
/// enhanced credit-based channels over ACL-U) and keeps the BR/EDR packet
/// streams byte-identical to the PR 4 digests pinned in
/// `tests/le_scenarios.rs`.  The model checker flags the four resulting
/// accept/reject asymmetries and `analysis::Allowlist::default()` carries
/// them with this justification; growing a BR/EDR enhanced-credit arm means
/// removing those entries.
fn spec_transition_le(state: ChannelState, code: CommandCode) -> Transition {
    use ChannelState as S;
    use CommandCode as C;

    // Link-level commands are state-independent.
    match code {
        C::ConnectionParameterUpdateRequest => {
            return Transition::stay(state, Action::Respond(C::ConnectionParameterUpdateResponse))
        }
        C::CommandReject | C::ConnectionParameterUpdateResponse => {
            return Transition::stay(state, Action::Ignore)
        }
        c if c.is_classic_only() => {
            return Transition::reject(state, RejectReason::CommandNotUnderstood)
        }
        _ => {}
    }

    match (state, code) {
        // ----- CLOSED: only credit-based connection establishment.
        (S::Closed, C::LeCreditBasedConnectionRequest) => Transition {
            action: Action::Respond(C::LeCreditBasedConnectionResponse),
            passes_through: &[S::WaitConnect, S::Open],
            next: S::Open,
        },
        (S::Closed, C::CreditBasedConnectionRequest) => Transition {
            action: Action::Respond(C::CreditBasedConnectionResponse),
            passes_through: &[S::WaitConnect, S::Open],
            next: S::Open,
        },
        (S::Closed, C::DisconnectionRequest) => {
            Transition::reject(S::Closed, RejectReason::InvalidCidInRequest)
        }
        (S::Closed, _) => Transition::reject(S::Closed, RejectReason::CommandNotUnderstood),

        // ----- WAIT_CONNECT: only the matching request is valid.
        (S::WaitConnect, C::LeCreditBasedConnectionRequest) => Transition {
            action: Action::Respond(C::LeCreditBasedConnectionResponse),
            passes_through: &[S::Open],
            next: S::Open,
        },
        (S::WaitConnect, C::CreditBasedConnectionRequest) => Transition {
            action: Action::Respond(C::CreditBasedConnectionResponse),
            passes_through: &[S::Open],
            next: S::Open,
        },
        (S::WaitConnect, _) => {
            Transition::reject(S::WaitConnect, RejectReason::CommandNotUnderstood)
        }

        // ----- OPEN: credits, reconfiguration and disconnection are valid.
        (S::Open, C::FlowControlCreditInd) => Transition::stay(S::Open, Action::Ignore),
        (S::Open, C::CreditBasedReconfigureRequest) => Transition {
            action: Action::Respond(C::CreditBasedReconfigureResponse),
            passes_through: &[S::WaitConfig, S::Open],
            next: S::Open,
        },
        (S::Open, C::CreditBasedReconfigureResponse) => Transition::stay(S::Open, Action::Ignore),
        (S::Open, C::DisconnectionRequest) => Transition {
            action: Action::Respond(C::DisconnectionResponse),
            passes_through: &[S::WaitDisconnect],
            next: S::Closed,
        },
        (S::Open, _) => Transition::reject(S::Open, RejectReason::CommandNotUnderstood),

        // ----- Disconnection job, same as on BR/EDR.
        (S::WaitDisconnect, C::DisconnectionRequest) => Transition {
            action: Action::Respond(C::DisconnectionResponse),
            passes_through: &[],
            next: S::Closed,
        },
        (S::WaitDisconnect, _) => {
            Transition::reject(S::WaitDisconnect, RejectReason::CommandNotUnderstood)
        }

        // ----- Everything else (classic configuration/move internals) does
        // not exist on an LE link; reject without a state change.
        (s, _) => Transition::reject(s, RejectReason::CommandNotUnderstood),
    }
}

/// A per-channel state machine instance that applies [`spec_transition`],
/// adds the eager-configuration behaviour and records visited states.
#[derive(Debug, Clone)]
pub struct StateMachine {
    state: ChannelState,
    /// States visited so far, in first-visit order.
    visited: Vec<ChannelState>,
    /// One bit per state of [`ChannelState::ALL`]; a set bit means the state
    /// is already in `visited`.  First-visit checks are per-packet work on
    /// both the device side and the coverage replay, so they must not scan
    /// the ordered vector.
    visited_mask: u32,
    eager_config: bool,
    link: LinkType,
}

impl Default for StateMachine {
    fn default() -> Self {
        StateMachine::new()
    }
}

/// The full reaction of a channel to a received command: the ordered list of
/// actions the device performs and every state visited while handling it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reaction {
    /// Actions the device performs, in order.
    pub actions: Vec<Action>,
    /// States visited while handling the command (ending in the new current
    /// state).
    pub visited: Vec<ChannelState>,
}

impl StateMachine {
    /// Creates a BR/EDR machine in `CLOSED` with eager configuration enabled
    /// (the behaviour of every mainstream stack).
    pub fn new() -> Self {
        StateMachine::for_link(LinkType::BrEdr)
    }

    /// Creates a machine for a channel on the given link type.  LE channels
    /// have no configuration handshake, so eager configuration only applies
    /// on BR/EDR.
    pub fn for_link(link: LinkType) -> Self {
        StateMachine {
            state: ChannelState::Closed,
            visited: vec![ChannelState::Closed],
            visited_mask: 1 << ChannelState::Closed.index(),
            eager_config: link == LinkType::BrEdr,
            link,
        }
    }

    /// Creates a BR/EDR machine with eager configuration disabled: the
    /// device never initiates its own Configuration Request and simply
    /// waits.
    pub fn without_eager_config() -> Self {
        StateMachine {
            eager_config: false,
            ..StateMachine::new()
        }
    }

    /// Creates a machine parked in an arbitrary `state` on `link`, with the
    /// link's default eager-configuration behaviour (eager on BR/EDR, none
    /// on LE, exactly like [`StateMachine::for_link`]).
    ///
    /// This is the model checker's stepping primitive: the `analysis` crate
    /// explores the protocol model by parking a machine in each discovered
    /// state and feeding it one command, so the exploration runs through
    /// [`StateMachine::advance`] itself — the same code the simulated
    /// devices and the coverage replay execute — rather than a re-derived
    /// copy of the transition semantics.
    pub fn at(state: ChannelState, link: LinkType) -> Self {
        StateMachine {
            state,
            visited: vec![state],
            visited_mask: 1 << state.index(),
            eager_config: link == LinkType::BrEdr,
            link,
        }
    }

    /// Overrides the eager-configuration behaviour (builder-style).  The
    /// model checker explores both the eager and the non-eager BR/EDR
    /// machine, since [`StateMachine::without_eager_config`] is a real
    /// configuration the state table must stay live for.
    pub fn with_eager(mut self, eager: bool) -> Self {
        self.eager_config = eager;
        self
    }

    /// Returns `true` if this machine initiates its own Configuration
    /// Request when a configurable channel first processes traffic.
    pub fn eager_config(&self) -> bool {
        self.eager_config
    }

    /// Current channel state.
    pub fn state(&self) -> ChannelState {
        self.state
    }

    /// The link type this machine's channel lives on.
    pub fn link(&self) -> LinkType {
        self.link
    }

    /// Every state this channel has visited, in first-visit order.
    pub fn visited(&self) -> &[ChannelState] {
        &self.visited
    }

    /// The visited states as a mask, one bit per [`ChannelState::index`].
    pub fn visited_mask(&self) -> u32 {
        self.visited_mask
    }

    fn visit(&mut self, state: ChannelState, out: &mut Vec<ChannelState>) {
        self.record_first_visit(state);
        out.push(state);
        self.state = state;
    }

    #[inline]
    fn record_first_visit(&mut self, state: ChannelState) {
        let bit = 1u32 << state.index();
        if self.visited_mask & bit == 0 {
            self.visited_mask |= bit;
            self.visited.push(state);
        }
    }

    /// Returns `true` if a connection-establishing request of this link type
    /// can be refused by the upper layer from `CLOSED` (the `accept = false`
    /// path of [`StateMachine::on_command`]).
    fn is_refusable_connect(&self, code: CommandCode) -> bool {
        if self.state != ChannelState::Closed {
            return false;
        }
        match self.link {
            LinkType::BrEdr => matches!(
                code,
                CommandCode::ConnectionRequest | CommandCode::CreateChannelRequest
            ),
            LinkType::Le => matches!(
                code,
                CommandCode::LeCreditBasedConnectionRequest
                    | CommandCode::CreditBasedConnectionRequest
            ),
        }
    }

    /// The short-lived deciding state a refused connect passes through.
    fn deciding_state(&self, code: CommandCode) -> ChannelState {
        if code == CommandCode::CreateChannelRequest {
            ChannelState::WaitCreate
        } else {
            ChannelState::WaitConnect
        }
    }

    /// Feeds a command into the machine for its state effects only, without
    /// materializing a [`Reaction`].  Visits exactly the states
    /// [`StateMachine::on_command`] would visit but performs no per-call
    /// allocation — the path trace replay uses to re-drive machines record by
    /// record.
    pub fn advance(&mut self, code: CommandCode, accept: bool) {
        if !accept && self.is_refusable_connect(code) {
            self.visit_only(self.deciding_state(code));
            self.visit_only(ChannelState::Closed);
            return;
        }
        if self.eager_config && self.state == ChannelState::WaitConfig {
            self.visit_only(ChannelState::WaitConfigReqRsp);
        }
        let transition = spec_transition(self.state, code, self.link);
        for s in transition.passes_through {
            self.visit_only(*s);
        }
        self.visit_only(transition.next);
    }

    fn visit_only(&mut self, state: ChannelState) {
        self.record_first_visit(state);
        self.state = state;
    }

    /// Feeds a received signalling command addressed to this channel into the
    /// machine and returns the device's reaction.
    ///
    /// `accept` controls whether the upper layer accepts connection/creation
    /// requests (e.g. the PSM is supported); when `false` the device responds
    /// with a refusal and the channel returns to `CLOSED` after passing
    /// through the deciding state.
    pub fn on_command(&mut self, code: CommandCode, accept: bool) -> Reaction {
        let mut actions = Vec::new();
        let mut visited = Vec::new();

        // Refused connection / creation: pass through the deciding state and
        // fall back to CLOSED with a refusal response.
        if !accept && self.is_refusable_connect(code) {
            self.visit(self.deciding_state(code), &mut visited);
            // analyzer: allow(panic) — is_refusable_connect admits only the
            // four connect requests, all of which have a response code.
            actions.push(Action::Respond(
                code.expected_response().expect("requests have responses"),
            ));
            self.visit(ChannelState::Closed, &mut visited);
            return Reaction { actions, visited };
        }

        // Eager configuration: a configurable channel that has not yet sent
        // its own Configuration Request does so before processing traffic
        // addressed to it.
        if self.eager_config && self.state == ChannelState::WaitConfig {
            actions.push(Action::Initiate(CommandCode::ConfigureRequest));
            self.visit(ChannelState::WaitConfigReqRsp, &mut visited);
        }

        let transition = spec_transition(self.state, code, self.link);
        actions.push(transition.action);
        for s in transition.passes_through {
            self.visit(*s, &mut visited);
        }
        if visited.last() != Some(&transition.next) {
            self.visit(transition.next, &mut visited);
        }

        Reaction { actions, visited }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn there_are_19_states() {
        assert_eq!(ChannelState::ALL.len(), 19);
        let set: BTreeSet<_> = ChannelState::ALL.iter().collect();
        assert_eq!(set.len(), 19);
    }

    #[test]
    fn spec_names_are_unique_and_uppercase() {
        let mut names: Vec<&str> = ChannelState::ALL.iter().map(|s| s.spec_name()).collect();
        for n in &names {
            assert_eq!(*n, n.to_uppercase());
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 19);
    }

    #[test]
    fn reachable_set_has_13_states_and_excludes_responder_states() {
        assert_eq!(ChannelState::REACHABLE_FROM_INITIATOR.len(), 13);
        for s in [
            ChannelState::WaitConnectRsp,
            ChannelState::WaitCreateRsp,
            ChannelState::WaitMoveRsp,
            ChannelState::WaitIndFinalRsp,
            ChannelState::WaitFinalRsp,
            ChannelState::WaitControlInd,
        ] {
            assert!(
                !s.reachable_from_initiator(),
                "{s} must not be initiator-reachable"
            );
        }
        assert!(ChannelState::Open.reachable_from_initiator());
    }

    #[test]
    fn table2_wait_connect_rejects_everything_but_connect_req() {
        // Paper Table II: in WAIT_CONNECT only Connect Req triggers a
        // transition; the other channel commands are rejected.
        let t = spec_transition(
            ChannelState::WaitConnect,
            CommandCode::ConnectionRequest,
            LinkType::BrEdr,
        );
        assert_eq!(t.action, Action::Respond(CommandCode::ConnectionResponse));
        assert_eq!(t.next, ChannelState::WaitConfig);

        for code in [
            CommandCode::ConnectionResponse,
            CommandCode::ConfigureRequest,
            CommandCode::ConfigureResponse,
            CommandCode::DisconnectionResponse,
            CommandCode::CreateChannelRequest,
            CommandCode::CreateChannelResponse,
            CommandCode::MoveChannelRequest,
            CommandCode::MoveChannelResponse,
            CommandCode::MoveChannelConfirmationRequest,
            CommandCode::MoveChannelConfirmationResponse,
        ] {
            let t = spec_transition(ChannelState::WaitConnect, code, LinkType::BrEdr);
            assert!(
                matches!(t.action, Action::Reject(_)),
                "{code} must be rejected in WAIT_CONNECT"
            );
            assert_eq!(
                t.next,
                ChannelState::WaitConnect,
                "{code} must not transition"
            );
        }
    }

    #[test]
    fn echo_and_information_are_valid_in_every_state() {
        for state in ChannelState::ALL {
            let t = spec_transition(state, CommandCode::EchoRequest, LinkType::BrEdr);
            assert_eq!(t.action, Action::Respond(CommandCode::EchoResponse));
            assert_eq!(t.next, state);
            let t = spec_transition(state, CommandCode::InformationRequest, LinkType::BrEdr);
            assert_eq!(t.action, Action::Respond(CommandCode::InformationResponse));
            assert_eq!(t.next, state);
        }
    }

    #[test]
    fn le_only_commands_are_rejected_on_br_edr() {
        let t = spec_transition(
            ChannelState::Open,
            CommandCode::LeCreditBasedConnectionRequest,
            LinkType::BrEdr,
        );
        assert_eq!(t.action, Action::Reject(RejectReason::CommandNotUnderstood));
    }

    #[test]
    fn connect_then_full_config_reaches_open() {
        let mut sm = StateMachine::new();
        let r = sm.on_command(CommandCode::ConnectionRequest, true);
        assert!(r
            .actions
            .contains(&Action::Respond(CommandCode::ConnectionResponse)));
        assert_eq!(sm.state(), ChannelState::WaitConfig);

        // Peer sends its Configuration Request -> the eager device first
        // fires its own Configuration Request, then answers, and waits for
        // the response to its own request.
        let r = sm.on_command(CommandCode::ConfigureRequest, true);
        assert!(r
            .actions
            .contains(&Action::Initiate(CommandCode::ConfigureRequest)));
        assert!(r
            .actions
            .contains(&Action::Respond(CommandCode::ConfigureResponse)));
        assert!(r.visited.contains(&ChannelState::WaitConfigReqRsp));
        assert_eq!(sm.state(), ChannelState::WaitConfigRsp);

        // Peer answers the device's own request -> OPEN.
        sm.on_command(CommandCode::ConfigureResponse, true);
        assert_eq!(sm.state(), ChannelState::Open);
    }

    #[test]
    fn config_in_the_other_order_visits_wait_config_req() {
        let mut sm = StateMachine::new();
        sm.on_command(CommandCode::ConnectionRequest, true);
        sm.on_command(CommandCode::ConfigureResponse, true);
        assert_eq!(sm.state(), ChannelState::WaitConfigReq);
        sm.on_command(CommandCode::ConfigureRequest, true);
        assert_eq!(sm.state(), ChannelState::Open);
    }

    #[test]
    fn refused_connection_returns_to_closed_through_wait_connect() {
        let mut sm = StateMachine::new();
        let r = sm.on_command(CommandCode::ConnectionRequest, false);
        assert_eq!(sm.state(), ChannelState::Closed);
        assert!(r.visited.contains(&ChannelState::WaitConnect));
        assert!(!sm.visited().contains(&ChannelState::WaitConfig));
    }

    #[test]
    fn disconnect_passes_through_wait_disconnect() {
        let mut sm = StateMachine::new();
        sm.on_command(CommandCode::ConnectionRequest, true);
        sm.on_command(CommandCode::ConfigureRequest, true);
        sm.on_command(CommandCode::ConfigureResponse, true);
        assert_eq!(sm.state(), ChannelState::Open);
        let r = sm.on_command(CommandCode::DisconnectionRequest, true);
        assert!(r.visited.contains(&ChannelState::WaitDisconnect));
        assert_eq!(sm.state(), ChannelState::Closed);
    }

    #[test]
    fn move_flow_visits_move_states_and_returns_to_open() {
        let mut sm = StateMachine::new();
        sm.on_command(CommandCode::ConnectionRequest, true);
        sm.on_command(CommandCode::ConfigureRequest, true);
        sm.on_command(CommandCode::ConfigureResponse, true);
        sm.on_command(CommandCode::MoveChannelRequest, true);
        assert_eq!(sm.state(), ChannelState::WaitMoveConfirm);
        assert!(sm.visited().contains(&ChannelState::WaitMove));
        sm.on_command(CommandCode::MoveChannelConfirmationRequest, true);
        assert_eq!(sm.state(), ChannelState::Open);
        assert!(sm.visited().contains(&ChannelState::WaitConfirmRsp));
    }

    #[test]
    fn reconfiguration_from_open_visits_wait_send_config() {
        let mut sm = StateMachine::new();
        sm.on_command(CommandCode::ConnectionRequest, true);
        sm.on_command(CommandCode::ConfigureRequest, true);
        sm.on_command(CommandCode::ConfigureResponse, true);
        assert_eq!(sm.state(), ChannelState::Open);
        sm.on_command(CommandCode::ConfigureRequest, true);
        assert!(sm.visited().contains(&ChannelState::WaitSendConfig));
        assert_eq!(sm.state(), ChannelState::WaitConfigRsp);
    }

    #[test]
    fn without_eager_config_the_channel_parks_in_wait_config() {
        let mut sm = StateMachine::without_eager_config();
        sm.on_command(CommandCode::ConnectionRequest, true);
        assert_eq!(sm.state(), ChannelState::WaitConfig);
        // A command not addressed to configuration keeps it there.
        let r = sm.on_command(CommandCode::MoveChannelRequest, true);
        assert!(matches!(r.actions[0], Action::Reject(_)));
        assert_eq!(sm.state(), ChannelState::WaitConfig);
    }

    #[test]
    fn full_initiator_walk_covers_exactly_the_13_reachable_states() {
        // Drive a single eager-config machine through every manoeuvre an
        // initiator can perform and check the visited set equals the
        // documented reachable set.
        let mut sm = StateMachine::new();
        // Refused connect (visits WAIT_CONNECT), then a real connect.
        sm.on_command(CommandCode::ConnectionRequest, false);
        sm.on_command(CommandCode::ConnectionRequest, true);
        // Config, one order.
        sm.on_command(CommandCode::ConfigureRequest, true);
        sm.on_command(CommandCode::ConfigureResponse, true);
        // Disconnect, then re-create via create-channel.
        sm.on_command(CommandCode::DisconnectionRequest, true);
        sm.on_command(CommandCode::CreateChannelRequest, true);
        // Config, the other order.
        sm.on_command(CommandCode::ConfigureResponse, true);
        sm.on_command(CommandCode::ConfigureRequest, true);
        // Reconfiguration from OPEN.
        sm.on_command(CommandCode::ConfigureRequest, true);
        sm.on_command(CommandCode::ConfigureResponse, true);
        // Move flow.
        sm.on_command(CommandCode::MoveChannelRequest, true);
        sm.on_command(CommandCode::MoveChannelConfirmationRequest, true);

        let visited: BTreeSet<ChannelState> = sm.visited().iter().copied().collect();
        let reachable: BTreeSet<ChannelState> = ChannelState::REACHABLE_FROM_INITIATOR
            .iter()
            .copied()
            .collect();
        assert_eq!(visited, reachable);
        assert_eq!(visited.len(), 13);
    }
}
