//! Phase 2 — state guiding (§III-C).
//!
//! The state guide drives the target's per-channel state machine into each
//! initiator-reachable state using only *normal* packets built from the
//! commands valid for the state's job.  Once the target is parked in the
//! desired state the session hands over to the mutator for the actual test
//! packets.

use analysis::FuzzPlan;
use btcore::{Cid, Identifier, Psm};

use hci::medium::LinkHandle;
use l2cap::command::{
    Command, ConfigureRequest, ConfigureResponse, ConnectionRequest, CreateChannelRequest,
    CreditBasedReconfigureRequest, DisconnectionRequest, FlowControlCreditInd,
    LeCreditBasedConnectionRequest, MoveChannelRequest,
};
use l2cap::consts::{ConfigureResult, ConnectionResult};
use l2cap::options::ConfigOption;
use l2cap::packet::parse_signaling;
use l2cap::state::ChannelState;
use l2cap::CommandCode;

use crate::retry::RetryPolicy;

/// The fuzzer-side view of one channel opened on the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelContext {
    /// Our (initiator) channel ID.
    pub scid: Cid,
    /// The channel ID the target allocated (`NULL` when no channel is open,
    /// e.g. when fuzzing the closed/connection jobs).
    pub dcid: Cid,
    /// The service port the channel was opened on.
    pub psm: Psm,
}

impl ChannelContext {
    /// A context with no open channel (closed-state fuzzing).
    pub fn closed(psm: Psm) -> Self {
        ChannelContext {
            scid: Cid::NULL,
            dcid: Cid::NULL,
            psm,
        }
    }

    /// Returns `true` if a channel is actually open on the target.
    pub fn has_channel(&self) -> bool {
        self.dcid != Cid::NULL
    }
}

/// Drives state transitions with valid commands.
#[derive(Debug)]
pub struct StateGuide {
    next_scid: u16,
    next_identifier: Identifier,
    transition_packets_sent: u64,
    retry: RetryPolicy,
}

impl Default for StateGuide {
    fn default() -> Self {
        StateGuide::new()
    }
}

impl StateGuide {
    /// Creates a guide; initiator CIDs are allocated from `0x0040` upward.
    pub fn new() -> Self {
        StateGuide {
            next_scid: 0x0040,
            next_identifier: Identifier::FIRST,
            transition_packets_sent: 0,
            retry: RetryPolicy::none(),
        }
    }

    /// Attaches a retry policy: channel-opening prelude commands whose
    /// response is lost are retried with virtual-time backoff, so a lossy
    /// link does not starve the mutator of reachable states.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Number of normal (state-transition) packets this guide has sent.
    pub fn transition_packets_sent(&self) -> u64 {
        self.transition_packets_sent
    }

    /// Returns the next signalling identifier to use and advances it.
    pub fn next_identifier(&mut self) -> Identifier {
        let id = self.next_identifier;
        self.next_identifier = id.next();
        id
    }

    fn next_scid(&mut self) -> Cid {
        let cid = Cid(self.next_scid);
        self.next_scid = self.next_scid.wrapping_add(1).max(0x0040);
        cid
    }

    fn send(&mut self, link: &mut LinkHandle, command: Command) -> Vec<Command> {
        let id = self.next_identifier();
        self.transition_packets_sent += 1;
        link.send_frame(&l2cap::packet::signaling_frame(id, &command))
            .iter()
            .filter_map(|f| parse_signaling(f).ok().map(|p| p.command()))
            .collect()
    }

    /// Opens a channel on `psm`, via Connection Request or (for the creation
    /// job) Create Channel Request.  Returns the channel context on success.
    pub fn open_channel(
        &mut self,
        link: &mut LinkHandle,
        psm: Psm,
        via_create: bool,
    ) -> Option<ChannelContext> {
        let scid = self.next_scid();
        let command = if via_create {
            Command::CreateChannelRequest(CreateChannelRequest {
                psm,
                scid,
                controller_id: 0,
            })
        } else {
            Command::ConnectionRequest(ConnectionRequest { psm, scid })
        };
        let responses = self.send(link, command);
        for rsp in responses {
            let (dcid, result) = match rsp {
                Command::ConnectionResponse(r) => (r.dcid, r.result),
                Command::CreateChannelResponse(r) => (r.dcid, r.result),
                _ => continue,
            };
            if result == ConnectionResult::Success {
                return Some(ChannelContext { scid, dcid, psm });
            }
        }
        None
    }

    /// Sends our Configuration Request for the channel (the target answers
    /// and waits for the rest of the handshake).
    pub fn send_configure_request(&mut self, link: &mut LinkHandle, ctx: ChannelContext) {
        self.send(
            link,
            Command::ConfigureRequest(ConfigureRequest {
                dcid: ctx.dcid,
                flags: 0,
                options: vec![ConfigOption::Mtu(l2cap::packet::DEFAULT_SIGNALING_MTU)],
            }),
        );
    }

    /// Answers the target's own Configuration Request with a success
    /// response.
    pub fn send_configure_response(&mut self, link: &mut LinkHandle, ctx: ChannelContext) {
        self.send(
            link,
            Command::ConfigureResponse(ConfigureResponse {
                scid: ctx.dcid,
                flags: 0,
                result: ConfigureResult::Success,
                options: Vec::new(),
            }),
        );
    }

    /// Completes the configuration handshake in both directions so the
    /// target's channel reaches `OPEN`.
    pub fn complete_configuration(&mut self, link: &mut LinkHandle, ctx: ChannelContext) {
        self.send_configure_request(link, ctx);
        self.send_configure_response(link, ctx);
    }

    /// Sends a Move Channel Request, parking an AMP-capable target in the
    /// move-confirmation wait state.
    pub fn request_move(&mut self, link: &mut LinkHandle, ctx: ChannelContext) {
        self.send(
            link,
            Command::MoveChannelRequest(MoveChannelRequest {
                icid: ctx.scid,
                dest_controller_id: 1,
            }),
        );
    }

    /// Tears down the channel.
    pub fn disconnect(&mut self, link: &mut LinkHandle, ctx: ChannelContext) {
        if ctx.has_channel() {
            self.send(
                link,
                Command::DisconnectionRequest(DisconnectionRequest {
                    dcid: ctx.dcid,
                    scid: ctx.scid,
                }),
            );
        }
    }

    /// Opens an LE credit-based channel on `spsm` (command `0x14`) and
    /// returns the channel context on success.  The channel goes straight to
    /// `OPEN` — LE credit-based channels have no configuration handshake.
    pub fn open_le_channel(&mut self, link: &mut LinkHandle, spsm: Psm) -> Option<ChannelContext> {
        let scid = self.next_scid();
        let responses = self.send(
            link,
            Command::LeCreditBasedConnectionRequest(LeCreditBasedConnectionRequest {
                spsm: spsm.value(),
                scid,
                mtu: 247,
                mps: 64,
                initial_credits: 8,
            }),
        );
        for rsp in responses {
            if let Command::LeCreditBasedConnectionResponse(r) = rsp {
                if r.result == 0 {
                    return Some(ChannelContext {
                        scid,
                        dcid: r.dcid,
                        psm: spsm,
                    });
                }
            }
        }
        None
    }

    /// Grants the target additional credits on an open LE channel.
    pub fn send_credit_ind(&mut self, link: &mut LinkHandle, ctx: ChannelContext, credits: u16) {
        self.send(
            link,
            Command::FlowControlCreditInd(FlowControlCreditInd {
                cid: ctx.scid,
                credits,
            }),
        );
    }

    /// Renegotiates MTU/MPS on an open LE channel via the enhanced
    /// credit-based reconfigure, parking the target through `WAIT_CONFIG`.
    pub fn send_reconfigure(&mut self, link: &mut LinkHandle, ctx: ChannelContext) {
        self.send(
            link,
            Command::CreditBasedReconfigureRequest(CreditBasedReconfigureRequest {
                mtu: 512,
                mps: 128,
                dcids: vec![ctx.dcid],
            }),
        );
    }

    /// Executes one prelude command of a computed [`FuzzPlan`].
    ///
    /// Channel-opening commands allocate the context; every other command
    /// requires one.  Returns `Err(())` when an open fails (the caller
    /// decides whether closed-state fuzzing is an acceptable fallback).
    fn execute_command(
        &mut self,
        link: &mut LinkHandle,
        psm: Psm,
        ctx: &mut Option<ChannelContext>,
        code: CommandCode,
    ) -> Result<(), ()> {
        let (retry, clock) = (self.retry, link.clock());
        match code {
            CommandCode::ConnectionRequest => {
                *ctx = Some(
                    retry
                        .run(&clock, || self.open_channel(link, psm, false))
                        .ok_or(())?,
                );
            }
            CommandCode::CreateChannelRequest => {
                *ctx = Some(
                    retry
                        .run(&clock, || self.open_channel(link, psm, true))
                        .ok_or(())?,
                );
            }
            CommandCode::LeCreditBasedConnectionRequest => {
                *ctx = Some(
                    retry
                        .run(&clock, || self.open_le_channel(link, psm))
                        .ok_or(())?,
                );
            }
            CommandCode::ConfigureRequest => {
                let ctx = ctx.ok_or(())?;
                self.send_configure_request(link, ctx);
            }
            CommandCode::ConfigureResponse => {
                let ctx = ctx.ok_or(())?;
                self.send_configure_response(link, ctx);
            }
            CommandCode::MoveChannelRequest => {
                let ctx = ctx.ok_or(())?;
                self.request_move(link, ctx);
            }
            CommandCode::DisconnectionRequest => {
                let ctx = ctx.ok_or(())?;
                self.disconnect(link, ctx);
            }
            CommandCode::CreditBasedReconfigureRequest => {
                let ctx = ctx.ok_or(())?;
                self.send_reconfigure(link, ctx);
            }
            // validate_plan proves every prelude command is guide-sendable,
            // so the remaining codes never appear in a computed plan.
            other => {
                debug_assert!(false, "non-sendable command {other:?} in a fuzz plan");
                return Err(());
            }
        }
        Ok(())
    }

    /// Executes a computed fuzz plan: replays its prelude command-for-command
    /// and returns the context the mutator should fuzz with.
    ///
    /// A plan that parks the target closed tolerates open failures (the
    /// closed context is the goal anyway); a plan that parks on a live
    /// channel propagates them as `None`.
    fn execute_plan(
        &mut self,
        link: &mut LinkHandle,
        psm: Psm,
        plan: &FuzzPlan,
    ) -> Option<ChannelContext> {
        let mut ctx: Option<ChannelContext> = None;
        for &code in &plan.prelude {
            if self.execute_command(link, psm, &mut ctx, code).is_err() {
                return plan.parks_closed().then(|| ChannelContext::closed(psm));
            }
        }
        if plan.parks_closed() {
            Some(ChannelContext::closed(psm))
        } else {
            ctx
        }
    }

    /// Drives the target into `state` on a fresh channel over `psm` and
    /// returns the channel context to fuzz with.
    ///
    /// The command sequence is not hand-written: it executes the
    /// [`FuzzPlan`] the `analysis` crate derived, for the link's transport,
    /// from the minimal witness the model checker computed for `state`
    /// (states the target only passes through transiently are fuzzed from
    /// the nearest parkable position the plan records).  On an LE link the
    /// plans use the credit-based flows: `CLOSED` and `WAIT_CONNECT` fuzz
    /// without a channel, a reconfigure passes through `WAIT_CONFIG`, and
    /// `OPEN` and `WAIT_DISCONNECT` fuzz from an open channel.
    /// Responder-only states, and states the transport lacks, have no plan
    /// and return `None`.
    pub fn drive_to(
        &mut self,
        link: &mut LinkHandle,
        psm: Psm,
        state: ChannelState,
    ) -> Option<ChannelContext> {
        let plan = analysis::fuzz_plan(state, link.link_type())?;
        self.execute_plan(link, psm, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::{FuzzRng, SimClock};
    use btstack::device::share;
    use btstack::profiles::{DeviceProfile, ProfileId};
    use hci::link::LinkConfig;
    use hci::medium::EventMedium;

    fn link_to(id: ProfileId) -> (btstack::device::SharedSimulatedDevice, LinkHandle) {
        let clock = SimClock::new();
        let mut air = EventMedium::new(clock.clone());
        let profile = DeviceProfile::table5(id);
        let (shared, adapter) = share(profile.build(clock.clone(), FuzzRng::seed_from(5)));
        air.register_shared(adapter);
        let link = air
            .connect(profile.addr, LinkConfig::ideal(), FuzzRng::seed_from(6))
            .unwrap();
        (shared, link)
    }

    #[test]
    fn open_channel_captures_the_allocated_dcid() {
        let (_dev, mut link) = link_to(ProfileId::D2);
        let mut guide = StateGuide::new();
        let ctx = guide
            .open_channel(&mut link, Psm::SDP, false)
            .expect("SDP connect must work");
        assert!(ctx.has_channel());
        assert!(ctx.dcid.is_dynamic());
        assert_eq!(ctx.psm, Psm::SDP);
        assert!(guide.transition_packets_sent() >= 1);
    }

    #[test]
    fn drive_to_open_reaches_open_on_the_target() {
        let (dev, mut link) = link_to(ProfileId::D2);
        let mut guide = StateGuide::new();
        let ctx = guide
            .drive_to(&mut link, Psm::SDP, ChannelState::Open)
            .unwrap();
        assert!(ctx.has_channel());
        // White-box check against the simulated stack.
        let visited = dev.lock().fired_vulnerabilities().len();
        assert_eq!(visited, 0);
    }

    #[test]
    fn drive_to_move_states_works_on_amp_capable_targets() {
        let (_dev, mut link) = link_to(ProfileId::D2);
        let mut guide = StateGuide::new();
        let ctx = guide.drive_to(&mut link, Psm::SDP, ChannelState::WaitMoveConfirm);
        assert!(ctx.is_some());
    }

    #[test]
    fn responder_only_states_are_not_drivable() {
        let (_dev, mut link) = link_to(ProfileId::D2);
        let mut guide = StateGuide::new();
        assert!(guide
            .drive_to(&mut link, Psm::SDP, ChannelState::WaitConnectRsp)
            .is_none());
        assert!(guide
            .drive_to(&mut link, Psm::SDP, ChannelState::WaitFinalRsp)
            .is_none());
    }

    #[test]
    fn closed_and_connection_jobs_fuzz_without_a_channel() {
        let (_dev, mut link) = link_to(ProfileId::D5);
        let mut guide = StateGuide::new();
        let ctx = guide
            .drive_to(&mut link, Psm::SDP, ChannelState::Closed)
            .unwrap();
        assert!(!ctx.has_channel());
        let ctx = guide
            .drive_to(&mut link, Psm::SDP, ChannelState::WaitConnect)
            .unwrap();
        assert!(!ctx.has_channel());
    }

    #[test]
    fn lossy_opens_are_retried_with_backoff() {
        use hci::fault::FaultPlan;
        // Total loss: the open can never succeed, so the guide must spend
        // exactly `max_attempts` connection requests before giving up.
        let clock = SimClock::new();
        let mut air = EventMedium::new(clock.clone());
        let profile = DeviceProfile::table5(ProfileId::D2);
        let (_shared, adapter) = share(profile.build(clock.clone(), FuzzRng::seed_from(5)));
        air.register_shared(adapter);
        let config = LinkConfig::ideal().with_faults(FaultPlan::none().with_loss(1.0));
        let mut link = air
            .connect(profile.addr, config, FuzzRng::seed_from(6))
            .unwrap();
        let mut guide = StateGuide::new().with_retry(RetryPolicy::flat(3, 1_000));
        let before = link.clock().now_micros();
        let ctx = guide.drive_to(&mut link, Psm::SDP, ChannelState::Open);
        assert!(ctx.is_none());
        assert_eq!(guide.transition_packets_sent(), 3);
        assert!(link.clock().now_micros() >= before + 2_000);
    }

    #[test]
    fn identifiers_advance_and_skip_zero() {
        let mut guide = StateGuide::new();
        let mut last = 0u8;
        for _ in 0..300 {
            let id = guide.next_identifier();
            assert!(id.is_valid());
            last = id.value();
        }
        assert_ne!(last, 0);
    }
}
