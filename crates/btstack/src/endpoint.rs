//! The simulated L2CAP acceptor.
//!
//! [`L2capEndpoint`] is the device-side signalling handler: it routes
//! incoming commands to per-channel state machines, enforces the rejection
//! rules of the specification ("command not understood", "invalid CID in
//! request", "signaling MTU exceeded"), applies the vendor [`Quirks`] that
//! soften those rules on real stacks, and evaluates the device's seeded
//! [`VulnerabilitySpec`]s against every processed packet.

use btcore::{Cid, FrameBuf, FuzzRng, Identifier, LinkType, Psm};
use l2cap::code::CommandCode;
use l2cap::command::{
    Command, CommandReject, ConfigureRequest, ConfigureResponse, ConnectionParameterUpdateResponse,
    ConnectionResponse, CreateChannelResponse, CreditBasedConnectionResponse,
    CreditBasedReconfigureResponse, DisconnectionRequest, DisconnectionResponse,
    InformationResponse, LeCreditBasedConnectionResponse, MoveChannelConfirmationResponse,
    MoveChannelResponse,
};
use l2cap::consts::{ConfigureResult, ConnectionResult, MoveResult, RejectReason};
use l2cap::fields;
use l2cap::jobs::{job_of, Job};
use l2cap::options::ConfigOption;
use l2cap::packet::{L2capFrame, SignalingView, DEFAULT_SIGNALING_MTU};
use l2cap::state::{Action, ChannelState};

use std::sync::Arc;

use crate::ccb::CcbTable;
use crate::services::ServiceTable;
use crate::vendor::Quirks;
use crate::vuln::{PacketContext, VulnerabilitySpec};

/// Initial credits the simulated acceptor grants on every LE credit-based
/// channel it accepts.
const LE_ACCEPT_CREDITS: u16 = 8;

use l2cap::ranges::LE_MIN_MTU;

/// The device-side L2CAP signalling acceptor.
pub struct L2capEndpoint {
    link_type: LinkType,
    quirks: Quirks,
    services: ServiceTable,
    signaling_mtu: u16,
    ccbs: CcbTable,
    next_identifier: Identifier,
    /// Shared, immutable vulnerability catalog.  An `Arc` slice (rather than
    /// an owned `Vec`) lets every rebuilt device of a profile share one
    /// allocation and guarantees the per-packet check never copies the specs.
    vulns: Arc<[VulnerabilitySpec]>,
    rng: FuzzRng,
    packets_processed: u64,
    rejects_sent: u64,
}

impl L2capEndpoint {
    /// Creates a BR/EDR acceptor with the given behaviour, service table and
    /// seeded vulnerabilities.
    pub fn new(
        quirks: Quirks,
        services: ServiceTable,
        vulns: impl Into<Arc<[VulnerabilitySpec]>>,
        rng: FuzzRng,
    ) -> Self {
        L2capEndpoint::new_on(LinkType::BrEdr, quirks, services, vulns, rng)
    }

    /// Creates an acceptor for the given link type.  An LE acceptor rejects
    /// classic-only commands as "command not understood" and serves the
    /// credit-based channel flows instead of connect/configure.
    pub fn new_on(
        link_type: LinkType,
        quirks: Quirks,
        services: ServiceTable,
        vulns: impl Into<Arc<[VulnerabilitySpec]>>,
        rng: FuzzRng,
    ) -> Self {
        L2capEndpoint {
            link_type,
            quirks,
            services,
            signaling_mtu: DEFAULT_SIGNALING_MTU,
            ccbs: CcbTable::new(),
            next_identifier: Identifier::FIRST,
            vulns: vulns.into(),
            rng,
            packets_processed: 0,
            rejects_sent: 0,
        }
    }

    /// The device's service table.
    pub fn services(&self) -> &ServiceTable {
        &self.services
    }

    /// The link type this acceptor serves.
    pub fn link_type(&self) -> LinkType {
        self.link_type
    }

    /// Number of signalling packets processed so far.
    pub fn packets_processed(&self) -> u64 {
        self.packets_processed
    }

    /// Number of Command Reject packets sent so far.
    pub fn rejects_sent(&self) -> u64 {
        self.rejects_sent
    }

    /// Number of currently open channels.
    pub fn open_channels(&self) -> usize {
        self.ccbs.len()
    }

    /// States visited by every channel of this endpoint so far, freed
    /// channels included, in [`ChannelState::ALL`] order; `Closed` is always
    /// among them.  Useful for white-box assertions in tests; the black-box
    /// experiments use the sniffer instead.
    pub fn visited_states(&self) -> Vec<ChannelState> {
        let mask = self.ccbs.visited_mask() | (1 << ChannelState::Closed.index());
        ChannelState::ALL
            .into_iter()
            .filter(|s| mask & (1 << s.index()) != 0)
            .collect()
    }

    fn next_id(&mut self) -> Identifier {
        let id = self.next_identifier;
        self.next_identifier = id.next();
        id
    }

    fn reply(&self, identifier: Identifier, command: Command) -> L2capFrame {
        l2cap::packet::signaling_frame(identifier, &command)
    }

    fn reject(
        &mut self,
        identifier: Identifier,
        reason: RejectReason,
        data: Vec<u8>,
    ) -> L2capFrame {
        self.rejects_sent += 1;
        self.reply(
            identifier,
            Command::CommandReject(CommandReject { reason, data }),
        )
    }

    /// Processes one inbound L2CAP frame, appends the response frames to
    /// `out` and returns the vulnerability that fired, if any.
    ///
    /// `out` is not cleared.  A frame that fires a vulnerability takes the
    /// stack down before any response is appended.
    pub fn handle_frame(
        &mut self,
        frame: &L2capFrame,
        out: &mut Vec<L2capFrame>,
    ) -> Option<VulnerabilitySpec> {
        if !frame.cid.is_signaling() {
            // Data traffic on a (possibly open) channel: the simulated
            // services simply consume it.
            return None;
        }
        let packet = SignalingView::parse(&frame.payload).ok()?;
        self.packets_processed += 1;

        // Signalling MTU check: oversized C-frames are rejected outright.
        if packet.wire_len() > usize::from(self.signaling_mtu) {
            out.push(self.reject(
                packet.identifier,
                RejectReason::SignalingMtuExceeded,
                self.signaling_mtu.to_le_bytes().to_vec(),
            ));
            return None;
        }

        // Hardened stacks run an extra sanity filter and silently drop
        // anything inconsistent before command handling (the paper's
        // explanation for the devices in which nothing was found).
        if self.quirks.strict_malformed_filtering
            && (!packet.is_length_consistent() || packet.garbage_len() > 0)
        {
            return None;
        }

        self.handle_signaling(packet, out)
    }

    fn handle_signaling(
        &mut self,
        packet: SignalingView<'_>,
        out: &mut Vec<L2capFrame>,
    ) -> Option<VulnerabilitySpec> {
        // Undefined command codes, and commands belonging to the other
        // transport: "command not understood", regardless of state.  On
        // BR/EDR the LE-only commands keep flowing through the (equivalent)
        // per-channel rejection paths below, preserving the classic
        // acceptor's observable behaviour.
        let code = CommandCode::from_u8(packet.code)
            .filter(|code| !self.link_type.is_le() || code.valid_on(LinkType::Le));
        let Some(code) = code else {
            out.push(self.reject(
                packet.identifier,
                RejectReason::CommandNotUnderstood,
                Vec::new(),
            ));
            return None;
        };

        // Determine the channel (and thus state/job) this packet lands in.
        let core = fields::extract_core_values(code, packet.data);
        let (channel_cid, cidp_matches) = self.resolve_channel(code, &core.cidp);
        let (state, job) = match channel_cid {
            Some(cid) => {
                let state = self
                    .ccbs
                    .by_local(cid)
                    .map(|c| c.machine.state())
                    .unwrap_or(ChannelState::Closed);
                (state, job_of(state))
            }
            None => (ChannelState::Closed, Job::Closed),
        };

        // Vulnerability evaluation happens "inside" packet processing: a
        // packet that reaches a defective path takes the stack down before a
        // response is produced.
        let le = fields::extract_le_values(code, packet.data);
        let rfc_option = match code {
            CommandCode::ConfigureRequest if packet.data.len() >= 4 => {
                ConfigOption::scan_rfc_option(&packet.data[4..])
            }
            CommandCode::ConfigureResponse if packet.data.len() >= 6 => {
                ConfigOption::scan_rfc_option(&packet.data[6..])
            }
            _ => None,
        };
        let ctx = PacketContext {
            job,
            state,
            code: Some(code),
            psm: core.psm,
            cidp: core.cidp,
            cidp_matches_allocation: cidp_matches,
            garbage_len: packet.garbage_len(),
            length_consistent: packet.is_length_consistent(),
            spsm: le.spsm,
            credits: le.credits,
            rfc_option,
        };
        if let Some(vuln) = self.check_vulns(&ctx) {
            return Some(vuln);
        }

        // Only packets that survive the vulnerability evaluation are
        // decoded, and only the requests whose fields dispatch reads.  Every
        // other command is checked for structure without being
        // materialized: `structurally_valid` holds exactly when `decode_opt`
        // returns a command.
        if self.reads_fields(code) {
            match Command::decode_opt(packet.code, packet.data) {
                Some(command) => self.dispatch(packet.identifier, command, out),
                None => self.malformed(packet.identifier, out),
            }
        } else if !Command::structurally_valid(packet.code, packet.data) {
            self.malformed(packet.identifier, out);
        } else if code == CommandCode::EchoRequest {
            if self.quirks.supports_echo {
                // The response carries the request's own data bytes (garbage
                // included), framed in one pass without decoding them.  The
                // MTU check above bounds the data length.
                let c_frame = FrameBuf::build(|buf| {
                    buf.push(CommandCode::EchoResponse.value());
                    buf.push(packet.identifier.value());
                    buf.extend_from_slice(&(packet.data.len() as u16).to_le_bytes());
                    buf.extend_from_slice(packet.data);
                });
                out.push(L2capFrame::new(Cid::SIGNALING, c_frame));
            }
        } else {
            self.handle_channel_command(packet, code, channel_cid, out);
        }
        None
    }

    /// Whether dispatch reads `code`'s fields, so the packet is decoded: the
    /// connection-shaped and information requests, plus the LE channel
    /// flows on an LE link.  On BR/EDR the LE-only commands fall through to
    /// the per-channel rejection paths.
    fn reads_fields(&self, code: CommandCode) -> bool {
        match code {
            CommandCode::ConnectionRequest
            | CommandCode::CreateChannelRequest
            | CommandCode::InformationRequest => true,
            CommandCode::LeCreditBasedConnectionRequest
            | CommandCode::CreditBasedConnectionRequest
            | CommandCode::FlowControlCreditInd
            | CommandCode::CreditBasedReconfigureRequest
            | CommandCode::ConnectionParameterUpdateRequest => self.link_type.is_le(),
            _ => false,
        }
    }

    /// A defined code whose payload does not parse as its structure: strict
    /// stacks drop it silently, lenient ones reject it as not understood.
    fn malformed(&mut self, identifier: Identifier, out: &mut Vec<L2capFrame>) {
        if !self.quirks.strict_malformed_filtering {
            out.push(self.reject(identifier, RejectReason::CommandNotUnderstood, Vec::new()));
        }
    }

    fn check_vulns(&mut self, ctx: &PacketContext) -> Option<VulnerabilitySpec> {
        // Disjoint borrows of `vulns` and `rng` keep this allocation-free on
        // the per-packet path; only the (rare) matching spec is cloned.
        let Self { vulns, rng, .. } = self;
        vulns
            .iter()
            .find(|vuln| vuln.trigger.matches(ctx) && rng.chance(vuln.trigger.hit_probability))
            .cloned()
    }

    /// Resolves which local channel a command refers to, returning the local
    /// CID and whether every CIDP value matched an allocated channel.
    fn resolve_channel(&mut self, code: CommandCode, cidp: &[u16]) -> (Option<Cid>, bool) {
        if cidp.is_empty() {
            return (None, true);
        }
        let mut all_match = true;
        let mut resolved: Option<Cid> = None;
        for value in cidp {
            if let Some(ccb) = self.ccbs.by_any(Cid(*value)) {
                if resolved.is_none() {
                    resolved = Some(ccb.local_cid);
                }
            } else {
                all_match = false;
            }
        }
        if resolved.is_none() {
            // No CIDP value matched.  Lenient stacks still route
            // configuration-job traffic to the most recently opened channel —
            // the behaviour that exposes the null-CCB path.
            let is_config_cmd = matches!(
                code,
                CommandCode::ConfigureRequest | CommandCode::ConfigureResponse
            );
            if self.quirks.lenient_cid_validation_in_config && is_config_cmd {
                resolved = self.ccbs.iter().last().map(|c| c.local_cid);
            }
        }
        (resolved, all_match)
    }

    /// Answers one of the requests [`L2capEndpoint::reads_fields`] selects.
    fn dispatch(&mut self, identifier: Identifier, command: Command, out: &mut Vec<L2capFrame>) {
        match command {
            Command::ConnectionRequest(req) => {
                self.handle_connection_like(identifier, req.psm, req.scid, false, out)
            }
            Command::CreateChannelRequest(req) => {
                self.handle_connection_like(identifier, req.psm, req.scid, true, out)
            }
            Command::LeCreditBasedConnectionRequest(req) => self.handle_le_connect(
                identifier,
                req.spsm,
                std::slice::from_ref(&req.scid),
                req.mtu,
                req.mps,
                req.initial_credits,
                false,
                out,
            ),
            Command::CreditBasedConnectionRequest(req) => self.handle_le_connect(
                identifier,
                req.spsm,
                &req.scids,
                req.mtu,
                req.mps,
                req.initial_credits,
                true,
                out,
            ),
            Command::FlowControlCreditInd(ind) => self.handle_credit_ind(ind.cid, ind.credits, out),
            Command::CreditBasedReconfigureRequest(req) => {
                self.handle_reconfigure(identifier, req.mtu, req.mps, &req.dcids, out)
            }
            Command::ConnectionParameterUpdateRequest(_) => out.push(self.reply(
                identifier,
                Command::ConnectionParameterUpdateResponse(ConnectionParameterUpdateResponse {
                    result: 0,
                }),
            )),
            Command::InformationRequest(req) => {
                let data = match req.info_type {
                    0x0002 => vec![0xB8, 0x02, 0x00, 0x00], // extended features mask
                    0x0003 => vec![0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
                    _ => Vec::new(),
                };
                let result = if (0x0001..=0x0003).contains(&req.info_type) {
                    0
                } else {
                    1
                };
                out.push(self.reply(
                    identifier,
                    Command::InformationResponse(InformationResponse {
                        info_type: req.info_type,
                        result,
                        data,
                    }),
                ));
            }
            // `reads_fields` selects no other command.
            _ => {}
        }
    }

    fn handle_connection_like(
        &mut self,
        identifier: Identifier,
        psm: Psm,
        scid: Cid,
        is_create: bool,
        out: &mut Vec<L2capFrame>,
    ) {
        let make_response = |dcid: Cid, scid: Cid, result: ConnectionResult| {
            if is_create {
                Command::CreateChannelResponse(CreateChannelResponse {
                    dcid,
                    scid,
                    result,
                    status: 0,
                })
            } else {
                Command::ConnectionResponse(ConnectionResponse {
                    dcid,
                    scid,
                    result,
                    status: 0,
                })
            }
        };

        if is_create && !self.quirks.supports_amp_channels {
            let rsp = make_response(Cid::NULL, scid, ConnectionResult::RefusedNoResources);
            self.rejects_sent += 1;
            out.push(self.reply(identifier, rsp));
            return;
        }

        // Refusals: unsupported PSM, pairing-protected PSM, channel limit.
        let result = if !self.services.supports(psm) {
            Some(ConnectionResult::RefusedPsmNotSupported)
        } else if !self.services.connectable_without_pairing(psm) {
            Some(ConnectionResult::RefusedSecurityBlock)
        } else if self.ccbs.len() >= self.quirks.max_channels_per_link {
            Some(ConnectionResult::RefusedNoResources)
        } else {
            None
        };
        if let Some(refusal) = result {
            self.rejects_sent += 1;
            let rsp = make_response(Cid::NULL, scid, refusal);
            out.push(self.reply(identifier, rsp));
            return;
        }

        // Accept: allocate a CCB and run its state machine.
        self.ccbs.allocate(psm, scid);
        let (local_cid, actions) = {
            let ccb = self
                .ccbs
                .by_remote(scid)
                .expect("freshly allocated channel must be resolvable");
            let reaction = ccb.machine.on_command(
                if is_create {
                    CommandCode::CreateChannelRequest
                } else {
                    CommandCode::ConnectionRequest
                },
                true,
            );
            (ccb.local_cid, reaction.actions)
        };

        for action in actions {
            match action {
                Action::Respond(
                    CommandCode::ConnectionResponse | CommandCode::CreateChannelResponse,
                ) => {
                    let rsp = make_response(local_cid, scid, ConnectionResult::Success);
                    out.push(self.reply(identifier, rsp));
                }
                Action::Initiate(CommandCode::ConfigureRequest) => {
                    let id = self.next_id();
                    out.push(self.reply(
                        id,
                        Command::ConfigureRequest(ConfigureRequest {
                            dcid: scid,
                            flags: 0,
                            options: vec![ConfigOption::Mtu(DEFAULT_SIGNALING_MTU)],
                        }),
                    ));
                }
                _ => {}
            }
        }
    }

    /// Handles an LE credit-based connection request (`0x14`, one channel)
    /// or an enhanced credit-based connection request (`0x17`, up to five
    /// channels at once).
    #[allow(clippy::too_many_arguments)]
    fn handle_le_connect(
        &mut self,
        identifier: Identifier,
        spsm: u16,
        scids: &[Cid],
        mtu: u16,
        mps: u16,
        initial_credits: u16,
        enhanced: bool,
        out: &mut Vec<L2capFrame>,
    ) {
        let make_response = |dcids: Vec<Cid>, result: u16| {
            if enhanced {
                Command::CreditBasedConnectionResponse(CreditBasedConnectionResponse {
                    mtu,
                    mps,
                    initial_credits: LE_ACCEPT_CREDITS,
                    result,
                    dcids,
                })
            } else {
                Command::LeCreditBasedConnectionResponse(LeCreditBasedConnectionResponse {
                    dcid: dcids.first().copied().unwrap_or(Cid::NULL),
                    mtu,
                    mps,
                    initial_credits: LE_ACCEPT_CREDITS,
                    result,
                })
            }
        };

        // Refusals, in the order the specification checks them: undefined or
        // unsupported SPSM, pairing-protected SPSM, unacceptable parameters
        // (including the five-channel cap of the enhanced request), a source
        // CID already bound to a channel (or repeated within the request),
        // channel budget.
        let psm = Psm(spsm);
        let budget = self
            .quirks
            .max_channels_per_link
            .saturating_sub(self.ccbs.len());
        let scid_taken = |ccbs: &CcbTable, scid: Cid| ccbs.iter().any(|c| c.remote_cid == scid);
        let refusal = if !psm.is_valid_spsm() || !self.services.supports(psm) {
            Some(0x0002) // SPSM not supported
        } else if !self.services.connectable_without_pairing(psm) {
            Some(0x0005) // insufficient authentication
        } else if mtu < LE_MIN_MTU || mps < LE_MIN_MTU || scids.is_empty() || scids.len() > 5 {
            Some(0x000B) // unacceptable parameters
        } else if scids
            .iter()
            .enumerate()
            .any(|(i, scid)| scids[..i].contains(scid) || scid_taken(&self.ccbs, *scid))
        {
            Some(0x000A) // source CID already allocated
        } else if budget == 0 {
            Some(0x0004) // no resources
        } else {
            None
        };
        if let Some(result) = refusal {
            self.rejects_sent += 1;
            out.push(self.reply(identifier, make_response(Vec::new(), result)));
            return;
        }

        let code = if enhanced {
            CommandCode::CreditBasedConnectionRequest
        } else {
            CommandCode::LeCreditBasedConnectionRequest
        };
        let requested = scids.len();
        let mut dcids = Vec::new();
        for scid in scids.iter().take(requested.min(budget)) {
            self.ccbs
                .allocate_on(LinkType::Le, psm, *scid, initial_credits);
            let ccb = self
                .ccbs
                .by_remote(*scid)
                .expect("freshly allocated channel must be resolvable");
            ccb.machine.on_command(code, true);
            dcids.push(ccb.local_cid);
        }
        // Partial grants answer "some connections refused – insufficient
        // resources" while still carrying the allocated DCIDs.
        let result = if dcids.len() < requested { 0x0004 } else { 0 };
        out.push(self.reply(identifier, make_response(dcids, result)));
    }

    /// Handles a flow-control credit indication: accumulates the grant and —
    /// as the specification requires — disconnects the channel when the
    /// accumulated total exceeds 65535.
    fn handle_credit_ind(&mut self, cid: Cid, credits: u16, out: &mut Vec<L2capFrame>) {
        let Some(ccb) = self.ccbs.by_any(cid) else {
            // Credits for a channel that does not exist are ignored silently
            // (an indication has no response to reject with).
            return;
        };
        let (local, remote) = (ccb.local_cid, ccb.remote_cid);
        let overflow = ccb.grant_credits(credits);
        ccb.machine
            .on_command(CommandCode::FlowControlCreditInd, true);
        if overflow {
            self.ccbs.release_by_local(local);
            let id = self.next_id();
            out.push(self.reply(
                id,
                Command::DisconnectionRequest(DisconnectionRequest {
                    dcid: remote,
                    scid: local,
                }),
            ));
        }
    }

    /// Handles an enhanced credit-based reconfigure request over the named
    /// channels.
    fn handle_reconfigure(
        &mut self,
        identifier: Identifier,
        mtu: u16,
        mps: u16,
        dcids: &[Cid],
        out: &mut Vec<L2capFrame>,
    ) {
        let all_known =
            !dcids.is_empty() && dcids.iter().all(|cid| self.ccbs.by_local(*cid).is_some());
        let result = if !all_known {
            0x0002 // invalid destination CID
        } else if mtu < LE_MIN_MTU || mps < LE_MIN_MTU {
            0x0001 // unacceptable parameters
        } else {
            for cid in dcids {
                if let Some(ccb) = self.ccbs.by_local(*cid) {
                    ccb.machine
                        .on_command(CommandCode::CreditBasedReconfigureRequest, true);
                }
            }
            0
        };
        if result != 0 {
            self.rejects_sent += 1;
        }
        out.push(self.reply(
            identifier,
            Command::CreditBasedReconfigureResponse(CreditBasedReconfigureResponse { result }),
        ));
    }

    fn handle_channel_command(
        &mut self,
        packet: SignalingView<'_>,
        code: CommandCode,
        channel_cid: Option<Cid>,
        out: &mut Vec<L2capFrame>,
    ) {
        let Some(local_cid) = channel_cid else {
            // No channel matched.  Responses to requests we never made are
            // either ignored (lenient) or rejected; channel requests with an
            // unknown CID are rejected with "invalid CID".
            if code.is_response() && self.quirks.lenient_unexpected_responses {
                return;
            }
            let reason = if code.is_response() {
                RejectReason::CommandNotUnderstood
            } else {
                RejectReason::InvalidCidInRequest
            };
            out.push(self.reject(packet.identifier, reason, Vec::new()));
            return;
        };

        // Moves are refused outright on stacks without AMP support.
        if matches!(code, CommandCode::MoveChannelRequest) && !self.quirks.supports_amp_channels {
            let icid = self
                .ccbs
                .by_local(local_cid)
                .map(|c| c.remote_cid)
                .unwrap_or(Cid::NULL);
            self.rejects_sent += 1;
            out.push(self.reply(
                packet.identifier,
                Command::MoveChannelResponse(MoveChannelResponse {
                    icid,
                    result: MoveResult::RefusedNotAllowed,
                }),
            ));
            return;
        }

        let (remote_cid, reaction) = {
            let ccb = self
                .ccbs
                .by_local(local_cid)
                .expect("resolved channel must exist");
            (ccb.remote_cid, ccb.machine.on_command(code, true))
        };

        let mut release = false;
        for action in &reaction.actions {
            match action {
                Action::Respond(CommandCode::ConfigureResponse) => {
                    out.push(self.reply(
                        packet.identifier,
                        Command::ConfigureResponse(ConfigureResponse {
                            scid: remote_cid,
                            flags: 0,
                            result: ConfigureResult::Success,
                            options: Vec::new(),
                        }),
                    ));
                }
                Action::Respond(CommandCode::DisconnectionResponse) => {
                    out.push(self.reply(
                        packet.identifier,
                        Command::DisconnectionResponse(DisconnectionResponse {
                            dcid: local_cid,
                            scid: remote_cid,
                        }),
                    ));
                    release = true;
                }
                Action::Respond(CommandCode::MoveChannelResponse) => {
                    out.push(self.reply(
                        packet.identifier,
                        Command::MoveChannelResponse(MoveChannelResponse {
                            icid: remote_cid,
                            result: MoveResult::Success,
                        }),
                    ));
                }
                Action::Respond(CommandCode::MoveChannelConfirmationResponse) => {
                    out.push(self.reply(
                        packet.identifier,
                        Command::MoveChannelConfirmationResponse(MoveChannelConfirmationResponse {
                            icid: remote_cid,
                        }),
                    ));
                }
                Action::Respond(other) => {
                    // Generic response we do not model structurally.
                    out.push(self.reply(
                        packet.identifier,
                        Command::Raw {
                            code: other.value(),
                            data: Vec::new(),
                        },
                    ));
                }
                Action::Initiate(CommandCode::ConfigureRequest) => {
                    let id = self.next_id();
                    out.push(self.reply(
                        id,
                        Command::ConfigureRequest(ConfigureRequest {
                            dcid: remote_cid,
                            flags: 0,
                            options: vec![ConfigOption::Mtu(DEFAULT_SIGNALING_MTU)],
                        }),
                    ));
                }
                Action::Initiate(_) => {}
                Action::Reject(reason) => {
                    if code.is_response() && self.quirks.lenient_unexpected_responses {
                        // Quirk: unexpected responses are dropped silently.
                        continue;
                    }
                    out.push(self.reject(packet.identifier, *reason, Vec::new()));
                }
                Action::Ignore => {}
            }
        }
        if release {
            self.ccbs.release_by_local(local_cid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::VendorStack;
    use l2cap::command::{
        ConnectionRequest, DisconnectionRequest, EchoRequest, InformationRequest,
    };
    use l2cap::packet::{signaling_frame, SignalingPacket};

    fn endpoint(stack: VendorStack, services: ServiceTable) -> L2capEndpoint {
        L2capEndpoint::new(
            stack.default_quirks(),
            services,
            Vec::new(),
            FuzzRng::seed_from(7),
        )
    }

    fn connect_frame(psm: Psm, scid: u16, id: u8) -> L2capFrame {
        signaling_frame(
            Identifier(id),
            &Command::ConnectionRequest(ConnectionRequest {
                psm,
                scid: Cid(scid),
            }),
        )
    }

    impl L2capEndpoint {
        /// The replies to one frame, which must not fire a vulnerability.
        fn replies(&mut self, frame: &L2capFrame) -> Vec<L2capFrame> {
            let mut out = Vec::new();
            assert!(self.handle_frame(frame, &mut out).is_none());
            out
        }
    }

    fn first_command(frames: &[L2capFrame]) -> Vec<Command> {
        frames
            .iter()
            .map(|f| l2cap::packet::parse_signaling(f).unwrap().command())
            .collect()
    }

    #[test]
    fn sdp_connect_succeeds_and_allocates_a_channel() {
        let mut ep = endpoint(VendorStack::BlueDroid, ServiceTable::typical(6));
        let out = ep.replies(&connect_frame(Psm::SDP, 0x0040, 1));
        let cmds = first_command(&out);
        match &cmds[0] {
            Command::ConnectionResponse(rsp) => {
                assert_eq!(rsp.result, ConnectionResult::Success);
                assert_eq!(rsp.scid, Cid(0x0040));
                assert!(rsp.dcid.is_dynamic());
            }
            other => panic!("expected connection response, got {other:?}"),
        }
        assert_eq!(ep.open_channels(), 1);

        // The device's own Configuration Request goes out as soon as the
        // initiator sends configuration traffic for the channel.
        let out = ep.replies(&signaling_frame(
            Identifier(2),
            &Command::ConfigureRequest(ConfigureRequest {
                dcid: Cid(0x0040),
                flags: 0,
                options: vec![],
            }),
        ));
        let cmds = first_command(&out);
        assert!(cmds
            .iter()
            .any(|c| matches!(c, Command::ConfigureRequest(_))));
        assert!(cmds
            .iter()
            .any(|c| matches!(c, Command::ConfigureResponse(_))));
    }

    #[test]
    fn unsupported_psm_is_refused() {
        let mut ep = endpoint(VendorStack::BlueDroid, ServiceTable::sdp_only());
        let out = ep.replies(&connect_frame(Psm::AVDTP, 0x0040, 1));
        match &first_command(&out)[0] {
            Command::ConnectionResponse(rsp) => {
                assert_eq!(rsp.result, ConnectionResult::RefusedPsmNotSupported)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ep.open_channels(), 0);
    }

    #[test]
    fn pairing_protected_psm_is_refused_with_security_block() {
        let mut ep = endpoint(VendorStack::BlueDroid, ServiceTable::typical(6));
        let out = ep.replies(&connect_frame(Psm::HID_CONTROL, 0x0040, 1));
        match &first_command(&out)[0] {
            Command::ConnectionResponse(rsp) => {
                assert_eq!(rsp.result, ConnectionResult::RefusedSecurityBlock)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn channel_limit_refuses_with_no_resources() {
        let mut ep = endpoint(VendorStack::AppleRtkit, ServiceTable::typical(6));
        let limit = VendorStack::AppleRtkit
            .default_quirks()
            .max_channels_per_link;
        for i in 0..limit {
            let out = ep.replies(&connect_frame(Psm::SDP, 0x0040 + i as u16, i as u8 + 1));
            match &first_command(&out)[0] {
                Command::ConnectionResponse(rsp) => {
                    assert_eq!(rsp.result, ConnectionResult::Success)
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let out = ep.replies(&connect_frame(Psm::SDP, 0x00A0, 99));
        match &first_command(&out)[0] {
            Command::ConnectionResponse(rsp) => {
                assert_eq!(rsp.result, ConnectionResult::RefusedNoResources)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn echo_and_information_requests_are_answered() {
        let mut ep = endpoint(VendorStack::BlueZ, ServiceTable::typical(13));
        let out = ep.replies(&signaling_frame(
            Identifier(9),
            &Command::EchoRequest(EchoRequest {
                data: vec![1, 2, 3],
            }),
        ));
        assert!(matches!(first_command(&out)[0], Command::EchoResponse(_)));

        let out = ep.replies(&signaling_frame(
            Identifier(10),
            &Command::InformationRequest(InformationRequest { info_type: 2 }),
        ));
        match &first_command(&out)[0] {
            Command::InformationResponse(rsp) => assert_eq!(rsp.result, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn echo_reply_carries_the_request_data_garbage_included() {
        let mut ep = endpoint(VendorStack::BlueDroid, ServiceTable::typical(6));
        // Declares two data bytes but carries five.
        let packet = SignalingPacket {
            identifier: Identifier(4),
            code: 0x08,
            declared_data_len: 2,
            data: vec![1, 2, 3, 4, 5].into(),
        };
        let out = ep.replies(&packet.into_frame());
        let echo = l2cap::command::EchoResponse {
            data: vec![1, 2, 3, 4, 5],
        };
        assert_eq!(
            out,
            vec![signaling_frame(Identifier(4), &Command::EchoResponse(echo))]
        );

        // Empty data; 49 bytes, the largest C-frame kept inline; and 50 and
        // 600 bytes, which take the shared representation (600 stays under
        // the signalling MTU).
        for len in [0, 49, 50, 600] {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 + 1) as u8).collect();
            let request = SignalingPacket::from_raw(Identifier(5), 0x08, data.clone());
            let out = ep.replies(&request.into_frame());
            let echo = l2cap::command::EchoResponse { data };
            assert_eq!(
                out,
                vec![signaling_frame(Identifier(5), &Command::EchoResponse(echo))],
                "{len} data bytes"
            );
            // Only a shared buffer's clone shares its storage.
            let reply = &out[0].payload;
            assert_eq!(reply.shares_storage_with(&reply.clone()), len > 49);
        }
    }

    #[test]
    fn full_handshake_reaches_open_and_disconnect_frees_the_channel() {
        let mut ep = endpoint(VendorStack::BlueDroid, ServiceTable::typical(6));
        ep.replies(&connect_frame(Psm::SDP, 0x0040, 1));

        // Fuzzer sends its Configure Request addressed to the allocated DCID.
        let dcid = 0x0040u16; // first allocation
        let out = ep.replies(&signaling_frame(
            Identifier(2),
            &Command::ConfigureRequest(ConfigureRequest {
                dcid: Cid(dcid),
                flags: 0,
                options: vec![ConfigOption::Mtu(672)],
            }),
        ));
        assert!(first_command(&out)
            .iter()
            .any(|c| matches!(c, Command::ConfigureResponse(_))));

        // Fuzzer answers the device's own Configure Request.
        ep.replies(&signaling_frame(
            Identifier(1),
            &Command::ConfigureResponse(ConfigureResponse {
                scid: Cid(dcid),
                flags: 0,
                result: ConfigureResult::Success,
                options: Vec::new(),
            }),
        ));
        assert!(ep.visited_states().contains(&ChannelState::Open));

        let out = ep.replies(&signaling_frame(
            Identifier(3),
            &Command::DisconnectionRequest(DisconnectionRequest {
                dcid: Cid(dcid),
                scid: Cid(0x0040),
            }),
        ));
        assert!(matches!(
            first_command(&out)[0],
            Command::DisconnectionResponse(_)
        ));
        assert_eq!(ep.open_channels(), 0);
        // The freed channel's states are still counted.
        assert!(ep.visited_states().contains(&ChannelState::Open));
    }

    #[test]
    fn unknown_cid_in_request_is_rejected_on_strict_stacks() {
        let mut ep = endpoint(VendorStack::Windows, ServiceTable::typical(10));
        let out = ep.replies(&signaling_frame(
            Identifier(5),
            &Command::DisconnectionRequest(DisconnectionRequest {
                dcid: Cid(0x0999),
                scid: Cid(0x0998),
            }),
        ));
        match &first_command(&out)[0] {
            Command::CommandReject(rej) => {
                assert_eq!(rej.reason, RejectReason::InvalidCidInRequest)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ep.rejects_sent(), 1);
    }

    #[test]
    fn lenient_stack_routes_mismatched_config_cid_to_latest_channel() {
        let mut ep = endpoint(VendorStack::BlueDroid, ServiceTable::typical(6));
        ep.replies(&connect_frame(Psm::SDP, 0x0040, 1));
        // Configure Request with a DCID the device never allocated.
        let out = ep.replies(&signaling_frame(
            Identifier(2),
            &Command::ConfigureRequest(ConfigureRequest {
                dcid: Cid(0x7B8F),
                flags: 0,
                options: Vec::new(),
            }),
        ));
        // Not rejected: the lenient stack processed it against the open
        // channel.
        assert!(first_command(&out)
            .iter()
            .any(|c| matches!(c, Command::ConfigureResponse(_))));
    }

    #[test]
    fn oversized_signaling_packet_is_rejected_with_mtu_exceeded() {
        let mut ep = endpoint(VendorStack::BlueDroid, ServiceTable::typical(6));
        let packet = SignalingPacket::from_raw(Identifier(7), 0x08, vec![0xAA; 700]);
        let frame = packet.into_frame();
        let out = ep.replies(&frame);
        match &first_command(&out)[0] {
            Command::CommandReject(rej) => {
                assert_eq!(rej.reason, RejectReason::SignalingMtuExceeded)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn strict_stack_silently_drops_garbage_packets() {
        let mut ep = endpoint(VendorStack::AppleIos, ServiceTable::typical(8));
        // Connection request with a garbage tail.
        let mut data = vec![0x01, 0x00, 0x40, 0x00];
        data.extend_from_slice(&[0xD2, 0x3A, 0x91, 0x0E]);
        let packet = SignalingPacket {
            identifier: Identifier(3),
            code: 0x02,
            declared_data_len: 4,
            data: data.into(),
        };
        let out = ep.replies(&packet.into_frame());
        assert!(out.is_empty());
    }

    #[test]
    fn seeded_vulnerability_fires_on_matching_malformed_packet() {
        let vuln = VulnerabilitySpec::bluedroid_config_null_deref(1.0);
        let mut ep = L2capEndpoint::new(
            VendorStack::BlueDroid.default_quirks(),
            ServiceTable::typical(6),
            vec![vuln.clone()],
            FuzzRng::seed_from(11),
        );
        ep.replies(&connect_frame(Psm::SDP, 0x0040, 1));

        // Malformed Configure Request: unallocated DCID plus garbage.
        let packet = SignalingPacket {
            identifier: Identifier(6),
            code: 0x04,
            declared_data_len: 8,
            data: vec![
                0x8F, 0x7B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD2, 0x3A, 0x91, 0x0E,
            ]
            .into(),
        };
        let mut out = Vec::new();
        let fired = ep.handle_frame(&packet.into_frame(), &mut out);
        assert_eq!(
            fired.as_ref().map(|v| v.id.as_str()),
            Some(vuln.id.as_str())
        );
        assert!(out.is_empty());
    }

    #[test]
    fn well_formed_traffic_never_triggers_the_seeded_vulnerability() {
        let vuln = VulnerabilitySpec::bluedroid_config_null_deref(1.0);
        let mut ep = L2capEndpoint::new(
            VendorStack::BlueDroid.default_quirks(),
            ServiceTable::typical(6),
            vec![vuln],
            FuzzRng::seed_from(11),
        );
        // `replies` asserts that neither frame fires the vulnerability.
        ep.replies(&connect_frame(Psm::SDP, 0x0040, 1));
        ep.replies(&signaling_frame(
            Identifier(2),
            &Command::ConfigureRequest(ConfigureRequest {
                dcid: Cid(0x0040),
                flags: 0,
                options: vec![ConfigOption::Mtu(672)],
            }),
        ));
    }

    #[test]
    fn unknown_command_code_gets_command_not_understood() {
        let mut ep = endpoint(VendorStack::BlueZ, ServiceTable::typical(13));
        let packet = SignalingPacket::from_raw(Identifier(1), 0x7E, vec![1, 2, 3]);
        let out = ep.replies(&packet.into_frame());
        match &first_command(&out)[0] {
            Command::CommandReject(rej) => {
                assert_eq!(rej.reason, RejectReason::CommandNotUnderstood)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_signaling_frames_are_consumed_silently() {
        let mut ep = endpoint(VendorStack::BlueDroid, ServiceTable::typical(6));
        let out = ep.replies(&L2capFrame::new(Cid(0x0040), vec![1, 2, 3]));
        assert!(out.is_empty());
        assert_eq!(ep.packets_processed(), 0);
    }

    fn le_endpoint(services: ServiceTable) -> L2capEndpoint {
        L2capEndpoint::new_on(
            LinkType::Le,
            VendorStack::Zephyr.default_quirks(),
            services,
            Vec::new(),
            FuzzRng::seed_from(7),
        )
    }

    fn le_connect_frame(spsm: u16, scid: u16, id: u8) -> L2capFrame {
        signaling_frame(
            Identifier(id),
            &Command::LeCreditBasedConnectionRequest(
                l2cap::command::LeCreditBasedConnectionRequest {
                    spsm,
                    scid: Cid(scid),
                    mtu: 512,
                    mps: 64,
                    initial_credits: 8,
                },
            ),
        )
    }

    #[test]
    fn le_credit_based_connect_succeeds_on_a_supported_spsm() {
        let mut ep = le_endpoint(ServiceTable::le_typical(3));
        let out = ep.replies(&le_connect_frame(Psm::EATT.value(), 0x0040, 1));
        match &first_command(&out)[0] {
            Command::LeCreditBasedConnectionResponse(rsp) => {
                assert_eq!(rsp.result, 0);
                assert!(rsp.dcid.is_dynamic());
                assert!(rsp.initial_credits > 0);
            }
            other => panic!("expected LE credit based response, got {other:?}"),
        }
        assert_eq!(ep.open_channels(), 1);
        // The channel went straight to OPEN — no configuration phase on LE.
        assert!(ep.visited_states().contains(&ChannelState::Open));
        assert!(!ep
            .visited_states()
            .contains(&ChannelState::WaitConfigReqRsp));
    }

    #[test]
    fn le_connect_refusals_use_the_spec_result_codes() {
        let mut ep = le_endpoint(ServiceTable::le_typical(4));
        // Undefined SPSM (outside 0x0001..=0x00FF).
        let out = ep.replies(&le_connect_frame(0x1234, 0x0040, 1));
        match &first_command(&out)[0] {
            Command::LeCreditBasedConnectionResponse(rsp) => assert_eq!(rsp.result, 0x0002),
            other => panic!("unexpected {other:?}"),
        }
        // Pairing-protected SPSM.
        let out = ep.replies(&le_connect_frame(0x0081, 0x0041, 2));
        match &first_command(&out)[0] {
            Command::LeCreditBasedConnectionResponse(rsp) => assert_eq!(rsp.result, 0x0005),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ep.open_channels(), 0);
    }

    #[test]
    fn enhanced_connect_opens_up_to_five_channels_and_reconfigure_works() {
        let mut ep = le_endpoint(ServiceTable::le_typical(3));
        let scids: Vec<Cid> = (0x0040..0x0045).map(Cid).collect();
        let out = ep.replies(&signaling_frame(
            Identifier(1),
            &Command::CreditBasedConnectionRequest(l2cap::command::CreditBasedConnectionRequest {
                spsm: Psm::EATT.value(),
                mtu: 247,
                mps: 64,
                initial_credits: 4,
                scids: scids.clone(),
            }),
        ));
        let dcids = match &first_command(&out)[0] {
            Command::CreditBasedConnectionResponse(rsp) => {
                // Five channels requested against Zephyr's budget of four:
                // a partial grant with "some refused – no resources".
                assert_eq!(rsp.result, 0x0004);
                assert_eq!(rsp.dcids.len(), 4);
                rsp.dcids.clone()
            }
            other => panic!("unexpected {other:?}"),
        };
        let out = ep.replies(&signaling_frame(
            Identifier(2),
            &Command::CreditBasedReconfigureRequest(
                l2cap::command::CreditBasedReconfigureRequest {
                    mtu: 1024,
                    mps: 128,
                    dcids,
                },
            ),
        ));
        match &first_command(&out)[0] {
            Command::CreditBasedReconfigureResponse(rsp) => assert_eq!(rsp.result, 0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(ep.visited_states().contains(&ChannelState::WaitConfig));
    }

    #[test]
    fn reused_or_repeated_source_cids_are_refused_with_0x000a() {
        let mut ep = le_endpoint(ServiceTable::le_typical(3));
        ep.replies(&le_connect_frame(Psm::EATT.value(), 0x0040, 1));
        assert_eq!(ep.open_channels(), 1);
        // A second connect reusing the bound SCID: refused, nothing leaks.
        let out = ep.replies(&le_connect_frame(Psm::EATT.value(), 0x0040, 2));
        match &first_command(&out)[0] {
            Command::LeCreditBasedConnectionResponse(rsp) => assert_eq!(rsp.result, 0x000A),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ep.open_channels(), 1);
        // An enhanced request repeating an SCID within itself: same refusal.
        let out = ep.replies(&signaling_frame(
            Identifier(3),
            &Command::CreditBasedConnectionRequest(l2cap::command::CreditBasedConnectionRequest {
                spsm: Psm::EATT.value(),
                mtu: 247,
                mps: 64,
                initial_credits: 4,
                scids: vec![Cid(0x0050), Cid(0x0050)],
            }),
        ));
        match &first_command(&out)[0] {
            Command::CreditBasedConnectionResponse(rsp) => {
                assert_eq!(rsp.result, 0x000A);
                assert!(rsp.dcids.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ep.open_channels(), 1);
    }

    #[test]
    fn enhanced_connect_with_more_than_five_channels_is_refused() {
        let mut ep = le_endpoint(ServiceTable::le_typical(3));
        let out = ep.replies(&signaling_frame(
            Identifier(1),
            &Command::CreditBasedConnectionRequest(l2cap::command::CreditBasedConnectionRequest {
                spsm: Psm::EATT.value(),
                mtu: 247,
                mps: 64,
                initial_credits: 4,
                scids: (0x0040..0x0046).map(Cid).collect(),
            }),
        ));
        match &first_command(&out)[0] {
            Command::CreditBasedConnectionResponse(rsp) => {
                assert_eq!(rsp.result, 0x000B);
                assert!(rsp.dcids.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ep.open_channels(), 0);
    }

    #[test]
    fn credit_overflow_disconnects_the_channel() {
        let mut ep = le_endpoint(ServiceTable::le_typical(3));
        ep.replies(&le_connect_frame(Psm::EATT.value(), 0x0040, 1));
        assert_eq!(ep.open_channels(), 1);
        // Two maximal grants push the accumulated total past 65535; the
        // acceptor must disconnect per the specification.
        let grant = |credits: u16, id: u8| {
            signaling_frame(
                Identifier(id),
                &Command::FlowControlCreditInd(l2cap::command::FlowControlCreditInd {
                    cid: Cid(0x0040),
                    credits,
                }),
            )
        };
        let out = ep.replies(&grant(0xFFF0, 2));
        assert!(out.is_empty());
        let out = ep.replies(&grant(0xFFF0, 3));
        assert!(matches!(
            first_command(&out)[0],
            Command::DisconnectionRequest(_)
        ));
        assert_eq!(ep.open_channels(), 0);
    }

    #[test]
    fn classic_commands_are_rejected_on_le_symmetrically() {
        let mut ep = le_endpoint(ServiceTable::le_typical(3));
        for frame in [
            connect_frame(Psm::SDP, 0x0040, 1),
            signaling_frame(
                Identifier(2),
                &Command::EchoRequest(EchoRequest { data: vec![1] }),
            ),
            signaling_frame(
                Identifier(3),
                &Command::ConfigureRequest(ConfigureRequest {
                    dcid: Cid(0x0040),
                    flags: 0,
                    options: vec![],
                }),
            ),
        ] {
            let out = ep.replies(&frame);
            match &first_command(&out)[0] {
                Command::CommandReject(rej) => {
                    assert_eq!(rej.reason, RejectReason::CommandNotUnderstood)
                }
                other => panic!("classic command must be rejected on LE, got {other:?}"),
            }
        }
        assert_eq!(ep.open_channels(), 0);
    }

    #[test]
    fn move_refused_without_amp_support() {
        let mut ep = endpoint(VendorStack::Windows, ServiceTable::typical(10));
        ep.replies(&connect_frame(Psm::SDP, 0x0040, 1));
        let out = ep.replies(&signaling_frame(
            Identifier(4),
            &Command::MoveChannelRequest(l2cap::command::MoveChannelRequest {
                icid: Cid(0x0040),
                dest_controller_id: 1,
            }),
        ));
        match &first_command(&out)[0] {
            Command::MoveChannelResponse(rsp) => {
                assert_eq!(rsp.result, MoveResult::RefusedNotAllowed)
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
