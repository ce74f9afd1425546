//! Reproduces the paper's Fig. 7 worked example of core field mutating, then
//! shows what the generic mutator produces for the same command.
//!
//! Run with: `cargo run --example mutate_config_req`

use btcore::codec::hex_dump;
use btcore::{Cid, FuzzRng, Identifier, Psm};
use l2cap::code::CommandCode;
use l2fuzz::guide::ChannelContext;
use l2fuzz::mutator::CoreFieldMutator;

fn main() {
    let (original, mutated) = CoreFieldMutator::fig7_example();
    println!("Fig. 7 original : {}", hex_dump(&original.to_bytes()));
    println!("Fig. 7 mutated  : {}", hex_dump(&mutated.to_bytes()));
    println!("garbage bytes   : {}", mutated.garbage_len());

    let mut mutator = CoreFieldMutator::new(FuzzRng::seed_from(7));
    let ctx = ChannelContext {
        scid: Cid(0x0040),
        dcid: Cid(0x0040),
        psm: Psm::SDP,
    };
    println!("\nGenerated Config Req mutations:");
    for i in 1..=5u8 {
        // The mutator returns the L2CAP frame; its payload is the C-frame.
        let frame = mutator.mutate(CommandCode::ConfigureRequest, &ctx, Identifier(i));
        println!("  {}", hex_dump(&frame.payload));
    }
}
