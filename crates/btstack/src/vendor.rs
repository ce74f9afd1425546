//! Vendor stack identities and behavioural quirks.
//!
//! The paper stresses that "Bluetooth devices did not always display the
//! exact same operations as defined in the documentation" (§III-C) — e.g.
//! some Android devices accept a Connect Rsp in the `WAIT_CONNECT` state.
//! [`Quirks`] captures those per-vendor deviations; they are what makes the
//! difference between a target that strictly rejects every out-of-place
//! packet and one whose lenient parsing reaches vulnerable code.

use std::fmt;

/// The Bluetooth host stacks represented in the paper's device table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VendorStack {
    /// Android's BlueDroid / Fluoride stack.
    BlueDroid,
    /// The Linux BlueZ stack.
    BlueZ,
    /// Apple's iOS Bluetooth stack.
    AppleIos,
    /// Apple's RTKit firmware stack (AirPods).
    AppleRtkit,
    /// The Microsoft Windows Bluetooth stack.
    Windows,
    /// Broadcom/Samsung BTW stack (Galaxy Buds+).
    Btw,
    /// The Zephyr RTOS Bluetooth LE stack (wearables, sensors).
    Zephyr,
}

impl VendorStack {
    /// All seven stacks.
    pub const ALL: [VendorStack; 7] = [
        VendorStack::BlueDroid,
        VendorStack::BlueZ,
        VendorStack::AppleIos,
        VendorStack::AppleRtkit,
        VendorStack::Windows,
        VendorStack::Btw,
        VendorStack::Zephyr,
    ];

    /// Default behavioural quirks of this stack family.
    pub fn default_quirks(&self) -> Quirks {
        match self {
            VendorStack::BlueDroid => Quirks {
                lenient_cid_validation_in_config: true,
                lenient_unexpected_responses: true,
                supports_amp_channels: true,
                max_channels_per_link: 7,
                strict_malformed_filtering: false,
                supports_echo: true,
            },
            VendorStack::BlueZ => Quirks {
                lenient_cid_validation_in_config: true,
                lenient_unexpected_responses: false,
                supports_amp_channels: true,
                max_channels_per_link: 10,
                strict_malformed_filtering: false,
                supports_echo: true,
            },
            VendorStack::AppleIos => Quirks {
                lenient_cid_validation_in_config: false,
                lenient_unexpected_responses: false,
                supports_amp_channels: false,
                max_channels_per_link: 8,
                strict_malformed_filtering: true,
                supports_echo: true,
            },
            VendorStack::AppleRtkit => Quirks {
                lenient_cid_validation_in_config: false,
                lenient_unexpected_responses: true,
                supports_amp_channels: false,
                max_channels_per_link: 4,
                strict_malformed_filtering: false,
                supports_echo: true,
            },
            VendorStack::Windows => Quirks {
                lenient_cid_validation_in_config: false,
                lenient_unexpected_responses: false,
                supports_amp_channels: false,
                max_channels_per_link: 10,
                strict_malformed_filtering: true,
                supports_echo: true,
            },
            VendorStack::Btw => Quirks {
                lenient_cid_validation_in_config: false,
                lenient_unexpected_responses: false,
                supports_amp_channels: false,
                max_channels_per_link: 5,
                strict_malformed_filtering: true,
                supports_echo: true,
            },
            VendorStack::Zephyr => Quirks {
                lenient_cid_validation_in_config: false,
                lenient_unexpected_responses: true,
                supports_amp_channels: false,
                max_channels_per_link: 4,
                strict_malformed_filtering: false,
                // An LE-only stack never sees an ACL-U echo request; the
                // link-type table rejects it before this quirk is consulted.
                supports_echo: false,
            },
        }
    }
}

impl fmt::Display for VendorStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VendorStack::BlueDroid => "BlueDroid",
            VendorStack::BlueZ => "BlueZ",
            VendorStack::AppleIos => "iOS stack",
            VendorStack::AppleRtkit => "RTKit stack",
            VendorStack::Windows => "Windows stack",
            VendorStack::Btw => "BTW",
            VendorStack::Zephyr => "Zephyr",
        };
        f.write_str(s)
    }
}

/// Behavioural deviations from the specification exhibited by a stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quirks {
    /// In configuration-job states, channel IDs carried in payloads are *not*
    /// validated against the allocated channel before use (the BlueDroid
    /// behaviour behind the paper's case-study null-pointer dereference).
    pub lenient_cid_validation_in_config: bool,
    /// Unexpected response commands (e.g. a Connect Rsp while waiting for a
    /// Connect Req) are silently ignored instead of rejected.
    pub lenient_unexpected_responses: bool,
    /// The stack processes AMP Create/Move Channel commands (otherwise they
    /// are refused).
    pub supports_amp_channels: bool,
    /// Maximum simultaneous L2CAP channels per ACL link; further connection
    /// requests are refused with "no resources".
    pub max_channels_per_link: usize,
    /// The stack runs an additional sanity filter over incoming signalling
    /// packets (length-consistency and garbage checks) and silently drops
    /// anything suspicious before it reaches command handling.  This models
    /// the proprietary exception-handling logic the paper credits for the
    /// three devices in which no vulnerability was found (§IV-B).
    pub strict_malformed_filtering: bool,
    /// The stack answers L2CAP Echo Requests (all BR/EDR stacks do).
    pub supports_echo: bool,
}

impl Default for Quirks {
    fn default() -> Self {
        VendorStack::BlueDroid.default_quirks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stack_has_quirks_and_a_name() {
        for stack in VendorStack::ALL {
            let q = stack.default_quirks();
            assert!(q.max_channels_per_link > 0);
            // Every classic stack answers L2CAP echo; the LE-only Zephyr
            // stack never sees one.
            assert_eq!(q.supports_echo, stack != VendorStack::Zephyr);
            assert!(!stack.to_string().is_empty());
        }
    }

    #[test]
    fn bluedroid_is_lenient_and_supports_amp() {
        let q = VendorStack::BlueDroid.default_quirks();
        assert!(q.lenient_cid_validation_in_config);
        assert!(q.supports_amp_channels);
        assert!(!q.strict_malformed_filtering);
    }

    #[test]
    fn hardened_stacks_filter_malformed_packets() {
        for stack in [
            VendorStack::AppleIos,
            VendorStack::Windows,
            VendorStack::Btw,
        ] {
            assert!(
                stack.default_quirks().strict_malformed_filtering,
                "{stack} should filter malformed packets"
            );
        }
        assert!(
            !VendorStack::BlueZ
                .default_quirks()
                .strict_malformed_filtering
        );
    }

    #[test]
    fn stack_names_are_unique() {
        let mut names: Vec<String> = VendorStack::ALL.iter().map(|s| s.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 7);
    }
}
