//! Field classification of the Bluetooth 5.2 L2CAP frame (paper Fig. 6).
//!
//! The paper segments a packet `L` into fixed (`F`), dependent (`D`) and
//! mutable (`M`) fields, and further splits `M` into *mutable core* fields
//! (`MC` — PSM and the channel IDs carried in payloads, "CIDP") and *mutable
//! application* fields (`MA` — everything else).  Core-field mutation changes
//! only `MC`, keeps `F` and `D` intact and leaves `MA` at default values.
//!
//! This module provides that classification programmatically: a
//! [`FieldClass`] for every [`FieldName`], plus byte-accurate
//! [`FieldSpec`] layouts of the data fields of every signalling command, so a
//! mutator can locate and patch `MC` bytes inside an encoded payload without
//! disturbing anything else.  The layouts are not written here: the command
//! table in [`command`](crate::command), which also generates each command's
//! struct, encoder, decoder and validity check, lays them out from the
//! widths of each command's fields, so a layout cannot disagree with the
//! codec.
//!
//! The per-packet readers — [`extract_core_values`], [`extract_le_values`],
//! [`garbage_len`] and [`min_data_len`], called by the mutator, the
//! simulated endpoints and every sniffer pass — do not scan a layout.  A
//! `const` table, derived at compile time from those generated layouts, holds
//! one entry per command code: the offsets and widths of its PSM, CIDP,
//! SPSM, MTU, MPS and credit fields, its minimum data length and whether
//! its layout ends in a variable tail.  Each reader is one indexed load and
//! the reads of the fields the entry names.

use std::fmt;

use crate::code::CommandCode;

/// The paper's four-way field classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldClass {
    /// `F` — fixed fields; only the header CID (always `0x0001`).
    Fixed,
    /// `D` — dependent fields; values determined by other values
    /// (lengths, the command code, the packet identifier).
    Dependent,
    /// `MC` — mutable core fields; determine the port and channel of the
    /// Bluetooth network (PSM and CIDP).
    MutableCore,
    /// `MA` — mutable application fields; command-specific data that does not
    /// affect port or channel management.
    MutableApp,
}

impl fmt::Display for FieldClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FieldClass::Fixed => "F",
            FieldClass::Dependent => "D",
            FieldClass::MutableCore => "MC",
            FieldClass::MutableApp => "MA",
        };
        f.write_str(s)
    }
}

/// Every field name appearing in the Fig. 6 frame classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FieldName {
    // L2CAP basic header and C-frame header.
    PayloadLen,
    HeaderCid,
    Code,
    Id,
    DataLen,
    // Mutable core fields (MC).
    Psm,
    Scid,
    Dcid,
    Icid,
    ContId,
    // Mutable application fields (MA).
    Reason,
    Result,
    Status,
    Flags,
    InfoType,
    Interval,
    Latency,
    Timeout,
    Spsm,
    Mtu,
    Credit,
    Mps,
    Options,
    QoS,
    /// Free-form command data (echo payloads, info response bodies, ...).
    Data,
}

impl FieldName {
    /// Returns the paper's classification for this field (Fig. 6).
    pub const fn class(&self) -> FieldClass {
        match self {
            FieldName::HeaderCid => FieldClass::Fixed,
            FieldName::PayloadLen | FieldName::Code | FieldName::Id | FieldName::DataLen => {
                FieldClass::Dependent
            }
            FieldName::Psm
            | FieldName::Scid
            | FieldName::Dcid
            | FieldName::Icid
            | FieldName::ContId => FieldClass::MutableCore,
            _ => FieldClass::MutableApp,
        }
    }

    /// Returns `true` if the field is one of the "Channel ID in Payload"
    /// (CIDP) fields: SCID, DCID, ICID or the controller ID.
    pub const fn is_cidp(&self) -> bool {
        matches!(
            self,
            FieldName::Scid | FieldName::Dcid | FieldName::Icid | FieldName::ContId
        )
    }
}

impl fmt::Display for FieldName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FieldName::PayloadLen => "PAYLOAD LEN",
            FieldName::HeaderCid => "HEADER CID",
            FieldName::Code => "CODE",
            FieldName::Id => "ID",
            FieldName::DataLen => "DATA LEN",
            FieldName::Psm => "PSM",
            FieldName::Scid => "SCID",
            FieldName::Dcid => "DCID",
            FieldName::Icid => "ICID",
            FieldName::ContId => "CONT ID",
            FieldName::Reason => "REASON",
            FieldName::Result => "RESULT",
            FieldName::Status => "STATUS",
            FieldName::Flags => "FLAGS",
            FieldName::InfoType => "TYPE",
            FieldName::Interval => "INTERVAL",
            FieldName::Latency => "LATENCY",
            FieldName::Timeout => "TIMEOUT",
            FieldName::Spsm => "SPSM",
            FieldName::Mtu => "MTU",
            FieldName::Credit => "CREDIT",
            FieldName::Mps => "MPS",
            FieldName::Options => "OPT",
            FieldName::QoS => "QoS",
            FieldName::Data => "DATA",
        };
        f.write_str(s)
    }
}

/// Location of one field within a command's data-field bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// Which field this is.
    pub name: FieldName,
    /// Byte offset from the start of the data fields.
    pub offset: usize,
    /// Field width in bytes; `None` means "variable, extends to the end".
    pub len: Option<usize>,
}

impl FieldSpec {
    /// Returns the classification of this field.
    pub const fn class(&self) -> FieldClass {
        self.name.class()
    }
}

/// Returns the data-field layout of `code` (offsets are relative to the start
/// of the command's data fields, i.e. after CODE / ID / DATA LEN).
///
/// The layouts are constant tables, generated from the command table in
/// [`command`](crate::command) with each offset summed from the widths of
/// the fields before it: the slice is `'static` and this function never
/// allocates, which matters because the mutator walks a layout for every
/// packet it writes.  The per-packet field readers go through the field
/// table derived from these layouts instead.
pub const fn data_field_layout(code: CommandCode) -> &'static [FieldSpec] {
    crate::command::layout(code)
}

/// Returns the mutable-core fields (`MC`) of a command's data layout — the
/// fields core-field mutation is allowed to touch.
pub fn mutable_core_fields(code: CommandCode) -> impl Iterator<Item = FieldSpec> {
    data_field_layout(code)
        .iter()
        .copied()
        .filter(|spec| spec.class() == FieldClass::MutableCore)
}

/// Returns `true` if the command carries a PSM field.
pub fn has_psm(code: CommandCode) -> bool {
    data_field_layout(code)
        .iter()
        .any(|s| s.name == FieldName::Psm)
}

/// Returns the CIDP fields (SCID/DCID/ICID/controller-ID) of a command.
pub fn cidp_fields(code: CommandCode) -> impl Iterator<Item = FieldSpec> {
    data_field_layout(code)
        .iter()
        .copied()
        .filter(|s| s.name.is_cidp())
}

/// The CIDP values of one packet, stored inline.
///
/// No command layout carries more than four fixed-width CIDP fields, so the
/// values fit in a small copyable array — extracting them on the per-packet
/// hot path performs no allocation.  Dereferences to `&[u16]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CidpValues {
    vals: [u16; 4],
    len: u8,
}

impl CidpValues {
    /// Builds a value list from a slice (used by tests and manual trigger
    /// descriptions).
    ///
    /// # Panics
    /// Panics if more than four values are given.
    pub fn from_slice(values: &[u16]) -> CidpValues {
        assert!(values.len() <= 4, "at most four CIDP values per command");
        let mut out = CidpValues::default();
        for v in values {
            out.push(*v);
        }
        out
    }

    fn push(&mut self, value: u16) {
        if usize::from(self.len) < self.vals.len() {
            self.vals[usize::from(self.len)] = value;
            self.len += 1;
        }
    }

    /// The extracted values, in layout order.
    pub fn as_slice(&self) -> &[u16] {
        &self.vals[..usize::from(self.len)]
    }
}

impl std::ops::Deref for CidpValues {
    type Target = [u16];
    fn deref(&self) -> &[u16] {
        self.as_slice()
    }
}

impl PartialEq<Vec<u16>> for CidpValues {
    fn eq(&self, other: &Vec<u16>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a> IntoIterator for &'a CidpValues {
    type Item = &'a u16;
    type IntoIter = std::slice::Iter<'a, u16>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// The mutable-core values carried by one encoded command payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreFieldValues {
    /// The PSM value, if the command carries one and enough bytes are
    /// present.
    pub psm: Option<u16>,
    /// Every CIDP value present (SCID/DCID/ICID and controller IDs widened to
    /// 16 bits).
    pub cidp: CidpValues,
}

/// Extracts the mutable-core field values (PSM and CIDP) from an encoded
/// data-field byte slice, using the command's layout.  Truncated fields are
/// simply absent from the result; this never fails.  A variable-length
/// CIDP tail contributes its first two bytes.
#[inline]
pub fn extract_core_values(code: CommandCode, data: &[u8]) -> CoreFieldValues {
    let fields = CodeFields::of(code);
    let mut cidp = CidpValues::default();
    for slot in &fields.cidp[..usize::from(fields.cidp_len)] {
        if let Some(value) = slot.read(data) {
            cidp.push(value);
        }
    }
    CoreFieldValues {
        psm: fields.psm.read(data),
        cidp,
    }
}

/// The LE credit-based channel values carried by one encoded command payload
/// (the LE analogue of [`CoreFieldValues`]): SPSM, MTU, MPS and credits.
/// These are mutable-application fields on a classic link but the interesting
/// mutation surface of the LE credit-based flows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeFieldValues {
    /// Simplified PSM, if the command carries one.
    pub spsm: Option<u16>,
    /// MTU field, if present.
    pub mtu: Option<u16>,
    /// MPS field, if present.
    pub mps: Option<u16>,
    /// Credit count (initial credits or a credit grant), if present.
    pub credits: Option<u16>,
}

/// Extracts the LE credit-based field values (SPSM/MTU/MPS/credits) from an
/// encoded data-field byte slice, using the command's layout.  Truncated
/// fields are simply absent; this never fails and never allocates.
#[inline]
pub fn extract_le_values(code: CommandCode, data: &[u8]) -> LeFieldValues {
    let fields = CodeFields::of(code);
    LeFieldValues {
        spsm: fields.spsm.read(data),
        mtu: fields.mtu.read(data),
        mps: fields.mps.read(data),
        credits: fields.credits.read(data),
    }
}

/// Number of bytes present beyond the command's defined data fields — the
/// "garbage tail" appended by L2Fuzz's mutation (0 for spec-sized packets and
/// for commands whose last field is variable-length).
#[inline]
pub fn garbage_len(code: CommandCode, data: &[u8]) -> usize {
    let fields = CodeFields::of(code);
    if fields.variable_tail {
        // Variable-length tail swallows any extra bytes.
        return 0;
    }
    data.len().saturating_sub(usize::from(fields.min_data_len))
}

/// Minimum number of data-field bytes a spec-conformant packet of this
/// command carries (the sum of all fixed-width fields).
#[inline]
pub fn min_data_len(code: CommandCode) -> usize {
    usize::from(CodeFields::of(code).min_data_len)
}

/// Where one field the per-packet readers extract sits in a command's data
/// bytes.  A width of 0 marks a field the command does not carry.
#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: u8,
    width: u8,
}

impl Slot {
    const ABSENT: Slot = Slot {
        offset: 0,
        width: 0,
    };

    /// The field's value, widened to 16 bits, if `data` holds all of it.
    #[inline]
    fn read(self, data: &[u8]) -> Option<u16> {
        let at = usize::from(self.offset);
        match self.width {
            1 => data.get(at).map(|&b| u16::from(b)),
            2 => data
                .get(at..at + 2)
                .map(|b| u16::from_le_bytes([b[0], b[1]])),
            _ => None,
        }
    }
}

/// One command's entry in the field table: what [`data_field_layout`] says,
/// laid out for the per-packet readers.
#[derive(Debug, Clone, Copy)]
struct CodeFields {
    psm: Slot,
    /// The CIDP fields in layout order; the first `cidp_len` are used.
    cidp: [Slot; 4],
    cidp_len: u8,
    spsm: Slot,
    mtu: Slot,
    mps: Slot,
    credits: Slot,
    min_data_len: u8,
    /// The layout ends in a variable-length field.
    variable_tail: bool,
}

/// The field table, indexed by command code value (entry 0 is unused).
const FIELD_TABLE: [CodeFields; 0x1B] = {
    let mut table = [CodeFields::EMPTY; 0x1B];
    let mut i = 0;
    while i < CommandCode::ALL.len() {
        let code = CommandCode::ALL[i];
        table[code as usize] = CodeFields::derive(code);
        i += 1;
    }
    table
};

impl CodeFields {
    const EMPTY: CodeFields = CodeFields {
        psm: Slot::ABSENT,
        cidp: [Slot::ABSENT; 4],
        cidp_len: 0,
        spsm: Slot::ABSENT,
        mtu: Slot::ABSENT,
        mps: Slot::ABSENT,
        credits: Slot::ABSENT,
        min_data_len: 0,
        variable_tail: false,
    };

    #[inline]
    fn of(code: CommandCode) -> &'static CodeFields {
        &FIELD_TABLE[code as usize]
    }

    /// Reads `code`'s layout once, at compile time: a variable-length tail
    /// field reads two bytes, the LE fields are read only at width 2, and a
    /// CIDP field past the fourth is dropped as [`CidpValues`] drops it.
    const fn derive(code: CommandCode) -> CodeFields {
        let layout = data_field_layout(code);
        let mut out = CodeFields::EMPTY;
        let mut i = 0;
        while i < layout.len() {
            let spec = layout[i];
            let (width, end) = match spec.len {
                Some(len) => (len, spec.offset + len),
                None => (2, spec.offset),
            };
            let slot = Slot {
                offset: spec.offset as u8,
                width: width as u8,
            };
            match spec.name {
                FieldName::Psm => out.psm = slot,
                name if name.is_cidp() && out.cidp_len < 4 => {
                    out.cidp[out.cidp_len as usize] = slot;
                    out.cidp_len += 1;
                }
                FieldName::Spsm if width == 2 => out.spsm = slot,
                FieldName::Mtu if width == 2 => out.mtu = slot,
                FieldName::Mps if width == 2 => out.mps = slot,
                FieldName::Credit if width == 2 => out.credits = slot,
                _ => {}
            }
            if end > out.min_data_len as usize {
                out.min_data_len = end as u8;
            }
            out.variable_tail = spec.len.is_none();
            i += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_cid_is_the_only_fixed_field() {
        let all = [
            FieldName::PayloadLen,
            FieldName::HeaderCid,
            FieldName::Code,
            FieldName::Id,
            FieldName::DataLen,
            FieldName::Psm,
            FieldName::Scid,
            FieldName::Dcid,
            FieldName::Icid,
            FieldName::ContId,
            FieldName::Reason,
            FieldName::Result,
            FieldName::Status,
            FieldName::Flags,
            FieldName::InfoType,
            FieldName::Interval,
            FieldName::Latency,
            FieldName::Timeout,
            FieldName::Spsm,
            FieldName::Mtu,
            FieldName::Credit,
            FieldName::Mps,
            FieldName::Options,
            FieldName::QoS,
            FieldName::Data,
        ];
        let fixed: Vec<_> = all
            .iter()
            .filter(|f| f.class() == FieldClass::Fixed)
            .collect();
        assert_eq!(fixed, vec![&FieldName::HeaderCid]);
    }

    #[test]
    fn dependent_fields_match_paper_figure6() {
        for f in [
            FieldName::PayloadLen,
            FieldName::Code,
            FieldName::Id,
            FieldName::DataLen,
        ] {
            assert_eq!(f.class(), FieldClass::Dependent, "{f} must be dependent");
        }
    }

    #[test]
    fn mutable_core_set_matches_paper_figure6() {
        let mc = [
            FieldName::Psm,
            FieldName::Scid,
            FieldName::Dcid,
            FieldName::Icid,
            FieldName::ContId,
        ];
        for f in mc {
            assert_eq!(f.class(), FieldClass::MutableCore, "{f} must be MC");
        }
        // CIDP = MC minus PSM.
        assert!(!FieldName::Psm.is_cidp());
        for f in [
            FieldName::Scid,
            FieldName::Dcid,
            FieldName::Icid,
            FieldName::ContId,
        ] {
            assert!(f.is_cidp());
        }
    }

    #[test]
    fn mutable_app_examples() {
        for f in [
            FieldName::Reason,
            FieldName::Result,
            FieldName::Status,
            FieldName::Flags,
            FieldName::InfoType,
            FieldName::Interval,
            FieldName::Latency,
            FieldName::Timeout,
            FieldName::Spsm,
            FieldName::Mtu,
            FieldName::Credit,
            FieldName::Mps,
            FieldName::Options,
            FieldName::QoS,
        ] {
            assert_eq!(f.class(), FieldClass::MutableApp, "{f} must be MA");
        }
    }

    #[test]
    fn every_command_has_a_layout_with_increasing_offsets() {
        for code in CommandCode::ALL {
            let layout = data_field_layout(code);
            let mut prev_end = 0usize;
            for (i, spec) in layout.iter().enumerate() {
                assert!(
                    spec.offset >= prev_end,
                    "{code}: field {i} overlaps previous"
                );
                if let Some(len) = spec.len {
                    prev_end = spec.offset + len;
                } else {
                    assert_eq!(i, layout.len() - 1, "{code}: variable field must be last");
                }
            }
        }
    }

    #[test]
    fn layout_lengths_match_command_encodings() {
        use crate::command::{tests::sample_commands, Command};
        // Each sample's encoding carries its layout's fixed fields and then
        // its tail, and the fixed fields are the shortest data it decodes
        // from.
        for cmd in sample_commands() {
            let (code, data) = (cmd.code().unwrap(), cmd.encode_data());
            let min = min_data_len(code);
            match data_field_layout(code).last() {
                Some(FieldSpec {
                    len: None, offset, ..
                }) => {
                    assert_eq!(*offset, min, "{code}");
                    assert!(data.len() >= min, "{code}");
                }
                _ => assert_eq!(data.len(), min, "{code}"),
            }
            assert!(
                Command::decode_opt(code.value(), &data[..min]).is_some(),
                "{code}"
            );
            if min > 0 {
                assert!(
                    Command::decode_opt(code.value(), &data[..min - 1]).is_none(),
                    "{code}"
                );
            }
        }
    }

    #[test]
    fn connection_request_mc_fields() {
        let mc: Vec<FieldSpec> = mutable_core_fields(CommandCode::ConnectionRequest).collect();
        assert_eq!(mc.len(), 2);
        assert_eq!(mc[0].name, FieldName::Psm);
        assert_eq!(mc[1].name, FieldName::Scid);
        assert!(has_psm(CommandCode::ConnectionRequest));
        assert!(!has_psm(CommandCode::ConfigureRequest));
    }

    #[test]
    fn config_request_cidp_is_dcid() {
        let cidp: Vec<FieldSpec> = cidp_fields(CommandCode::ConfigureRequest).collect();
        assert_eq!(cidp.len(), 1);
        assert_eq!(cidp[0].name, FieldName::Dcid);
        assert_eq!(cidp[0].offset, 0);
        assert_eq!(cidp[0].len, Some(2));
    }

    #[test]
    fn commands_with_psm_are_exactly_the_connection_like_ones() {
        let with_psm: Vec<CommandCode> = CommandCode::ALL
            .iter()
            .copied()
            .filter(|c| has_psm(*c))
            .collect();
        assert_eq!(
            with_psm,
            vec![
                CommandCode::ConnectionRequest,
                CommandCode::CreateChannelRequest
            ]
        );
    }

    #[test]
    fn echo_request_has_no_core_fields() {
        assert!(mutable_core_fields(CommandCode::EchoRequest)
            .next()
            .is_none());
        assert!(cidp_fields(CommandCode::EchoRequest).next().is_none());
    }

    #[test]
    fn field_class_display() {
        assert_eq!(FieldClass::Fixed.to_string(), "F");
        assert_eq!(FieldClass::Dependent.to_string(), "D");
        assert_eq!(FieldClass::MutableCore.to_string(), "MC");
        assert_eq!(FieldClass::MutableApp.to_string(), "MA");
    }

    #[test]
    fn extract_core_values_from_connection_request() {
        // PSM = 0x0101 (abnormal), SCID = 0x0040.
        let data = [0x01, 0x01, 0x40, 0x00];
        let values = extract_core_values(CommandCode::ConnectionRequest, &data);
        assert_eq!(values.psm, Some(0x0101));
        assert_eq!(values.cidp, vec![0x0040]);
    }

    #[test]
    fn extract_core_values_tolerates_truncation() {
        let values = extract_core_values(CommandCode::ConnectionRequest, &[0x01]);
        assert_eq!(values.psm, None);
        assert!(values.cidp.is_empty());
    }

    #[test]
    fn extract_core_values_reads_controller_id_as_u8() {
        // Create Channel Request: PSM, SCID, controller id.
        let data = [0x01, 0x00, 0x44, 0x00, 0x02];
        let values = extract_core_values(CommandCode::CreateChannelRequest, &data);
        assert_eq!(values.psm, Some(0x0001));
        assert_eq!(values.cidp, vec![0x0044, 0x0002]);
    }

    #[test]
    fn extract_le_values_from_le_credit_based_request() {
        // SPSM 0x0080, SCID 0x0040, MTU 512, MPS 64, credits 10.
        let data = [0x80, 0x00, 0x40, 0x00, 0x00, 0x02, 0x40, 0x00, 0x0A, 0x00];
        let v = extract_le_values(CommandCode::LeCreditBasedConnectionRequest, &data);
        assert_eq!(v.spsm, Some(0x0080));
        assert_eq!(v.mtu, Some(512));
        assert_eq!(v.mps, Some(64));
        assert_eq!(v.credits, Some(10));
        // Commands without LE fields yield an empty extraction.
        let v = extract_le_values(CommandCode::ConnectionRequest, &[0x01, 0x00, 0x40, 0x00]);
        assert_eq!(v, LeFieldValues::default());
        // Truncation drops the absent fields without failing.
        let v = extract_le_values(CommandCode::FlowControlCreditInd, &[0x40, 0x00, 0x05]);
        assert_eq!(v.credits, None);
    }

    #[test]
    fn garbage_len_counts_bytes_past_fixed_layout() {
        assert_eq!(garbage_len(CommandCode::ConnectionRequest, &[0; 4]), 0);
        assert_eq!(garbage_len(CommandCode::ConnectionRequest, &[0; 9]), 5);
        // Config request ends in a variable options field: no garbage concept.
        assert_eq!(garbage_len(CommandCode::EchoRequest, &[0; 40]), 0);
        assert_eq!(garbage_len(CommandCode::ConnectionResponse, &[0; 12]), 4);
    }

    /// Reference readers that scan the layout for each call, which the
    /// table is checked against: every field read at its layout width, a
    /// variable tail MC or LE field at two bytes.
    mod scan {
        use super::*;

        pub fn core_values(code: CommandCode, data: &[u8]) -> CoreFieldValues {
            let mut out = CoreFieldValues::default();
            for spec in data_field_layout(code) {
                if spec.class() != FieldClass::MutableCore {
                    continue;
                }
                let width = spec.len.unwrap_or(2);
                if data.len() < spec.offset + width {
                    continue;
                }
                let value = if width == 1 {
                    u16::from(data[spec.offset])
                } else {
                    u16::from_le_bytes([data[spec.offset], data[spec.offset + 1]])
                };
                if spec.name == FieldName::Psm {
                    out.psm = Some(value);
                } else {
                    out.cidp.push(value);
                }
            }
            out
        }

        pub fn le_values(code: CommandCode, data: &[u8]) -> LeFieldValues {
            let mut out = LeFieldValues::default();
            for spec in data_field_layout(code) {
                let slot = match spec.name {
                    FieldName::Spsm => &mut out.spsm,
                    FieldName::Mtu => &mut out.mtu,
                    FieldName::Mps => &mut out.mps,
                    FieldName::Credit => &mut out.credits,
                    _ => continue,
                };
                let width = spec.len.unwrap_or(2);
                if width == 2 && data.len() >= spec.offset + 2 {
                    *slot = Some(u16::from_le_bytes([
                        data[spec.offset],
                        data[spec.offset + 1],
                    ]));
                }
            }
            out
        }

        pub fn min_data_len(code: CommandCode) -> usize {
            data_field_layout(code)
                .iter()
                .map(|s| s.offset + s.len.unwrap_or(0))
                .max()
                .unwrap_or(0)
        }

        pub fn garbage_len(code: CommandCode, data: &[u8]) -> usize {
            let layout = data_field_layout(code);
            if layout.last().map(|s| s.len.is_none()).unwrap_or(false) {
                return 0;
            }
            data.len().saturating_sub(min_data_len(code))
        }
    }

    #[test]
    fn the_field_table_reads_what_a_layout_scan_reads() {
        let mut rng = btcore::FuzzRng::seed_from(0x7AB1E);
        let mut codes = 0;
        for byte in 0..=u8::MAX {
            let Some(code) = CommandCode::from_u8(byte) else {
                continue;
            };
            codes += 1;
            assert_eq!(min_data_len(code), scan::min_data_len(code), "{code}");
            for len in 0..=64 {
                for _ in 0..4 {
                    let data = rng.bytes(len);
                    assert_eq!(
                        extract_core_values(code, &data),
                        scan::core_values(code, &data),
                        "{code}, {len} bytes"
                    );
                    assert_eq!(
                        extract_le_values(code, &data),
                        scan::le_values(code, &data),
                        "{code}, {len} bytes"
                    );
                    assert_eq!(
                        garbage_len(code, &data),
                        scan::garbage_len(code, &data),
                        "{code}, {len} bytes"
                    );
                }
            }
        }
        assert_eq!(codes, CommandCode::ALL.len());
        // The tail cases: a variable-length CIDP tail contributes its first
        // two bytes, and swallows any extra ones.
        let data = [
            0x40, 0x00, 0x00, 0x02, 0x17, 0x00, 0x05, 0x00, 0x41, 0x00, 0x42,
        ];
        let code = CommandCode::CreditBasedConnectionRequest;
        assert_eq!(extract_core_values(code, &data).cidp, vec![0x0041]);
        assert!(extract_core_values(code, &data[..9]).cidp.is_empty());
        assert_eq!(extract_le_values(code, &data).credits, Some(5));
        assert_eq!(garbage_len(code, &data), 0);
        assert_eq!(min_data_len(code), 8);
    }

    #[test]
    fn min_data_len_examples() {
        assert_eq!(min_data_len(CommandCode::ConnectionRequest), 4);
        assert_eq!(min_data_len(CommandCode::ConnectionResponse), 8);
        assert_eq!(min_data_len(CommandCode::ConfigureRequest), 4);
        assert_eq!(min_data_len(CommandCode::CreateChannelRequest), 5);
        assert_eq!(
            min_data_len(CommandCode::MoveChannelConfirmationResponse),
            2
        );
        assert_eq!(min_data_len(CommandCode::EchoRequest), 0);
    }
}
