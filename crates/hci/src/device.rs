//! The interface a simulated target device presents to the medium.

use btcore::{DeviceMeta, LinkSlot, LinkType};
use l2cap::packet::L2capFrame;
use parking_lot::Mutex;
use std::sync::Arc;

/// A virtual Bluetooth device reachable over the
/// [`crate::medium::EventMedium`].
///
/// The `btstack` crate provides vendor-flavoured implementations; this crate
/// only ships the tiny [`EchoDevice`] used in examples and tests.
///
/// A device may serve several links at once — each established link is
/// identified by its [`LinkSlot`], and a multi-link device keeps isolated
/// per-slot acceptor state (CID spaces never leak between slots).  Simple
/// single-link devices can ignore the slot entirely.
pub trait VirtualDevice: Send {
    /// Device metadata reported during inquiry.
    fn meta(&self) -> DeviceMeta;

    /// Whether the device serves the given transport.  The default accepts
    /// exactly the primary transport announced in the metadata; dual-mode
    /// devices override this to accept both.
    fn supports_link(&self, link_type: LinkType) -> bool {
        link_type == self.meta().link_type
    }

    /// Notifies the device that the medium established a new link in `slot`
    /// over `link_type`.  Multi-link devices allocate the slot's acceptor
    /// here; the default does nothing.
    fn attach_link(&mut self, _slot: LinkSlot, _link_type: LinkType) {}

    /// Processes one inbound L2CAP frame arriving on `slot` and appends the
    /// frames the device sends back, in order, to `out`.
    ///
    /// This is the method the medium calls.  `out` is the link's reply
    /// buffer, reused from one exchange to the next, and may already hold
    /// the replies to an earlier frame of the same exchange (a duplicate or
    /// a late reordered frame): a device appends and never clears it.  The
    /// frame is borrowed from the transmitting link; a device that wants to
    /// keep the bytes clones the frame, which never allocates.
    fn receive_into(&mut self, slot: LinkSlot, frame: &L2capFrame, out: &mut Vec<L2capFrame>);

    /// [`VirtualDevice::receive_into`] into a fresh vector, for callers that
    /// keep no reply buffer of their own.
    fn receive(&mut self, slot: LinkSlot, frame: &L2capFrame) -> Vec<L2capFrame> {
        let mut out = Vec::new();
        self.receive_into(slot, frame, &mut out);
        out
    }

    /// Whether the device's Bluetooth service is still running (a device
    /// whose stack crashed or shut down stops answering inquiries and
    /// frames).
    fn bluetooth_alive(&self) -> bool;

    /// Virtual time the device spends processing one frame, in microseconds.
    /// The default models a fast, simple stack; stacks with more service
    /// ports and deeper application logic report larger values, which is what
    /// spreads the elapsed-time column of Table VI.
    fn processing_cost_micros(&self) -> u64 {
        150
    }
}

/// Adapter so `Box<dyn VirtualDevice>` itself implements [`VirtualDevice`]
/// behind the shared mutex.
pub struct BoxedDevice(Box<dyn VirtualDevice>);

impl BoxedDevice {
    /// Wraps a boxed device.
    pub fn new(device: Box<dyn VirtualDevice>) -> Self {
        BoxedDevice(device)
    }
}

impl VirtualDevice for BoxedDevice {
    fn meta(&self) -> DeviceMeta {
        self.0.meta()
    }
    fn supports_link(&self, link_type: LinkType) -> bool {
        self.0.supports_link(link_type)
    }
    fn attach_link(&mut self, slot: LinkSlot, link_type: LinkType) {
        self.0.attach_link(slot, link_type);
    }
    fn receive_into(&mut self, slot: LinkSlot, frame: &L2capFrame, out: &mut Vec<L2capFrame>) {
        self.0.receive_into(slot, frame, out);
    }
    fn bluetooth_alive(&self) -> bool {
        self.0.bluetooth_alive()
    }
    fn processing_cost_micros(&self) -> u64 {
        self.0.processing_cost_micros()
    }
}

/// Shared, lockable handle to a virtual device.
pub type SharedDevice = Arc<Mutex<dyn VirtualDevice>>;

/// A minimal device that answers every frame by echoing it back on the same
/// channel.  Useful for transport-level tests and doc examples.
#[derive(Debug, Clone)]
pub struct EchoDevice {
    meta: DeviceMeta,
    alive: bool,
}

impl EchoDevice {
    /// Creates an echo device with the given address.
    pub fn new(addr: btcore::BdAddr) -> Self {
        EchoDevice {
            meta: DeviceMeta::new(addr, "echo-device", btcore::DeviceClass::Other),
            alive: true,
        }
    }

    /// Marks the device as shut down; it stops responding afterwards.
    pub fn shut_down(&mut self) {
        self.alive = false;
    }
}

impl VirtualDevice for EchoDevice {
    fn meta(&self) -> DeviceMeta {
        self.meta.clone()
    }

    fn receive_into(&mut self, _slot: LinkSlot, frame: &L2capFrame, out: &mut Vec<L2capFrame>) {
        if self.alive {
            out.push(frame.clone());
        }
    }

    fn bluetooth_alive(&self) -> bool {
        self.alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::{BdAddr, Cid};

    #[test]
    fn echo_device_echoes_until_shut_down() {
        let mut dev = EchoDevice::new(BdAddr::new([1, 2, 3, 4, 5, 6]));
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        assert_eq!(dev.receive(LinkSlot::PRIMARY, &frame), vec![frame.clone()]);
        // Replies are appended after what the buffer already holds.
        let mut out = vec![frame.clone()];
        dev.receive_into(LinkSlot::PRIMARY, &frame, &mut out);
        assert_eq!(out, vec![frame.clone(), frame.clone()]);
        assert!(dev.bluetooth_alive());
        dev.shut_down();
        assert!(dev.receive(LinkSlot::PRIMARY, &frame).is_empty());
        assert!(!dev.bluetooth_alive());
    }

    #[test]
    fn default_processing_cost_is_positive() {
        let dev = EchoDevice::new(BdAddr::NULL);
        assert!(dev.processing_cost_micros() > 0);
    }

    #[test]
    fn virtual_device_is_object_safe() {
        let dev: SharedDevice =
            Arc::new(Mutex::new(EchoDevice::new(BdAddr::new([9, 8, 7, 6, 5, 4]))));
        assert_eq!(dev.lock().meta().name, "echo-device");
    }
}
