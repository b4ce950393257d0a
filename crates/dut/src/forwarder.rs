//! A store-and-forward device under test: fixed pipeline delay plus
//! per-port serialization at line rate.
//!
//! Used as the generic DUT for throughput testing (traffic in one port,
//! out another) and as the known-delay device of the Fig. 18 delay-testing
//! case study.

use ht_asic::fxhash::FxHashMap;
use ht_asic::mac::MacPort;
use ht_asic::sim::{Device, Outbox};
use ht_asic::time::SimTime;
use ht_asic::SimPacket;
use std::any::Any;

/// The forwarding device.
#[derive(Debug)]
pub struct Forwarder {
    name: String,
    /// Static forwarding map: ingress port → egress port.
    pub routes: FxHashMap<u16, u16>,
    /// Fixed processing (pipeline) delay applied to every packet.
    pub pipeline_delay: SimTime,
    /// Output MACs per egress port.
    pub macs: FxHashMap<u16, MacPort>,
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames dropped for lack of a route.
    pub dropped: u64,
}

impl Forwarder {
    /// Creates a forwarder with the given pipeline delay.
    pub fn new(name: &str, pipeline_delay: SimTime) -> Self {
        Forwarder {
            name: name.to_string(),
            routes: FxHashMap::default(),
            pipeline_delay,
            macs: FxHashMap::default(),
            forwarded: 0,
            dropped: 0,
        }
    }

    /// Adds a unidirectional route with an output port at `speed_bps`.
    pub fn route(mut self, from: u16, to: u16, speed_bps: u64) -> Self {
        self.routes.insert(from, to);
        self.macs.entry(to).or_insert_with(|| MacPort::new(speed_bps));
        self
    }
}

impl Device for Forwarder {
    fn name(&self) -> &str {
        &self.name
    }

    fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox) {
        let Some(&to) = self.routes.get(&port) else {
            self.dropped += 1;
            return;
        };
        let mac = self.macs.get_mut(&to).expect("route target has a MAC");
        let (_, end) = mac.transmit(pkt.len(), now + self.pipeline_delay);
        self.forwarded += 1;
        out.emit(to, pkt, end);
    }

    fn device_kind(&self) -> ht_asic::sim::DeviceKind {
        ht_asic::sim::DeviceKind::Host
    }

    fn lookahead(&self) -> SimTime {
        // Every forwarded frame leaves at `now + pipeline_delay` plus a
        // strictly positive serialization time, so the pipeline delay is
        // a safe emission floor.  (A zero-delay forwarder simply opts out
        // of windowing.)
        self.pipeline_delay
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_asic::phv::{fields, FieldTable};
    use ht_packet::wire::{gbps, wire_time_ps};

    fn pkt(len: u64) -> SimPacket {
        let t = FieldTable::new();
        let mut phv = t.new_phv();
        phv.set(&t, fields::PKT_LEN, len);
        SimPacket { phv, body: None, uid: 0 }
    }

    #[test]
    fn forwards_with_delay_and_serialization() {
        let mut f = Forwarder::new("dut", 600_000).route(0, 1, gbps(100));
        let mut out = Outbox::default();
        f.rx(0, pkt(64), 1_000_000, &mut out);
        assert_eq!(out.emits.len(), 1);
        let (to, _, at) = &out.emits[0];
        assert_eq!(*to, 1);
        assert_eq!(*at, 1_000_000 + 600_000 + wire_time_ps(64, gbps(100)));
        assert_eq!(f.forwarded, 1);
    }

    #[test]
    fn unrouted_port_drops() {
        let mut f = Forwarder::new("dut", 0).route(0, 1, gbps(10));
        let mut out = Outbox::default();
        f.rx(9, pkt(64), 0, &mut out);
        assert!(out.emits.is_empty());
        assert_eq!(f.dropped, 1);
    }

    #[test]
    fn back_to_back_queueing_on_output() {
        let mut f = Forwarder::new("dut", 0).route(0, 1, gbps(10));
        let mut out = Outbox::default();
        f.rx(0, pkt(1518), 0, &mut out);
        f.rx(0, pkt(1518), 0, &mut out);
        let t1 = out.emits[0].2;
        let t2 = out.emits[1].2;
        assert_eq!(t2 - t1, wire_time_ps(1518, gbps(10)));
    }
}
