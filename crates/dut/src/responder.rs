//! A stateless TCP/HTTP responder — the server side of the web-testing
//! application (§5.4).
//!
//! Like HyperTester's own stateless connections, the responder derives
//! every reply purely from the received packet: SYN → SYN+ACK, a request
//! carrying payload → a burst of data segments, FIN → FIN+ACK.  It keeps
//! per-kind counters so tests can assert the handshake volume end-to-end.

use ht_asic::parser;
use ht_asic::phv::{fields, FieldTable};
use ht_asic::sim::{Device, Outbox};
use ht_asic::time::SimTime;
use ht_asic::SimPacket;
use ht_packet::tcp::TcpFlags;
use ht_packet::{Ipv4Address, PacketBuilder};
use std::any::Any;

/// Protocol counters of the responder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResponderStats {
    /// SYNs received (connections attempted).
    pub syns: u64,
    /// Requests (PSH+ACK with payload) received.
    pub requests: u64,
    /// Plain ACKs received.
    pub acks: u64,
    /// FINs received (connections released).
    pub fins: u64,
    /// Data segments sent.
    pub data_sent: u64,
    /// Non-TCP packets ignored.
    pub ignored: u64,
}

/// The responder device.
#[derive(Debug)]
pub struct TcpResponder {
    name: String,
    fields: FieldTable,
    /// Fixed service delay before each reply.
    pub service_delay: SimTime,
    /// Data segments sent per request (the "web page" size in packets —
    /// the paper's walkthrough assumes 5).
    pub data_packets: usize,
    /// Payload bytes per data segment.
    pub data_len: usize,
    /// Initial sequence number for SYN+ACK replies (stateless, so fixed).
    pub isn: u32,
    /// Counters.
    pub stats: ResponderStats,
    uid_next: u64,
}

impl TcpResponder {
    /// Creates a responder with a service delay.
    pub fn new(name: &str, service_delay: SimTime) -> Self {
        TcpResponder {
            name: name.to_string(),
            fields: FieldTable::new(),
            service_delay,
            data_packets: 5,
            data_len: 512,
            isn: 1000,
            stats: ResponderStats::default(),
            uid_next: 1,
        }
    }

    fn reply(
        &mut self,
        req: &SimPacket,
        flags: TcpFlags,
        seq: u32,
        ack: u32,
        payload_len: usize,
    ) -> SimPacket {
        let sip = Ipv4Address::from_u32(req.phv.get(fields::IPV4_DST) as u32);
        let dip = Ipv4Address::from_u32(req.phv.get(fields::IPV4_SRC) as u32);
        let sport = req.phv.get(fields::TCP_DPORT) as u16;
        let dport = req.phv.get(fields::TCP_SPORT) as u16;
        let payload = vec![0u8; payload_len];
        let bytes = PacketBuilder::new()
            .eth(
                ht_packet::EthernetAddress::from_u64(req.phv.get(fields::ETH_DST)),
                ht_packet::EthernetAddress::from_u64(req.phv.get(fields::ETH_SRC)),
            )
            .ipv4(sip, dip)
            .tcp(sport, dport, seq, ack, flags)
            .payload(&payload)
            .build();
        let phv = parser::parse(&self.fields, &bytes).expect("self-built frame parses");
        let uid = self.uid_next;
        self.uid_next += 1;
        SimPacket { phv, body: None, uid }
    }
}

impl Device for TcpResponder {
    fn name(&self) -> &str {
        &self.name
    }

    fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox) {
        if pkt.phv.get(fields::TCP_VALID) == 0 {
            self.stats.ignored += 1;
            return;
        }
        let flags = TcpFlags(pkt.phv.get(fields::TCP_FLAGS) as u8);
        let seq = pkt.phv.get(fields::TCP_SEQ) as u32;
        let ack = pkt.phv.get(fields::TCP_ACK) as u32;
        let at = now + self.service_delay;

        if flags.contains(TcpFlags::SYN) && !flags.contains(TcpFlags::ACK) {
            self.stats.syns += 1;
            let r = self.reply(&pkt, TcpFlags::SYN_ACK, self.isn, seq.wrapping_add(1), 0);
            out.emit(port, r, at);
        } else if flags.contains(TcpFlags::PSH) {
            // A request: serve the page as a burst of data segments.
            self.stats.requests += 1;
            let mut data_seq = ack;
            for i in 0..self.data_packets {
                let r = self.reply(
                    &pkt,
                    TcpFlags::PSH_ACK,
                    data_seq,
                    seq.wrapping_add(1),
                    self.data_len,
                );
                self.stats.data_sent += 1;
                data_seq = data_seq.wrapping_add(self.data_len as u32);
                // Space the burst by the service delay so segments stay
                // ordered on the wire.
                out.emit(port, r, at + i as u64 * self.service_delay.max(1));
            }
        } else if flags.contains(TcpFlags::FIN) {
            self.stats.fins += 1;
            let r = self.reply(&pkt, TcpFlags::FIN_ACK, ack, seq.wrapping_add(1), 0);
            out.emit(port, r, at);
        } else if flags.contains(TcpFlags::ACK) {
            self.stats.acks += 1;
        }
    }

    fn device_kind(&self) -> ht_asic::sim::DeviceKind {
        ht_asic::sim::DeviceKind::Host
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

    fn tcp_pkt(flags: TcpFlags, seq: u32, ack: u32) -> SimPacket {
        let ft = FieldTable::new();
        let bytes = PacketBuilder::new()
            .ipv4(Ipv4Address::new(1, 1, 0, 1), Ipv4Address::new(9, 9, 9, 9))
            .tcp(1024, 80, seq, ack, flags)
            .build();
        let phv = parser::parse(&ft, &bytes).unwrap();
        SimPacket { phv, body: None, uid: 0 }
    }

    #[test]
    fn syn_yields_syn_ack_with_mirrored_tuple() {
        let mut r = TcpResponder::new("srv", 1_000_000);
        let mut out = Outbox::default();
        r.rx(0, tcp_pkt(TcpFlags::SYN, 7, 0), 0, &mut out);
        assert_eq!(out.emits.len(), 1);
        let (_, reply, at) = &out.emits[0];
        assert_eq!(*at, 1_000_000);
        assert_eq!(reply.phv.get(fields::TCP_FLAGS), u64::from(TcpFlags::SYN_ACK.0));
        assert_eq!(reply.phv.get(fields::TCP_ACK), 8);
        assert_eq!(reply.phv.get(fields::TCP_SPORT), 80);
        assert_eq!(reply.phv.get(fields::TCP_DPORT), 1024);
        assert_eq!(reply.phv.get(fields::IPV4_DST), u64::from(0x01010001u32));
        assert_eq!(r.stats.syns, 1);
    }

    #[test]
    fn request_yields_data_burst() {
        let mut r = TcpResponder::new("srv", 1_000);
        r.data_packets = 5;
        let mut out = Outbox::default();
        r.rx(0, tcp_pkt(TcpFlags::PSH_ACK, 1, 1001), 0, &mut out);
        assert_eq!(out.emits.len(), 5);
        assert_eq!(r.stats.data_sent, 5);
        // Sequence numbers advance by the segment payload.
        let s0 = out.emits[0].1.phv.get(fields::TCP_SEQ);
        let s1 = out.emits[1].1.phv.get(fields::TCP_SEQ);
        assert_eq!(s1 - s0, r.data_len as u64);
    }

    #[test]
    fn fin_yields_fin_ack_and_ack_is_silent() {
        let mut r = TcpResponder::new("srv", 0);
        let mut out = Outbox::default();
        r.rx(0, tcp_pkt(TcpFlags::FIN, 9, 100), 0, &mut out);
        assert_eq!(out.emits.len(), 1);
        assert_eq!(out.emits[0].1.phv.get(fields::TCP_FLAGS), u64::from(TcpFlags::FIN_ACK.0));
        r.rx(0, tcp_pkt(TcpFlags::ACK, 10, 100), 0, &mut out);
        assert_eq!(out.emits.len(), 1, "plain ACK draws no reply");
        assert_eq!(r.stats.acks, 1);
        assert_eq!(r.stats.fins, 1);
    }

    #[test]
    fn non_tcp_is_ignored() {
        let ft = FieldTable::new();
        let bytes = PacketBuilder::new()
            .ipv4(Ipv4Address::new(1, 0, 0, 1), Ipv4Address::new(2, 0, 0, 2))
            .udp(1, 1)
            .build();
        let phv = parser::parse(&ft, &bytes).unwrap();
        let mut r = TcpResponder::new("srv", 0);
        let mut out = Outbox::default();
        r.rx(0, SimPacket { phv, body: None, uid: 0 }, 0, &mut out);
        assert!(out.emits.is_empty());
        assert_eq!(r.stats.ignored, 1);
    }
}
