//! The parse-graph state machine: wire bytes → PHV.
//!
//! Real PISA parsers walk a programmable state machine over header bytes
//! (Gibb et al., the paper's \[56\]); this one implements the
//! Ethernet → IPv4 → {TCP, UDP, ICMP} graph the anomaly-detection
//! application needs, reusing the byte-level decoding in
//! [`crate::packet`] and charging a fixed per-packet parse latency.

use bytes::Bytes;

use crate::packet::Packet;
use crate::phv::{Field, Phv};

/// Parse latency in nanoseconds (a few pipeline stages at 1 GHz).
pub const PARSE_LATENCY_NS: u64 = 5;

/// The parser.
#[derive(Debug, Clone, Default)]
pub struct Parser {
    packets_parsed: u64,
    parse_errors: u64,
}

impl Parser {
    /// Creates a parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses wire bytes into a PHV.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed header, and counts the
    /// error.
    pub fn parse_bytes(&mut self, data: Bytes, ts_ns: u64) -> Result<Phv, String> {
        match Packet::from_bytes(data, ts_ns) {
            Ok(p) => Ok(self.parse(&p)),
            Err(e) => {
                self.parse_errors += 1;
                Err(e)
            }
        }
    }

    /// Loads an already-decoded packet into a PHV (the fast path used by
    /// the trace-driven simulations; byte round-trips are covered by
    /// [`Parser::parse_bytes`] tests).
    pub fn parse(&mut self, p: &Packet) -> Phv {
        let mut phv = Phv::new();
        self.parse_into(p, &mut phv);
        phv
    }

    /// Loads an already-decoded packet into a caller-owned (resident)
    /// PHV, resetting it first — the pipeline's per-packet entry point,
    /// which recycles one PHV instead of constructing a fresh one.
    pub fn parse_into(&mut self, p: &Packet, phv: &mut Phv) {
        self.packets_parsed += 1;
        phv.reset();
        phv.set(Field::SrcIp, i64::from(p.src_ip));
        phv.set(Field::DstIp, i64::from(p.dst_ip));
        phv.set(Field::SrcPort, i64::from(p.src_port));
        phv.set(Field::DstPort, i64::from(p.dst_port));
        phv.set(Field::Proto, i64::from(p.proto));
        phv.set(Field::TcpFlags, i64::from(p.tcp_flags));
        phv.set(Field::Len, i64::from(p.wire_len));
        phv.set(Field::TsNs, p.ts_ns as i64);
    }

    /// Packets successfully parsed.
    pub fn packets_parsed(&self) -> u64 {
        self.packets_parsed
    }

    /// Frames rejected by the parse graph.
    pub fn parse_errors(&self) -> u64 {
        self.parse_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_fills_header_fields() {
        let mut parser = Parser::new();
        let mut p = Packet::tcp(0x0A000001, 0xC0A80002, 40000, 443, 0x02, 128);
        p.ts_ns = 77;
        let phv = parser.parse(&p);
        assert_eq!(phv.get(Field::SrcIp), 0x0A000001);
        assert_eq!(phv.get(Field::DstPort), 443);
        assert_eq!(phv.get(Field::TcpFlags), 0x02);
        assert_eq!(phv.get(Field::TsNs), 77);
        assert_eq!(parser.packets_parsed(), 1);
    }

    #[test]
    fn parse_bytes_round_trip_and_errors() {
        let mut parser = Parser::new();
        let p = Packet::tcp(1, 2, 3, 4, 0x10, 64);
        let phv = parser.parse_bytes(p.to_bytes(), 9).expect("parses");
        assert_eq!(phv.get(Field::SrcPort), 3);
        assert_eq!(phv.get(Field::TsNs), 9);
        assert!(parser.parse_bytes(Bytes::from_static(&[1, 2, 3]), 0).is_err());
        assert_eq!(parser.parse_errors(), 1);
        assert_eq!(parser.packets_parsed(), 1);
    }
}
