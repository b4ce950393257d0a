//! The simulator's packet representation.
//!
//! A [`SimPacket`] carries a parsed [`Phv`].  Header *fields* live in the
//! PHV while traversing the switch — exactly like hardware, where the packet
//! body is buffered out-of-band and only the header vector flows through the
//! match-action stages.  [`crate::parser`] converts between bytes and PHV at
//! the pipeline boundaries.

use crate::phv::{fields, Phv};
use std::sync::Arc;

/// A packet inside the simulated world.
#[derive(Debug, Clone)]
pub struct SimPacket {
    /// Parsed header vector (also holds intrinsic metadata).
    pub phv: Phv,
    /// Unused: nothing reads it, and every constructor stores `None` (a
    /// shared buffer would cost each multicast replica an atomic refcount
    /// for nothing).  The field stays only because code outside the
    /// workspace still names it in `SimPacket` literals.
    pub body: Option<Arc<Vec<u8>>>,
    /// Simulator-unique id, for tracing and test assertions.
    pub uid: u64,
}

impl SimPacket {
    /// Frame length in bytes (including the virtual FCS), as recorded in the
    /// PHV's `meta.pkt_len`.
    pub fn len(&self) -> usize {
        self.phv.get(fields::PKT_LEN) as usize
    }

    /// True when the recorded frame length is zero (an unparsed packet).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ingress timestamp (ps) recorded by the MAC.
    pub fn ig_ts(&self) -> u64 {
        self.phv.get(fields::IG_TS)
    }

    /// Template id, 0 for packets that did not originate from a template.
    pub fn template_id(&self) -> u16 {
        self.phv.get(fields::TEMPLATE_ID) as u16
    }
}
