//! Walker messages exchanged between simulated machines.
//!
//! Message sizes follow the paper's accounting (§2.2, §2.3, §3.1, Example 1),
//! with 8 bytes per scalar field:
//!
//! * routine walkers (KnightKing / node2vec):
//!   `[walk_id, steps, node_id, prev_node_id]` → **32 B**;
//! * HuGE-D walkers: the same header plus the full path →
//!   **`24 + 8·L` B** for a walk of current length `L`;
//! * InCoM walkers: header plus `H, L, E(H), E(L), E(HL), E(H²), E(L²)` →
//!   **80 B**, independent of the walk length.

use std::io;

use crate::info::{FullPathInfo, IncrementalInfo, InfoMoments};
use distger_cluster::wire::{invalid_data, put_f64, put_u32, put_u32s, put_u64, put_u8};
use distger_cluster::{MessageSize, Wire, WireReader};
use distger_graph::NodeId;

/// The information-measurement payload carried by a walker.
#[derive(Clone, Debug)]
pub enum InfoPayload {
    /// Routine walks: no on-the-fly measurement.
    None,
    /// HuGE-D: the full path travels with the walker.
    FullPath(FullPathInfo),
    /// InCoM: only the constant-size incremental state travels.
    Incremental(IncrementalInfo),
}

/// A walker in flight between machines (or about to start at its source).
///
/// Semantics: the walker is arriving at the machine owning [`Self::cur`] in
/// order to *accept* that node; `info` reflects the walk **before** `cur` is
/// appended. The receiving machine appends `cur` (recording it in its corpus
/// shard and, for InCoM, in its local frequency list) and then keeps walking.
#[derive(Clone, Debug)]
pub struct WalkerMessage {
    /// Globally unique walk identifier (`round · |V| + source`).
    pub walk_id: u64,
    /// Number of nodes already accepted on this walk (0 for a fresh walker).
    pub step: u32,
    /// The node the walker is arriving at.
    pub cur: NodeId,
    /// The node the walker came from (needed by second-order models).
    pub prev: Option<NodeId>,
    /// Deterministic per-walker RNG state.
    pub rng_state: u64,
    /// Information-measurement payload.
    pub info: InfoPayload,
}

impl MessageSize for WalkerMessage {
    fn size_bytes(&self) -> usize {
        match &self.info {
            // [walk_id, steps, node_id, prev_node_id]
            InfoPayload::None => 32,
            // [walk_id, steps, node_id] + 8·L path entries
            InfoPayload::FullPath(fp) => 24 + 8 * fp.length() as usize,
            // [walker_id, steps, node_id, H, L, E(H), E(L), E(HL), E(H²), E(L²)]
            InfoPayload::Incremental(_) => 80,
        }
    }
}

// Info-payload discriminants on the wire.
const INFO_NONE: u8 = 0;
const INFO_FULL_PATH: u8 = 1;
const INFO_INCREMENTAL: u8 = 2;

fn put_moments(out: &mut Vec<u8>, m: &InfoMoments) {
    put_u64(out, m.points);
    put_f64(out, m.e_h);
    put_f64(out, m.e_l);
    put_f64(out, m.e_hl);
    put_f64(out, m.e_h2);
    put_f64(out, m.e_l2);
}

fn read_moments(r: &mut WireReader<'_>) -> io::Result<InfoMoments> {
    Ok(InfoMoments {
        points: r.u64()?,
        e_h: r.f64()?,
        e_l: r.f64()?,
        e_hl: r.f64()?,
        e_h2: r.f64()?,
        e_l2: r.f64()?,
    })
}

/// The socket wire form of a walker. Floats travel as exact bit patterns and
/// the full-path measurement ships its running moments instead of replaying
/// `accept` on decode (whose entropy re-summation is not bit-stable), so a
/// decoded walker is indistinguishable from one that never left the process —
/// the bit-identity guarantee the cross-transport property tests assert.
impl Wire for WalkerMessage {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.walk_id);
        put_u32(out, self.step);
        put_u32(out, self.cur);
        match self.prev {
            Some(prev) => {
                put_u8(out, 1);
                put_u32(out, prev);
            }
            None => put_u8(out, 0),
        }
        put_u64(out, self.rng_state);
        match &self.info {
            InfoPayload::None => put_u8(out, INFO_NONE),
            InfoPayload::FullPath(fp) => {
                put_u8(out, INFO_FULL_PATH);
                put_f64(out, fp.entropy());
                put_moments(out, &fp.moments());
                let path = fp.path();
                put_u32(out, path.len() as u32);
                put_u32s(out, path);
            }
            InfoPayload::Incremental(inc) => {
                put_u8(out, INFO_INCREMENTAL);
                put_f64(out, inc.entropy());
                put_u64(out, inc.length());
                put_moments(out, &inc.moments());
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> io::Result<Self> {
        let walk_id = r.u64()?;
        let step = r.u32()?;
        let cur = r.u32()?;
        let prev = match r.u8()? {
            0 => None,
            1 => Some(r.u32()?),
            flag => return Err(invalid_data(format!("bad prev-node flag {flag}"))),
        };
        let rng_state = r.u64()?;
        let info = match r.u8()? {
            INFO_NONE => InfoPayload::None,
            INFO_FULL_PATH => {
                let entropy = r.f64()?;
                let moments = read_moments(r)?;
                let len = r.count_u32(4)?;
                let path = r.u32s(len)?;
                InfoPayload::FullPath(FullPathInfo::from_wire_parts(path, entropy, moments))
            }
            INFO_INCREMENTAL => {
                let entropy = r.f64()?;
                let length = r.u64()?;
                let moments = read_moments(r)?;
                InfoPayload::Incremental(IncrementalInfo::from_parts(entropy, length, moments))
            }
            tag => return Err(invalid_data(format!("unknown info-payload tag {tag}"))),
        };
        Ok(WalkerMessage {
            walk_id,
            step,
            cur,
            prev,
            rng_state,
            info,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_message(info: InfoPayload) -> WalkerMessage {
        WalkerMessage {
            walk_id: 1,
            step: 3,
            cur: 7,
            prev: Some(5),
            rng_state: 99,
            info,
        }
    }

    #[test]
    fn routine_message_is_32_bytes() {
        assert_eq!(base_message(InfoPayload::None).size_bytes(), 32);
    }

    #[test]
    fn incremental_message_is_80_bytes_regardless_of_length() {
        let mut inc = IncrementalInfo::start();
        for _ in 0..70 {
            inc.accept(0);
        }
        assert_eq!(base_message(InfoPayload::Incremental(inc)).size_bytes(), 80);
    }

    #[test]
    fn full_path_message_grows_with_walk_length() {
        let mut fp = FullPathInfo::start(0);
        for v in 1..=9u32 {
            fp.accept(v);
        }
        // L = 10 → 24 + 80 = 104 bytes.
        assert_eq!(base_message(InfoPayload::FullPath(fp)).size_bytes(), 104);
    }

    #[test]
    fn paper_example_ratio_holds() {
        // Example 1: at the maximum path length of 80, a HuGE-D message is
        // 24 + 8·80 = 664 B ≈ 8.3× the 80 B InCoM message.
        let mut fp = FullPathInfo::start(0);
        for v in 1..80u32 {
            fp.accept(v % 10);
        }
        let huge_d = base_message(InfoPayload::FullPath(fp)).size_bytes();
        let incom = 80usize;
        assert_eq!(huge_d, 664);
        let ratio = huge_d as f64 / incom as f64;
        assert!((ratio - 8.3).abs() < 0.01);
    }

    /// Roundtrip check via re-encoding: `WalkerMessage` holds floats, so the
    /// NaN-safe equality is "the decoded value encodes to the same bytes".
    fn assert_roundtrips(msg: &WalkerMessage) {
        let bytes = msg.encode();
        let mut r = WireReader::new(&bytes);
        let decoded = WalkerMessage::decode(&mut r).expect("decodes");
        r.finish().expect("no trailing bytes");
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn wire_roundtrip_all_payload_kinds() {
        assert_roundtrips(&base_message(InfoPayload::None));
        let mut msg = base_message(InfoPayload::None);
        msg.prev = None;
        assert_roundtrips(&msg);
        assert_roundtrips(&base_message(InfoPayload::Incremental(
            IncrementalInfo::default(),
        )));
        let mut inc = IncrementalInfo::start();
        inc.accept(0);
        inc.accept(1);
        assert_roundtrips(&base_message(InfoPayload::Incremental(inc)));
        assert_roundtrips(&base_message(
            InfoPayload::FullPath(FullPathInfo::default()),
        ));
        let mut fp = FullPathInfo::start(3);
        for v in [1, 4, 1, 5] {
            fp.accept(v);
        }
        assert_roundtrips(&base_message(InfoPayload::FullPath(fp)));
    }

    #[test]
    fn decoded_full_path_measurement_is_bit_identical() {
        let mut fp = FullPathInfo::start(2);
        for v in [7, 1, 8, 2, 8] {
            fp.accept(v);
        }
        let msg = base_message(InfoPayload::FullPath(fp.clone()));
        let bytes = msg.encode();
        let decoded = WalkerMessage::decode(&mut WireReader::new(&bytes)).unwrap();
        let InfoPayload::FullPath(back) = decoded.info else {
            panic!("payload kind changed on the wire");
        };
        assert_eq!(back.path(), fp.path());
        assert_eq!(back.entropy().to_bits(), fp.entropy().to_bits());
        assert_eq!(back.r_squared().to_bits(), fp.r_squared().to_bits());
    }

    #[test]
    fn bad_discriminants_are_rejected_not_defaulted() {
        let bytes = base_message(InfoPayload::None).encode();
        for at in [16, 29] {
            // prev-node flag; info tag (8 + 4 + 4 + 1 + 4 + 8 = byte 29)
            let mut bad = bytes.clone();
            bad[at] = 7;
            assert!(WalkerMessage::decode(&mut WireReader::new(&bad)).is_err());
        }
    }
}
