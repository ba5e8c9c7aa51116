//! The datagram wire format.
//!
//! Three message kinds in one fixed little-endian layout. A `WireMsg`
//! never travels bare: the reactor prefixes every datagram with the frame
//! header `[dst: u32][src: u32]` (see `reactor.rs`), so the sender
//! is always known by its cluster id — the id identifies the *node*, the
//! source address only the *socket* — and the sequence number pairs
//! grants, and their acks, with requests.
//!
//! There is one version. A flags byte marks the optional sections, so the
//! common fault-free grant and ack pay nothing for gossip:
//!
//! ```text
//! header:  [version: 0x04, kind: u8, flags: u8, seq: u64]        (11 bytes)
//! Request: header, urgent: u8, alpha_mw: u64                     (20 bytes)
//!          then  from: u32     if flags & 0x01
//!          then  bid_mw: u64   if flags & 0x02                   (≤32 bytes)
//! Grant:   header, amount_mw: u64                                (19 bytes)
//!          then  digest        if flags & 0x04                   (≤76 bytes)
//! Ack:     header                                                (11 bytes)
//!          then  digest        if flags & 0x04                   (≤68 bytes)
//! digest:  [incarnation: u64, count: u8,
//!           count × (peer: u32, incarnation: u64)]
//! ```
//!
//! Decoding is strict: any other version byte, an unknown kind, a flag bit
//! the kind does not define, a short buffer, or a digest `count` above
//! [`MAX_DIGEST_ENTRIES`] is an error, never a guess — the bound is part
//! of the format, so a hostile datagram cannot make a receiver loop over
//! thousands of entries. (Versions `0x01`–`0x03` were the pre-reactor
//! layouts, chosen per message; the number is not reused so a stale frame
//! is rejected rather than misread.)
//!
//! The digest's leading `incarnation` is the *sender's own*; entries name
//! third-party peers the sender currently suspects.
//!
//! The request's `bid` section (flag `0x02`) is accepted and ignored. It
//! carried the price of a market-pricing decider that no longer exists;
//! nothing the engine sends sets it, and a request that carries one maps
//! to the same [`PeerMsg`] as the request without it. Removing the section
//! from the format waits for the next change to the benchmark harness
//! (ROADMAP.md's `benchmark/`-only item), whose wire rows encode such a
//! frame.

use penelope_core::{
    GrantAck, PeerMsg, PowerGrant, PowerRequest, SuspicionDigest, SuspicionEntry,
    MAX_DIGEST_ENTRIES,
};
use penelope_units::{NodeId, Power};

/// The protocol version byte every message starts with.
const WIRE_VERSION: u8 = 0x04;

const KIND_REQUEST: u8 = 0x00;
const KIND_GRANT: u8 = 0x01;
const KIND_ACK: u8 = 0x02;

/// Offset of the flags byte in a message.
const FLAGS_AT: usize = 2;
/// Request carries a `from` section.
const FLAG_FROM: u8 = 0x01;
/// Request carries a `bid` section.
const FLAG_BID: u8 = 0x02;
/// Grant or ack carries a digest section.
const FLAG_DIGEST: u8 = 0x04;

/// Encoded digest section size at the entry cap: 8 (incarnation) + 1
/// (count) + entries.
const MAX_DIGEST_LEN: usize = 9 + MAX_DIGEST_ENTRIES * 12;

/// Maximum encoded size (for receive buffers): a grant with a full
/// digest.
pub(crate) const MAX_WIRE_LEN: usize = 19 + MAX_DIGEST_LEN;

/// A message on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMsg {
    /// A power request addressed to a peer's pool.
    Request {
        /// Requester-local sequence number, echoed in the grant.
        seq: u64,
        /// Urgent flag (§3: hungry and below the initial cap).
        urgent: bool,
        /// Power needed to return to the initial cap (urgent only).
        alpha: Power,
        /// The requester's stable cluster id, when it is not the frame's
        /// `src` (a relayed request). Grants key their escrow by this id.
        /// `None` — what the reactor sends — means "the frame's sender".
        from: Option<NodeId>,
        /// A legacy price section: round-tripped by the codec, ignored by
        /// `into_peer`, and absent from the wire
        /// when zero.
        bid: Power,
    },
    /// A pool's grant in response.
    Grant {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Power transferred (already debited from the sender's pool).
        amount: Power,
        /// Piggybacked suspicion gossip, if the sender had any.
        digest: Option<Box<SuspicionDigest>>,
    },
    /// The requester's acknowledgement of an applied non-zero grant; lets
    /// the granter release the grant's escrow entry. Unacknowledged grants
    /// are re-sent on a retransmitted request or reclaimed at the escrow
    /// deadline, so a lost grant datagram never burns pool power.
    Ack {
        /// Echo of the granted request's sequence number.
        seq: u64,
        /// Piggybacked suspicion gossip, if the sender had any.
        digest: Option<Box<SuspicionDigest>>,
    },
}

/// Decoding failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Datagram shorter than its layout requires.
    Truncated,
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown message kind.
    BadKind(u8),
    /// A flag bit the message kind does not define.
    BadFlags(u8),
    /// Digest section claims more entries than the format allows.
    BadDigest(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated datagram"),
            WireError::BadVersion(v) => write!(f, "unknown wire version {v:#x}"),
            WireError::BadKind(k) => write!(f, "unknown message kind {k:#x}"),
            WireError::BadFlags(b) => write!(f, "undefined flag bits in {b:#x}"),
            WireError::BadDigest(n) => write!(f, "digest claims {n} entries"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append the digest section, if there is one, and set its flag in the
/// message's flags byte at `buf[flags_at]`.
fn encode_digest(buf: &mut Vec<u8>, flags_at: usize, digest: Option<&SuspicionDigest>) {
    let Some(digest) = digest else { return };
    buf[flags_at] |= FLAG_DIGEST;
    buf.extend_from_slice(&digest.incarnation.to_le_bytes());
    let n = digest.entries.len().min(MAX_DIGEST_ENTRIES);
    buf.push(n as u8);
    for entry in digest.entries.iter().take(n) {
        buf.extend_from_slice(&entry.peer.raw().to_le_bytes());
        buf.extend_from_slice(&entry.incarnation.to_le_bytes());
    }
}

/// A bounds-checked read position in a received datagram: running off the
/// end is [`WireError::Truncated`], never a panic.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.0.split_first_chunk().ok_or(WireError::Truncated)?;
        self.0 = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.take::<1>().map(|b| b[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.take().map(u64::from_le_bytes)
    }

    fn power(&mut self) -> Result<Power, WireError> {
        self.u64().map(Power::from_milliwatts)
    }

    /// The section `flag` marks, or `None` when `flags` leaves it out.
    fn section<T>(
        &mut self,
        flags: u8,
        flag: u8,
        read: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        (flags & flag != 0).then(|| read(self)).transpose()
    }

    /// The digest section, in one of this thread's spare boxes when it
    /// has one; a section cut short gives the box back.
    fn digest(&mut self) -> Result<Box<SuspicionDigest>, WireError> {
        let incarnation = self.u64()?;
        let n = self.u8()?;
        if n as usize > MAX_DIGEST_ENTRIES {
            return Err(WireError::BadDigest(n));
        }
        let mut digest = SuspicionDigest::boxed(incarnation);
        for _ in 0..n {
            match self.entry() {
                Ok(entry) => digest.entries.push(entry),
                Err(e) => {
                    SuspicionDigest::recycle(digest);
                    return Err(e);
                }
            }
        }
        Ok(digest)
    }

    fn entry(&mut self) -> Result<SuspicionEntry, WireError> {
        Ok(SuspicionEntry {
            peer: NodeId::new(self.u32()?),
            incarnation: self.u64()?,
        })
    }
}

impl WireMsg {
    /// Encode into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(MAX_WIRE_LEN);
        self.encode_into(&mut buf);
        buf
    }

    /// Append the encoding to `buf` — the send path's form, which reuses
    /// one buffer instead of allocating per message.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        let (kind, seq) = match self {
            WireMsg::Request { seq, .. } => (KIND_REQUEST, seq),
            WireMsg::Grant { seq, .. } => (KIND_GRANT, seq),
            WireMsg::Ack { seq, .. } => (KIND_ACK, seq),
        };
        let flags_at = buf.len() + FLAGS_AT;
        buf.extend_from_slice(&[WIRE_VERSION, kind, 0]);
        buf.extend_from_slice(&seq.to_le_bytes());
        // Each optional section sets its flag as it is appended.
        match self {
            WireMsg::Request {
                urgent,
                alpha,
                from,
                bid,
                ..
            } => {
                buf.push(u8::from(*urgent));
                buf.extend_from_slice(&alpha.milliwatts().to_le_bytes());
                if let Some(id) = from {
                    buf[flags_at] |= FLAG_FROM;
                    buf.extend_from_slice(&id.raw().to_le_bytes());
                }
                if !bid.is_zero() {
                    buf[flags_at] |= FLAG_BID;
                    buf.extend_from_slice(&bid.milliwatts().to_le_bytes());
                }
            }
            WireMsg::Grant { amount, digest, .. } => {
                buf.extend_from_slice(&amount.milliwatts().to_le_bytes());
                encode_digest(buf, flags_at, digest.as_deref());
            }
            WireMsg::Ack { digest, .. } => encode_digest(buf, flags_at, digest.as_deref()),
        }
    }

    /// Decode a received datagram body (see the module docs for what is
    /// rejected).
    pub fn decode(buf: &[u8]) -> Result<WireMsg, WireError> {
        let mut r = Cursor(buf);
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let (kind, flags) = (r.u8()?, r.u8()?);
        let defined = match kind {
            KIND_REQUEST => FLAG_FROM | FLAG_BID,
            KIND_GRANT | KIND_ACK => FLAG_DIGEST,
            k => return Err(WireError::BadKind(k)),
        };
        if flags & !defined != 0 {
            return Err(WireError::BadFlags(flags));
        }
        let seq = r.u64()?;
        Ok(match kind {
            KIND_REQUEST => WireMsg::Request {
                seq,
                urgent: r.u8()? != 0,
                alpha: r.power()?,
                from: r.section(flags, FLAG_FROM, |r| r.u32().map(NodeId::new))?,
                bid: r
                    .section(flags, FLAG_BID, Cursor::power)?
                    .unwrap_or(Power::ZERO),
            },
            KIND_GRANT => WireMsg::Grant {
                seq,
                amount: r.power()?,
                digest: r.section(flags, FLAG_DIGEST, Cursor::digest)?,
            },
            _ => WireMsg::Ack {
                seq,
                digest: r.section(flags, FLAG_DIGEST, Cursor::digest)?,
            },
        })
    }

    /// The wire form of an engine-level message. The frame header names
    /// the sender, so a request's `from` section stays off the wire.
    pub(crate) fn from_peer(msg: PeerMsg) -> WireMsg {
        match msg {
            PeerMsg::Request(r) => WireMsg::Request {
                seq: r.seq,
                urgent: r.urgent,
                alpha: r.alpha,
                from: None,
                bid: Power::ZERO,
            },
            PeerMsg::Grant(g, digest) => WireMsg::Grant {
                seq: g.seq,
                amount: g.amount,
                digest,
            },
            PeerMsg::Ack(a, digest) => WireMsg::Ack { seq: a.seq, digest },
        }
    }

    /// Give the digest box this message carries, if any, back to the
    /// thread's spares: the send path's last use of an encoded message.
    pub(crate) fn recycle(self) {
        if let WireMsg::Grant {
            digest: Some(d), ..
        }
        | WireMsg::Ack {
            digest: Some(d), ..
        } = self
        {
            SuspicionDigest::recycle(d);
        }
    }

    /// The engine-level message a frame from node `src` carries.
    pub(crate) fn into_peer(self, src: NodeId) -> PeerMsg {
        match self {
            WireMsg::Request {
                seq,
                urgent,
                alpha,
                from,
                bid: _,
            } => PeerMsg::Request(PowerRequest {
                from: from.unwrap_or(src),
                urgent,
                alpha,
                seq,
            }),
            WireMsg::Grant {
                seq,
                amount,
                digest,
            } => PeerMsg::Grant(PowerGrant { amount, seq }, digest),
            WireMsg::Ack { seq, digest } => PeerMsg::Ack(GrantAck { seq }, digest),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn digest(incarnation: u64, peers: &[(u32, u64)]) -> Box<SuspicionDigest> {
        Box::new(SuspicionDigest {
            incarnation,
            entries: peers
                .iter()
                .map(|&(p, inc)| SuspicionEntry {
                    peer: NodeId::new(p),
                    incarnation: inc,
                })
                .collect(),
        })
    }

    fn request(from: Option<u32>, bid: Power) -> WireMsg {
        WireMsg::Request {
            seq: 0xDEAD_BEEF_0123,
            urgent: true,
            alpha: w(57),
            from: from.map(NodeId::new),
            bid,
        }
    }

    /// One message per combination of optional sections, with the flags
    /// byte and encoded length each must have.
    fn every_shape() -> Vec<(WireMsg, u8, usize)> {
        let full: Vec<(u32, u64)> = (0..MAX_DIGEST_ENTRIES as u32)
            .map(|p| (p, u64::MAX))
            .collect();
        let grant = |d| WireMsg::Grant {
            seq: u64::MAX,
            amount: Power::MAX,
            digest: d,
        };
        let ack = |d| WireMsg::Ack {
            seq: 0xFEED_F00D_4567,
            digest: d,
        };
        vec![
            (request(None, Power::ZERO), 0, 20),
            (request(Some(7), Power::ZERO), FLAG_FROM, 24),
            (request(None, Power::from_milliwatts(1_017)), FLAG_BID, 28),
            (
                request(Some(u32::MAX), Power::MAX),
                FLAG_FROM | FLAG_BID,
                32,
            ),
            (grant(None), 0, 19),
            (
                grant(Some(digest(4, &[(2, 1), (3, 7)]))),
                FLAG_DIGEST,
                19 + 9 + 24,
            ),
            (
                grant(Some(digest(u64::MAX, &full))),
                FLAG_DIGEST,
                MAX_WIRE_LEN,
            ),
            (ack(None), 0, 11),
            // A rejoining node gossips a bare incarnation (no suspects)
            // to refute stale suspicion of itself.
            (ack(Some(digest(12, &[]))), FLAG_DIGEST, 11 + 9),
        ]
    }

    #[test]
    fn every_section_combination_roundtrips() {
        for (msg, flags, len) in every_shape() {
            let bytes = msg.encode();
            assert_eq!(bytes[0], WIRE_VERSION, "{msg:?}");
            assert_eq!(bytes[FLAGS_AT], flags, "{msg:?}");
            assert_eq!(bytes.len(), len, "{msg:?}");
            assert!(bytes.len() <= MAX_WIRE_LEN);
            assert_eq!(WireMsg::decode(&bytes), Ok(msg));
        }
    }

    #[test]
    fn an_anonymous_bid_keeps_its_bid() {
        // The frame header names the sender, so a bid needs no `from`
        // section to be attributable.
        let msg = request(None, w(2));
        assert_eq!(WireMsg::decode(&msg.encode()), Ok(msg));
    }

    #[test]
    fn every_strict_prefix_is_truncated() {
        for (msg, ..) in every_shape() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert_eq!(
                    WireMsg::decode(&bytes[..cut]),
                    Err(WireError::Truncated),
                    "prefix {cut} of {msg:?} must not decode"
                );
            }
        }
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        for (msg, flags, _) in every_shape() {
            let defined = match msg {
                WireMsg::Request { .. } => FLAG_FROM | FLAG_BID,
                _ => FLAG_DIGEST,
            };
            for bit in (0..8).map(|b| 1u8 << b).filter(|b| defined & b == 0) {
                let mut bytes = msg.encode();
                bytes[FLAGS_AT] |= bit;
                assert_eq!(
                    WireMsg::decode(&bytes),
                    Err(WireError::BadFlags(flags | bit)),
                    "flag {bit:#x} on {msg:?}"
                );
            }
        }
    }

    #[test]
    fn other_versions_and_kinds_are_rejected() {
        for (msg, ..) in every_shape() {
            let bytes = msg.encode();
            for version in (0..=u8::MAX).filter(|v| *v != WIRE_VERSION) {
                let mut forged = bytes.clone();
                forged[0] = version;
                assert_eq!(
                    WireMsg::decode(&forged),
                    Err(WireError::BadVersion(version))
                );
            }
        }
        assert_eq!(WireMsg::decode(&[9]), Err(WireError::BadVersion(9)));
        assert_eq!(
            WireMsg::decode(&[WIRE_VERSION, 7, 0]),
            Err(WireError::BadKind(7))
        );
    }

    #[test]
    fn oversized_digest_count_is_rejected() {
        let mut bytes = WireMsg::Ack {
            seq: 1,
            digest: Some(digest(1, &[])),
        }
        .encode();
        // Forge the count byte past the cap; the decoder must refuse
        // rather than trust it.
        bytes[11 + 8] = MAX_DIGEST_ENTRIES as u8 + 1;
        assert_eq!(
            WireMsg::decode(&bytes),
            Err(WireError::BadDigest(MAX_DIGEST_ENTRIES as u8 + 1))
        );
    }

    #[test]
    fn encoder_caps_an_oversized_digest() {
        let many: Vec<(u32, u64)> = (0..MAX_DIGEST_ENTRIES as u32 + 3).map(|p| (p, 1)).collect();
        let bytes = WireMsg::Ack {
            seq: 1,
            digest: Some(digest(1, &many)),
        }
        .encode();
        let Ok(WireMsg::Ack {
            digest: Some(d), ..
        }) = WireMsg::decode(&bytes)
        else {
            panic!("capped digest must decode");
        };
        assert_eq!(d.entries.len(), MAX_DIGEST_ENTRIES);
    }

    #[test]
    fn peer_messages_cross_the_wire_unchanged() {
        let src = NodeId::new(3);
        let msgs = [
            PeerMsg::Request(PowerRequest {
                from: src,
                urgent: true,
                alpha: w(30),
                seq: 9,
            }),
            PeerMsg::Grant(
                PowerGrant {
                    amount: w(25),
                    seq: 9,
                },
                Some(digest(4, &[(2, 1)])),
            ),
            PeerMsg::Ack(GrantAck { seq: 9 }, None),
        ];
        for msg in msgs {
            let bytes = WireMsg::from_peer(msg.clone()).encode();
            let back = WireMsg::decode(&bytes).expect("decodes").into_peer(src);
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn a_bid_is_ignored_on_the_way_to_the_engine() {
        let src = NodeId::new(5);
        let peer = |bid| {
            let bytes = request(Some(7), bid).encode();
            WireMsg::decode(&bytes).expect("decodes").into_peer(src)
        };
        assert_eq!(peer(w(3)), peer(Power::ZERO));
    }

    #[test]
    fn error_display() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::BadVersion(3).to_string().contains("version"));
        assert!(WireError::BadKind(3).to_string().contains("kind"));
        assert!(WireError::BadFlags(8).to_string().contains("flag"));
        assert!(WireError::BadDigest(9).to_string().contains("entries"));
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use penelope_testkit::prop::{self, any_bool, any_u64, any_u8, vec_of, Gen};

    fn arb_digest() -> impl Gen<Value = Option<Box<SuspicionDigest>>> {
        (
            any_bool(),
            any_u64(),
            vec_of((0..=u32::MAX, any_u64()), 0..MAX_DIGEST_ENTRIES + 1),
        )
            .prop_map(|(present, incarnation, peers)| {
                present.then(|| {
                    Box::new(SuspicionDigest {
                        incarnation,
                        entries: peers
                            .into_iter()
                            .map(|(p, inc)| SuspicionEntry {
                                peer: NodeId::new(p),
                                incarnation: inc,
                            })
                            .collect(),
                    })
                })
            })
    }

    #[test]
    fn decode_never_panics() {
        prop::check(
            "decode_never_panics",
            prop::Config::default(),
            vec_of(any_u8(), 0..96),
            |bytes| {
                let _ = WireMsg::decode(&bytes);
            },
        );
    }

    #[test]
    fn decode_never_panics_behind_a_valid_header() {
        prop::check(
            "decode_never_panics_behind_a_valid_header",
            prop::Config::default(),
            (0u8..3, 0u8..8, vec_of(any_u8(), 0..96)),
            |(kind, flags, body)| {
                // Uniform bytes almost never get past the version check;
                // this one fuzzes the section parsers.
                let mut bytes = vec![WIRE_VERSION, kind, flags];
                bytes.extend_from_slice(&body);
                let _ = WireMsg::decode(&bytes);
            },
        );
    }

    #[test]
    fn arbitrary_messages_roundtrip() {
        prop::check(
            "arbitrary_messages_roundtrip",
            prop::Config::default(),
            (any_u64(), any_bool(), any_u64(), 0u8..4, arb_digest()),
            |(seq, urgent, mw, kind, digest)| {
                // kind 3 exercises the request's optional sections (sender
                // id and bid derived from the same entropy as the payload).
                let msg = match kind {
                    0 => WireMsg::Request {
                        seq,
                        urgent,
                        alpha: Power::from_milliwatts(mw),
                        from: None,
                        bid: Power::ZERO,
                    },
                    3 => WireMsg::Request {
                        seq,
                        urgent,
                        alpha: Power::from_milliwatts(mw),
                        from: (mw & 1 == 0).then(|| NodeId::new((mw >> 16) as u32)),
                        bid: Power::from_milliwatts(mw ^ seq),
                    },
                    1 => WireMsg::Grant {
                        seq,
                        amount: Power::from_milliwatts(mw),
                        digest,
                    },
                    _ => WireMsg::Ack { seq, digest },
                };
                assert_eq!(WireMsg::decode(&msg.encode()), Ok(msg));
            },
        );
    }

    #[test]
    fn decode_is_prefix_strict() {
        prop::check(
            "decode_is_prefix_strict",
            prop::Config::default(),
            (
                any_u64(),
                any_u64(),
                0usize..MAX_WIRE_LEN,
                any_bool(),
                arb_digest(),
            ),
            |(seq, mw, cut, is_ack, digest)| {
                // Any strict prefix of a valid grant or ack fails cleanly.
                let bytes = if is_ack {
                    WireMsg::Ack { seq, digest }.encode()
                } else {
                    WireMsg::Grant {
                        seq,
                        amount: Power::from_milliwatts(mw),
                        digest,
                    }
                    .encode()
                };
                let truncated = &bytes[..cut.min(bytes.len() - 1)];
                assert!(WireMsg::decode(truncated).is_err());
            },
        );
    }

    /// Where one step of `recycled_digest_boxes_carry_nothing_over` gets
    /// its digest.
    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Source {
        /// A fresh peer table that adopted `entries` as gossip, then
        /// built the digest for an outgoing message.
        Table,
        /// A decoded ack carrying `entries`.
        Wire,
        /// An ack whose digest section is cut short: the decode fails
        /// after taking a box.
        Truncated,
    }

    #[test]
    fn recycled_digest_boxes_carry_nothing_over() {
        use std::collections::BTreeMap;

        use penelope_core::{EngineConfig, NodeCtx, NodeParams, PeerTable};
        use penelope_trace::SharedObserver;
        use penelope_units::SimTime;

        let me = NodeId::new(0);
        let ctx = NodeCtx::new(
            me,
            16,
            EngineConfig::new(NodeParams::default()),
            SharedObserver::noop(),
        );
        let step = (
            penelope_testkit::prop::one_of(vec![Source::Table, Source::Wire, Source::Truncated]),
            any_u64(),
            vec_of((1u32..16, 0u64..4), 0..MAX_DIGEST_ENTRIES + 1),
            0u8..3,
        );
        // Every digest a step produces is the one its source describes,
        // whatever boxes earlier steps gave back: spares are cleared, not
        // appended to or left at an old incarnation. Kept digests are
        // given back at later steps, so boxes of every size interleave.
        prop::check(
            "recycled_digest_boxes_carry_nothing_over",
            prop::Config::default(),
            vec_of(step, 0..32),
            |steps| {
                let mut held: Vec<(Box<SuspicionDigest>, SuspicionDigest)> = Vec::new();
                for (source, incarnation, peers, keep) in steps {
                    let incarnation = if incarnation % 3 == 0 { 0 } else { incarnation };
                    let entries: Vec<SuspicionEntry> = peers
                        .iter()
                        .map(|&(peer, incarnation)| SuspicionEntry {
                            peer: NodeId::new(peer),
                            incarnation,
                        })
                        .collect();
                    let produced = match source {
                        Source::Table => {
                            let src = NodeId::new(1);
                            let mut table = PeerTable::new(&ctx);
                            let mut gossip = SuspicionDigest::boxed(0);
                            gossip.entries.extend_from_slice(&entries);
                            table.merge_digest(&ctx, SimTime::ZERO, src, &gossip);
                            SuspicionDigest::recycle(gossip);
                            // Adopted: every named peer but the sender, at
                            // the newest incarnation named, ascending.
                            let mut adopted = BTreeMap::new();
                            for e in entries.iter().filter(|e| e.peer != src) {
                                let inc = adopted.entry(e.peer).or_insert(e.incarnation);
                                *inc = (*inc).max(e.incarnation);
                            }
                            let expected =
                                (!adopted.is_empty() || incarnation > 0).then(|| SuspicionDigest {
                                    incarnation,
                                    entries: adopted
                                        .into_iter()
                                        .map(|(peer, incarnation)| SuspicionEntry {
                                            peer,
                                            incarnation,
                                        })
                                        .collect(),
                                });
                            let digest = table.digest(&ctx, incarnation);
                            assert_eq!(digest.as_deref(), expected.as_ref());
                            digest.zip(expected)
                        }
                        Source::Wire | Source::Truncated => {
                            let expected = SuspicionDigest {
                                incarnation,
                                entries,
                            };
                            let digest = Some(Box::new(expected.clone()));
                            let bytes = WireMsg::Ack { seq: 9, digest }.encode();
                            if let Source::Truncated = source {
                                // Drop the last byte: it cuts the last
                                // entry short after a box was taken, or,
                                // with no entries, the count before.
                                let cut = bytes.len() - 1;
                                assert!(WireMsg::decode(&bytes[..cut]).is_err());
                                continue;
                            }
                            let Ok(WireMsg::Ack {
                                digest: Some(digest),
                                ..
                            }) = WireMsg::decode(&bytes)
                            else {
                                panic!("an ack with a digest decodes");
                            };
                            assert_eq!(*digest, expected);
                            Some((digest, expected))
                        }
                    };
                    match (produced, keep) {
                        (Some(pair), 0) => held.push(pair),
                        (Some((digest, _)), _) => SuspicionDigest::recycle(digest),
                        (None, _) => {}
                    }
                    if keep == 2 && !held.is_empty() {
                        let (digest, expected) = held.swap_remove(0);
                        assert_eq!(*digest, expected, "a held digest changed");
                        SuspicionDigest::recycle(digest);
                    }
                }
                for (digest, expected) in held {
                    assert_eq!(*digest, expected, "a held digest changed");
                    SuspicionDigest::recycle(digest);
                }
            },
        );
    }
}
