//! The typed protocol-event vocabulary.
//!
//! Every traced substrate — the DES simulator and the UDP daemon, per node
//! or multiplexed — emits exactly these events, so observers (and the
//! conformance harness) can diff protocol behaviour across deployments
//! instead of comparing lossy end-of-run summaries.

use std::fmt;

use penelope_units::{NodeId, Power, SimTime};

/// The decider's per-iteration classification (Algorithm 1, line 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// Consumption sits at least ε below the cap: power can be shed.
    Excess,
    /// Consumption presses against the cap: more power is wanted.
    Hungry,
    /// Consumption is within ε of the cap: hold.
    AtMargin,
}

impl NodeClass {
    /// Stable snake_case name used in the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            NodeClass::Excess => "excess",
            NodeClass::Hungry => "hungry",
            NodeClass::AtMargin => "at_margin",
        }
    }
}

/// What happened. Power amounts are exact (integer milliwatts), so folds
/// over an event stream reproduce the substrates' own accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The decider classified the node for this iteration.
    Classified {
        /// The classification.
        class: NodeClass,
        /// Power reading the classification was based on.
        reading: Power,
        /// Cap at classification time (before any shed/raise).
        cap: Power,
    },
    /// Power entered the local pool (shed excess, grant overflow, or an
    /// urgency release).
    PoolDeposit {
        /// Amount deposited.
        amount: Power,
        /// Pool level after the deposit.
        pool: Power,
    },
    /// Power left the local pool into the local cap (`takeLocal`).
    PoolWithdraw {
        /// Amount withdrawn.
        amount: Power,
        /// Pool level after the withdrawal.
        pool: Power,
    },
    /// A hungry decider sent a power request (to a peer, or on the
    /// centralized arm to the server).
    RequestSent {
        /// The node asked for power.
        dst: NodeId,
        /// Whether distributed urgency was raised on the request.
        urgent: bool,
        /// Requested amount hint (α); zero means "whatever you can spare".
        alpha: Power,
        /// Per-node request sequence number.
        seq: u64,
    },
    /// This node's pool (or, on the centralized arm, this server) served
    /// a request (the grant may be zero).
    RequestServed {
        /// The requesting node.
        requester: NodeId,
        /// The requester's sequence number.
        seq: u64,
        /// Amount granted out of the pool.
        granted: Power,
        /// Whether the request carried the urgency flag.
        urgent: bool,
    },
    /// A peer request was dropped before it could be served (queue
    /// overflow, dead node, partition).
    RequestDenied {
        /// The requesting node.
        requester: NodeId,
        /// The requester's sequence number.
        seq: u64,
    },
    /// The decider gave up waiting for a response to `seq`.
    RequestTimeout {
        /// The sequence number that timed out.
        seq: u64,
    },
    /// A grant reached the requesting decider and was applied to its cap.
    GrantApplied {
        /// The sequence number the grant answers.
        seq: u64,
        /// Amount the peer granted.
        granted: Power,
        /// Amount actually added to the cap (the rest, if any, overflowed
        /// back into the pool and shows up as a `PoolDeposit`; a SLURM
        /// client reports it back to the server).
        applied: Power,
    },
    /// Serving an urgent request switched the local urgency flag on.
    UrgencyRaised {
        /// The peer whose urgent request raised the flag.
        by: NodeId,
    },
    /// The local urgency flag switched off (decider released down to its
    /// initial cap, or a non-urgent request overwrote the flag).
    UrgencyCleared {
        /// Power released back into the pool by the clearing decider
        /// (zero when the flag was overwritten by a non-urgent request).
        released: Power,
    },
    /// End-of-iteration cap/reading/pool sample (once per decider period).
    CapActuated {
        /// Requested cap after this iteration.
        cap: Power,
        /// The iteration's power reading.
        reading: Power,
        /// Pool level after this iteration.
        pool: Power,
    },
    /// A protocol message left this node.
    MsgSent {
        /// Destination node.
        dst: NodeId,
        /// Power carried by the message (grants; zero for requests).
        carried: Power,
    },
    /// A protocol message arrived at this node.
    MsgRecv {
        /// Source node.
        src: NodeId,
        /// Power carried by the message.
        carried: Power,
    },
    /// A protocol message was dropped in flight.
    MsgDropped {
        /// Intended destination.
        dst: NodeId,
        /// Power carried by the message (lost power shows up in the
        /// substrate's conservation ledger, not here).
        carried: Power,
    },
    /// This node's pool served a non-zero grant and escrowed it pending
    /// the requester's ack (the lossy-network reliability layer).
    GrantEscrowed {
        /// The requesting node the grant is addressed to.
        requester: NodeId,
        /// The requester's sequence number.
        seq: u64,
        /// The escrowed (already pool-debited) amount.
        amount: Power,
    },
    /// An escrowed grant's ack never arrived and the grant is known
    /// undelivered: the granter re-credited the amount to its own pool.
    GrantReclaimed {
        /// The requester the grant had been addressed to.
        requester: NodeId,
        /// The requester's sequence number.
        seq: u64,
        /// The amount returned to the granter's pool.
        amount: Power,
    },
    /// A grant acknowledgement was dropped in flight (harmless for
    /// conservation — the granter's escrow entry simply expires without
    /// credit — but worth seeing in a trace).
    AckDropped {
        /// The granter the ack was addressed to.
        dst: NodeId,
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// A node crashed: its cap, pool and escrowed grants left the system
    /// (substrate lifecycle, not protocol — a kill script differs
    /// legitimately between substrates).
    NodeKilled {
        /// Power retired to the lost ledger by the crash (cap + pool +
        /// undelivered escrow).
        lost: Power,
    },
    /// A crashed node rejoined the cluster with power re-admitted from
    /// the lost ledger (never more than was lost at the crash).
    NodeRestarted {
        /// Power re-admitted from the lost ledger as the reborn cap.
        readmitted: Power,
    },
    /// The decider's liveness layer started suspecting a peer after
    /// consecutive request timeouts; partner selection avoids it until it
    /// is cleared or the probe interval elapses.
    PeerSuspected {
        /// The suspected peer.
        peer: NodeId,
    },
    /// A reply from a suspected peer cleared its suspicion.
    PeerCleared {
        /// The peer no longer suspected.
        peer: NodeId,
    },
    /// A suspicion was adopted secondhand from a peer's gossiped digest
    /// rather than earned through this node's own timeout schedule.
    SuspicionGossiped {
        /// The peer now suspected.
        peer: NodeId,
        /// The peer whose digest carried the suspicion.
        via: NodeId,
    },
    /// A suspicion was dismissed because incarnation evidence proved it
    /// stale: the suspected peer has re-incarnated (rejoined with a newer
    /// seq-epoch) since the suspicion was formed.
    SuspicionRefuted {
        /// The peer no longer suspected.
        peer: NodeId,
    },
    /// A request was sent to a peer whose suspicion outlived the probe
    /// interval: this is the liveness probe that will either clear the
    /// suspicion (any reply) or re-confirm it (another timeout). Emitted
    /// alongside the probe's `RequestSent`.
    PeerProbed {
        /// The suspected peer being probed.
        peer: NodeId,
    },
    /// A datagram send failed at the OS socket layer (`send_to` returned
    /// an error). Transport-level, and distinct from
    /// [`EventKind::MsgDropped`]: a dropped message models network loss
    /// the fault plane *injected*, while a failed send means the host
    /// refused to take the datagram at all (unroutable peer, full
    /// buffers). Fault-free runs assert this counter stays zero.
    SendFailed {
        /// Intended destination.
        dst: NodeId,
    },
}

/// Number of distinct [`EventKind`] variants (size of per-kind counters).
pub(crate) const KIND_COUNT: usize = 25;

impl EventKind {
    /// Dense index of the variant, `0..KIND_COUNT` (counter bucket).
    pub fn tag(&self) -> usize {
        match self {
            EventKind::Classified { .. } => 0,
            EventKind::PoolDeposit { .. } => 1,
            EventKind::PoolWithdraw { .. } => 2,
            EventKind::RequestSent { .. } => 3,
            EventKind::RequestServed { .. } => 4,
            EventKind::RequestDenied { .. } => 5,
            EventKind::RequestTimeout { .. } => 6,
            EventKind::GrantApplied { .. } => 7,
            EventKind::UrgencyRaised { .. } => 8,
            EventKind::UrgencyCleared { .. } => 9,
            EventKind::CapActuated { .. } => 10,
            EventKind::MsgSent { .. } => 11,
            EventKind::MsgRecv { .. } => 12,
            EventKind::MsgDropped { .. } => 13,
            EventKind::GrantEscrowed { .. } => 14,
            EventKind::GrantReclaimed { .. } => 15,
            EventKind::AckDropped { .. } => 16,
            EventKind::NodeKilled { .. } => 17,
            EventKind::NodeRestarted { .. } => 18,
            EventKind::PeerSuspected { .. } => 19,
            EventKind::PeerCleared { .. } => 20,
            EventKind::SuspicionGossiped { .. } => 21,
            EventKind::SuspicionRefuted { .. } => 22,
            EventKind::PeerProbed { .. } => 23,
            EventKind::SendFailed { .. } => 24,
        }
    }

    /// Stable snake_case name used as the JSONL `kind` field.
    pub fn name(&self) -> &'static str {
        KIND_NAMES[self.tag()]
    }

    /// `true` for events that are part of the protocol narrative (as
    /// opposed to transport-level message bookkeeping). Cross-substrate
    /// stream diffs compare exactly these. The escrow/ack events are
    /// transport-level too: they narrate delivery reliability, which
    /// legitimately differs between substrates. Gossip arrival depends on
    /// which grants and acks happen to be in flight — transport timing —
    /// so the suspicion-gossip kinds stay out of protocol diffs as well.
    pub fn is_protocol(&self) -> bool {
        !matches!(
            self,
            EventKind::MsgSent { .. }
                | EventKind::MsgRecv { .. }
                | EventKind::MsgDropped { .. }
                | EventKind::GrantEscrowed { .. }
                | EventKind::GrantReclaimed { .. }
                | EventKind::AckDropped { .. }
                | EventKind::NodeKilled { .. }
                | EventKind::NodeRestarted { .. }
                | EventKind::SuspicionGossiped { .. }
                | EventKind::SuspicionRefuted { .. }
                | EventKind::SendFailed { .. }
        )
    }
}

/// JSONL `kind` names, indexed by [`EventKind::tag`].
pub(crate) const KIND_NAMES: [&str; KIND_COUNT] = [
    "classified",
    "pool_deposit",
    "pool_withdraw",
    "request_sent",
    "request_served",
    "request_denied",
    "request_timeout",
    "grant_applied",
    "urgency_raised",
    "urgency_cleared",
    "cap_actuated",
    "msg_sent",
    "msg_recv",
    "msg_dropped",
    "grant_escrowed",
    "grant_reclaimed",
    "ack_dropped",
    "node_killed",
    "node_restarted",
    "peer_suspected",
    "peer_cleared",
    "suspicion_gossiped",
    "suspicion_refuted",
    "peer_probed",
    "send_failed",
];

/// One protocol event: what happened, where, and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened (substrate clock).
    pub at: SimTime,
    /// The node the event happened on.
    pub node: NodeId,
    /// Decider period the event belongs to (`at / period_length`).
    pub period: u64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Render the event as one line of the JSONL schema (no trailing
    /// newline). Times are nanoseconds, power amounts integer milliwatts;
    /// the first four fields (`t_ns`, `node`, `period`, `kind`) are always
    /// present, the rest depend on `kind`.
    pub(crate) fn to_jsonl(self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"t_ns\":");
        s.push_str(&self.at.as_nanos().to_string());
        s.push_str(",\"node\":");
        s.push_str(&self.node.raw().to_string());
        s.push_str(",\"period\":");
        s.push_str(&self.period.to_string());
        s.push_str(",\"kind\":\"");
        s.push_str(self.kind.name());
        s.push('"');
        let num = |s: &mut String, key: &str, v: u64| {
            s.push_str(",\"");
            s.push_str(key);
            s.push_str("\":");
            s.push_str(&v.to_string());
        };
        match self.kind {
            EventKind::Classified {
                class,
                reading,
                cap,
            } => {
                s.push_str(",\"class\":\"");
                s.push_str(class.name());
                s.push('"');
                num(&mut s, "reading_mw", reading.milliwatts());
                num(&mut s, "cap_mw", cap.milliwatts());
            }
            EventKind::PoolDeposit { amount, pool } | EventKind::PoolWithdraw { amount, pool } => {
                num(&mut s, "amount_mw", amount.milliwatts());
                num(&mut s, "pool_mw", pool.milliwatts());
            }
            EventKind::RequestSent {
                dst,
                urgent,
                alpha,
                seq,
            } => {
                num(&mut s, "dst", u64::from(dst.raw()));
                s.push_str(",\"urgent\":");
                s.push_str(if urgent { "true" } else { "false" });
                num(&mut s, "alpha_mw", alpha.milliwatts());
                num(&mut s, "seq", seq);
            }
            EventKind::RequestServed {
                requester,
                seq,
                granted,
                urgent,
            } => {
                num(&mut s, "requester", u64::from(requester.raw()));
                num(&mut s, "seq", seq);
                num(&mut s, "granted_mw", granted.milliwatts());
                s.push_str(",\"urgent\":");
                s.push_str(if urgent { "true" } else { "false" });
            }
            EventKind::RequestDenied { requester, seq } => {
                num(&mut s, "requester", u64::from(requester.raw()));
                num(&mut s, "seq", seq);
            }
            EventKind::RequestTimeout { seq } => num(&mut s, "seq", seq),
            EventKind::GrantApplied {
                seq,
                granted,
                applied,
            } => {
                num(&mut s, "seq", seq);
                num(&mut s, "granted_mw", granted.milliwatts());
                num(&mut s, "applied_mw", applied.milliwatts());
            }
            EventKind::UrgencyRaised { by } => num(&mut s, "by", u64::from(by.raw())),
            EventKind::UrgencyCleared { released } => {
                num(&mut s, "released_mw", released.milliwatts())
            }
            EventKind::CapActuated { cap, reading, pool } => {
                num(&mut s, "cap_mw", cap.milliwatts());
                num(&mut s, "reading_mw", reading.milliwatts());
                num(&mut s, "pool_mw", pool.milliwatts());
            }
            EventKind::MsgSent { dst, carried } | EventKind::MsgDropped { dst, carried } => {
                num(&mut s, "dst", u64::from(dst.raw()));
                num(&mut s, "carried_mw", carried.milliwatts());
            }
            EventKind::MsgRecv { src, carried } => {
                num(&mut s, "src", u64::from(src.raw()));
                num(&mut s, "carried_mw", carried.milliwatts());
            }
            EventKind::GrantEscrowed {
                requester,
                seq,
                amount,
            }
            | EventKind::GrantReclaimed {
                requester,
                seq,
                amount,
            } => {
                num(&mut s, "requester", u64::from(requester.raw()));
                num(&mut s, "seq", seq);
                num(&mut s, "amount_mw", amount.milliwatts());
            }
            EventKind::AckDropped { dst, seq } => {
                num(&mut s, "dst", u64::from(dst.raw()));
                num(&mut s, "seq", seq);
            }
            EventKind::NodeKilled { lost } => num(&mut s, "lost_mw", lost.milliwatts()),
            EventKind::NodeRestarted { readmitted } => {
                num(&mut s, "readmitted_mw", readmitted.milliwatts())
            }
            EventKind::PeerSuspected { peer }
            | EventKind::PeerCleared { peer }
            | EventKind::SuspicionRefuted { peer }
            | EventKind::PeerProbed { peer } => num(&mut s, "peer", u64::from(peer.raw())),
            EventKind::SuspicionGossiped { peer, via } => {
                num(&mut s, "peer", u64::from(peer.raw()));
                num(&mut s, "via", u64::from(via.raw()));
            }
            EventKind::SendFailed { dst } => num(&mut s, "dst", u64::from(dst.raw())),
        }
        s.push('}');
        s
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12.6}s n{} p{}] {:?}",
            self.at.as_secs_f64(),
            self.node.raw(),
            self.period,
            self.kind
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    #[test]
    fn tags_are_dense_and_names_unique() {
        let mut seen = std::collections::HashSet::new();
        for name in KIND_NAMES {
            assert!(seen.insert(name), "duplicate kind name {name}");
        }
        let ev = EventKind::RequestTimeout { seq: 1 };
        assert_eq!(KIND_NAMES[ev.tag()], "request_timeout");
        assert_eq!(ev.name(), "request_timeout");
    }

    #[test]
    fn jsonl_carries_the_common_fields() {
        let ev = TraceEvent {
            at: SimTime::from_secs(2),
            node: NodeId::new(3),
            period: 2,
            kind: EventKind::RequestSent {
                dst: NodeId::new(1),
                urgent: true,
                alpha: w(5),
                seq: 7,
            },
        };
        let line = ev.to_jsonl();
        assert_eq!(
            line,
            "{\"t_ns\":2000000000,\"node\":3,\"period\":2,\"kind\":\"request_sent\",\
             \"dst\":1,\"urgent\":true,\"alpha_mw\":5000,\"seq\":7}"
        );
    }

    #[test]
    fn transport_kinds_are_not_protocol() {
        let msg = EventKind::MsgSent {
            dst: NodeId::new(0),
            carried: Power::ZERO,
        };
        assert!(!msg.is_protocol());
        assert!(EventKind::RequestTimeout { seq: 0 }.is_protocol());
        // The escrow/ack reliability layer is transport-level too: its
        // events must never perturb cross-substrate protocol-stream diffs.
        assert!(!EventKind::GrantEscrowed {
            requester: NodeId::new(1),
            seq: 0,
            amount: w(1),
        }
        .is_protocol());
        assert!(!EventKind::GrantReclaimed {
            requester: NodeId::new(1),
            seq: 0,
            amount: w(1),
        }
        .is_protocol());
        assert!(!EventKind::AckDropped {
            dst: NodeId::new(1),
            seq: 0,
        }
        .is_protocol());
    }

    #[test]
    fn churn_kinds_render_and_classify() {
        // Lifecycle kinds narrate the fault script, which legitimately
        // differs per substrate — they must stay out of protocol diffs.
        assert!(!EventKind::NodeKilled { lost: w(3) }.is_protocol());
        assert!(!EventKind::NodeRestarted { readmitted: w(3) }.is_protocol());
        // Suspicion is decider state driven purely by timeouts, emitted
        // identically on every substrate — it belongs in the diff.
        assert!(EventKind::PeerSuspected {
            peer: NodeId::new(1)
        }
        .is_protocol());
        assert!(EventKind::PeerCleared {
            peer: NodeId::new(1)
        }
        .is_protocol());
        let ev = TraceEvent {
            at: SimTime::from_secs(3),
            node: NodeId::new(2),
            period: 3,
            kind: EventKind::NodeRestarted { readmitted: w(160) },
        };
        assert_eq!(
            ev.to_jsonl(),
            "{\"t_ns\":3000000000,\"node\":2,\"period\":3,\"kind\":\"node_restarted\",\
             \"readmitted_mw\":160000}"
        );
        let sus = TraceEvent {
            at: SimTime::from_secs(4),
            node: NodeId::new(0),
            period: 4,
            kind: EventKind::PeerSuspected {
                peer: NodeId::new(5),
            },
        };
        assert_eq!(
            sus.to_jsonl(),
            "{\"t_ns\":4000000000,\"node\":0,\"period\":4,\"kind\":\"peer_suspected\",\"peer\":5}"
        );
    }

    #[test]
    fn gossip_kinds_render_and_classify() {
        // Gossip rides on grants/acks, so when a suspicion arrives is a
        // transport-timing fact — keep both kinds out of protocol diffs.
        assert!(!EventKind::SuspicionGossiped {
            peer: NodeId::new(1),
            via: NodeId::new(2),
        }
        .is_protocol());
        assert!(!EventKind::SuspicionRefuted {
            peer: NodeId::new(1)
        }
        .is_protocol());
        let ev = TraceEvent {
            at: SimTime::from_secs(5),
            node: NodeId::new(0),
            period: 5,
            kind: EventKind::SuspicionGossiped {
                peer: NodeId::new(3),
                via: NodeId::new(2),
            },
        };
        assert_eq!(
            ev.to_jsonl(),
            "{\"t_ns\":5000000000,\"node\":0,\"period\":5,\"kind\":\"suspicion_gossiped\",\
             \"peer\":3,\"via\":2}"
        );
        let refuted = TraceEvent {
            at: SimTime::from_secs(6),
            node: NodeId::new(1),
            period: 6,
            kind: EventKind::SuspicionRefuted {
                peer: NodeId::new(3),
            },
        };
        assert_eq!(
            refuted.to_jsonl(),
            "{\"t_ns\":6000000000,\"node\":1,\"period\":6,\"kind\":\"suspicion_refuted\",\"peer\":3}"
        );
    }

    #[test]
    fn probe_kind_renders_and_classifies() {
        // The probe is a pure function of decider state (suspicion age)
        // and the selection that produced the accompanying RequestSent,
        // so it belongs in cross-substrate protocol diffs.
        assert!(EventKind::PeerProbed {
            peer: NodeId::new(1)
        }
        .is_protocol());
        let ev = TraceEvent {
            at: SimTime::from_secs(7),
            node: NodeId::new(2),
            period: 7,
            kind: EventKind::PeerProbed {
                peer: NodeId::new(4),
            },
        };
        assert_eq!(
            ev.to_jsonl(),
            "{\"t_ns\":7000000000,\"node\":2,\"period\":7,\"kind\":\"peer_probed\",\"peer\":4}"
        );
    }

    #[test]
    fn escrow_kinds_render_their_fields() {
        let ev = TraceEvent {
            at: SimTime::from_secs(1),
            node: NodeId::new(0),
            period: 1,
            kind: EventKind::GrantReclaimed {
                requester: NodeId::new(2),
                seq: 9,
                amount: w(7),
            },
        };
        assert_eq!(
            ev.to_jsonl(),
            "{\"t_ns\":1000000000,\"node\":0,\"period\":1,\"kind\":\"grant_reclaimed\",\
             \"requester\":2,\"seq\":9,\"amount_mw\":7000}"
        );
        let ack = TraceEvent {
            at: SimTime::ZERO,
            node: NodeId::new(3),
            period: 0,
            kind: EventKind::AckDropped {
                dst: NodeId::new(0),
                seq: 4,
            },
        };
        assert_eq!(
            ack.to_jsonl(),
            "{\"t_ns\":0,\"node\":3,\"period\":0,\"kind\":\"ack_dropped\",\"dst\":0,\"seq\":4}"
        );
    }
}
