//! The wire format spoken between border-router actors.
//!
//! BGMP runs over persistent TCP connections between peers (§5.2:
//! "BGMP border routers have persistent TCP peering sessions with each
//! other"), exactly like BGP. This deployment multiplexes BGP, BGMP,
//! and MASC messages over one length-delimited JSON stream per peer
//! pair — the protocol engines themselves are the same sans-io state
//! machines the simulator drives.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::panic_in_result_fn,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use bgmp::{BgmpMsg, SourceId};
use bgp::{BgpMsg, RouterId};
use masc::{DomainAsn, MascMsg};
use mcast_addr::McastAddr;
use serde::{Deserialize, Serialize};

/// A frame between two router actors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireMsg {
    /// First frame on every connection: who is calling.
    Hello {
        /// The connecting router.
        router: RouterId,
    },
    /// A BGP message.
    Bgp(BgpMsg),
    /// A BGMP message.
    Bgmp(BgmpMsg),
    /// A MASC message (domain-level, carried over the border-router
    /// session).
    Masc {
        /// Sending domain.
        from: DomainAsn,
        /// Payload.
        msg: MascMsg,
    },
    /// A multicast data packet.
    Data {
        /// The originating host.
        source: SourceId,
        /// Destination group.
        group: McastAddr,
        /// Packet id for delivery accounting.
        id: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_addr::Prefix;

    #[test]
    fn roundtrip_json() {
        let msgs = vec![
            WireMsg::Hello { router: 7 },
            WireMsg::Bgmp(BgmpMsg::Join(McastAddr(0xE000_0001))),
            WireMsg::Data {
                source: SourceId { domain: 3, host: 9 },
                group: McastAddr(0xE000_0001),
                id: 42,
            },
            WireMsg::Masc {
                from: 2,
                msg: MascMsg::Release {
                    claimer: 2,
                    prefix: "224.0.0.0/24".parse::<Prefix>().unwrap(),
                },
            },
        ];
        for m in msgs {
            let enc = serde_json::to_vec(&m).unwrap();
            let dec: WireMsg = serde_json::from_slice(&enc).unwrap();
            assert_eq!(format!("{m:?}"), format!("{dec:?}"));
        }
    }
}
