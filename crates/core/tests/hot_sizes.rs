//! Size guards for the structs every route, message in flight and
//! pending event is made of. `bgp_converge`'s peak memory is mostly
//! candidates (`Route`), queued `Wire` messages and event-slab slots
//! (`Event<Wire>` plus the slot's keys), so a field that regrows one of
//! them fails here before it shows in a benchmark (EXPERIMENTS.md
//! BGP-ID).

use std::mem::size_of;

use bgp::{AsPath, BgpMsg, Route};
use masc_bgmp_core::Wire;
use simnet::Event;

#[test]
fn hot_structs_keep_their_sizes() {
    let sizes = [
        ("AsPath", size_of::<AsPath>(), 4),
        ("Option<AsPath>", size_of::<Option<AsPath>>(), 4),
        ("Route", size_of::<Route>(), 24),
        ("BgpMsg", size_of::<BgpMsg>(), 28),
        ("Wire", size_of::<Wire>(), 40),
        ("Event<Wire>", size_of::<Event<Wire>>(), 56),
    ];
    for (name, size, most) in sizes {
        println!("{name}: {size} B (at most {most})");
    }
    for (name, size, most) in sizes {
        assert!(size <= most, "{name} is {size} B, more than {most}");
    }
    assert_eq!(size_of::<AsPath>(), 4, "an AS path is a 4-byte id");
    assert_eq!(size_of::<Option<AsPath>>(), 4, "`None` is the id 0");
}
