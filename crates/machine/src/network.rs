//! Interconnect models.
//!
//! The TBON cost model and the SBRS broadcast need per-message transfer times.  We
//! model each machine's interconnect as a small set of link classes with a latency
//! and a bandwidth each; a transfer of `b` bytes over a link costs
//! `latency + b / bandwidth`.  The constants are order-of-magnitude values for the
//! 2008-era hardware the paper used (DDR Infiniband on Atlas; the BG/L collective
//! tree and the gigabit functional network to the I/O and login nodes).

use simkit::time::SimDuration;

/// The kinds of links a message can traverse.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Atlas compute-to-compute DDR Infiniband (≈1.5 µs, ≈1.5 GB/s effective).
    InfinibandDdr,
    /// BG/L compute-node collective/tree network (low latency, moderate bandwidth).
    BglCollective,
    /// BG/L functional gigabit Ethernet between I/O nodes and the outside world.
    BglFunctional,
    /// Login-node to front-end / site Ethernet.
    Ethernet1G,
    /// Loopback within a node (daemon talking to co-located tasks).
    Local,
}

/// One link class's transfer-cost model: `latency + bytes / bandwidth`.
#[derive(Clone, Copy, Debug)]
struct Link {
    /// One-way latency per message.
    latency: SimDuration,
    /// Bandwidth in bytes per second.
    bytes_per_sec: f64,
}

impl Link {
    /// Time to move `bytes` bytes in a single message.
    fn transfer(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::from_secs(bytes as f64 / self.bytes_per_sec)
    }
}

/// The interconnect of a machine: a transfer-cost model per link class.
#[derive(Clone, Debug)]
pub struct Interconnect {
    name: &'static str,
    infiniband: Link,
    bgl_collective: Link,
    bgl_functional: Link,
    ethernet: Link,
    local: Link,
}

impl Interconnect {
    /// The Atlas interconnect: DDR Infiniband everywhere, Ethernet to the front end.
    pub fn atlas() -> Self {
        Interconnect {
            name: "atlas",
            infiniband: Link {
                latency: SimDuration::from_micros(1.5),
                bytes_per_sec: 1.5e9,
            },
            // Atlas has no BG/L networks; route those classes over Infiniband too so a
            // mis-specified link class degrades gracefully instead of panicking.
            bgl_collective: Link {
                latency: SimDuration::from_micros(1.5),
                bytes_per_sec: 1.5e9,
            },
            bgl_functional: Link {
                latency: SimDuration::from_micros(1.5),
                bytes_per_sec: 1.5e9,
            },
            ethernet: Link {
                latency: SimDuration::from_micros(50.0),
                bytes_per_sec: 110.0e6,
            },
            local: Link {
                latency: SimDuration::from_micros(0.3),
                bytes_per_sec: 4.0e9,
            },
        }
    }

    /// The BG/L interconnect: collective tree between compute nodes, gigabit
    /// functional network from I/O nodes to login nodes, Ethernet beyond.
    pub fn bluegene_l() -> Self {
        Interconnect {
            name: "bgl",
            infiniband: Link {
                latency: SimDuration::from_micros(2.5),
                bytes_per_sec: 350.0e6,
            },
            bgl_collective: Link {
                latency: SimDuration::from_micros(2.5),
                bytes_per_sec: 350.0e6,
            },
            bgl_functional: Link {
                latency: SimDuration::from_micros(65.0),
                bytes_per_sec: 100.0e6,
            },
            ethernet: Link {
                latency: SimDuration::from_micros(80.0),
                bytes_per_sec: 100.0e6,
            },
            local: Link {
                latency: SimDuration::from_micros(0.5),
                bytes_per_sec: 2.0e9,
            },
        }
    }

    /// Machine name the interconnect belongs to.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Time to move `bytes` over one hop of `class`.
    pub fn transfer(&self, class: LinkClass, bytes: u64) -> SimDuration {
        let link = match class {
            LinkClass::InfinibandDdr => self.infiniband,
            LinkClass::BglCollective => self.bgl_collective,
            LinkClass::BglFunctional => self.bgl_functional,
            LinkClass::Ethernet1G => self.ethernet,
            LinkClass::Local => self.local,
        };
        link.transfer(bytes)
    }

    /// The link class connecting a tool daemon to its parent communication process.
    /// On Atlas that is Infiniband; on BG/L the daemon sits on an I/O node and talks
    /// to login nodes over the functional network.
    pub fn daemon_uplink(&self) -> LinkClass {
        if self.name == "bgl" {
            LinkClass::BglFunctional
        } else {
            LinkClass::InfinibandDdr
        }
    }

    /// The link class connecting communication processes to the tool front end.
    pub fn frontend_uplink(&self) -> LinkClass {
        LinkClass::Ethernet1G
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_combines_latency_and_serialization() {
        let link = Link {
            latency: SimDuration::from_micros(5.0),
            bytes_per_sec: 1.0e9,
        };
        // 1 MB at 1 GB/s = 1 ms, plus the 5 µs latency.
        assert_eq!(link.transfer(1_000_000), SimDuration::from_micros(1_005.0));
    }

    #[test]
    fn atlas_infiniband_is_faster_than_ethernet() {
        let net = Interconnect::atlas();
        let ib = net.transfer(LinkClass::InfinibandDdr, 1 << 20);
        let eth = net.transfer(LinkClass::Ethernet1G, 1 << 20);
        assert!(ib < eth, "ib={ib} eth={eth}");
    }

    #[test]
    fn bgl_functional_network_is_the_daemon_uplink() {
        let net = Interconnect::bluegene_l();
        assert_eq!(net.daemon_uplink(), LinkClass::BglFunctional);
        let atlas = Interconnect::atlas();
        assert_eq!(atlas.daemon_uplink(), LinkClass::InfinibandDdr);
    }

    #[test]
    fn transfer_time_grows_with_message_size() {
        let net = Interconnect::bluegene_l();
        let small = net.transfer(LinkClass::BglFunctional, 1_000);
        let big = net.transfer(LinkClass::BglFunctional, 10_000_000);
        assert!(big > small * 10);
    }

    #[test]
    fn local_link_is_cheapest() {
        let net = Interconnect::atlas();
        for class in [
            LinkClass::InfinibandDdr,
            LinkClass::Ethernet1G,
            LinkClass::BglFunctional,
        ] {
            assert!(net.transfer(LinkClass::Local, 4096) <= net.transfer(class, 4096));
        }
    }
}
