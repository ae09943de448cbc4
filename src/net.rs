//! Network serving: the facade over the `bnet` subsystem.
//!
//! [`Station::serve_network`] is [`Station::serve_concurrent`] with the
//! broadcast additionally on the wire: the slot-clocked serving thread
//! publishes every served slot once per channel as a UDP datagram to every
//! joined peer, exactly the paper's broadcast medium — clients passively
//! listen, and what the network loses is an erasure the dispersal absorbs.
//! The returned [`NetServing`] bundles the full concurrent-runtime handle
//! (in-process subscriptions, swaps and stats keep working while the
//! station broadcasts on the wire) with the network side's addresses and
//! counters.
//!
//! The control plane's directory is derived from the serving bank
//! ([`bnet::directory_of`]) by the fan-out itself, which the serving loop
//! notifies of every swap it lands — a swap cannot reach the air without
//! reaching `Subscribe` answers, whichever handle requested it.

use crate::runtime::RuntimeHandle;
use crate::{Error, Station};
use bnet::{Directory, NetConfig, NetHandle, NetServer, NetStats};
use brt::RuntimeConfig;
use std::net::SocketAddr;

impl Station {
    /// Puts the station on the air *and* on the wire: spawns the serving
    /// thread with a UDP fan-out sink bound per the default [`NetConfig`]
    /// (an ephemeral loopback port, no TCP control plane).
    ///
    /// Clients join with [`bnet::NetClient::join`] against
    /// [`NetServing::data_addr`].
    pub fn serve_network(self, clock: impl Into<brt::SlotClock>) -> Result<NetServing, Error> {
        self.serve_network_with(clock, RuntimeConfig::default(), NetConfig::default())
    }

    /// [`Station::serve_network`] with explicit runtime and network
    /// tunables (bind addresses, MTU, the optional TCP control plane).
    ///
    /// Refuses, with [`Error::Net`], a station whose largest block does
    /// not cross the wire at the configured MTU (see [`bnet::check_mtu`]).
    pub fn serve_network_with(
        self,
        clock: impl Into<brt::SlotClock>,
        runtime_config: RuntimeConfig,
        net_config: NetConfig,
    ) -> Result<NetServing, Error> {
        // One telemetry shared by the runtime and the network side, so a
        // metrics scrape over the control plane sees `brt_*` and `bnet_*`
        // in a single registry.  The directory starts empty: spawning the
        // runtime hands the fan-out the bank before any slot is served.
        bnet::check_mtu(self.bank(), net_config.mtu).map_err(|e| Error::Net(e.to_string()))?;
        let telemetry = bobs::Telemetry::new();
        let (fanout, net) = NetServer::bind(net_config, telemetry.clone())
            .map_err(|e| Error::Net(e.to_string()))?;
        let runtime = brt::Runtime::spawn_with_telemetry(
            self,
            clock,
            runtime_config,
            vec![Box::new(fanout)],
            telemetry,
        );
        Ok(NetServing {
            runtime: RuntimeHandle::from_inner(runtime),
            net,
        })
    }

    /// The control-plane directory of this station: file id → channel,
    /// epoch and dispersal parameters, as served right now.
    pub fn network_directory(&self) -> Directory {
        bnet::directory_of(self.bank())
    }
}

/// A station serving concurrently *and* broadcasting over UDP.
///
/// Dereference-style access: [`NetServing::runtime`] exposes the full
/// [`RuntimeHandle`] API (subscribe, swaps, stats), while the network side
/// is managed here.  [`NetServing::shutdown`] stops both and returns the
/// station.
pub struct NetServing {
    runtime: RuntimeHandle,
    net: NetHandle,
}

impl NetServing {
    /// The UDP address clients send `Join` to and receive slots from.
    pub fn data_addr(&self) -> SocketAddr {
        self.net.data_addr()
    }

    /// The TCP control-plane address, when one was configured.
    pub fn control_addr(&self) -> Option<SocketAddr> {
        self.net.control_addr()
    }

    /// A snapshot of the network counters (frames, datagrams, bytes,
    /// joins, send errors).
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// The concurrent-runtime handle: in-process subscriptions, mode
    /// swaps, fleet statistics — everything keeps working while the
    /// station broadcasts on the wire.
    pub fn runtime(&self) -> &RuntimeHandle {
        &self.runtime
    }

    /// [`RuntimeHandle::swap_at`] on the bundled runtime: schedules a
    /// prepared mode swap at `at_slot` and blocks until it lands — by which
    /// time the control plane already answers from the new mode.
    pub fn swap_at(
        &self,
        prepared: crate::PreparedMode,
        at_slot: usize,
        policy: bmode::SwapPolicy,
    ) -> Result<crate::SwapReport, Error> {
        self.runtime.swap_at(prepared, at_slot, policy)
    }

    /// The telemetry shared by the runtime and the network side — the
    /// registry a [`bnet::ControlClient::metrics`] scrape renders.
    pub fn telemetry(&self) -> &bobs::Telemetry {
        self.net.telemetry()
    }

    /// Stops the serving loop and the network threads; returns the
    /// station.
    pub fn shutdown(self) -> Result<Station, Error> {
        let NetServing { runtime, net } = self;
        let station = runtime.shutdown()?;
        net.shutdown();
        Ok(station)
    }
}
