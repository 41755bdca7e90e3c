//! RPC cost metering.
//!
//! The Figure 7 comparison turns on how many RPCs each system needs per
//! application operation (client-managed systems fan a post out as many
//! RPCs; Pequod does it server-side). To compare in-process backends
//! honestly, every backend routes each logical RPC through this meter,
//! which encodes a representative wire frame with the real codec — so a
//! system that issues more or bigger RPCs pays proportionally more CPU,
//! as it would on a real network stack.

use bytes::BytesMut;
use pequod_net::codec::encode;
use pequod_net::Message;
use pequod_store::{Key, Value};

/// Default fixed cost per RPC, in nanoseconds. Calibrated to the low
/// end of a loopback TCP round trip's CPU cost (syscalls, TCP stack,
/// event-loop dispatch on both sides); override with
/// [`RpcMeter::set_cost`] or the figure binaries' `--rpc-cost-us` flag.
pub const DEFAULT_RPC_COST_NS: u64 = 10_000;

/// Default per-KiB payload cost in nanoseconds (copies and checksums).
pub const DEFAULT_RPC_COST_PER_KB_NS: u64 = 3_000;

/// Counts and costs logical RPCs.
pub struct RpcMeter {
    /// RPCs issued.
    pub rpcs: u64,
    /// Wire bytes that would have been sent.
    pub bytes: u64,
    cost_ns: u64,
    cost_per_kb_ns: u64,
    scratch: BytesMut,
}

impl Default for RpcMeter {
    fn default() -> Self {
        RpcMeter::new()
    }
}

impl RpcMeter {
    /// Creates a meter with the default per-RPC cost model.
    pub fn new() -> RpcMeter {
        RpcMeter {
            rpcs: 0,
            bytes: 0,
            cost_ns: DEFAULT_RPC_COST_NS,
            cost_per_kb_ns: DEFAULT_RPC_COST_PER_KB_NS,
            scratch: BytesMut::with_capacity(4096),
        }
    }

    /// Overrides the cost model. `cost_ns = 0` counts RPCs without
    /// burning CPU (pure software comparison).
    pub fn set_cost(&mut self, cost_ns: u64, cost_per_kb_ns: u64) {
        self.cost_ns = cost_ns;
        self.cost_per_kb_ns = cost_per_kb_ns;
    }

    /// Busy-waits for the deadline, modelling network-stack CPU.
    fn burn(&self, ns: u64) {
        if ns == 0 {
            return;
        }
        let start = std::time::Instant::now();
        let target = std::time::Duration::from_nanos(ns);
        while start.elapsed() < target {
            std::hint::spin_loop();
        }
    }

    /// Meters one request frame: encodes it with the real codec and
    /// charges the per-RPC and per-byte network-stack cost.
    pub fn rpc(&mut self, msg: &Message) {
        self.scratch.clear();
        encode(msg, &mut self.scratch);
        self.rpcs += 1;
        let frame = 4 + self.scratch.len() as u64;
        self.bytes += frame;
        self.burn(self.cost_ns + frame * self.cost_per_kb_ns / 1024);
    }

    /// Meters a write request (`Put`) without building a `Message`
    /// by hand at every call site.
    pub fn put(&mut self, key: &Key, value: &Value) {
        let msg = Message::Put {
            id: 0,
            key: key.clone(),
            value: value.clone(),
        };
        self.rpc(&msg);
    }

    /// Meters a scan request plus its reply payload.
    pub fn scan_with_reply(&mut self, first: &Key, pairs: &[(Key, Value)]) {
        let req = Message::Scan {
            id: 0,
            range: pequod_store::KeyRange::prefix(first.clone()),
        };
        self.rpc(&req);
        let reply = Message::Reply {
            id: 0,
            pairs: pairs.to_vec(),
            error: None,
        };
        self.rpc(&reply);
    }

    /// Meters a point get and its reply.
    pub fn get_with_reply(&mut self, key: &Key, value: Option<&Value>) {
        self.rpc(&Message::Get {
            id: 0,
            key: key.clone(),
        });
        let reply = Message::Reply {
            id: 0,
            pairs: value
                .map(|v| vec![(key.clone(), v.clone())])
                .unwrap_or_default(),
            error: None,
        };
        self.rpc(&reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_counts_and_sizes() {
        let mut m = RpcMeter::new();
        m.put(&Key::from("p|bob|1"), &Value::from_static(b"Hi"));
        assert_eq!(m.rpcs, 1);
        let b1 = m.bytes;
        assert!(b1 > 10);
        m.get_with_reply(&Key::from("k"), Some(&Value::from_static(b"v")));
        assert_eq!(m.rpcs, 3);
        assert!(m.bytes > b1);
    }

    #[test]
    fn bigger_payloads_cost_more() {
        let mut a = RpcMeter::new();
        let mut b = RpcMeter::new();
        a.put(&Key::from("k"), &Value::from_static(b"x"));
        b.put(&Key::from("k"), &Value::from(vec![b'x'; 1000]));
        assert!(b.bytes > a.bytes + 900);
    }
}
