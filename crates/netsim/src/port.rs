//! Ports and the fabric: the NNTI-like messaging surface of the simulator.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use machine::InterconnectParams;

use crate::nic::Nic;
use crate::sched::{GetScheduler, SchedulingPolicy};

/// Host memcpy bandwidth used when staging payloads into registered send
/// buffers (bytes/sec). The copy is part of the paper's large-message
/// protocol ("the sender process first copies the message into a send
/// buffer acquired from the buffer pool").
const HOST_COPY_BW: f64 = 8.0e9;

/// Whether a transfer registers buffers dynamically per message or uses
/// the NIC's registration/buffer cache — the two curves of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Registration {
    /// Allocate + register fresh buffers for every transfer.
    Dynamic,
    /// Reuse registered buffers from the NIC cache (paper's optimization).
    Cached,
}

/// Where a port lives, as shared with peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortAddress {
    /// Compute-node index within the fabric.
    pub node: usize,
    /// Fabric-unique port id.
    pub port: u64,
}

/// Modelled cost of a completed send (sender-visible portion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendReceipt {
    /// Modelled nanoseconds the sender spent (registration + staging copy
    /// + control/eager message injection).
    pub sender_ns: f64,
    /// True if the payload took the rendezvous (Get) path.
    pub rendezvous: bool,
}

enum NetMessage {
    Eager {
        payload: Vec<u8>,
        /// One-way modelled delivery time, ns.
        wire_ns: f64,
    },
    Rts {
        token: u64,
        len: u64,
        src_node: usize,
        sender_class: usize,
        registration: Registration,
    },
}

struct FabricShared {
    params: InterconnectParams,
    nics: Vec<Arc<Nic>>,
    ports: Mutex<HashMap<u64, Sender<NetMessage>>>,
    slab: Mutex<HashMap<u64, Vec<u8>>>,
    next_port: AtomicU64,
    next_token: AtomicU64,
}

/// The simulated interconnect fabric connecting `nodes` compute nodes.
#[derive(Clone)]
pub struct NetSim {
    shared: Arc<FabricShared>,
}

impl NetSim {
    /// Build a fabric of `nodes` nodes with the given parameters and a
    /// 64 MiB registration-cache threshold per NIC.
    pub fn new(params: InterconnectParams, nodes: usize) -> NetSim {
        Self::with_cache_threshold(params, nodes, 64 << 20)
    }

    /// Build a fabric with an explicit registration-cache threshold.
    pub fn with_cache_threshold(
        params: InterconnectParams,
        nodes: usize,
        cache_threshold: u64,
    ) -> NetSim {
        let nics = (0..nodes).map(|_| Arc::new(Nic::new(params, cache_threshold))).collect();
        NetSim {
            shared: Arc::new(FabricShared {
                params,
                nics,
                ports: Mutex::new(HashMap::new()),
                slab: Mutex::new(HashMap::new()),
                next_port: AtomicU64::new(0),
                next_token: AtomicU64::new(0),
            }),
        }
    }

    /// Open a communication port on compute node `node`. The returned
    /// [`Port`] uses an unthrottled Get scheduler; see
    /// [`NetSim::open_port_with_policy`].
    pub fn open_port(&self, node: usize) -> Port {
        self.open_port_with_policy(node, SchedulingPolicy::Unthrottled)
    }

    /// Open a port whose Gets are paced by `policy`.
    pub fn open_port_with_policy(&self, node: usize, policy: SchedulingPolicy) -> Port {
        self.open_port_with_scheduler(node, GetScheduler::new(policy))
    }

    /// Open a port sharing an existing [`GetScheduler`] — how several
    /// staging processes on one node pace their Gets jointly (the paper's
    /// server-directed scheduling, §II.E).
    pub fn open_port_with_scheduler(&self, node: usize, scheduler: GetScheduler) -> Port {
        assert!(node < self.shared.nics.len(), "node {node} out of range");
        let id = self.shared.next_port.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel();
        self.shared.ports.lock().unwrap().insert(id, tx);
        Port {
            shared: Arc::clone(&self.shared),
            address: PortAddress { node, port: id },
            inbox: rx,
            scheduler,
        }
    }

    /// The NIC of compute node `node` (for stats/clock inspection).
    pub fn nic(&self, node: usize) -> &Arc<Nic> {
        &self.shared.nics[node]
    }

    /// Interconnect parameters of this fabric.
    pub fn params(&self) -> &InterconnectParams {
        &self.shared.params
    }
}

/// One endpoint on the fabric.
pub struct Port {
    shared: Arc<FabricShared>,
    address: PortAddress,
    inbox: Receiver<NetMessage>,
    scheduler: GetScheduler,
}

impl Port {
    /// This port's fabric address, to be shared with peers (the paper's
    /// directory server carries these).
    pub fn address(&self) -> PortAddress {
        self.address
    }

    /// Send `payload` to `dst`. Small payloads (≤ eager threshold) travel
    /// the mailbox path; larger ones stage into a registered send buffer
    /// and post a control message for the receiver's Get.
    pub fn send(
        &mut self,
        dst: &PortAddress,
        payload: &[u8],
        registration: Registration,
    ) -> SendReceipt {
        let params = &self.shared.params;
        let nic = &self.shared.nics[self.address.node];
        let dst_tx = {
            let ports = self.shared.ports.lock().unwrap();
            ports.get(&dst.port).cloned()
        };
        let Some(dst_tx) = dst_tx else {
            // Peer departed; like the paper's timeout-and-retry this is
            // surfaced to the middleware, but at this layer we just drop.
            return SendReceipt { sender_ns: 0.0, rendezvous: false };
        };

        if (payload.len() as u64) <= params.eager_threshold {
            // Eager path: RDMA Put into the receiver's message queue.
            let wire_ns = params.transfer_ns(payload.len() as u64);
            let inject_ns = params.per_message_ns;
            nic.charge_ns(inject_ns);
            nic.note_eager();
            let _ = dst_tx.send(NetMessage::Eager { payload: payload.to_vec(), wire_ns });
            return SendReceipt { sender_ns: inject_ns, rendezvous: false };
        }

        // Rendezvous path: acquire + register send buffer, stage payload,
        // post RTS control message.
        let use_cache = registration == Registration::Cached;
        let (class, reg_ns) = nic.acquire_registered(payload.len() as u64, use_cache);
        let copy_ns = payload.len() as f64 / HOST_COPY_BW * 1e9;
        let control_ns = params.transfer_ns(32); // small control message
        let sender_ns = reg_ns + copy_ns + params.per_message_ns;
        nic.charge_ns(sender_ns);

        let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        self.shared.slab.lock().unwrap().insert(token, payload.to_vec());
        // Offered load for the deterministic contention model.
        self.shared.nics[dst.node].stage_inbound();
        nic.stage_outbound();
        let _ = dst_tx.send(NetMessage::Rts {
            token,
            len: payload.len() as u64,
            src_node: self.address.node,
            sender_class: class,
            registration,
        });
        let _ = control_ns; // receiver accounts the control-message latency
        SendReceipt { sender_ns, rendezvous: true }
    }

    /// Blocking receive. Returns the payload and the modelled nanoseconds
    /// the receive took (wire time for eager; registration + scheduled Get
    /// for rendezvous).
    pub fn recv(&mut self) -> (Vec<u8>, f64) {
        let msg = self.inbox.recv().expect("fabric torn down while receiving");
        self.complete(msg)
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<(Vec<u8>, f64)> {
        let msg = self.inbox.try_recv().ok()?;
        Some(self.complete(msg))
    }

    fn complete(&mut self, msg: NetMessage) -> (Vec<u8>, f64) {
        let params = &self.shared.params;
        match msg {
            NetMessage::Eager { payload, wire_ns } => {
                self.shared.nics[self.address.node].charge_ns(wire_ns);
                (payload, wire_ns)
            }
            NetMessage::Rts { token, len, src_node, sender_class, registration } => {
                let use_cache = registration == Registration::Cached;
                let my_nic = &self.shared.nics[self.address.node];
                let src_nic = &self.shared.nics[src_node];
                // Control message delivery latency.
                let mut total_ns = params.transfer_ns(32);
                // Prepare a registered receive buffer.
                let (recv_class, reg_ns) = my_nic.acquire_registered(len, use_cache);
                total_ns += reg_ns;
                // Issue the Get when the scheduler grants a slot. The
                // contention the transfer sees is the *offered load* at
                // both NICs (transfers staged but not yet fetched), capped
                // by the scheduler's admission window — the lever §II.E's
                // server-directed scheduling pulls.
                let _slot = self.scheduler.acquire();
                my_nic.note_get();
                let window = self.scheduler.limit();
                let flows_here = {
                    let pending = my_nic.pending_inbound().max(1);
                    window.map_or(pending, |w| pending.min(w))
                };
                let flows_there = src_nic.pending_outbound().max(1);
                let bw = my_nic.contended_bw(flows_here).min(src_nic.contended_bw(flows_there));
                let get_ns = params.latency_ns + params.per_message_ns + len as f64 / bw * 1e9;
                total_ns += get_ns;
                my_nic.charge_ns(reg_ns + get_ns);
                // Fetch the bytes (the Get itself).
                let payload = self
                    .shared
                    .slab
                    .lock()
                    .unwrap()
                    .remove(&token)
                    .expect("RTS token must have a staged payload");
                // Both sides' buffers go back to their caches (or are
                // unregistered on the dynamic path).
                my_nic.complete_inbound();
                src_nic.complete_outbound();
                my_nic.release_registered(recv_class, use_cache);
                src_nic.release_registered(sender_class, use_cache);
                (payload, total_ns)
            }
        }
    }

    /// Get-scheduler handle (exposed so tests can inspect concurrency).
    pub fn scheduler(&self) -> &GetScheduler {
        &self.scheduler
    }
}

impl Drop for Port {
    fn drop(&mut self) {
        // A poisoned fabric is left as it is: a drop must not panic while
        // the panic that poisoned it unwinds.
        if let Ok(mut ports) = self.shared.ports.lock() {
            ports.remove(&self.address.port);
        }
        // Reclaim any transfers that were staged toward this port but
        // never fetched, so the slab does not retain their payloads and
        // the contention model does not overcount offered load forever.
        while let Ok(msg) = self.inbox.try_recv() {
            if let NetMessage::Rts { token, src_node, .. } = msg {
                if let Ok(mut slab) = self.shared.slab.lock() {
                    slab.remove(&token);
                }
                self.shared.nics[self.address.node].complete_inbound();
                self.shared.nics[src_node].complete_outbound();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> NetSim {
        NetSim::new(InterconnectParams::gemini(), 4)
    }

    #[test]
    fn eager_roundtrip() {
        let net = fabric();
        let mut a = net.open_port(0);
        let mut b = net.open_port(1);
        let receipt = a.send(&b.address(), b"tiny", Registration::Cached);
        assert!(!receipt.rendezvous);
        let (payload, ns) = b.recv();
        assert_eq!(payload, b"tiny");
        assert!(ns > 0.0);
    }

    #[test]
    fn rendezvous_roundtrip() {
        let net = fabric();
        let mut a = net.open_port(0);
        let mut b = net.open_port(1);
        let big = vec![42u8; 1 << 20];
        let receipt = a.send(&b.address(), &big, Registration::Cached);
        assert!(receipt.rendezvous);
        let (payload, ns) = b.recv();
        assert_eq!(payload, big);
        // 1 MiB at ~5.2 GB/s is ~200 µs; sanity-check the model's range.
        assert!(ns > 100_000.0 && ns < 10_000_000.0, "ns={ns}");
    }

    #[test]
    fn cached_registration_is_cheaper_after_warmup() {
        let net = fabric();
        let mut a = net.open_port(0);
        let mut b = net.open_port(1);
        let big = vec![1u8; 1 << 20];
        let first = a.send(&b.address(), &big, Registration::Cached);
        b.recv();
        let second = a.send(&b.address(), &big, Registration::Cached);
        b.recv();
        assert!(
            second.sender_ns < first.sender_ns,
            "warm send {} should be cheaper than cold {}",
            second.sender_ns,
            first.sender_ns
        );
    }

    #[test]
    fn dynamic_registration_never_warms_up() {
        let net = fabric();
        let mut a = net.open_port(0);
        let mut b = net.open_port(1);
        let big = vec![1u8; 1 << 20];
        let first = a.send(&b.address(), &big, Registration::Dynamic);
        b.recv();
        let second = a.send(&b.address(), &big, Registration::Dynamic);
        b.recv();
        assert!((second.sender_ns - first.sender_ns).abs() < 1.0);
        assert_eq!(net.nic(0).stats().cache_hits, 0);
    }

    #[test]
    fn modelled_bandwidth_matches_analytic_curve() {
        // The executable protocol should land near the closed-form Fig. 4
        // model for the cached path (within per-message overheads).
        let net = fabric();
        let mut a = net.open_port(0);
        let mut b = net.open_port(1);
        let len = 4 << 20;
        let big = vec![7u8; len];
        // Warm the caches.
        a.send(&b.address(), &big, Registration::Cached);
        b.recv();
        a.send(&b.address(), &big, Registration::Cached);
        let (_, recv_ns) = b.recv();
        let measured_bw = len as f64 / recv_ns * 1e9;
        let analytic_bw = net.params().static_reg_bandwidth(len as u64);
        let ratio = measured_bw / analytic_bw;
        assert!((0.7..=1.3).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn many_messages_in_order() {
        let net = fabric();
        let mut a = net.open_port(0);
        let mut b = net.open_port(2);
        for i in 0u64..200 {
            let size = if i % 5 == 0 { 100_000 } else { 64 };
            let mut payload = vec![0u8; size];
            payload[..8].copy_from_slice(&i.to_le_bytes());
            a.send(&b.address(), &payload, Registration::Cached);
        }
        for i in 0u64..200 {
            let (payload, _) = b.recv();
            assert_eq!(u64::from_le_bytes(payload[..8].try_into().unwrap()), i);
        }
    }

    #[test]
    fn send_to_departed_port_is_dropped() {
        let net = fabric();
        let mut a = net.open_port(0);
        let addr = {
            let b = net.open_port(1);
            b.address()
        }; // b dropped
        let receipt = a.send(&addr, b"ghost", Registration::Cached);
        assert_eq!(receipt.sender_ns, 0.0);
    }
}
