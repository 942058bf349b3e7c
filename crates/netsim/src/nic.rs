//! Per-node NIC model: registration cache, contention, virtual clock.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use machine::InterconnectParams;

/// Counters exposed for performance monitoring and for the Fig. 4 harness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NicStats {
    /// Registrations performed (cache misses on the cached path; every
    /// transfer on the dynamic path).
    pub registrations: u64,
    /// Registered-buffer reuses (cache hits).
    pub cache_hits: u64,
    /// Buffers torn down by threshold-triggered reclamation.
    pub reclaimed: u64,
    /// Messages sent via the eager mailbox path.
    pub eager_sends: u64,
    /// Large messages moved via rendezvous Get.
    pub rendezvous_gets: u64,
}

/// The registration/buffer cache of §II.E: "allocated and registered send
/// and receive buffers are temporarily kept in a buffer pool; later data
/// transfers try to reuse those buffers whenever possible. A configurable
/// threshold value controls total memory usage and triggers buffer
/// reclamation."
///
/// We track capacity per power-of-two size class; the buffers themselves
/// live in the transfer slab, so the cache records *registered capacity*.
#[derive(Debug)]
pub struct RegistrationCache {
    /// Free registered capacity per size class (log2 → count).
    free: Mutex<Vec<u32>>,
    /// Registered-capacity threshold (bytes) that triggers reclamation.
    threshold: u64,
    free_bytes: AtomicU64,
}

impl RegistrationCache {
    fn new(threshold: u64) -> Self {
        RegistrationCache {
            free: Mutex::new(vec![0; 64]),
            threshold,
            free_bytes: AtomicU64::new(0),
        }
    }

    fn class_for(len: u64) -> usize {
        len.max(1).next_power_of_two().trailing_zeros() as usize
    }

    /// Try to reuse a registered buffer of at least `len` bytes. Returns
    /// the class on hit.
    fn try_reuse(&self, len: u64) -> Option<usize> {
        let want = Self::class_for(len);
        let mut free = self.free.lock().unwrap();
        let hit = (want..free.len()).find(|&c| free[c] > 0)?;
        free[hit] -= 1;
        self.free_bytes.fetch_sub(1 << hit, Ordering::Relaxed);
        Some(hit)
    }

    /// Return a registered buffer of size-class `class` to the cache;
    /// reports how many buffers reclamation tore down (if the threshold
    /// was exceeded).
    fn give_back(&self, class: usize) -> u64 {
        let mut free = self.free.lock().unwrap();
        free[class] += 1;
        let bytes = self.free_bytes.fetch_add(1 << class, Ordering::Relaxed) + (1 << class);
        if bytes <= self.threshold {
            return 0;
        }
        // Reclaim largest classes first until at half the threshold.
        let target = self.threshold / 2;
        let mut current = bytes;
        let mut reclaimed = 0;
        for c in (0..free.len()).rev() {
            while free[c] > 0 && current > target {
                free[c] -= 1;
                current -= 1 << c;
                self.free_bytes.fetch_sub(1 << c, Ordering::Relaxed);
                reclaimed += 1;
            }
        }
        reclaimed
    }
}

/// One node's network interface.
#[derive(Debug)]
pub struct Nic {
    params: InterconnectParams,
    /// Modelled time accumulated by operations through this NIC, ns.
    clock_ns: AtomicU64,
    /// Bulk transfers staged toward this NIC but not yet fetched
    /// (deterministic offered-load measure for the contention model).
    pending_in: AtomicUsize,
    /// Bulk transfers staged from this NIC but not yet fetched.
    pending_out: AtomicUsize,
    cache: RegistrationCache,
    registrations: AtomicU64,
    cache_hits: AtomicU64,
    reclaimed: AtomicU64,
    eager_sends: AtomicU64,
    rendezvous_gets: AtomicU64,
}

impl Nic {
    /// Create a NIC with the given interconnect parameters and a
    /// registration-cache threshold in bytes.
    pub fn new(params: InterconnectParams, cache_threshold: u64) -> Nic {
        Nic {
            params,
            clock_ns: AtomicU64::new(0),
            pending_in: AtomicUsize::new(0),
            pending_out: AtomicUsize::new(0),
            cache: RegistrationCache::new(cache_threshold),
            registrations: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            eager_sends: AtomicU64::new(0),
            rendezvous_gets: AtomicU64::new(0),
        }
    }

    /// Interconnect parameters this NIC models.
    pub fn params(&self) -> &InterconnectParams {
        &self.params
    }

    /// Acquire a registered buffer for `len` bytes, paying registration
    /// cost only on cache miss (the "static"/cached path) or always (the
    /// "dynamic" path). Returns `(size_class, cost_ns)`.
    pub fn acquire_registered(&self, len: u64, use_cache: bool) -> (usize, f64) {
        if use_cache {
            if let Some(class) = self.cache.try_reuse(len) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return (class, 0.0);
            }
        }
        self.registrations.fetch_add(1, Ordering::Relaxed);
        let class = RegistrationCache::class_for(len);
        let cost = self.params.registration.dynamic_cost_ns(len);
        (class, cost)
    }

    /// Release a registered buffer. On the cached path it returns to the
    /// pool (possibly triggering reclamation); on the dynamic path it is
    /// unregistered immediately (cost already accounted in Fig. 4's model
    /// as part of the register/unregister pair).
    pub fn release_registered(&self, class: usize, use_cache: bool) {
        if use_cache {
            let reclaimed = self.cache.give_back(class);
            self.reclaimed.fetch_add(reclaimed, Ordering::Relaxed);
        }
    }

    /// Charge `ns` of modelled time to this NIC's clock.
    pub fn charge_ns(&self, ns: f64) {
        self.clock_ns.fetch_add(ns.max(0.0) as u64, Ordering::Relaxed);
    }

    /// Modelled nanoseconds accumulated so far.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns.load(Ordering::Relaxed)
    }

    /// A bulk transfer was staged toward this NIC.
    pub fn stage_inbound(&self) {
        self.pending_in.fetch_add(1, Ordering::Relaxed);
    }

    /// A staged inbound transfer completed.
    pub fn complete_inbound(&self) {
        self.pending_in.fetch_sub(1, Ordering::Relaxed);
    }

    /// Inbound transfers currently staged (including any being fetched).
    pub fn pending_inbound(&self) -> usize {
        self.pending_in.load(Ordering::Relaxed)
    }

    /// A bulk transfer was staged from this NIC.
    pub fn stage_outbound(&self) {
        self.pending_out.fetch_add(1, Ordering::Relaxed);
    }

    /// A staged outbound transfer completed.
    pub fn complete_outbound(&self) {
        self.pending_out.fetch_sub(1, Ordering::Relaxed);
    }

    /// Outbound transfers currently staged.
    pub fn pending_outbound(&self) -> usize {
        self.pending_out.load(Ordering::Relaxed)
    }

    /// Effective bandwidth when `flows` bulk transfers share the NIC:
    /// `link_bw / (1 + contention_factor * (flows - 1))`.
    pub fn contended_bw(&self, flows: usize) -> f64 {
        let extra = flows.saturating_sub(1) as f64;
        self.params.link_bw / (1.0 + self.params.contention_factor * extra)
    }

    /// Record an eager-path send (stats only).
    pub fn note_eager(&self) {
        self.eager_sends.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a rendezvous Get (stats only).
    pub fn note_get(&self) {
        self.rendezvous_gets.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot counters.
    pub fn stats(&self) -> NicStats {
        NicStats {
            registrations: self.registrations.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            reclaimed: self.reclaimed.load(Ordering::Relaxed),
            eager_sends: self.eager_sends.load(Ordering::Relaxed),
            rendezvous_gets: self.rendezvous_gets.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nic() -> Nic {
        Nic::new(InterconnectParams::gemini(), 1 << 30)
    }

    #[test]
    fn first_acquire_registers_second_reuses() {
        let n = nic();
        let (class, cost) = n.acquire_registered(1 << 20, true);
        assert!(cost > 0.0);
        n.release_registered(class, true);
        let (_, cost2) = n.acquire_registered(1 << 20, true);
        assert_eq!(cost2, 0.0, "cache hit must be free");
        let stats = n.stats();
        assert_eq!(stats.registrations, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn dynamic_path_always_pays() {
        let n = nic();
        for _ in 0..5 {
            let (class, cost) = n.acquire_registered(4096, false);
            assert!(cost > 0.0);
            n.release_registered(class, false);
        }
        assert_eq!(n.stats().registrations, 5);
        assert_eq!(n.stats().cache_hits, 0);
    }

    #[test]
    fn contention_degrades_bandwidth() {
        let n = nic();
        assert_eq!(n.contended_bw(1), n.params().link_bw);
        assert!(n.contended_bw(4) < n.contended_bw(2));
    }

    #[test]
    fn reclamation_triggers_past_threshold() {
        let n = Nic::new(InterconnectParams::gemini(), 1 << 20); // 1 MiB cap
        let mut classes = Vec::new();
        for _ in 0..4 {
            let (class, _) = n.acquire_registered(1 << 19, true); // 512 KiB each
            classes.push(class);
        }
        for class in classes {
            n.release_registered(class, true);
        }
        assert!(n.stats().reclaimed > 0);
    }

    #[test]
    fn clock_accumulates() {
        let n = nic();
        n.charge_ns(100.0);
        n.charge_ns(250.5);
        assert_eq!(n.clock_ns(), 350);
    }
}
